import math

import numpy as np
import pytest

from tgrbf import offline


def test_deploy_input_duplicates_previous_output():
    x = offline.deploy_input(0.3, -1.2)
    assert np.array_equal(x, np.array([0.3, -1.2, -1.2]))


def test_excitation_pwc_holds_levels():
    rng = np.random.Generator(np.random.PCG64(0))
    u = offline.excitation_signal(200, rng)
    assert u.shape == (200,)
    for start in range(0, 200, 50):
        assert np.all(u[start:start + 50] == u[start])
    assert np.all((u >= -2.0) & (u <= 2.0))


def test_generate_dataset_shape_and_split():
    data = offline.generate_dataset(100, seed=0)
    assert data.samples.shape == (100, 4)
    assert len(data.train()) == 80
    assert len(data.holdout()) == 20
    # teacher slot carries the current true output, which is the next
    # row's previous output
    assert np.array_equal(data.samples[:, 2], data.samples[:, 3])
    assert np.array_equal(data.samples[1:, 1], data.samples[:-1, 3])


def test_generate_dataset_deterministic():
    a = offline.generate_dataset(50, seed=7)
    b = offline.generate_dataset(50, seed=7)
    assert a.samples.tobytes() == b.samples.tobytes()


def test_generate_dataset_validation():
    with pytest.raises(ValueError):
        offline.generate_dataset(0, seed=0)


def test_fit_metrics_hand_values():
    rep = offline.fit_metrics([0.0, 1.0], [0.0, 2.0])
    assert rep.mse == pytest.approx(0.5)
    assert rep.mae == pytest.approx(0.5)
    assert rep.r2 == pytest.approx(0.5)
    assert rep.rmse == pytest.approx(math.sqrt(0.5))


def test_fit_metrics_mean_predictor_r2_zero():
    actual = [1.0, 2.0, 3.0]
    rep = offline.fit_metrics([2.0, 2.0, 2.0], actual)
    assert rep.r2 == pytest.approx(0.0)


def test_fit_metrics_perfect():
    rep = offline.fit_metrics([1.0, -1.0], [1.0, -1.0])
    assert rep.mse == 0.0
    assert rep.r2 == 1.0


def test_fit_metrics_validation():
    with pytest.raises(ValueError):
        offline.fit_metrics([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        offline.fit_metrics([], [])


def test_dataset_csv_round_trip(tmp_path):
    data = offline.generate_dataset(40, seed=3)
    path = tmp_path / "dataset.csv"
    offline.dataset_to_csv(data, path)
    back = offline.dataset_from_csv(path)
    assert back.samples.shape == data.samples.shape == (40, 4)
    assert back.split == data.split
    # %.17g round-trips every float: equal arrays, bit for bit
    assert back.samples.tobytes() == data.samples.tobytes()


@pytest.mark.parametrize("n", [0, 1, 4, 5, 1000])
def test_dataset_split_is_derived_from_the_row_count(tmp_path, n):
    """The split holds out the last round(0.2 n) rows, and a CSV round
    trip keeps it."""
    data = offline.Dataset(samples=np.arange(4.0 * n).reshape(n, 4))
    assert data.split == n - int(round(0.2 * n))
    assert len(data.train()) + len(data.holdout()) == n
    path = tmp_path / "dataset.csv"
    offline.dataset_to_csv(data, path)
    assert offline.dataset_from_csv(path).split == data.split


def test_train_offline_rejected_step_keeps_theta_and_drops_momentum(
        monkeypatch):
    """A rejected (non-finite) step leaves the parameters as they were, and
    the step after it starts with W_prev = W: no momentum."""
    calls = []
    real = offline.momentum_update

    def spy(W, W_prev, grad, eta, alpha):
        calls.append((W.copy(), W_prev.copy()))
        return None if len(calls) == 2 else real(W, W_prev, grad, eta, alpha)

    monkeypatch.setattr(offline, "momentum_update", spy)
    data = offline.generate_dataset(200, seed=0)
    net0 = offline.initialize_network(data, m=3, p=3, seed=0)
    offline.train_offline(net0, data, epochs=1, seed=0)
    assert len(calls) >= 3
    (W1, _), (W2, W2_prev), (W3, W3_prev) = calls[:3]
    # the first step moved theta, so the rejected step had momentum to drop
    assert np.array_equal(W2_prev, W1) and not np.array_equal(W2, W1)
    assert np.array_equal(W3, W2)
    assert np.array_equal(W3_prev, W3)


def test_dataset_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        offline.dataset_from_csv(path)


@pytest.mark.parametrize("rows", ["0,1,2,3,4\n1,1,2,3\n",
                                  "0,1,2,3\n1,1,2,3\n2,1,2,3\n3,1,2,3\n"],
                         ids=["one-short-row", "every-row-short"])
def test_dataset_csv_rejects_a_short_row(tmp_path, rows):
    path = tmp_path / "short.csv"
    path.write_text("k,u,y_prev,y_teacher,target\n" + rows)
    with pytest.raises(ValueError):
        offline.dataset_from_csv(path)


def test_initialize_network_dimensions_and_widths():
    data = offline.generate_dataset(200, seed=0)
    net = offline.initialize_network(data, m=5, p=4, seed=0)
    assert (net.m, net.p, net.n_in) == (5, 4, 3)
    assert np.all(net.widths >= offline.WIDTH_FLOOR)
    # centers live inside the observed input hypercube
    X = data.train()[:, :-1]
    assert np.all(net.centers >= X.min(axis=0) - 1e-12)
    assert np.all(net.centers <= X.max(axis=0) + 1e-12)


def test_train_offline_short_run_quality():
    data = offline.generate_dataset(400, seed=4)
    net0 = offline.initialize_network(data, m=4, p=4, seed=4)
    net, rep = offline.train_offline(net0, data, epochs=3, seed=4)
    # recorded loss curve is non-increasing by construction (rising epochs
    # are reverted and halt training)
    assert all(b <= a for a, b in zip(rep.loss_curve, rep.loss_curve[1:]))
    assert rep.mse < 0.02
    assert rep.r2 > 0.9
    assert math.isfinite(rep.deploy_mse)
    # training returns a copy; the initial network is untouched
    assert not np.array_equal(net.to_vector(), net0.to_vector())


def test_train_offline_empty_training_set():
    data = offline.Dataset(samples=np.empty((0, 4)))
    net0 = offline.initialize_network(offline.generate_dataset(50, seed=0),
                                      m=3, p=2, seed=0)
    with pytest.raises(ValueError):
        offline.train_offline(net0, data, epochs=200, seed=0)


def test_evaluate_teacher_and_deploy_shapes():
    data = offline.generate_dataset(60, seed=1)
    net = offline.initialize_network(data, m=3, p=3, seed=1)
    for fn in (offline.evaluate_teacher, offline.evaluate_deploy):
        pred, actual = fn(net, data.holdout())
        assert pred.shape == actual.shape == (len(data.holdout()),)
        assert np.all(np.isfinite(pred))
