import math
import re

import numpy as np
import pytest

from tgrbf import offline


def test_regressor_builds_teacher_and_deploy_rows_of_a_hand_made_series():
    """Row k is [u_k, y_k, y_{k+1}] under teacher forcing and [u_k, y_k,
    y_k] deployed (the teacher slot holds the previous output); the targets
    are y[1:] either way."""
    data = offline.Dataset(np.array([0.3, -1.2, 2.0]),
                           np.array([0.5, 0.25, -0.75, 1.5]))
    X, targets = data.regressor()
    assert np.array_equal(X, [[0.3, 0.5, 0.25], [-1.2, 0.25, -0.75],
                              [2.0, -0.75, 1.5]])
    assert np.array_equal(targets, [0.25, -0.75, 1.5])
    X, targets = data.regressor(deploy=True)
    assert np.array_equal(X, [[0.3, 0.5, 0.5], [-1.2, 0.25, 0.25],
                              [2.0, -0.75, -0.75]])
    assert np.array_equal(targets, [0.25, -0.75, 1.5])
    # the dataset.csv columns after k: the teacher rows, then the target
    assert np.array_equal(data.samples, [[0.3, 0.5, 0.25, 0.25],
                                         [-1.2, 0.25, -0.75, -0.75],
                                         [2.0, -0.75, 1.5, 1.5]])


def test_excitation_pwc_holds_levels():
    rng = np.random.Generator(np.random.PCG64(0))
    u = offline.excitation_signal(200, rng)
    assert u.shape == (200,)
    for start in range(0, 200, 50):
        assert np.all(u[start:start + 50] == u[start])
    assert np.all((u >= -2.0) & (u <= 2.0))


def test_generate_dataset_shape_and_split():
    data = offline.generate_dataset(100, seed=0)
    assert data.u.shape == (100,) and data.y.shape == (101,)
    assert data.samples.shape == (100, 4)
    train, hold = data.train(), data.holdout()
    assert (train.u.shape, train.y.shape) == ((80,), (81,))
    assert (hold.u.shape, hold.y.shape) == ((20,), (21,))
    # chronological sub-series: the holdout starts at the last training output
    assert np.array_equal(np.concatenate([train.u, hold.u]), data.u)
    assert np.array_equal(np.concatenate([train.y, hold.y[1:]]), data.y)
    assert np.array_equal(np.vstack([train.samples, hold.samples]),
                          data.samples)
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
    assert back.u.tobytes() == data.u.tobytes()
    assert back.y.tobytes() == data.y.tobytes()


def _write_rows(path, rows):
    lines = [",".join([str(k)] + [f"{v:.17g}" for v in row])
             for k, row in enumerate(rows)]
    path.write_text("\n".join(["k,u,y_prev,y_teacher,target", *lines]) + "\n")


@pytest.mark.parametrize("row, col", [(4, 2), (5, 1)],
                         ids=["y_teacher-differs-from-its-target",
                              "y_prev-differs-from-the-last-target"])
def test_dataset_csv_rejects_rows_that_are_not_one_series(tmp_path, row, col):
    rows = offline.generate_dataset(10, seed=0).samples
    path = tmp_path / "dataset.csv"
    _write_rows(path, rows)
    offline.dataset_from_csv(path)   # the rows as written load
    rows[row, col] += 0.5
    _write_rows(path, rows)
    with pytest.raises(ValueError):
        offline.dataset_from_csv(path)


@pytest.mark.parametrize("n", [0, 1, 4, 5, 1000])
def test_dataset_split_is_derived_from_the_row_count(tmp_path, n):
    """The split holds out the last round(0.2 n) rows, and a CSV round
    trip keeps it.  A file of no rows has no y_0 and does not load."""
    data = offline.Dataset(np.arange(float(n)), 0.5 * np.arange(n + 1.0))
    assert data.split == n - int(round(0.2 * n))
    assert len(data.train().u) == len(data.train().samples) == data.split
    assert len(data.train().u) + len(data.holdout().u) == n
    path = tmp_path / "dataset.csv"
    offline.dataset_to_csv(data, path)
    if n == 0:   # a header-only file; the message names it
        with pytest.raises(ValueError, match=re.escape(f"{path}: no dataset rows")):
            offline.dataset_from_csv(path)
    else:
        assert offline.dataset_from_csv(path).split == data.split


@pytest.mark.parametrize("n_u, n_y", [(5, 5), (5, 7), (0, 0)])
def test_dataset_rejects_lengths_that_are_not_one_series(n_u, n_y):
    """y holds one more output than u holds inputs; the message names both
    lengths."""
    with pytest.raises(ValueError, match=f"len\\(y\\) {n_y} != len\\(u\\) {n_u}"):
        offline.Dataset(np.zeros(n_u), np.zeros(n_y))


@pytest.mark.parametrize("k", ["7", "0", "x"], ids=["skips", "repeats", "not-a-number"])
def test_dataset_csv_rejects_a_k_column_that_does_not_count_rows(tmp_path, k):
    """Column k must read 0..n-1; the series columns alone would load."""
    rows = offline.generate_dataset(10, seed=0).samples
    path = tmp_path / "dataset.csv"
    _write_rows(path, rows)
    offline.dataset_from_csv(path)   # the rows as written load
    lines = path.read_text().splitlines()
    lines[2] = ",".join([k] + lines[2].split(",")[1:])   # row 1's k
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="'x'" if k == "x" else "column k"):
        offline.dataset_from_csv(path)


def test_train_offline_rejected_step_keeps_theta_and_drops_momentum(
        monkeypatch):
    """A rejected (non-finite) step leaves the parameters as they were, and
    the step after it starts with W_prev = W: no momentum."""
    calls = []
    real = offline.momentum_update

    def spy(W, W_prev, grad, eta, alpha):
        calls.append((W.copy(), W_prev.copy()))
        # a non-finite step size makes the real update reject the second step
        return real(W, W_prev, grad, math.nan if len(calls) == 2 else eta, alpha)

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
    for text in ("a,b,c\n1,2,3\n", ""):   # an empty file has no header
        path.write_text(text)
        with pytest.raises(ValueError, match="unexpected dataset header"):
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
    X = data.train().samples[:, :-1]
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
    data = offline.Dataset(np.empty(0), np.zeros(1))
    net0 = offline.initialize_network(offline.generate_dataset(50, seed=0),
                                      m=3, p=2, seed=0)
    with pytest.raises(ValueError):
        offline.train_offline(net0, data, epochs=200, seed=0)


def test_evaluate_teacher_and_deploy_shapes():
    data = offline.generate_dataset(60, seed=1)
    net = offline.initialize_network(data, m=3, p=3, seed=1)
    for fn in (offline.evaluate_teacher, offline.evaluate_deploy):
        pred, actual = fn(net, data.holdout())
        assert pred.shape == actual.shape == (len(data.holdout().u),)
        assert np.all(np.isfinite(pred))
