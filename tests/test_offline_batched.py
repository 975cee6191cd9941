"""Equivalence of the batched offline sequence passes with per-sample loops.

The reference functions below are the per-sample loops the offline module
used before its passes were batched: one single-sample `forward` (and
`jacobian_params`) per sample, the hidden state carried from one call's
`h_next` to the next.  The batched passes must agree with them to 1e-12
relative (the convention of tests/test_batched.py), and the hidden states
they feed to the batched forward must equal that h_next chain bit for bit.
"""

import math

import numpy as np
import pytest

from tgrbf import offline
from tgrbf.network import random_net
from tgrbf.offline import Dataset
from tgrbf.online import explicit_step_size

TOL = 1e-12
TRAIN_TOL = 1e-10   # per element, checkpoint of a short training run


# -- per-sample reference loops ------------------------------------------------

def _ref_chunk_pass(net, chunk, with_jacobian):
    h = net.h_init.copy()
    F = np.empty(len(chunk))
    J = np.empty((len(chunk), net.theta.size)) if with_jacobian else None
    for i, row in enumerate(chunk):
        y_hat, trace = net.forward(row[:-1], h_prev=h)
        F[i] = row[-1] - y_hat
        if with_jacobian:
            J[i] = -net.jacobian_params(trace)
        h = trace.h_next
    return F, J


def _ref_ridge_rows(net, chunks):
    rows = []
    for chunk in chunks:
        h = net.h_init.copy()
        for row in chunk:
            _, tr = net.forward(row[:-1], h_prev=h)
            rows.append(np.concatenate([
                tr.g * tr.phi, (1.0 - tr.g) * tr.h_next, [(1.0 - tr.g)]]))
            h = tr.h_next
    return np.stack(rows)


def _ref_solve_output_layers(net, chunks, ridge=1e-6):
    A = _ref_ridge_rows(net, chunks)
    b = np.asarray([row[-1] for chunk in chunks for row in chunk])
    AtA = A.T @ A
    AtA += ridge * (np.trace(AtA) / A.shape[1]) * np.eye(A.shape[1])
    sol = np.linalg.solve(AtA, A.T @ b)
    m, p = net.rbf_w.size, net.out_w.size
    net.rbf_w = sol[:m].copy()
    net.out_w = sol[m:m + p].copy()
    net.out_b = float(sol[-1])


def _ref_epoch_loss(net, chunks):
    total, count = 0.0, 0
    for chunk in chunks:
        F, _ = _ref_chunk_pass(net, chunk, with_jacobian=False)
        total += float(F @ F)
        count += len(chunk)
    return total / (2.0 * count)


def _ref_evaluate_teacher(net, samples):
    h = net.h_init.copy()
    pred = np.empty(len(samples))
    actual = np.empty(len(samples))
    for i, row in enumerate(samples):
        y_hat, trace = net.forward(row[:-1], h_prev=h)
        h = trace.h_next
        pred[i] = y_hat
        actual[i] = row[-1]
    return pred, actual


def _ref_evaluate_deploy(net, samples):
    net = net.copy()
    net.reset()
    pred = np.empty(len(samples))
    actual = np.empty(len(samples))
    for i, row in enumerate(samples):
        x = offline.deploy_input(float(row[0]), float(row[1]))
        y_hat, trace = net.forward(x)
        net.h = trace.h_next
        pred[i] = y_hat
        actual[i] = row[-1]
    return pred, actual


def _ref_train(net, data, epochs, chunk_len=32, momentum=0.2, seed=0,
               eta_max=10.0):
    """The training loop of train_offline on the reference passes; returns
    the trained network, the loss curve and the halt epoch."""
    net = net.copy()
    rng = np.random.Generator(np.random.PCG64(seed))
    train = data.train()
    chunks = [train[i:i + chunk_len] for i in range(0, len(train), chunk_len)]
    w_off, w_size = {n: (o, s) for n, o, s in net.layout()}["widths"]
    _ref_solve_output_layers(net, chunks)
    W = net.to_vector()
    W_prev = W.copy()
    loss_curve = [_ref_epoch_loss(net, chunks)]
    halted = None
    for epoch in range(epochs):
        W_epoch_start, W_prev_start = W.copy(), W_prev.copy()
        for ci in rng.permutation(len(chunks)):
            F, J = _ref_chunk_pass(net, chunks[ci], with_jacobian=True)
            grad = (J.T @ F) / len(chunks[ci])
            eta, degenerate = explicit_step_size(F, J)
            if degenerate:
                eta = min(eta_max, 1.0)
            eta = min(eta, eta_max)
            W_next = W - eta * grad + momentum * (W - W_prev)
            if not np.all(np.isfinite(W_next)):
                W_prev = W.copy()
                continue
            seg = W_next[w_off:w_off + w_size]
            np.clip(seg, offline.WIDTH_FLOOR, None, out=seg)
            W_prev, W = W, W_next
            net.theta = W
        loss = _ref_epoch_loss(net, chunks)
        if loss > loss_curve[-1]:
            net.theta = W_epoch_start
            halted = epoch
            break
        loss_curve.append(loss)
    return net, loss_curve, halted


# -- helpers ---------------------------------------------------------------------

def _rel(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    scale = max(1.0, float(np.max(np.abs(want)))) if want.size else 1.0
    return float(np.max(np.abs(got - want))) / scale if want.size else 0.0


def _samples(rng, n):
    """A chronological sequence of n random dataset rows [x, target]."""
    rows = np.empty((n, 4))
    for i in range(n):
        rows[i, :3], rows[i, 3] = rng.uniform(-1.5, 1.5, size=3), rng.normal()
    return rows


def _nets(seed, n_cases):
    """Random nets, gate frozen on every other one; h_init nonzero on some."""
    rng = np.random.Generator(np.random.PCG64(seed))
    for i in range(n_cases):
        m, p = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        net = random_net(3, m, p, rng, scale=float(rng.uniform(0.3, 1.0)))
        net.gate_frozen = bool(i % 2)
        if i % 3 == 0:
            net.h_init = rng.uniform(-0.5, 0.5, size=p)
            net.reset()
        yield net, rng


def _chunks(samples, chunk_len):
    return [samples[i:i + chunk_len] for i in range(0, len(samples), chunk_len)]


def _split(chunks):
    """Each chunk of rows as the (inputs, targets) pair train_offline uses."""
    return [(chunk[:, :-1], chunk[:, -1]) for chunk in chunks]


# sequence lengths: one sample, short of a chunk, whole chunks, a last chunk
# of one sample and a last chunk shorter than chunk_len
LENGTHS = (1, 5, 32, 64, 65, 70)


# -- the scanned hidden-state chain --------------------------------------------

def test_scanned_hidden_states_equal_the_h_next_chain_bit_for_bit():
    for net, rng in _nets(0, 40):
        X = _samples(rng, int(rng.integers(1, 60)))[:, :-1]
        H = offline._hidden_states(net, X)
        h = net.h_init.copy()
        for i, x in enumerate(X):
            assert H[i].tobytes() == h.tobytes()
            h = net.forward(x, h_prev=h)[1].h_next


# -- chunk passes, ridge rows and the epoch loss -------------------------------

@pytest.mark.parametrize("n", LENGTHS)
def test_chunk_residuals_and_jacobian_match_the_loop(n):
    for net, rng in _nets(n, 12):
        for chunk in _chunks(_samples(rng, n), 32):
            X, targets = chunk[:, :-1], chunk[:, -1]
            y_hat, trace = net.forward(X, h_prev=offline._hidden_states(net, X))
            F_ref, J_ref = _ref_chunk_pass(net, chunk, with_jacobian=True)
            assert _rel(targets - y_hat, F_ref) <= TOL
            assert _rel(-net.jacobian_params(trace), J_ref) <= TOL


@pytest.mark.parametrize("n", LENGTHS)
def test_ridge_rows_and_epoch_loss_match_the_loop(n):
    for net, rng in _nets(100 + n, 12):
        chunks = _chunks(_samples(rng, n), 32)
        split = _split(chunks)
        H = [offline._hidden_states(net, X) for X, _ in split]
        A = offline._ridge_rows(net, split, H)
        assert A.shape == (n, net.m + net.p + 1)
        assert _rel(A, _ref_ridge_rows(net, chunks)) <= TOL
        loss = offline._epoch_loss(net, split, H)
        assert loss == pytest.approx(_ref_epoch_loss(net, chunks), rel=TOL)


# -- holdout evaluation --------------------------------------------------------

@pytest.mark.parametrize("n", LENGTHS)
def test_teacher_and_deploy_predictions_match_the_loop(n):
    for net, rng in _nets(200 + n, 12):
        samples = _samples(rng, n)
        for fn, ref in ((offline.evaluate_teacher, _ref_evaluate_teacher),
                        (offline.evaluate_deploy, _ref_evaluate_deploy)):
            pred, actual = fn(net, samples)
            pred_ref, actual_ref = ref(net, samples)
            assert _rel(pred, pred_ref) <= TOL
            assert np.array_equal(actual, actual_ref)


def test_deploy_evaluation_leaves_the_network_state_alone():
    net, rng = next(_nets(300, 1))
    net.h = np.full(net.p, 0.25)
    offline.evaluate_deploy(net, _samples(rng, 10))
    assert np.array_equal(net.h, np.full(net.p, 0.25))


def test_empty_holdout_gives_two_empty_arrays():
    for net, _ in _nets(400, 4):
        for fn in (offline.evaluate_teacher, offline.evaluate_deploy):
            pred, actual = fn(net, np.empty((0, 4)))
            assert pred.shape == actual.shape == (0,)
            assert pred.dtype == actual.dtype == np.float64


# -- training end to end ---------------------------------------------------------

@pytest.mark.parametrize("n, chunk_len, m, p, gate_frozen, seed, epochs", [
    (120, 20, 2, 2, False, 5, 3),    # 3 epochs kept; last chunk 16 of 20
    (114, 9, 2, 2, False, 5, 3),     # 3 epochs kept; last chunk one sample
    (120, 16, 3, 3, False, 5, 3),    # epoch 0 kept, epoch 1 reverted
    (120, 16, 2, 2, True, 5, 3),     # gate frozen, 3 epochs kept
    (1000, 32, 6, 6, False, 4, 200),  # configs/identify.json
])
def test_short_training_run_matches_the_reference_checkpoint(
        n, chunk_len, m, p, gate_frozen, seed, epochs):
    data = offline.generate_dataset(n, seed=seed)
    net0 = offline.initialize_network(data, m=m, p=p, seed=seed)
    net0.gate_frozen = gate_frozen
    net, report = offline.train_offline(net0, data, epochs=epochs,
                                        chunk_len=chunk_len, seed=seed)
    ref, loss_curve, halted = _ref_train(net0, data, epochs=epochs,
                                         chunk_len=chunk_len, seed=seed)
    got, want = net.to_vector(), ref.to_vector()
    assert np.all(np.abs(got - want) <= TRAIN_TOL * np.abs(want))
    assert report.halted_epoch == halted
    assert len(report.loss_curve) == len(loss_curve)
    assert all(math.isclose(a, b, rel_tol=TOL)
               for a, b in zip(report.loss_curve, loss_curve))
    for fn, ref_fn, metric in ((offline.evaluate_teacher,
                                _ref_evaluate_teacher, report.mse),
                               (offline.evaluate_deploy,
                                _ref_evaluate_deploy, report.deploy_mse)):
        pred, actual = ref_fn(ref, data.holdout())
        assert metric == pytest.approx(float(np.mean((actual - pred) ** 2)),
                                       rel=TRAIN_TOL)


def test_epoch_zero_loss_from_the_shared_scan_is_a_fresh_scan_bit_for_bit():
    """The hidden states scanned before the ridge solve also give the epoch-0
    loss: the solve sets only output-side weights, which the scan does not
    read, so rescanning after it changes no bit."""
    for seed, (n, m, p) in enumerate(((120, 2, 2), (70, 3, 4), (200, 6, 6))):
        data = offline.generate_dataset(n, seed=seed)
        net0 = offline.initialize_network(data, m=m, p=p, seed=seed)
        net, report = offline.train_offline(net0, data, epochs=0,
                                            chunk_len=32, seed=seed)
        split = _split(_chunks(data.train(), 32))
        H = [offline._hidden_states(net, X) for X, _ in split]
        assert report.loss_curve == [offline._epoch_loss(net, split, H)]
        H0 = [offline._hidden_states(net0, X) for X, _ in split]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(H, H0))


def test_empty_training_set_still_raises():
    net, _ = next(_nets(500, 1))
    with pytest.raises(ValueError):
        offline.train_offline(net, Dataset(samples=np.empty((0, 4))),
                              epochs=200, seed=0)
