"""The per-step hot path against kept copies of its earlier bodies.

The network kernel, the replay hidden state and the trace export were
rewritten to make fewer numpy and Python calls per step.  Each rewrite must
give the same bits as the code it replaced: these tests keep that code
(np.clip clamps, float masks, np.sum, a full forward for the replay state, a
csv.writer export) and compare with np.array_equal, signed zeros included,
or byte for byte.  The one exception is `jacobian_input`, which is now built
from `jacobian_params`'s first-layer terms: it is held to 1e-12 relative to
its kept hand derivation, the bound for numerical refactors.
"""

import csv
import dataclasses
import tracemalloc

import numpy as np
import pytest

from tgrbf import harness, online
from tgrbf.network import ForwardTrace, random_net, sigmoid


# -- kept references ---------------------------------------------------------

def _item(a):
    return float(a) if a.ndim == 0 else a


def _ref_clamp_mask(pre):
    return ((pre > 0.0) & (pre < 1.0)).astype(float)


def _ref_forward(net, x, h_prev):
    """TgrbfNet.forward with np.clip gates, np.sum and its own gate pass."""
    x = np.asarray(x, dtype=float)
    h_prev = np.asarray(h_prev, dtype=float)
    if x.ndim == 2:
        h_prev = np.broadcast_to(h_prev, (x.shape[0], net.p))
    d2 = np.sum((net.centers - x[..., None, :]) ** 2, axis=-1)
    phi = np.exp(-d2 / (2.0 * np.asarray(net.widths, dtype=float) ** 2))
    y_rbf = _item(phi @ net.rbf_w)
    zeta = np.concatenate([x, h_prev], axis=-1)
    pre_z = zeta @ net.W_z.T + net.b_z
    pre_r = zeta @ net.W_r.T + net.b_r
    z = np.clip(pre_z, 0.0, 1.0)
    r = np.clip(pre_r, 0.0, 1.0)
    xi = np.concatenate([x, r * h_prev], axis=-1)
    n = xi @ net.W_h.T + net.b_h
    h_next = (1.0 - z) * h_prev + z * n
    y_gru = _item(h_next @ net.out_w + net.out_b)
    if net.gate_frozen:
        g = _item(np.ones(x.shape[:-1]))
    else:
        g = _item(sigmoid(np.concatenate([x, h_prev], axis=-1) @ net.gate_w
                          + net.gate_b))
    y = g * y_rbf + (1.0 - g) * y_gru
    return y, ForwardTrace(x=x, h_prev=h_prev, phi=phi, y_rbf=y_rbf,
                           pre_z=pre_z, pre_r=pre_r, z=z, r=r, n=n,
                           h_next=h_next, y_gru=y_gru, g=g, y=y,
                           zeta=zeta, xi=xi)


def _ref_jacobian_params(net, trace):
    x, h_prev = trace.x, trace.h_prev
    g = np.asarray(trace.g)
    one_m_g = 1.0 - g
    gc, one_m_gc = g[..., None], one_m_g[..., None]
    phi, z, n = trace.phi, trace.z, trace.n
    diff = x[..., None, :] - net.centers
    d_rbf_w = gc * phi
    d_centers = (gc * net.rbf_w * phi / net.widths ** 2)[..., None] * diff
    d_widths = gc * net.rbf_w * phi * np.sum(diff ** 2, axis=-1) / net.widths ** 3
    q = one_m_gc * net.out_w
    mz = _ref_clamp_mask(trace.pre_z)
    mr = _ref_clamp_mask(trace.pre_r)
    zeta = trace.zeta
    outer = lambda a, b: a[..., :, None] * b[..., None, :]
    cz = q * (n - h_prev) * mz
    t = ((q * z) @ net.W_h[:, net.n_in:]) * h_prev * mr
    s_g = (np.zeros_like(g) if net.gate_frozen
           else g * one_m_g * (trace.y_rbf - trace.y_gru))
    s_gc = s_g[..., None]
    lead = g.shape
    return np.concatenate([
        d_rbf_w, d_centers.reshape(lead + (-1,)),
        outer(cz, zeta).reshape(lead + (-1,)), outer(t, zeta).reshape(lead + (-1,)),
        outer(q * z, trace.xi).reshape(lead + (-1,)), s_gc * zeta, s_gc,
        one_m_gc * trace.h_next, one_m_gc, d_widths, cz, t, q * z,
    ], axis=-1)


def _ref_jacobian_input(net, trace):
    n_in = net.n_in
    g = trace.g
    diff = net.centers - trace.x
    d_rbf = g * np.sum((net.rbf_w * trace.phi / net.widths ** 2)[:, None] * diff,
                       axis=0)
    q = (1.0 - g) * net.out_w
    mz = _ref_clamp_mask(trace.pre_z)
    mr = _ref_clamp_mask(trace.pre_r)
    dn_dx = (net.W_h[:, :n_in]
             + net.W_h[:, n_in:] @ ((trace.h_prev * mr)[:, None] * net.W_r[:, :n_in]))
    dh_dx = ((trace.n - trace.h_prev) * mz)[:, None] * net.W_z[:, :n_in] \
        + trace.z[:, None] * dn_dx
    d_gate = (0.0 if net.gate_frozen
              else g * (1.0 - g) * (trace.y_rbf - trace.y_gru) * net.gate_w[:n_in])
    return d_rbf + q @ dh_dx + d_gate


def _ref_export_trace_csv(trace, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(harness.TRACE_COLUMNS)
        for row in trace.data:
            w.writerow([f"{v:.17g}" for v in row])


# -- helpers -----------------------------------------------------------------

def _same(a, b):
    """Equal bits: same type, shape and values, NaN and signed zero alike."""
    if isinstance(a, float) or isinstance(b, float):
        return type(a) is type(b) and (a == b or a != a and b != b) \
            and np.signbit(a) == np.signbit(b)
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def _close(a, ref):
    """Same shape and equal to 1e-12 relative to the larger of 1, max|ref|."""
    a, ref = np.asarray(a), np.asarray(ref)
    scale = max(1.0, float(np.max(np.abs(ref))))
    return a.shape == ref.shape and float(np.max(np.abs(a - ref))) <= 1e-12 * scale


def _same_trace(t1, t2):
    return all(_same(getattr(t1, f.name), getattr(t2, f.name))
               for f in dataclasses.fields(ForwardTrace))


def _kinked(net):
    """Unit 0 of the update and reset gates pre-activates at exactly 0.0,
    unit 1 at exactly 1.0, whatever the input."""
    for W, b in ((net.W_z, net.b_z), (net.W_r, net.b_r)):
        W[:2] = 0.0
        b[0], b[1] = 0.0, 1.0
    return net


def _nets(count=24):
    rng = np.random.default_rng(20)
    for i in range(count):
        n_in, m, p = (int(v) for v in rng.integers(1, 7, size=3))
        net = random_net(n_in, m, max(p, 2), rng, scale=1.5)
        net.gate_frozen = bool(i % 2)
        if i % 3 == 0:
            net = _kinked(net)
        net.h = rng.normal(size=net.p)
        net.h_init = rng.normal(size=net.p)
        yield net, rng


# -- network kernel ----------------------------------------------------------

@pytest.mark.parametrize("batch", [None, 1, 7])
def test_kernel_matches_kept_reference_bit_for_bit(batch):
    for net, rng in _nets():
        shape = (net.n_in,) if batch is None else (batch, net.n_in)
        x = rng.normal(size=shape)
        for h_prev in (None, rng.normal(size=shape[:-1] + (net.p,))):
            y, tr = net.forward(x, h_prev=h_prev)
            y_ref, tr_ref = _ref_forward(net, x, net.h if h_prev is None else h_prev)
            assert _same(y, y_ref)
            assert _same_trace(tr, tr_ref)
            assert _same(net.jacobian_params(tr), _ref_jacobian_params(net, tr_ref))
            if batch is None:
                assert _close(net.jacobian_input(tr), _ref_jacobian_input(net, tr_ref))


def test_kinked_gates_are_exactly_at_the_clamp_edges():
    net = _kinked(random_net(2, 3, 4, np.random.default_rng(1)))
    _, tr = net.forward(np.array([0.4, -0.2]))
    assert tr.pre_z[0] == 0.0 and tr.pre_z[1] == 1.0
    assert tr.pre_r[0] == 0.0 and tr.pre_r[1] == 1.0


def test_jacobians_match_reference_on_masks_at_signed_zero_and_one():
    """Traces whose clamp pre-activations sit at -0.0, 0.0 and 1.0."""
    rng = np.random.default_rng(5)
    net = random_net(3, 4, 5, rng)
    _, tr = net.forward(rng.normal(size=3))
    edges = np.array([-0.0, 0.0, 1.0, 0.5, 1.5])
    tr = dataclasses.replace(tr, pre_z=edges, pre_r=edges[::-1].copy(),
                             z=np.clip(edges, 0.0, 1.0),
                             r=np.clip(edges[::-1], 0.0, 1.0))
    assert _same(net.jacobian_params(tr), _ref_jacobian_params(net, tr))
    assert _close(net.jacobian_input(tr), _ref_jacobian_input(net, tr))


def _five_terms(net, J):
    """dy/dx from columns of dy/dW found through layout(): -sum_i dy/dc_i
    plus dy/db_z W_z[:, :n_in], dy/db_r W_r[:, :n_in], dy/db_h W_h[:, :n_in]
    and dy/dgate_b gate_w[:n_in]."""
    seg = {name: J[..., off:off + size] for name, off, size in net.layout()}
    n = net.n_in
    d_centers = seg["centers"].reshape(J.shape[:-1] + (net.m, n))
    return (-d_centers.sum(axis=-2) + seg["b_z"] @ net.W_z[:, :n]
            + seg["b_r"] @ net.W_r[:, :n] + seg["b_h"] @ net.W_h[:, :n]
            + seg["gate_b"] * net.gate_w[:n])


@pytest.mark.parametrize("batch", [None, 5])
def test_input_jacobian_is_the_five_term_identity_of_param_columns(batch):
    """60 nets, gate frozen on every other one, clamps kinked on every third."""
    for net, rng in _nets(60):
        shape = (net.n_in,) if batch is None else (batch, net.n_in)
        x = rng.normal(size=shape)
        _, tr = net.forward(x, h_prev=rng.normal(size=shape[:-1] + (net.p,)))
        assert _close(net.jacobian_input(tr),
                      _five_terms(net, net.jacobian_params(tr)))


def test_batched_input_jacobian_rows_equal_single_sample_calls():
    for net, rng in _nets(60):
        X, H = rng.normal(size=(7, net.n_in)), rng.normal(size=(7, net.p))
        for h_prev in (H, H[0]):
            J = net.jacobian_input(net.forward(X, h_prev=h_prev)[1])
            assert J.shape == (7, net.n_in)
            for i in range(7):
                h_i = h_prev[i] if h_prev.ndim == 2 else h_prev
                assert _close(J[i], net.jacobian_input(net.forward(X[i], h_prev=h_i)[1]))


# -- replay hidden state -----------------------------------------------------

@pytest.mark.parametrize("batch", [None, 1, 32])
def test_replay_hidden_state_equals_full_forward_state(batch):
    for net, rng in _nets():
        shape = (net.n_in,) if batch is None else (batch, net.n_in)
        x = rng.normal(size=shape)
        old = net.forward(x, h_prev=net.h_init)[1].h_next
        assert _same(online.replay_hidden_state(net, x), old)


def test_replay_hidden_state_keeps_input_checks():
    net = random_net(3, 4, 2, np.random.default_rng(2))
    for bad in (np.array([0.1, np.nan, 0.2]), np.array([[0.1, 0.2, np.inf]]),
                np.array([0.1, 0.2, -np.inf])):
        with pytest.raises(ValueError, match="non-finite"):
            online.replay_hidden_state(net, bad)
    for bad in (np.zeros(2), np.zeros(4), np.zeros((5, 2)), np.zeros((2, 5, 3))):
        with pytest.raises(ValueError, match="shape"):
            online.replay_hidden_state(net, bad)


# -- trace export ------------------------------------------------------------

def _special_trace(rng, rows):
    data = rng.normal(size=(rows, len(harness.TRACE_COLUMNS)))
    data *= 10.0 ** rng.integers(-300, 300, size=data.shape)
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1e300,
               1.0, -3.0, 12.0, 2.0 ** 53, 1e16, 0.1, 1.0 / 3.0]
    flat = data.reshape(-1)
    n = min(len(special), flat.size)
    flat[:n] = special[:n]
    return harness.RunTrace(data=data, metadata={})


@pytest.mark.parametrize("rows", [0, 1, 257])
def test_trace_export_is_byte_identical_to_csv_writer(tmp_path, rows):
    rng = np.random.default_rng(rows)
    trace = (_special_trace(rng, rows) if rows
             else harness.RunTrace(data=np.zeros((0, len(harness.TRACE_COLUMNS))),
                                   metadata={}))
    harness.export_trace_csv(trace, tmp_path / "new.csv")
    _ref_export_trace_csv(trace, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_trace_export_streams_rows(tmp_path):
    """A 10 000-step trace is written without holding the file in memory:
    the text alone is about 2.4 MB."""
    rng = np.random.default_rng(0)
    trace = harness.RunTrace(
        data=rng.normal(size=(10_000, len(harness.TRACE_COLUMNS))), metadata={})
    tracemalloc.start()
    try:
        harness.export_trace_csv(trace, tmp_path / "trace.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (tmp_path / "trace.csv").stat().st_size > 2_000_000
    assert peak < 1_000_000
