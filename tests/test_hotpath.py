"""The per-step hot path against kept copies of its earlier bodies.

The network kernel, the replay hidden state and the trace export were
rewritten to make fewer numpy and Python calls per step.  These tests keep
the code they replaced: a forward with separate update and reset gates,
np.clip clamps and np.sum, float masks, the hand derivation of dy/dx, a
full forward for the replay state, the safeguard's SVD of the wide J and a
csv.writer export.

The kernel now runs both gates as one stacked affine map, clamp and mask
(W_zr = [W_z; W_r]), and dy/dx is one product of its first-layer terms with
the x-columns of [W_z; W_r; W_h; gate_w].  A stacked matrix product may
round differently from two separate ones, so `forward` (y and every trace
field), `jacobian_params` and `jacobian_input` are held to 1e-12 relative
to the kept references, the bound for numerical refactors, and a
closed-loop run with the new kernel must fire the same updates as one with
the references.  The safeguard now factors the tall J', whose singular
values equal J's to rounding.  The replay state and the trace export must still give the
same bits, compared with np.array_equal (signed zeros included) or byte for
byte.
"""

import csv
import dataclasses
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from tgrbf import harness, online
from tgrbf.network import _SEGMENTS, ForwardTrace, TgrbfNet, random_net, sigmoid

ROOT = Path(__file__).resolve().parents[1]


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
                           pre_zr=np.concatenate([pre_z, pre_r], axis=-1),
                           zr=np.concatenate([z, r], axis=-1), n=n,
                           h_next=h_next, y_gru=y_gru, g=g,
                           zeta=zeta, xi=xi)


def _ref_jacobian_params(net, trace, online_only=False):
    x, h_prev = trace.x, trace.h_prev
    g = np.asarray(trace.g)
    one_m_g = 1.0 - g
    gc, one_m_gc = g[..., None], one_m_g[..., None]
    phi, z, n = trace.phi, trace.zr[..., :net.p], trace.n
    diff = x[..., None, :] - net.centers
    d_rbf_w = gc * phi
    d_centers = (gc * net.rbf_w * phi / net.widths ** 2)[..., None] * diff
    d_widths = gc * net.rbf_w * phi * np.sum(diff ** 2, axis=-1) / net.widths ** 3
    q = one_m_gc * net.out_w
    mz = _ref_clamp_mask(trace.pre_zr[..., :net.p])
    mr = _ref_clamp_mask(trace.pre_zr[..., net.p:])
    zeta = trace.zeta
    outer = lambda a, b: a[..., :, None] * b[..., None, :]
    cz = q * (n - h_prev) * mz
    t = ((q * z) @ net.W_h[:, net.n_in:]) * h_prev * mr
    s_g = (np.zeros_like(g) if net.gate_frozen
           else g * one_m_g * (trace.y_rbf - trace.y_gru))
    s_gc = s_g[..., None]
    lead = g.shape
    J = np.concatenate([
        d_rbf_w, d_centers.reshape(lead + (-1,)),
        outer(cz, zeta).reshape(lead + (-1,)), outer(t, zeta).reshape(lead + (-1,)),
        outer(q * z, trace.xi).reshape(lead + (-1,)), s_gc * zeta, s_gc,
        one_m_gc * trace.h_next, one_m_gc, d_widths, cz, t, q * z,
    ], axis=-1)
    return J[..., :net.n_online] if online_only else J


def _ref_jacobian_input(net, trace):
    n_in = net.n_in
    g = trace.g
    diff = net.centers - trace.x
    d_rbf = g * np.sum((net.rbf_w * trace.phi / net.widths ** 2)[:, None] * diff,
                       axis=0)
    q = (1.0 - g) * net.out_w
    mz = _ref_clamp_mask(trace.pre_zr[..., :net.p])
    mr = _ref_clamp_mask(trace.pre_zr[..., net.p:])
    dn_dx = (net.W_h[:, :n_in]
             + net.W_h[:, n_in:] @ ((trace.h_prev * mr)[:, None] * net.W_r[:, :n_in]))
    dh_dx = ((trace.n - trace.h_prev) * mz)[:, None] * net.W_z[:, :n_in] \
        + trace.zr[:net.p, None] * dn_dx
    d_gate = (0.0 if net.gate_frozen
              else g * (1.0 - g) * (trace.y_rbf - trace.y_gru) * net.gate_w[:n_in])
    return d_rbf + q @ dh_dx + d_gate


def _ref_step_size_safeguard(eta, J, alpha, eta_max):
    """step_size_safeguard with the singular values of the wide J itself."""
    sv = np.linalg.svd(J, compute_uv=False)
    s_min, s_max = float(sv[-1]), float(sv[0])
    if s_min <= 1e-6 or s_max == 0.0:
        cap = eta_max
    else:
        L = s_max
        cap = max(0.0, (s_min ** 2 - 2.0 * alpha ** 2 * L ** 2 / s_min ** 2)
                  / s_max ** 2)
    eta_capped = min(eta, cap, eta_max)
    return eta_capped, eta_capped < eta, s_min, s_max


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


def _close_trace(t1, ref):
    return all(type(getattr(t1, f.name)) is type(getattr(ref, f.name))
               and _close(getattr(t1, f.name), getattr(ref, f.name))
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
def test_kernel_matches_kept_reference(batch):
    """forward (y and every trace field), jacobian_params and
    jacobian_input, each to 1e-12 of the kept reference."""
    for net, rng in _nets():
        shape = (net.n_in,) if batch is None else (batch, net.n_in)
        x = rng.normal(size=shape)
        for h_prev in (None, rng.normal(size=shape[:-1] + (net.p,))):
            if h_prev is None and batch is not None:
                h_prev = np.tile(net.h, (batch, 1))   # a batch takes a state per row
            y, tr = net.forward(x, h_prev=h_prev)
            y_ref, tr_ref = _ref_forward(net, x, net.h if h_prev is None else h_prev)
            assert type(y) is type(y_ref) and _close(y, y_ref)
            assert _close_trace(tr, tr_ref)
            assert _close(net.jacobian_params(tr), _ref_jacobian_params(net, tr_ref))
            if batch is None:
                assert _close(net.jacobian_input(tr), _ref_jacobian_input(net, tr_ref))


@pytest.mark.parametrize("batch", [None, 1, 7])
def test_online_jacobian_is_the_prefix_of_the_full_one(batch):
    """online_only builds the first n_online columns of the full J, bit for
    bit."""
    for net, rng in _nets():
        shape = (net.n_in,) if batch is None else (batch, net.n_in)
        _, tr = net.forward(rng.normal(size=shape),
                            h_prev=rng.normal(size=shape[:-1] + (net.p,)))
        assert _same(net.jacobian_params(tr, online_only=True),
                     net.jacobian_params(tr)[..., :net.n_online])


def test_kinked_gates_are_exactly_at_the_clamp_edges():
    net = _kinked(random_net(2, 3, 4, np.random.default_rng(1)))
    _, tr = net.forward(np.array([0.4, -0.2]))
    pre_z, pre_r = tr.pre_zr[:net.p], tr.pre_zr[net.p:]
    assert pre_z[0] == 0.0 and pre_z[1] == 1.0
    assert pre_r[0] == 0.0 and pre_r[1] == 1.0


def test_jacobians_match_reference_on_masks_at_signed_zero_and_one():
    """Traces whose clamp pre-activations sit at -0.0, 0.0 and 1.0."""
    rng = np.random.default_rng(5)
    net = random_net(3, 4, 5, rng)
    _, tr = net.forward(rng.normal(size=3))
    edges = np.array([-0.0, 0.0, 1.0, 0.5, 1.5])
    pre_zr = np.concatenate([edges, edges[::-1]])
    tr = dataclasses.replace(tr, pre_zr=pre_zr, zr=np.clip(pre_zr, 0.0, 1.0))
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
        for h_prev in (H, np.tile(H[0], (7, 1))):
            J = net.jacobian_input(net.forward(X, h_prev=h_prev)[1])
            assert J.shape == (7, net.n_in)
            for i in range(7):
                h_i = h_prev[i] if h_prev.ndim == 2 else h_prev
                assert _close(J[i], net.jacobian_input(net.forward(X[i], h_prev=h_i)[1]))


def _rebuilt(net):
    """A TgrbfNet built anew from copies of net's segments and state."""
    return TgrbfNet(**{name: getattr(net, name).copy() for name, _ in _SEGMENTS},
                    h_init=net.h_init.copy(), h=net.h.copy(),
                    gate_frozen=net.gate_frozen)


def _same_as_rebuilt(net, rng):
    fresh = _rebuilt(net)
    for x in (rng.normal(size=net.n_in), rng.normal(size=(5, net.n_in))):
        # the stored state for one sample; a batch takes a state per row
        h = None if x.ndim == 1 else np.tile(net.h, (len(x), 1))
        y, tr = net.forward(x, h_prev=h)
        y2, tr2 = fresh.forward(x, h_prev=h)
        if not (_same(y, y2) and _same_trace(tr, tr2)
                and _same(net.jacobian_params(tr), fresh.jacobian_params(tr2))
                and _same(net.jacobian_input(tr), fresh.jacobian_input(tr2))):
            return False
    return True


def test_stacked_views_see_every_write_to_theta():
    """W_zr, b_zr and W_x alias theta: after an online update, an
    assignment to theta or to a segment, forward and both Jacobians equal
    those of a network built anew from the same segments, bit for bit."""
    rng = np.random.default_rng(3)
    net = random_net(3, 4, 5, rng)
    p = net.p
    assert np.array_equal(net.W_zr, np.vstack([net.W_z, net.W_r]))
    assert np.array_equal(net.b_zr, np.concatenate([net.b_z, net.b_r]))
    assert np.array_equal(net.W_x, np.vstack([net.W_z, net.W_r, net.W_h,
                                              net.gate_w])[:, :net.n_in])
    for name in ("W_zr", "b_zr", "W_x"):
        assert np.shares_memory(getattr(net, name), net.theta), name

    buf = online.ExperienceBuffer(40, net.n_in, net.p)
    for _ in range(40):
        buf.push(rng.normal(size=net.n_in), rng.normal(size=net.p),
                 rng.normal(), 1.0)
    # no momentum: the safeguard cap is then s_min^2 / s_max^2 > 0
    opt = online.OnlineOptimizer(
        net, buf, online.TriggerConfig(batch_s=8, momentum_alpha=0.0), rng)
    before = net.to_vector()
    event = opt.maybe_update(0, 1.0)
    assert event is not None and opt.settle() is event
    assert not event.rejected and not np.array_equal(net.theta, before)
    assert _same_as_rebuilt(net, rng)

    net.theta = net.to_vector() * rng.uniform(0.5, 1.5, size=net.theta.size)
    assert _same_as_rebuilt(net, rng)
    for name in ("W_z", "W_r", "W_h", "gate_w", "b_z", "b_r"):
        setattr(net, name, rng.normal(size=getattr(net, name).shape))
        assert _same_as_rebuilt(net, rng), name
    # a stacked view assigns like a segment: it writes into theta
    net.W_zr = rng.normal(size=(2 * p, net.n_in + p))
    assert np.array_equal(net.W_r, net.W_zr[p:])
    net.b_zr = rng.normal(size=2 * p)
    assert np.array_equal(net.b_z, net.b_zr[:p])
    assert _same_as_rebuilt(net, rng)

    other = net.copy()
    for name in ("W_zr", "b_zr", "W_x"):
        assert not np.shares_memory(getattr(other, name), net.theta), name
        assert np.shares_memory(getattr(other, name), other.theta), name
    other.theta[:] = 0.5
    assert not np.array_equal(net.W_zr, other.W_zr)


# Largest relative change of a closed-loop trace column that the stacked
# kernel may cause, |new - ref| / max(|new|, |ref|) per element.
CLOSED_LOOP_DRIFT = 1e-10


@pytest.mark.parametrize("config, seconds", [("step.json", 1.0), ("sine.json", 3.0)])
def test_closed_loop_matches_the_kept_reference_kernel(monkeypatch, config, seconds):
    """All three controllers on a shortened config: the new kernel fires
    the same updates at the same steps as the kept references, and no
    trace column drifts by more than CLOSED_LOOP_DRIFT."""
    cfg = dataclasses.replace(harness.load_config(ROOT / "configs" / config),
                              duration_s=seconds)
    net = TgrbfNet.load(ROOT / "artifacts" / "network.json")
    new = harness.compare_controllers(cfg, net)
    monkeypatch.setattr(TgrbfNet, "forward", lambda self, x, h_prev=None:
                        _ref_forward(self, x, self.h if h_prev is None else h_prev))
    monkeypatch.setattr(TgrbfNet, "jacobian_params", _ref_jacobian_params)
    monkeypatch.setattr(TgrbfNet, "jacobian_input", _ref_jacobian_input)
    monkeypatch.setattr(online, "step_size_safeguard", _ref_step_size_safeguard)
    ref = harness.compare_controllers(cfg, net)
    trig = harness.TRACE_COLUMNS.index("triggered")
    for name in harness.CONTROLLER_TYPES:
        a, b = new[name][0].data, ref[name][0].data
        assert np.array_equal(a[:, trig], b[:, trig]), name
        scale = np.maximum(np.abs(a), np.abs(b))
        drift = np.divide(np.abs(a - b), scale, out=np.zeros_like(a), where=scale > 0)
        assert drift.max() <= CLOSED_LOOP_DRIFT, (name, drift.max(axis=0))
    assert new["tgrbf_nc"][1].update_count > 0


# -- safeguard ---------------------------------------------------------------

def _safeguard_cases():
    """Wide (the online update's shape), tall and rank-deficient J, over
    six decades of scale, and an all-zero J."""
    rng = np.random.default_rng(11)
    for scale in (1e-4, 1e-2, 1.0, 30.0):
        yield rng.normal(size=(32, 203)) * scale
        yield rng.normal(size=(50, 7)) * scale
        yield rng.normal(size=(32, 5)) @ rng.normal(size=(5, 203)) * scale
    yield np.zeros((4, 9))


def test_safeguard_matches_the_kept_svd_of_J():
    """The singular values of J' equal those of J to 8 eps max(1, s_max),
    and hit and eta are the same.  Where the cap binds, eta is a function
    of the singular values and agrees to 1e-12 relative; elsewhere it is
    eta0, eta_max or 0, bit for bit."""
    eps, eta_max = np.finfo(float).eps, 10.0
    paths = set()
    for J in _safeguard_cases():
        for alpha in (0.0, 0.2):
            for eta0 in (1e-3, 0.5, 5.0, 50.0):
                eta, hit, s_min, s_max = online.step_size_safeguard(
                    eta0, J, alpha, eta_max)
                eta_r, hit_r, s_min_r, s_max_r = _ref_step_size_safeguard(
                    eta0, J, alpha, eta_max)
                tol = 8.0 * eps * max(1.0, s_max_r)
                assert abs(s_min - s_min_r) <= tol and abs(s_max - s_max_r) <= tol
                assert hit == hit_r
                if 0.0 < eta_r < min(eta0, eta_max):
                    paths.add("cap")
                    assert abs(eta - eta_r) <= 1e-12 * eta_r
                else:
                    paths.add("degenerate" if s_min_r <= 1e-6 else "other")
                    assert eta == eta_r
    assert paths == {"cap", "degenerate", "other"}


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
