"""The per-step hot path against kept copies of its earlier bodies.

The network kernel, the replay hidden state and the trace export were
rewritten to make fewer numpy and Python calls per step.  These tests keep
the code they replaced: a forward with separate update and reset gates,
np.clip clamps and np.sum, float masks, the hand derivation of dy/dx, a
full forward for the replay state, the safeguard's SVD of the wide J, a
csv.writer export of the trace, the dataset and the small tables (metrics,
update events, fit report, comparison), the identification loop with one
noise draw per step, the baselines' loop with dy/du taken at each step,
and the audit's random networks with one draw per weight segment.

The kernel now runs both gates as one stacked affine map, clamp and mask
(W_zr = [W_z; W_r]), and dy/dx is one product of its first-layer terms with
the x-columns of [W_z; W_r; W_h; gate_w].  A stacked matrix product may
round differently from two separate ones, so `forward` (y and every trace
field), `jacobian_params` and `jacobian_input` are held to 1e-12 relative
to the kept references, the bound for numerical refactors, and a
closed-loop run with the new kernel must fire the same updates as one with
the references.  The safeguard now factors the tall J', whose singular
values equal J's to rounding.  The replay state, the identification
dataset, the random networks (and the generator state after them) and every
CSV table must still give the same bits, compared with np.array_equal
(signed zeros included) or byte for byte.  The baselines' y_pred and
dy/du, one sequence `advance` and `jacobian_input` per block of steps after
the loop, are held to MODEL_DRIFT; their other trace columns, g included,
keep every bit.
"""

import csv
import dataclasses
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from tgrbf import cli, harness, network, offline, online
from tgrbf import control as ctl
from tgrbf import plant as pl
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
    return y, ForwardTrace(diff=x[..., None, :] - net.centers, h_prev=h_prev,
                           phi=phi, y_rbf=y_rbf,
                           pre_zr=np.concatenate([pre_z, pre_r], axis=-1),
                           zr=np.concatenate([z, r], axis=-1), n=n,
                           h_next=h_next, y_gru=y_gru, g=g,
                           zeta=zeta, xi=xi)


def _ref_jacobian_params(net, trace, online_only=False):
    x, h_prev = trace.zeta[..., :net.n_in], trace.h_prev
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
    g = np.asarray(trace.g)[..., None]
    diff = net.centers - trace.zeta[..., None, :n_in]
    d_rbf = g * np.sum((net.rbf_w * trace.phi / net.widths ** 2)[..., None] * diff,
                       axis=-2)
    q = (1.0 - g) * net.out_w
    mz = _ref_clamp_mask(trace.pre_zr[..., :net.p])
    mr = _ref_clamp_mask(trace.pre_zr[..., net.p:])
    dn_dx = (net.W_h[:, :n_in]
             + net.W_h[:, n_in:] @ ((trace.h_prev * mr)[..., None] * net.W_r[:, :n_in]))
    dh_dx = ((trace.n - trace.h_prev) * mz)[..., None] * net.W_z[:, :n_in] \
        + trace.zr[..., :net.p, None] * dn_dx
    d_gate = (0.0 if net.gate_frozen
              else g * (1.0 - g) * np.asarray(trace.y_rbf - trace.y_gru)[..., None]
              * net.gate_w[:n_in])
    return d_rbf + (q[..., None, :] @ dh_dx)[..., 0, :] + d_gate


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


def _ref_generate_dataset(n, seed):
    """generate_dataset with one noise draw per step, written into y."""
    rng = np.random.Generator(np.random.PCG64(seed))
    u = offline.excitation_signal(n, rng)
    state = pl.make_state(pl.NOMINAL_PLANT)
    y = np.empty(n + 1)
    y[0] = pl.output(state, pl.NOMINAL_PLANT)
    for k in range(n):
        w = offline.NOISE_STD * rng.standard_normal()
        state = pl.plant_step(state, float(u[k]), w, pl.NOMINAL_PLANT)
        y[k + 1] = pl.output(state, pl.NOMINAL_PLANT)
    return offline.Dataset(u, y)


def _ref_dataset_to_csv(data, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "u", "y_prev", "y_teacher", "target"])
        for k, row in enumerate(data.samples.tolist()):
            w.writerow([k, *(f"{v:.17g}" for v in row)])


def _ref_write_csv(path, header, rows):
    """The small tables' csv.writer: floats as %.17g, other values as the
    csv module writes them."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([f"{v:.17g}" if isinstance(v, float) else v for v in row]
                    for row in rows)


def _ref_export_events_csv(events, path):
    _ref_write_csv(path, ["k", "eta", "eta_explicit", "sigma_min", "sigma_max",
                          "loss_before", "loss_after", "grad_norm", "safeguard",
                          "rejected"],
                   ([ev.k, ev.eta, ev.eta_explicit, ev.sigma_min, ev.sigma_max,
                     ev.loss_before, ev.loss_after, ev.grad_norm,
                     int(ev.safeguard_hit), int(ev.rejected)] for ev in events))


def _ref_fit_report_rows(report, persistence_mse):
    """The rows of `tgrbf identify`'s fit_report.csv."""
    halted = report.halted_epoch
    return [*((name, getattr(report, name)) for name in
              ("mse", "rmse", "mae", "r2", "deploy_mse", "deploy_r2")),
            ("persistence_mse", persistence_mse),
            ("halted_epoch", math.nan if halted is None else halted),
            *((f"epoch_{i}_loss", loss) for i, loss in enumerate(report.loss_curve))]


def _ref_comparison_rows(results):
    """The rows of `tgrbf compare`'s comparison.csv; an aborted run's
    metrics are the text "nan"."""
    rows = []
    for name, (trace, metrics) in results.items():
        if trace is None:
            rows.append([name] + ["nan"] * 6 + [1])
            continue
        rows.append([name, metrics.iae, metrics.ise, metrics.itae,
                     metrics.overshoot_pct, metrics.settling_time_s,
                     int(metrics.settled), 0])
    return rows


def _ref_random_net(n_in, m, p, rng, scale=0.3):
    """random_net with one uniform draw per weight segment."""
    u = lambda *shape: rng.uniform(-scale, scale, size=shape)
    return TgrbfNet(
        centers=rng.uniform(-1.0, 1.0, size=(m, n_in)),
        widths=rng.uniform(0.5, 1.5, size=m),
        rbf_w=u(m),
        W_z=u(p, n_in + p), b_z=np.full(p, 0.5),
        W_r=u(p, n_in + p), b_r=np.full(p, 0.5),
        W_h=u(p, n_in + p), b_h=np.zeros(p),
        gate_w=u(n_in + p), gate_b=0.5,
        out_w=u(p), out_b=0.0,
        h_init=np.zeros(p),
    )


def _ref_baseline_run(cfg, net):
    """run_scenario's loop for nc_fixed and pid, with advance and dy/du
    taken at each step."""
    net = net.copy()
    net.reset()
    noise = np.random.Generator(np.random.PCG64(cfg.seed))
    state = pl.make_state(cfg.plant)
    gains = (cfg.nc_gains if cfg.controller == "nc_fixed"
             and cfg.nc_gains is not None else cfg.gains)
    e_prev, integral = 0.0, 0.0
    history = offline.Dataset(np.zeros(offline.HISTORY_LEN),
                              np.zeros(offline.HISTORY_LEN + 1))
    data = np.zeros((cfg.n_steps, len(harness.TRACE_COLUMNS)))
    for k in range(cfg.n_steps):
        t = k * cfg.plant.Ts
        r = pl.reference_at(cfg.reference, t)
        y = pl.output(state, cfg.plant)
        e = r - y
        history.y[:-1], history.y[-1] = history.y[1:], y
        y_pred, trace = net.advance(history.regressor(deploy=True)[0][-1])
        dym_du = float(net.jacobian_input(trace)[0])
        if cfg.controller == "pid":
            u, integral = ctl.pid_step(cfg.pid, e, e_prev, integral, cfg.plant.Ts)
            e_prev = e
        else:
            u = ctl.control_law(e, gains.k1, gains.k2, gains.alpha_pow)
        u = min(max(u, -cfg.u_limit), cfg.u_limit)
        d = pl.disturbance_at(cfg.disturbance, k, cfg.plant.Ts, noise)
        state = pl.plant_step(state, u, d, cfg.plant)
        data[k] = (t, r, y, e, u, y_pred, gains.k1, gains.k2, dym_du, trace.g,
                   0.0, 0.0)
        history.u[:-1], history.u[-1] = history.u[1:], u
    return data


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
            assert _close(net.jacobian_input(tr), _ref_jacobian_input(net, tr_ref))


def test_one_input_keeps_the_input_and_width_checks(monkeypatch):
    """One input, the closed loop's call, and a sequence of inputs are
    rejected for a non-finite input, a wrong shape and a non-positive width
    with the same messages as a batch, before a sequence is scanned, and
    advance() then leaves the hidden state as it was."""
    def no_scan(self, X, h0=None):
        raise AssertionError("scanned a rejected sequence")

    monkeypatch.setattr(TgrbfNet, "hidden_states", no_scan)
    net = random_net(3, 4, 5, np.random.default_rng(7))
    net.h = np.random.default_rng(8).normal(size=net.p)
    h = net.h.copy()
    for x in ([0.1, np.nan, 0.2], [np.inf, 0.0, 0.0], [0.0, 0.0, -np.inf],
              [[0.1, 0.2, 0.3], [0.4, 0.5, np.nan]], [[np.inf, 0.0, 0.0]]):
        with pytest.raises(ValueError, match="^non-finite network input$"):
            net.advance(np.array(x))
    shape = r"^input must have shape \(3,\) or \(s, 3\), got "
    for x in (np.zeros(2), np.zeros(4), np.zeros((1, 1, 3)), np.float64(0.5),
              np.zeros((4, 2)), np.zeros((4, 4)), np.zeros((0, 4)),
              np.zeros((2, 1, 3))):
        with pytest.raises(ValueError, match=shape + re.escape(str(x.shape)) + "$"):
            net.advance(x)
    for bad in (0.0, -0.5):
        broken = net.copy()
        broken.widths[1] = bad
        for x in (np.zeros(3), np.zeros((2, 3))):
            with pytest.raises(ValueError,
                               match="^all kernel widths must be positive$"):
                broken.forward(x, h_prev=None if x.ndim == 1 else np.zeros((2, 5)))
            with pytest.raises(ValueError,
                               match="^all kernel widths must be positive$"):
                broken.advance(x)
        assert broken.h.tobytes() == h.tobytes()
    assert net.h.tobytes() == h.tobytes()


def _sequence_nets():
    """The random networks, then the shipped one, whose gate weights are all
    0 (its training halts at epoch 0)."""
    yield from _nets(12)
    net, rng = TgrbfNet.load(ROOT / "artifacts" / "network.json"), np.random.default_rng(3)
    net.h = rng.normal(size=net.p)
    yield net, rng


@pytest.mark.parametrize("rows", [1, 7, 256])
def test_sequence_advance_equals_the_single_sample_chain(rows):
    """Blocks of `rows` inputs and a ragged last block, one advance each, from
    a non-default state: trace.h_prev and the committed h are the bits of a
    chain of single-sample advance calls, and y is within 1e-12 of it.  g is
    its bits where the gate reads no input (a frozen gate, or gate_w 0 as
    shipped); a gate on [x; h_prev] is one matrix-vector product for the
    sequence, so there g is held to 1e-12.  An empty sequence commits the
    stored state."""
    for net, rng in _sequence_nets():
        X = rng.normal(size=(3 * rows + 2, net.n_in))
        seq, chain = net.copy(), net.copy()
        for a in range(0, len(X), rows):
            with np.errstate(over="ignore"):   # g == 0.0 past exp's range
                y, trace = seq.advance(X[a:a + rows])
                steps = [chain.advance(x) for x in X[a:a + rows]]
            assert _same(trace.h_prev, np.array([tr.h_prev for _, tr in steps]))
            assert _same(seq.h, chain.h)
            g = np.array([tr.g for _, tr in steps])
            if net.gate_frozen or not net.gate_w.any():
                assert _same(trace.g, g)
            else:
                assert _close(trace.g, g)
            assert _close(y, [y_k for y_k, _ in steps])
        h = seq.h.copy()
        y, trace = seq.advance(np.zeros((0, net.n_in)))
        assert y.shape == (0,) and trace.h_prev.shape == (0, net.p)
        assert _same(seq.h, h)


def test_a_gate_pre_activation_past_the_exp_range_closes_the_gate():
    """A diverging loop can drive the gate's pre-activation below -709.8,
    where exp(-a) overflows: one input then gives g == 0.0, as a batch
    does, instead of raising, so the run reaches its own divergence stop."""
    net = random_net(3, 4, 5, np.random.default_rng(9))
    net.gate_w[:] = 1.0
    x = np.full(3, -400.0)
    h = np.zeros(net.p)
    assert float(np.concatenate([x, h]) @ net.gate_w + net.gate_b) < -710.0
    with np.errstate(over="ignore"):
        y, tr = net.forward(x, h_prev=h)
        ys, trs = net.forward(x[None], h_prev=h[None])
    assert tr.g == 0.0 and trs.g.tolist() == [0.0]
    assert y == tr.y_gru and ys[0] == y


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


# -- the small tables ------------------------------------------------------

# values a table may hold, with the csv module's text for each as the kept
# writer gives it: %.17g for a float, str() for an int
SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e300,
           -1e-300, 0.1, 1.0 / 3.0, 2.0 ** 53, 12.0]


def _same_bytes(a, b):
    return a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("i", range(len(SPECIAL)))
def test_metrics_csv_is_byte_identical_to_csv_writer(tmp_path, i):
    """Every field of the report: floats, the bool `settled` and the int
    `update_count`."""
    vals = SPECIAL[i:] + SPECIAL[:i]
    rep = harness.MetricsReport(*vals[:5], settled=bool(i % 2),
                                update_count=i * 997, fit_mse_online=vals[5])
    harness.export_metrics_csv(rep, tmp_path / "new.csv")
    _ref_write_csv(tmp_path / "ref.csv", ["metric", "value"], rep.as_rows())
    assert _same_bytes(tmp_path / "new.csv", tmp_path / "ref.csv")


@pytest.mark.parametrize("n", [0, 1, 65, 200])
def test_update_events_csv_is_byte_identical_to_csv_writer(tmp_path, n):
    """Int steps, float fields with every special value, bool flags; more
    rows than one write takes."""
    rng = np.random.default_rng(n)
    events = []
    for i in range(n):
        vals = (rng.normal(size=7) * 10.0 ** rng.integers(-300, 300, size=7)).tolist()
        vals[i % 7] = SPECIAL[i % len(SPECIAL)]
        events.append(online.UpdateEvent(
            k=int(rng.integers(0, 10**6)), loss_before=vals[0], grad_norm=vals[1],
            eta_explicit=vals[2], eta=vals[3], loss_after=vals[4],
            safeguard_hit=bool(i % 2), sigma_min=vals[5], sigma_max=vals[6],
            rejected=bool(i % 3 == 0)))
    harness.export_events_csv(events, tmp_path / "new.csv")
    _ref_export_events_csv(events, tmp_path / "ref.csv")
    assert _same_bytes(tmp_path / "new.csv", tmp_path / "ref.csv")


@pytest.mark.parametrize("halted", [None, 0, 12])
def test_fit_report_csv_is_byte_identical_to_csv_writer(tmp_path, monkeypatch, halted):
    """`tgrbf identify`'s fit report, its training's report replaced by one
    holding the special values: an int or nan halted_epoch, a loss curve."""
    report = offline.FitReport(*SPECIAL[:4], loss_curve=SPECIAL[4:],
                               halted_epoch=halted, deploy_mse=SPECIAL[-1],
                               deploy_r2=-0.0)
    monkeypatch.setattr(offline, "train_offline",
                        lambda net, data, epochs, seed: (net, report))
    (tmp_path / "cfg.json").write_text(json.dumps({"n_samples": 20, "m": 2, "p": 2}))
    assert cli.main(["identify", "--config", str(tmp_path / "cfg.json"),
                     "--out", str(tmp_path / "out")]) == 0
    hold = offline.generate_dataset(20, 0).holdout()
    persistence = offline.fit_metrics(hold.y[:-1], hold.y[1:]).mse
    _ref_write_csv(tmp_path / "ref.csv", ["metric", "value"],
                   _ref_fit_report_rows(report, persistence))
    assert _same_bytes(tmp_path / "out" / "fit_report.csv", tmp_path / "ref.csv")


@pytest.mark.parametrize("aborted", [(), ("nc_fixed",), harness.CONTROLLER_TYPES])
def test_comparison_csv_is_byte_identical_to_csv_writer(tmp_path, monkeypatch, aborted):
    """`tgrbf compare`'s table, its runs replaced by reports holding the
    special values; an aborted run's row is nan metrics and aborted 1."""
    trace = harness.RunTrace(data=np.zeros((1, len(harness.TRACE_COLUMNS))),
                             metadata={})
    results = {name: (None, None) if name in aborted else
               (trace, harness.MetricsReport(*SPECIAL[3 * i:3 * i + 5],
                                             settled=bool(i % 2)))
               for i, name in enumerate(harness.CONTROLLER_TYPES)}
    monkeypatch.setattr(harness, "compare_controllers", lambda cfg: results)
    assert cli.main(["compare", "--config", str(ROOT / "configs" / "step.json"),
                     "--out", str(tmp_path / "out")]) == 0
    _ref_write_csv(tmp_path / "ref.csv",
                   ["controller", "iae", "ise", "itae", "overshoot_pct",
                    "settling_time_s", "settled", "aborted"],
                   _ref_comparison_rows(results))
    assert _same_bytes(tmp_path / "out" / "comparison.csv", tmp_path / "ref.csv")


# -- the audit's random networks ---------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 82])
def test_random_net_equals_the_per_segment_draws(seed):
    """One draw for the six uniform weight segments gives the doubles of one
    draw per segment, and leaves the generator where they left it."""
    rng, ref_rng = (np.random.Generator(np.random.PCG64(seed)) for _ in range(2))
    for m in range(1, 9):
        for p in range(1, 9):
            net, ref = random_net(3, m, p, rng), _ref_random_net(3, m, p, ref_rng)
            assert net.theta.tobytes() == ref.theta.tobytes()
            assert rng.bit_generator.state == ref_rng.bit_generator.state


# -- identification dataset --------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 49, 1000])
def test_dataset_equals_the_per_step_noise_draws_bit_for_bit(monkeypatch, n):
    """One noise draw of n after the excitation gives the doubles of n draws
    of one, and the simulation makes one plant_step call per sample."""
    calls = []
    plant_step = pl.plant_step
    monkeypatch.setattr(pl, "plant_step",
                        lambda *args: calls.append(1) or plant_step(*args))
    for seed in range(10):
        ref = _ref_generate_dataset(n, seed)
        calls.clear()
        data = offline.generate_dataset(n, seed)
        assert len(calls) == n
        assert data.u.tobytes() == ref.u.tobytes()
        assert data.y.tobytes() == ref.y.tobytes()


def _special_dataset(n):
    rng = np.random.default_rng(n)
    u, y = rng.normal(size=n), rng.normal(size=n + 1)
    u *= 10.0 ** rng.integers(-300, 300, size=n)
    special = [np.nan, np.inf, -np.inf, -0.0, 5e-324, -5e-324, 1e300, 0.1]
    k = min(len(special), n)
    u[:k], y[:k] = special[::-1][:k], special[:k]
    return offline.Dataset(u, y)


@pytest.mark.parametrize("n", [1, 2, 200])
def test_dataset_csv_is_byte_identical_to_csv_writer(tmp_path, n):
    data = _special_dataset(n)
    offline.dataset_to_csv(data, tmp_path / "new.csv")
    _ref_dataset_to_csv(data, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_identify_recipe_dataset_is_the_shipped_file(tmp_path):
    """configs/identify.json's dataset (1000 samples, seed 4), written
    out, is artifacts/dataset.csv byte for byte."""
    offline.dataset_to_csv(offline.generate_dataset(1000, 4), tmp_path / "d.csv")
    assert (tmp_path / "d.csv").read_bytes() == \
        (ROOT / "artifacts" / "dataset.csv").read_bytes()


# -- the baselines' model columns ---------------------------------------------

# The baselines' y_pred and dy/du come from one sequence advance and one
# jacobian_input per block of steps after the loop, not one call per step:
# to this bound relative to the run's largest |value| of each column.  Every
# other column, g included, is unchanged to the bit.
MODEL_DRIFT = 1e-12
MODEL_COLUMNS = ("y_pred", "dym_du")


@pytest.mark.parametrize("controller", ["nc_fixed", "pid"])
def test_baseline_trace_matches_the_per_step_dym_du_loop(controller):
    """2.5 s of sine.json: full blocks of the post-loop pass and a ragged
    last one."""
    cfg = dataclasses.replace(harness.load_config(ROOT / "configs" / "sine.json"),
                              duration_s=2.5, controller=controller)
    net = TgrbfNet.load(ROOT / "artifacts" / "network.json")
    got = harness.run_scenario(cfg, net)[0].data
    ref = _ref_baseline_run(cfg, net)
    drifting = [harness.TRACE_COLUMNS.index(name) for name in MODEL_COLUMNS]
    rest = [i for i in range(len(harness.TRACE_COLUMNS)) if i not in drifting]
    assert got[:, rest].tobytes() == ref[:, rest].tobytes()
    for j in drifting:
        scale = float(np.max(np.abs(ref[:, j])))
        assert scale > 0.0
        assert float(np.max(np.abs(got[:, j] - ref[:, j]))) <= MODEL_DRIFT * scale


def _count_model_calls(monkeypatch):
    """The names of the advance and jacobian_input calls made from now on."""
    calls = []
    for name in ("advance", "jacobian_input"):
        def counted(self, *args, _name=name, _f=getattr(TgrbfNet, name)):
            calls.append(_name)
            return _f(self, *args)
        monkeypatch.setattr(TgrbfNet, name, counted)
    return calls


@pytest.mark.parametrize("controller", ["nc_fixed", "pid"])
def test_baseline_run_without_steps_or_network_makes_no_model_pass(
        monkeypatch, controller):
    """duration_s 0 runs no step and checkpoint None loads no network: no
    model call either way, and fit_mse_online is nan.  Without a network the
    model columns read 0 and every other column is the reference's.  The
    loop keeps no history: the run builds no Dataset without a network, and
    one per block of the model pass with the shipped one."""
    cfg = dataclasses.replace(harness.load_config(ROOT / "configs" / "sine.json"),
                              controller=controller)
    net = TgrbfNet.load(ROOT / "artifacts" / "network.json")
    calls, built = _count_model_calls(monkeypatch), []

    class Counted(offline.Dataset):
        def __post_init__(self):
            built.append(self)
            super().__post_init__()

    monkeypatch.setattr(harness, "Dataset", Counted)
    trace, metrics = harness.run_scenario(dataclasses.replace(cfg, duration_s=0.0), net)
    assert trace.data.shape == (0, len(harness.TRACE_COLUMNS))
    assert math.isnan(metrics.fit_mse_online) and calls == [] and built == []
    cfg = dataclasses.replace(cfg, duration_s=0.5, checkpoint=None)
    trace, metrics = harness.run_scenario(cfg)
    assert math.isnan(metrics.fit_mse_online) and calls == [] and built == []
    harness.run_scenario(cfg, net)
    assert len(built) == math.ceil(cfg.n_steps / harness._MODEL_ROWS) == 2
    model = [harness.TRACE_COLUMNS.index(c) for c in ("y_pred", "dym_du", "g")]
    rest = [i for i in range(len(harness.TRACE_COLUMNS)) if i not in model]
    assert trace.data.shape == (500, len(harness.TRACE_COLUMNS))
    assert not trace.data[:, model].any()
    assert trace.data[:, rest].tobytes() == _ref_baseline_run(cfg, net)[:, rest].tobytes()


def test_baseline_model_pass_does_not_grow_with_duration(monkeypatch):
    """A baseline run calls advance and jacobian_input once per block of 256
    steps, never per step, and the pass takes the same memory in a 0.6 s and
    a 2.4 s run.  Seen at each jacobian_input call: what the harness, the
    network and the dataset modules hold, less the trace itself, 12 doubles
    a step.  The rows and the forward trace of the whole run would add over
    700 bytes a step, 1.3 MB here."""
    calls = _count_model_calls(monkeypatch)
    jacobian_input, held = TgrbfNet.jacobian_input, []
    files = [tracemalloc.Filter(True, module.__file__)
             for module in (harness, offline, network)]

    def seen(self, trace):
        snap = tracemalloc.take_snapshot().filter_traces(files)
        held[-1] = max(held[-1], sum(st.size for st in snap.statistics("filename")))
        return jacobian_input(self, trace)

    monkeypatch.setattr(TgrbfNet, "jacobian_input", seen)
    net = TgrbfNet.load(ROOT / "artifacts" / "network.json")
    for duration in (0.6, 2.4):
        cfg = dataclasses.replace(harness.load_config(ROOT / "configs" / "sine.json"),
                                  duration_s=duration, controller="nc_fixed")
        held.append(0)
        calls.clear()
        tracemalloc.start()
        try:
            harness.run_scenario(cfg, net)
        finally:
            tracemalloc.stop()
        held[-1] -= cfg.n_steps * len(harness.TRACE_COLUMNS) * 8
        blocks = -(-cfg.n_steps // 256)
        assert calls.count("advance") == calls.count("jacobian_input") == blocks
    assert held[0] > 0 and held[1] - held[0] < 1024, held
