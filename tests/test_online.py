import dataclasses
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from tgrbf import harness, online
from tgrbf.network import _SEGMENTS, random_net

ROOT = Path(__file__).resolve().parents[1]


def _net(seed=0, m=3, p=2):
    rng = np.random.Generator(np.random.PCG64(seed))
    return random_net(3, m, p, rng)


# -- trigger -----------------------------------------------------------------

def test_trigger_strict_inequality():
    cfg = online.TriggerConfig(delta=0.01)
    assert not online.should_trigger(0.01, cfg, math.inf)
    assert not online.should_trigger(-0.01, cfg, math.inf)
    assert online.should_trigger(0.0100001, cfg, math.inf)
    assert online.should_trigger(-5.0, cfg, math.inf)


def test_trigger_cooldown_gate():
    cfg = online.TriggerConfig(delta=0.01, cooldown_steps=10)
    assert not online.should_trigger(1.0, cfg, steps_since_update=9)
    assert online.should_trigger(1.0, cfg, steps_since_update=10)


def test_trigger_config_validation():
    with pytest.raises(ValueError):
        online.TriggerConfig(delta=0.0)
    with pytest.raises(ValueError):
        online.TriggerConfig(batch_s=0)
    with pytest.raises(ValueError):
        online.TriggerConfig(momentum_alpha=1.0)


def test_trigger_config_rejects_nonpositive_eta_max():
    # eta_max <= 0 would turn the capped update step into an ascent
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            online.TriggerConfig(eta_max=bad)


def test_trigger_config_rejects_negative_cooldown():
    with pytest.raises(ValueError):
        online.TriggerConfig(cooldown_steps=-1)
    online.TriggerConfig(cooldown_steps=0)


# -- buffer ------------------------------------------------------------------

def test_buffer_eviction_example():
    buf = online.ExperienceBuffer(capacity=2, n_in=1, p=1)
    for p in (5.0, 1.0, 9.0):
        buf.push(np.zeros(1), np.zeros(1), 0.0, p)
    assert sorted(buf.priority[:len(buf)]) == [1.0, 9.0]


def test_buffer_capacity_never_exceeded():
    buf = online.ExperienceBuffer(capacity=3, n_in=1, p=1)
    for p in range(20):
        buf.push(np.zeros(1), np.zeros(1), 0.0, float(p))
        assert len(buf) <= 3


def test_buffer_fifo_tie_break():
    buf = online.ExperienceBuffer(capacity=4, n_in=1, p=1)
    for i in range(5):
        buf.push(np.zeros(1), np.zeros(1), float(i), 1.0)   # the target records the order
    # equal priorities: the oldest row in the eviction window goes first
    assert buf.targets[:len(buf)].tolist() == [1.0, 2.0, 3.0, 4.0]


def test_buffer_validation():
    with pytest.raises(ValueError):
        online.ExperienceBuffer(capacity=0, n_in=1, p=1)


def brute_force_push(rows, row, capacity):
    """Independent restatement of the policy on (x, target, priority) rows,
    oldest first: when full, drop the row with the smallest priority among
    the oldest ceil(N/4), oldest-first ties."""
    rows = list(rows)
    if len(rows) >= capacity:
        window = math.ceil(len(rows) / 4)
        best = None
        for i in range(window):
            if best is None or rows[i][2] < rows[best][2]:
                best = i
        rows.pop(best)
    rows.append(row)
    return rows


def _assert_rows(buf, rows):
    """The buffer holds exactly these (x, target, priority) rows, in order."""
    n = len(buf)
    assert n == len(rows)
    assert buf.X[:n].tolist() == [list(x) for x, _, _ in rows]
    assert buf.targets[:n].tolist() == [t for _, t, _ in rows]
    assert buf.priority[:n].tolist() == [p for _, _, p in rows]


def test_buffer_matches_brute_force_small():
    rng = np.random.Generator(np.random.PCG64(5))
    for _ in range(50):
        cap = int(rng.integers(1, 8))
        buf = online.ExperienceBuffer(capacity=cap, n_in=2, p=2)
        ref = []
        for i in range(int(rng.integers(1, 30))):
            row = (rng.normal(size=2).tolist(), float(i),
                   float(rng.integers(0, 5)))
            x, target, priority = row
            buf.push(x, x, target, priority)   # H[i] = X[i] tracks the row
            ref = brute_force_push(ref, row, cap)
        _assert_rows(buf, ref)
        # the stored states are shifted with the rows they belong to
        assert buf.H[:len(buf)].tolist() == buf.X[:len(buf)].tolist()


def test_priority_refresh_reaches_eviction():
    """After an update rewrites the priorities of the replayed samples, the
    next evictions follow the new values, not the ones seen at push time."""
    net = _net()
    rng = np.random.Generator(np.random.PCG64(3))
    residuals = [0.5, 0.1, 0.4, 0.05, 0.3, 0.2, 0.6, 0.7]
    buf = online.ExperienceBuffer(capacity=len(residuals), n_in=net.n_in,
                                  p=net.p)
    for r in residuals:
        x = rng.uniform(-1.0, 1.0, size=net.n_in)
        h = rng.uniform(-0.5, 0.5, size=net.p)
        y, _ = net.forward(x, h_prev=h)
        buf.push(x, h, y + r, 10.0)
    cfg = online.TriggerConfig(delta=0.01, batch_s=len(residuals))
    opt = online.OnlineOptimizer(net, buf, cfg,
                                 np.random.Generator(np.random.PCG64(0)))
    assert opt.maybe_update(0, 1.0) is not None
    assert buf.priority.tolist() == pytest.approx(residuals, abs=1e-12)
    ref = list(zip(buf.X.tolist(), buf.targets.tolist(), buf.priority.tolist()))
    for _ in range(4):
        row = ([0.0] * net.n_in, 0.0, 100.0)
        buf.push(row[0], net.h_init, *row[1:])
        ref = brute_force_push(ref, row, buf.capacity)
        _assert_rows(buf, ref)
    # stale priorities (all 10.0) would have evicted the four oldest
    assert [round(p, 6) for _, _, p in ref[:4]] == [0.5, 0.2, 0.6, 0.7]


# -- batch sampling ----------------------------------------------------------

def test_sample_batch_empty_buffer():
    buf = online.ExperienceBuffer(4, n_in=3, p=2)
    rng = np.random.Generator(np.random.PCG64(0))
    assert len(online.sample_batch(buf, 8, rng)) == 0
    # and an update with nothing to replay is skipped
    opt = online.OnlineOptimizer(_net(), buf, online.TriggerConfig(), rng)
    assert opt.maybe_update(0, 1.0) is None and opt.events == []


def test_sample_batch_caps_at_buffer_size_distinct():
    buf = online.ExperienceBuffer(10, n_in=1, p=1)
    for p in range(5):
        buf.push(np.zeros(1), np.zeros(1), 0.0, float(p))
    rng = np.random.Generator(np.random.PCG64(0))
    idx = online.sample_batch(buf, 32, rng)
    assert sorted(idx.tolist()) == [0, 1, 2, 3, 4]


def test_sample_batch_seeded_reproducible():
    buf = online.ExperienceBuffer(100, n_in=1, p=1)
    for p in range(50):
        buf.push(np.zeros(1), np.zeros(1), 0.0, float(p))
    a = online.sample_batch(buf, 8, np.random.Generator(np.random.PCG64(9)))
    b = online.sample_batch(buf, 8, np.random.Generator(np.random.PCG64(9)))
    assert len(a) == 8 and a.tolist() == b.tolist()


# -- explicit step size ------------------------------------------------------

def test_explicit_step_size_hand_values():
    eta, degenerate = online.explicit_step_size(np.array([2.0]),
                                                np.array([[1.0, 0.0]]))
    assert (eta, degenerate) == (1.0, False)
    eta, degenerate = online.explicit_step_size(np.array([1.0]),
                                                np.array([[2.0, 0.0]]))
    assert eta == pytest.approx(0.25)
    assert not degenerate


def test_explicit_step_size_degenerate():
    eta, degenerate = online.explicit_step_size(np.array([1.0]),
                                                np.zeros((1, 2)))
    assert degenerate


# -- safeguard ---------------------------------------------------------------

def test_safeguard_orthonormal_rows_cap_one():
    J = np.eye(2)
    eta, hit, s_min, s_max = online.step_size_safeguard(5.0, J, 0.0, 10.0)
    assert (s_min, s_max) == (1.0, 1.0)
    assert eta == pytest.approx(1.0)
    assert hit
    eta, hit, *_ = online.step_size_safeguard(0.5, J, 0.0, 10.0)
    assert eta == 0.5 and not hit


def test_safeguard_degenerate_sigma_uses_config_cap():
    J = np.array([[1.0, 0.0], [0.0, 0.0]])
    eta, hit, s_min, _ = online.step_size_safeguard(50.0, J, 0.2, 10.0)
    assert s_min <= 1e-6
    assert eta == 10.0 and hit


def test_safeguard_momentum_shrinks_cap():
    J = np.eye(2)
    eta0, *_ = online.step_size_safeguard(5.0, J, 0.0, 10.0)
    eta1, *_ = online.step_size_safeguard(5.0, J, 0.5, 10.0)
    assert eta1 < eta0


# -- momentum update ---------------------------------------------------------

def test_momentum_update_plain_gradient_step():
    w = online.momentum_update(np.array([1.0]), np.array([1.0]),
                               np.array([2.0]), 0.5, 0.0)
    assert w[0] == pytest.approx(0.0)


def test_momentum_update_pure_momentum():
    w = online.momentum_update(np.array([2.0]), np.array([1.0]),
                               np.zeros(1), 1.0, 0.3)
    assert w[0] == pytest.approx(2.3)


def test_momentum_update_rejects_nonfinite():
    assert online.momentum_update(np.array([1.0]), np.array([1.0]),
                                  np.array([math.inf]), 1.0, 0.0) is None


def test_scalar_newton_property_single_case():
    # residual f(w) = b - a*w, one step with the explicit eta zeroes it
    a, b, w = 1.7, -0.9, 0.4
    F = np.array([b - a * w])
    J = np.array([[-a]])
    grad = J.T @ F
    eta, _ = online.explicit_step_size(F, J)
    w_next = online.momentum_update(np.array([w]), np.array([w]), grad, eta, 0.0)
    assert abs(b - a * w_next[0]) < 1e-10


def test_linear_residual_loss_never_increases():
    rng = np.random.Generator(np.random.PCG64(21))
    for _ in range(100):
        s, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        A = rng.normal(size=(s, n))
        b = rng.normal(size=s)
        w = rng.normal(size=n)
        F = b - A @ w
        J = -A
        grad = (J.T @ F) / s
        eta, degenerate = online.explicit_step_size(F, J)
        if degenerate:
            continue
        w2 = w - eta * grad
        assert np.sum((b - A @ w2) ** 2) <= np.sum(F ** 2) + 1e-12


# -- optimizer ---------------------------------------------------------------

def _perfect_buffer(net, n=6, seed=0):
    """Samples the network already fits exactly from their stored states."""
    rng = np.random.Generator(np.random.PCG64(seed))
    buf = online.ExperienceBuffer(100, net.n_in, net.p)
    for _ in range(n):
        x = rng.uniform(-1.0, 1.0, size=net.n_in)
        h = rng.uniform(-0.5, 0.5, size=net.p)
        y, _ = net.forward(x, h_prev=h)
        buf.push(x, h, y, 0.0)
    return buf


def test_residuals_vanish_on_perfect_fit():
    net = _net()
    buf = _perfect_buffer(net)
    n = len(buf)
    F, J = online.residuals_and_jacobian(net, buf.X[:n], buf.H[:n],
                                         buf.targets[:n])
    assert np.max(np.abs(F)) < 1e-12
    assert J.shape == (len(buf), int(net.online_mask().sum()))


def test_no_trigger_means_no_mutation():
    net = _net()
    buf = _perfect_buffer(net)
    cfg = online.TriggerConfig(delta=0.01)
    opt = online.OnlineOptimizer(net, buf, cfg,
                                 np.random.Generator(np.random.PCG64(0)))
    before = net.to_vector().copy()
    for k in range(20):
        assert opt.maybe_update(k, 0.005) is None
    assert np.array_equal(net.to_vector(), before)


def test_perfect_batch_zero_momentum_leaves_net_unchanged():
    net = _net()
    buf = _perfect_buffer(net)
    cfg = online.TriggerConfig(delta=0.01)
    opt = online.OnlineOptimizer(net, buf, cfg,
                                 np.random.Generator(np.random.PCG64(0)))
    before = net.to_vector().copy()
    event = opt.maybe_update(0, 1.0)   # forced trigger, zero residuals
    assert event is not None and opt.settle() is event
    assert np.array_equal(net.to_vector(), before)


def test_update_respects_offline_mask():
    net = _net()
    rng = np.random.Generator(np.random.PCG64(1))
    buf = online.ExperienceBuffer(100, net.n_in, net.p)
    for _ in range(10):
        x = rng.uniform(-1.0, 1.0, size=net.n_in)
        buf.push(x, net.h_init, float(rng.normal()), 0.0)
    # zero momentum keeps the stability cap positive so the step is nonzero
    cfg = online.TriggerConfig(delta=0.01, momentum_alpha=0.0)
    opt = online.OnlineOptimizer(net, buf, cfg,
                                 np.random.Generator(np.random.PCG64(2)))
    before = net.to_vector().copy()
    event = opt.maybe_update(0, 1.0)
    assert event is not None and opt.settle() is event
    assert not event.rejected and event.eta > 0.0
    after = net.to_vector()
    mask = net.online_mask()
    assert np.array_equal(after[~mask], before[~mask])
    assert not np.array_equal(after[mask], before[mask])
    # priorities of the evaluated samples were refreshed to |residual|
    assert np.any(buf.priority[:len(buf)] > 0.0)


def test_update_replays_the_rows_at_the_drawn_positions(monkeypatch):
    """maybe_update replays exactly buf.X[idx] and buf.targets[idx] for the
    positions idx its rng draws, and refreshes only their priorities.  The
    post-step replay (batch_loss) sees the same bytes in the next call, even
    after pushes have shifted the buffer's rows."""
    net = _net()
    rng = np.random.Generator(np.random.PCG64(4))
    buf = online.ExperienceBuffer(50, net.n_in, net.p)
    for _ in range(40):
        buf.push(rng.uniform(-1.0, 1.0, size=net.n_in),
                 rng.uniform(-0.5, 0.5, size=net.p), float(rng.normal()), 5.0)
    seen, residuals = [], online.residuals_and_jacobian

    def spy(fn):
        def wrapped(net_, X, H, targets):
            seen.append((fn.__name__, X.copy(), H.copy(), targets.copy()))
            return fn(net_, X, H, targets)
        return wrapped

    for name in ("residuals_and_jacobian", "batch_loss"):
        monkeypatch.setattr(online, name, spy(getattr(online, name)))
    cfg = online.TriggerConfig(delta=0.01, batch_s=8, momentum_alpha=0.0)
    idx = online.sample_batch(buf, cfg.batch_s,
                              np.random.Generator(np.random.PCG64(11)))
    X, H, targets = buf.X[idx].copy(), buf.H[idx].copy(), buf.targets[idx].copy()
    opt = online.OnlineOptimizer(net.copy(), buf, cfg,
                                 np.random.Generator(np.random.PCG64(11)))
    event = opt.maybe_update(0, 1.0)
    assert event is not None
    assert [name for name, *_ in seen] == ["residuals_and_jacobian"]
    F, _ = residuals(net, X, H, targets)
    assert buf.priority[idx].tobytes() == np.abs(F).tobytes()
    rest = np.setdiff1d(np.arange(len(buf)), idx)
    assert np.all(buf.priority[rest] == 5.0)

    for _ in range(20):   # fills the buffer and evicts, shifting its rows
        buf.push(rng.uniform(-1.0, 1.0, size=net.n_in),
                 rng.uniform(-0.5, 0.5, size=net.p), float(rng.normal()), 0.0)
    assert opt.maybe_update(1, 0.0) is None   # settles the update first
    assert not event.rejected
    assert [name for name, *_ in seen] == ["residuals_and_jacobian",
                                           "batch_loss"]
    for _, X_seen, H_seen, t_seen in seen:
        assert X_seen.tobytes() == X.tobytes()
        assert H_seen.tobytes() == H.tobytes()
        assert t_seen.tobytes() == targets.tobytes()
    assert math.isfinite(event.loss_after)


def test_pending_loss_settles_before_the_next_step_writes_theta(monkeypatch):
    """With cooldown 0 and triggers on consecutive steps, the next call
    first finishes the pending update: it writes the step, then replays the
    pending batch under the parameters the step wrote, and only then
    replays its own batch.  A rejected step writes nothing and replays
    nothing."""
    net = _net(4, 3, 2)
    rng = np.random.Generator(np.random.PCG64(5))
    buf = online.ExperienceBuffer(50, net.n_in, net.p)
    for _ in range(20):
        buf.push(rng.uniform(-1.0, 1.0, size=net.n_in),
                 rng.uniform(-0.5, 0.5, size=net.p), float(rng.normal()), 0.0)
    calls, losses = [], []
    residuals, loss, step = (online.residuals_and_jacobian, online.batch_loss,
                             online.momentum_update)

    def spy_residuals(net_, X, H, targets):
        calls.append(("residuals", net_.theta.copy(), X.copy(), H.copy(),
                      targets.copy()))
        return residuals(net_, X, H, targets)

    def spy_loss(net_, X, H, targets):
        calls.append(("loss", net_.theta.copy(), X.copy(), H.copy(),
                      targets.copy()))
        losses.append(loss(net_, X, H, targets))
        return losses[-1]

    def spy_step(*args):
        calls.append(("step",))
        return step(*args)

    monkeypatch.setattr(online, "residuals_and_jacobian", spy_residuals)
    monkeypatch.setattr(online, "batch_loss", spy_loss)
    monkeypatch.setattr(online, "momentum_update", spy_step)
    # one-row batches, so that the safeguard leaves the step nonzero
    opt = online.OnlineOptimizer(net, buf, online.TriggerConfig(
        delta=0.01, batch_s=1, momentum_alpha=0.1, cooldown_steps=0),
        np.random.Generator(np.random.PCG64(6)))
    theta_start = net.theta.copy()
    e0 = opt.maybe_update(0, 1.0)
    assert math.isnan(e0.eta) and math.isnan(e0.loss_after)
    assert net.theta.tobytes() == theta_start.tobytes()
    e1 = opt.maybe_update(1, 1.0)
    assert not e0.rejected and e0.eta > 0.0 and math.isnan(e1.loss_after)
    theta0 = net.theta.copy()
    assert not np.array_equal(theta0, theta_start)
    assert [c[0] for c in calls] == ["residuals", "step", "loss", "residuals"]
    (_, theta_r0, *batch0), (_, theta_l0, *batch_l0), (_, theta_r1, *_) = (
        calls[0], calls[2], calls[3])
    assert theta_r0.tobytes() == theta_start.tobytes()
    assert theta_l0.tobytes() == theta_r1.tobytes() == theta0.tobytes()
    for a, b in zip(batch0, batch_l0):   # X, H, targets
        assert a.tobytes() == b.tobytes()
    ref = net.copy()
    ref.theta[:] = theta0
    assert e0.loss_after == loss(ref, *batch0) == losses[0]

    monkeypatch.setattr(online, "momentum_update", lambda *args: None)
    e2 = opt.maybe_update(2, 1.0)   # settles e1, whose step is rejected
    assert e1.rejected and e1.eta == 0.0 and e1.loss_after == e1.loss_before
    assert opt.settle() is e2 and e2.rejected and opt.settle() is None
    assert e2.loss_after == e2.loss_before
    assert [c[0] for c in calls][4:] == ["residuals"] and len(losses) == 1
    assert net.theta.tobytes() == theta0.tobytes()


def test_the_triggering_call_leaves_the_safeguard_and_the_step_to_settle(
        monkeypatch):
    """maybe_update makes no step_size_safeguard or momentum_update call and
    leaves theta as it was; the settle() after it makes one call of each,
    and the event's step fields read nan until then."""
    net = _net(4, 3, 2)
    rng = np.random.Generator(np.random.PCG64(5))
    buf = online.ExperienceBuffer(50, net.n_in, net.p)
    for _ in range(20):
        buf.push(rng.uniform(-1.0, 1.0, size=net.n_in),
                 rng.uniform(-0.5, 0.5, size=net.p), float(rng.normal()), 0.0)
    calls = []

    def spy(fn):
        def wrapped(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return wrapped

    for name in ("step_size_safeguard", "momentum_update"):
        monkeypatch.setattr(online, name, spy(getattr(online, name)))
    opt = online.OnlineOptimizer(net, buf, online.TriggerConfig(
        delta=0.01, batch_s=1, momentum_alpha=0.1),
        np.random.Generator(np.random.PCG64(6)))
    before = net.theta.copy()
    event = opt.maybe_update(0, 1.0)
    assert event is not None and calls == []
    assert net.theta.tobytes() == before.tobytes()
    assert all(math.isnan(v) for v in (event.eta, event.sigma_min,
                                       event.sigma_max, event.loss_after))
    assert opt.settle() is event
    assert calls == ["step_size_safeguard", "momentum_update"]
    assert not event.rejected and event.eta > 0.0
    assert not np.array_equal(net.theta, before)
    assert all(math.isfinite(v) for v in (event.sigma_min, event.sigma_max,
                                          event.loss_after))
    assert opt.settle() is None and len(calls) == 2


class _WholeUpdateInTheCall(online.OnlineOptimizer):
    """The reference: the safeguard, the step and the post-step replay run
    inside the call that triggers the update, as the update did before its
    second half moved to settle()."""

    def maybe_update(self, k, e_pred):
        event = super().maybe_update(k, e_pred)
        self.settle()
        return event


@pytest.mark.parametrize("config, duration_s, cooldown_steps", [
    ("step.json", 1.996, None), ("sine.json", 2.0, None),
    ("sine.json", 0.5, 0)], ids=["step.json-1.996", "sine.json-2.0",
                                 "sine.json-cooldown0"])
def test_settled_loss_after_equals_a_replay_inside_the_step(
        monkeypatch, config, duration_s, cooldown_steps):
    """The trace and every event of a shortened run, the fourth event forced
    to a rejected step, equal the reference's bit for bit.  Each duration
    ends on an update, so run_scenario settles the last event after its
    loop; with cooldown 0 updates also trigger on consecutive steps."""
    cfg = harness.load_config(ROOT / "configs" / config)
    cfg.checkpoint = str(ROOT / "artifacts" / "network.json")
    cfg.duration_s = duration_s
    if cooldown_steps is not None:
        cfg.trigger = dataclasses.replace(cfg.trigger,
                                          cooldown_steps=cooldown_steps)
    step = online.momentum_update

    def run(optimizer):
        calls = itertools.count()
        monkeypatch.setattr(online, "momentum_update", lambda *args:
                            None if next(calls) == 3 else step(*args))
        monkeypatch.setattr(harness, "OnlineOptimizer", optimizer)
        return harness.run_scenario(cfg)[0]

    ref, got = run(_WholeUpdateInTheCall), run(online.OnlineOptimizer)
    assert got.data.tobytes() == ref.data.tobytes()

    def rows(trace):
        return np.array([dataclasses.astuple(e) for e in trace.events], float)

    assert len(got.events) > 4 and rows(got).tobytes() == rows(ref).tobytes()
    assert np.isfinite(rows(got)).all()
    rejected = got.events[3]
    assert rejected.rejected and rejected.loss_after == rejected.loss_before
    assert [e.rejected for e in got.events].count(True) == 1
    last = got.events[-1]
    assert last.k == cfg.n_steps - 1 and not last.rejected
    assert math.isfinite(last.loss_after)
    assert got.col("eta")[last.k] == last.eta > 0.0
    if cooldown_steps == 0:
        ks = np.array([e.k for e in got.events])
        assert np.any(np.diff(ks) == 1)


def test_online_segments_are_a_prefix_of_the_layout():
    """The update reads and writes the online parameters, and slices their
    Jacobian columns, as the prefix theta[:n_online] of the flat vector."""
    flags = [flag for _, flag in _SEGMENTS]
    assert flags == sorted(flags, reverse=True) and any(flags) and not all(flags)
    rng = np.random.Generator(np.random.PCG64(3))
    for seed, (m, p) in enumerate(((1, 1), (3, 2), (6, 6), (8, 8))):
        net = _net(seed, m, p)
        mask = net.online_mask()
        n = int(mask.sum())
        assert n == net.n_online
        assert mask[:n].all() and not mask[n:].any()
        # each online segment is a view into the prefix, the others past it
        for name, flag in _SEGMENTS:
            seg = getattr(net, name)
            assert np.shares_memory(seg, net.theta[:n]) is flag, name
            assert np.shares_memory(seg, net.theta[n:]) is not flag, name
        W = net.to_vector()
        assert net.theta[:n].tobytes() == W[:n].tobytes()
        # writing the prefix is the masked round trip through theta
        new = W[:n] + rng.normal(size=n)
        ref = net.copy()
        W_ref = W.copy()
        W_ref[mask] = new
        ref.theta = W_ref
        net.theta[:n] = new
        assert net.to_vector().tobytes() == ref.to_vector().tobytes()
        assert net.gate_b.shape == () and net.out_b.shape == ()
        # the sliced Jacobian is the masked one, bit for bit and row-major
        X, H, targets = np.empty((5, 3)), np.empty((5, p)), np.empty(5)
        for i in range(5):
            X[i], targets[i] = rng.uniform(-1.0, 1.0, size=3), rng.normal()
            H[i] = rng.uniform(-0.5, 0.5, size=p)
        _, J = online.residuals_and_jacobian(net, X, H, targets)
        _, trace = online._replay(net, X, H, targets)
        J_ref = -np.compress(mask, net.jacobian_params(trace), axis=1)
        assert J.flags.c_contiguous and J.tobytes() == J_ref.tobytes()


def test_momentum_history_is_the_parameters_before_the_last_step(monkeypatch):
    """The update writes the online prefix of theta in place; W_prev must be
    a copy of the parameters before that write, not a view that follows it."""
    net = _net(4, 3, 2)
    rng = np.random.Generator(np.random.PCG64(5))
    buf = online.ExperienceBuffer(50, net.n_in, net.p)
    for _ in range(20):
        buf.push(rng.uniform(-1.0, 1.0, size=net.n_in),
                 rng.uniform(-0.5, 0.5, size=net.p), float(rng.normal()), 0.0)
    calls, step = [], online.momentum_update

    def spy(W, W_prev, grad, eta, alpha):
        W_next = step(W, W_prev, grad, eta, alpha)
        calls.append((W.copy(), W_prev.copy(), W_next.copy()))
        return W_next

    monkeypatch.setattr(online, "momentum_update", spy)
    # one-row batches, so that the safeguard leaves the step nonzero
    opt = online.OnlineOptimizer(net, buf, online.TriggerConfig(
        delta=0.01, batch_s=1, momentum_alpha=0.1),
        np.random.Generator(np.random.PCG64(6)))
    W0 = net.theta[:net.n_online].copy()
    for k in range(3):
        assert opt.maybe_update(k, 1.0) is not None
    opt.settle()
    assert len(calls) == 3 and not any(e.rejected for e in opt.events)
    assert np.array_equal(calls[0][0], W0) and np.array_equal(calls[0][1], W0)
    for (W, _, W_next), (W_after, W_prev_after, _) in zip(calls, calls[1:]):
        assert np.array_equal(W_after, W_next)
        assert np.array_equal(W_prev_after, W) and not np.array_equal(W, W_next)
    assert np.array_equal(net.theta[:net.n_online], calls[-1][2])


def test_optimizer_cooldown_and_event_log():
    net = _net()
    rng = np.random.Generator(np.random.PCG64(1))
    buf = online.ExperienceBuffer(100, net.n_in, net.p)
    for _ in range(10):
        x = rng.uniform(-1.0, 1.0, size=net.n_in)
        buf.push(x, net.h_init, float(rng.normal()), 0.0)
    cfg = online.TriggerConfig(delta=0.01, cooldown_steps=5)
    opt = online.OnlineOptimizer(net, buf, cfg,
                                 np.random.Generator(np.random.PCG64(2)))
    assert opt.maybe_update(0, 1.0) is not None
    assert opt.maybe_update(3, 1.0) is None     # inside cooldown
    assert opt.maybe_update(5, 1.0) is not None
    assert [e.k for e in opt.events] == [0, 5]
    assert opt.settle() is opt.events[-1] and opt.settle() is None
    for e in opt.events:
        assert e.eta <= cfg.eta_max
        assert math.isfinite(e.grad_norm)


def _shipped(config):
    cfg = harness.load_config(ROOT / "configs" / config)
    cfg.checkpoint = str(ROOT / "artifacts" / "network.json")
    return cfg


def _without_updates(cfg):
    return dataclasses.replace(
        cfg, trigger=dataclasses.replace(cfg.trigger, delta=1e9))


@pytest.mark.parametrize("config", ["step.json", "sine.json"])
def test_replay_gives_back_the_residuals_deployment_saw(monkeypatch, config):
    """With no update the network does not change, so replaying every
    buffered row from its stored hidden state gives each step's y - y_pred
    of the trace, to 1e-12 of the recomputed prediction."""
    cfg = _without_updates(_shipped(config))
    cfg.duration_s = 0.5
    optimizers = []

    class Recorded(online.OnlineOptimizer):
        def __init__(self, *args):
            super().__init__(*args)
            optimizers.append(self)

    monkeypatch.setattr(harness, "OnlineOptimizer", Recorded)
    trace, rep = harness.run_scenario(cfg)
    (opt,) = optimizers
    buf, n = opt.buf, len(opt.buf)
    assert rep.update_count == 0 and n == cfg.n_steps
    assert buf.targets[:n].tobytes() == trace.col("y").tobytes()
    F, _ = online._replay(opt.net, buf.X[:n], buf.H[:n], buf.targets[:n])
    y_pred = trace.col("y_pred")
    want = trace.col("y") - y_pred
    assert np.all(np.abs(F - want)
                  <= 1e-12 * np.maximum(np.abs(want), np.abs(y_pred)))


@pytest.mark.parametrize("config", ["step.json", "sine.json"])
def test_online_updates_do_not_worsen_the_online_fit(config):
    """At the shipped config and seed, fit_mse_online with event-triggered
    updates is no higher than in the same run without any."""
    cfg = _shipped(config)
    _, adapted = harness.run_scenario(cfg)
    _, frozen = harness.run_scenario(_without_updates(cfg))
    assert adapted.update_count > 0 and frozen.update_count == 0
    assert adapted.fit_mse_online <= frozen.fit_mse_online
