import math

import numpy as np
import pytest

from tgrbf import online
from tgrbf.network import _ONLINE, _SEGMENTS, random_net


def _net(seed=0, m=3, p=2):
    rng = np.random.Generator(np.random.PCG64(seed))
    return random_net(3, m, p, rng)


# -- trigger -----------------------------------------------------------------

def test_trigger_strict_inequality():
    cfg = online.TriggerConfig(delta=0.01)
    assert not online.should_trigger(0.01, cfg)
    assert not online.should_trigger(-0.01, cfg)
    assert online.should_trigger(0.0100001, cfg)
    assert online.should_trigger(-5.0, cfg)


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
    buf = online.ExperienceBuffer(capacity=2, n_in=1)
    for p in (5.0, 1.0, 9.0):
        buf.push(np.zeros(1), 0.0, p)
    assert sorted(buf.priority[:len(buf)]) == [1.0, 9.0]


def test_buffer_capacity_never_exceeded():
    buf = online.ExperienceBuffer(capacity=3, n_in=1)
    for p in range(20):
        buf.push(np.zeros(1), 0.0, float(p))
        assert len(buf) <= 3


def test_buffer_fifo_tie_break():
    buf = online.ExperienceBuffer(capacity=4, n_in=1)
    for i in range(5):
        buf.push(np.zeros(1), float(i), 1.0)   # the target records the order
    # equal priorities: the oldest row in the eviction window goes first
    assert buf.targets[:len(buf)].tolist() == [1.0, 2.0, 3.0, 4.0]


def test_buffer_validation():
    with pytest.raises(ValueError):
        online.ExperienceBuffer(capacity=0, n_in=1)


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
        buf = online.ExperienceBuffer(capacity=cap, n_in=2)
        ref = []
        for i in range(int(rng.integers(1, 30))):
            row = (rng.normal(size=2).tolist(), float(i),
                   float(rng.integers(0, 5)))
            buf.push(*row)
            ref = brute_force_push(ref, row, cap)
        _assert_rows(buf, ref)


def test_priority_refresh_reaches_eviction():
    """After an update rewrites the priorities of the replayed samples, the
    next evictions follow the new values, not the ones seen at push time."""
    net = _net()
    rng = np.random.Generator(np.random.PCG64(3))
    residuals = [0.5, 0.1, 0.4, 0.05, 0.3, 0.2, 0.6, 0.7]
    buf = online.ExperienceBuffer(capacity=len(residuals), n_in=net.n_in)
    for r in residuals:
        x = rng.uniform(-1.0, 1.0, size=net.n_in)
        y, _ = net.forward(x, h_prev=online.replay_hidden_state(net, x))
        buf.push(x, y + r, 10.0)
    cfg = online.TriggerConfig(delta=0.01, batch_s=len(residuals))
    opt = online.OnlineOptimizer(net, buf, cfg,
                                 np.random.Generator(np.random.PCG64(0)))
    assert opt.maybe_update(0, 1.0) is not None
    assert buf.priority.tolist() == pytest.approx(residuals, abs=1e-12)
    ref = list(zip(buf.X.tolist(), buf.targets.tolist(), buf.priority.tolist()))
    for _ in range(4):
        row = ([0.0] * net.n_in, 0.0, 100.0)
        buf.push(*row)
        ref = brute_force_push(ref, row, buf.capacity)
        _assert_rows(buf, ref)
    # stale priorities (all 10.0) would have evicted the four oldest
    assert [round(p, 6) for _, _, p in ref[:4]] == [0.5, 0.2, 0.6, 0.7]


# -- batch sampling ----------------------------------------------------------

def test_sample_batch_empty_buffer():
    buf = online.ExperienceBuffer(4, n_in=3)
    rng = np.random.Generator(np.random.PCG64(0))
    assert len(online.sample_batch(buf, 8, rng)) == 0
    # and an update with nothing to replay is skipped
    opt = online.OnlineOptimizer(_net(), buf, online.TriggerConfig(), rng)
    assert opt.maybe_update(0, 1.0) is None and opt.events == []


def test_sample_batch_caps_at_buffer_size_distinct():
    buf = online.ExperienceBuffer(10, n_in=1)
    for p in range(5):
        buf.push(np.zeros(1), 0.0, float(p))
    rng = np.random.Generator(np.random.PCG64(0))
    idx = online.sample_batch(buf, 32, rng)
    assert sorted(idx.tolist()) == [0, 1, 2, 3, 4]


def test_sample_batch_seeded_reproducible():
    buf = online.ExperienceBuffer(100, n_in=1)
    for p in range(50):
        buf.push(np.zeros(1), 0.0, float(p))
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
    """Samples the network already fits exactly under the replay convention."""
    rng = np.random.Generator(np.random.PCG64(seed))
    buf = online.ExperienceBuffer(100, net.n_in)
    for _ in range(n):
        x = rng.uniform(-1.0, 1.0, size=net.n_in)
        h = online.replay_hidden_state(net, x)
        y, _ = net.forward(x, h_prev=h)
        buf.push(x, y, 0.0)
    return buf


def test_residuals_vanish_on_perfect_fit():
    net = _net()
    buf = _perfect_buffer(net)
    n = len(buf)
    F, J = online.residuals_and_jacobian(net, buf.X[:n], buf.targets[:n])
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
    assert event is not None
    assert np.array_equal(net.to_vector(), before)


def test_update_respects_offline_mask():
    net = _net()
    rng = np.random.Generator(np.random.PCG64(1))
    buf = online.ExperienceBuffer(100, net.n_in)
    for _ in range(10):
        x = rng.uniform(-1.0, 1.0, size=net.n_in)
        buf.push(x, float(rng.normal()), 0.0)
    # zero momentum keeps the stability cap positive so the step is nonzero
    cfg = online.TriggerConfig(delta=0.01, momentum_alpha=0.0)
    opt = online.OnlineOptimizer(net, buf, cfg,
                                 np.random.Generator(np.random.PCG64(2)))
    before = net.to_vector().copy()
    event = opt.maybe_update(0, 1.0)
    assert event is not None and not event.rejected
    assert event.eta > 0.0
    after = net.to_vector()
    mask = net.online_mask()
    assert np.array_equal(after[~mask], before[~mask])
    assert not np.array_equal(after[mask], before[mask])
    # priorities of the evaluated samples were refreshed to |residual|
    assert np.any(buf.priority[:len(buf)] > 0.0)


def test_update_replays_the_rows_at_the_drawn_positions(monkeypatch):
    """maybe_update replays exactly buf.X[idx] and buf.targets[idx] for the
    positions idx its rng draws, and refreshes only their priorities."""
    net = _net()
    rng = np.random.Generator(np.random.PCG64(4))
    buf = online.ExperienceBuffer(50, net.n_in)
    for _ in range(40):
        buf.push(rng.uniform(-1.0, 1.0, size=net.n_in), float(rng.normal()), 5.0)
    seen = []

    def spy(fn):
        def wrapped(net_, X, targets):
            seen.append((fn.__name__, X.copy(), targets.copy()))
            return fn(net_, X, targets)
        return wrapped

    for name in ("residuals_and_jacobian", "batch_loss"):
        monkeypatch.setattr(online, name, spy(getattr(online, name)))
    cfg = online.TriggerConfig(delta=0.01, batch_s=8, momentum_alpha=0.0)
    idx = online.sample_batch(buf, cfg.batch_s,
                              np.random.Generator(np.random.PCG64(11)))
    X, targets = buf.X[idx].copy(), buf.targets[idx].copy()
    opt = online.OnlineOptimizer(net.copy(), buf, cfg,
                                 np.random.Generator(np.random.PCG64(11)))
    event = opt.maybe_update(0, 1.0)
    assert event is not None and not event.rejected
    assert [name for name, _, _ in seen] == ["residuals_and_jacobian",
                                             "batch_loss"]
    for _, X_seen, t_seen in seen:
        assert X_seen.tobytes() == X.tobytes()
        assert t_seen.tobytes() == targets.tobytes()
    F, _ = online.residuals_and_jacobian(net, X, targets)
    assert buf.priority[idx].tobytes() == np.abs(F).tobytes()
    rest = np.setdiff1d(np.arange(len(buf)), idx)
    assert np.all(buf.priority[rest] == 5.0)


def test_online_segments_are_a_prefix_of_the_layout():
    """The update reads and writes the online parameters, and slices their
    Jacobian columns, as the leading segments of the flat vector."""
    assert _SEGMENTS[:len(_ONLINE)] == _ONLINE
    assert all(flag for _, flag in _ONLINE)
    assert not any(flag for _, flag in _SEGMENTS[len(_ONLINE):])
    rng = np.random.Generator(np.random.PCG64(3))
    for seed, (m, p) in enumerate(((1, 1), (3, 2), (6, 6), (8, 8))):
        net = _net(seed, m, p)
        mask = net.online_mask()
        n = int(mask.sum())
        assert mask[:n].all() and not mask[n:].any()
        W = net.to_vector()
        assert net._vector(_ONLINE).tobytes() == W[:n].tobytes()
        # loading the prefix is the masked round trip through from_vector
        new = W[:n] + rng.normal(size=n)
        ref = net.copy()
        W_ref = W.copy()
        W_ref[mask] = new
        ref.from_vector(W_ref)
        net._load(new, _ONLINE)
        assert net.to_vector().tobytes() == ref.to_vector().tobytes()
        assert isinstance(net.gate_b, float) and isinstance(net.out_b, float)
        # the sliced Jacobian is the masked one, bit for bit and row-major
        X, targets = np.empty((5, 3)), np.empty(5)
        for i in range(5):
            X[i], targets[i] = rng.uniform(-1.0, 1.0, size=3), rng.normal()
        _, J = online.residuals_and_jacobian(net, X, targets)
        _, trace = online._replay(net, X, targets)
        J_ref = -np.compress(mask, net.jacobian_params(trace), axis=1)
        assert J.flags.c_contiguous and J.tobytes() == J_ref.tobytes()


def test_optimizer_cooldown_and_event_log():
    net = _net()
    rng = np.random.Generator(np.random.PCG64(1))
    buf = online.ExperienceBuffer(100, net.n_in)
    for _ in range(10):
        x = rng.uniform(-1.0, 1.0, size=net.n_in)
        buf.push(x, float(rng.normal()), 0.0)
    cfg = online.TriggerConfig(delta=0.01, cooldown_steps=5)
    opt = online.OnlineOptimizer(net, buf, cfg,
                                 np.random.Generator(np.random.PCG64(2)))
    assert opt.maybe_update(0, 1.0) is not None
    assert opt.maybe_update(3, 1.0) is None     # inside cooldown
    assert opt.maybe_update(5, 1.0) is not None
    assert [e.k for e in opt.events] == [0, 5]
    for e in opt.events:
        assert e.eta <= cfg.eta_max
        assert math.isfinite(e.grad_norm)


def test_replay_hidden_state_deterministic():
    net = _net()
    x = np.array([0.1, -0.3, 0.8])
    a = online.replay_hidden_state(net, x)
    b = online.replay_hidden_state(net, x)
    assert np.array_equal(a, b)
