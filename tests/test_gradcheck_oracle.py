"""The finite-difference oracle of tgrbf.gradcheck.

The oracle evaluates the perturbed copies of the whole parameter vector as
the columns of blocks (and all perturbed inputs in one call).  The
references below are the scalar oracle: one forward evaluation per
perturbed element, on a copy of the network, whose segments (the 0-d
biases too) are views of its parameter vector and so can be perturbed in
place; and the per-segment oracle, one call per parameter segment.  The
tests check that the blocked oracle agrees with both, that its blocks and
peak memory stay within the block budget, that both oracles lay out the
perturbed copies of the scalar loop, that it never calls the network kernel
it audits, and that the audit still catches a wrong Jacobian.
"""

import math
import tracemalloc

import numpy as np
import pytest

from tgrbf import gradcheck, network
from tgrbf.gradcheck import (FD_STEP, fd_jacobian_input, fd_jacobian_params,
                             gradient_audit)
from tgrbf.network import TgrbfNet, _SEGMENTS, random_net

FD_TOL = 1e-9       # absolute, FD columns against the scalar reference
VALUE_TOL = 1e-12   # relative, oracle values against the scalar reference


def _rel(got, want):
    """Max abs difference over max(1, max |want|), the convention of the
    audit itself (y is a difference of O(1) terms and may sit near 0)."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    scale = max(1.0, float(np.max(np.abs(want))))
    return float(np.max(np.abs(got - want))) / scale


# -- scalar reference ---------------------------------------------------------

def _ref_value(net, x, h_prev):
    d2 = np.sum((net.centers - x) ** 2, axis=1)
    y_rbf = float(net.rbf_w @ np.exp(-d2 / (2.0 * net.widths ** 2)))
    zeta = np.concatenate([x, h_prev])
    z = np.clip(net.W_z @ zeta + net.b_z, 0.0, 1.0)
    r = np.clip(net.W_r @ zeta + net.b_r, 0.0, 1.0)
    n = net.W_h @ np.concatenate([x, r * h_prev]) + net.b_h
    h_next = (1.0 - z) * h_prev + z * n
    out_b = float(np.asarray(net.out_b).ravel()[0])
    gate_b = float(np.asarray(net.gate_b).ravel()[0])
    y_gru = float(net.out_w @ h_next) + out_b
    if net.gate_frozen:
        g = 1.0
    else:
        g = 1.0 / (1.0 + math.exp(-(float(net.gate_w @ zeta) + gate_b)))
    return g * y_rbf + (1.0 - g) * y_gru


def _ref_segment(net, name, x, h_prev, step=FD_STEP):
    """Per-element perturbed parameter values and output values, in the
    order + for every element, then - for every element."""
    work = net.copy()
    flat = getattr(work, name).reshape(-1)
    rows, values = [], []
    for sign in (1.0, -1.0):
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + sign * step
            rows.append(flat.copy())
            values.append(_ref_value(work, x, h_prev))
            flat[i] = orig
    return np.array(rows), np.array(values)


def _ref_fd_params(net, x, h_prev, step=FD_STEP):
    work = net.copy()
    out = []
    for name, _ in _SEGMENTS:
        flat = getattr(work, name).reshape(-1)
        seg = np.empty(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            yp = _ref_value(work, x, h_prev)
            flat[i] = orig - step
            ym = _ref_value(work, x, h_prev)
            flat[i] = orig
            seg[i] = (yp - ym) / (2.0 * step)
        out.append(seg)
    return np.concatenate(out)


def _ref_fd_input(net, x, h_prev, step=FD_STEP):
    out = np.empty_like(x)
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += step
        xm[i] -= step
        out[i] = (_ref_value(net, xp, h_prev)
                  - _ref_value(net, xm, h_prev)) / (2.0 * step)
    return out


def _perturbed(base, step):
    """The copies base + step*e_i, then base - step*e_i, for every element
    i, stacked on a trailing axis of length 2*size."""
    e = step * np.eye(base.size)
    flat = base.reshape(-1, 1)
    return np.hstack([flat + e, flat - e]).reshape(base.shape + (-1,))


def _per_segment_fd_params(net, x, h_prev, step=FD_STEP):
    """One oracle call per parameter segment, over all of its copies."""
    prm = _params(net)
    out = []
    for name, _ in _SEGMENTS:
        cols = _perturbed(getattr(net, name), step)
        yp, ym = np.split(gradcheck._value_only(
            {**prm, name: cols}, x[:, None], h_prev[:, None],
            net.gate_frozen), 2)
        out.append((yp - ym) / (2.0 * step))
    return np.concatenate(out)


def _cases(seed, n):
    rng = np.random.Generator(np.random.PCG64(seed))
    for k in range(n):
        m, p = (int(v) for v in rng.integers(1, 9, size=2))
        net = random_net(3, m, p, rng)
        net.gate_frozen = bool(k % 2)
        yield (net, rng.uniform(-1.5, 1.5, size=3),
               rng.uniform(-0.5, 0.5, size=p))


def _params(net):
    """Every segment with the oracle's trailing perturbation axis, of
    length 1."""
    return {name: np.asarray(getattr(net, name), dtype=float)[..., None]
            for name, _ in _SEGMENTS}


# -- equivalence with the scalar reference ------------------------------------

def test_batched_fd_matches_scalar_reference():
    for net, x, h_prev in _cases(20, 60):
        jp = fd_jacobian_params(net, x, h_prev)
        assert jp.shape == (net.theta.size,)
        assert np.max(np.abs(jp - _ref_fd_params(net, x, h_prev))) <= FD_TOL
        jx = fd_jacobian_input(net, x, h_prev)
        assert jx.shape == x.shape
        assert np.max(np.abs(jx - _ref_fd_input(net, x, h_prev))) <= FD_TOL


def _count_oracle_calls(monkeypatch):
    calls = []
    oracle = gradcheck._value_only

    def counted(prm, x, h_prev, gate_frozen):
        calls.append(len(np.atleast_1d(prm["out_b"])))
        return oracle(prm, x, h_prev, gate_frozen)

    monkeypatch.setattr(gradcheck, "_value_only", counted)
    return calls


@pytest.mark.parametrize("rows", ["one block", "one row over", "one row"])
def test_blocked_fd_matches_per_segment_reference(monkeypatch, rows):
    calls = _count_oracle_calls(monkeypatch)
    for net, x, h_prev in _cases(25, 30):
        P = net.theta.size
        budget = {"one block": 2 * P * 8 * P,
                  "one row over": (2 * P - 1) * 8 * P,
                  "one row": 1}[rows]
        blocks = {"one block": [2 * P], "one row over": [2 * P - 1, 1],
                  "one row": [1] * (2 * P)}[rows]
        monkeypatch.setattr(gradcheck, "FD_BLOCK_BYTES", budget)
        calls.clear()
        jp = fd_jacobian_params(net, x, h_prev)
        assert calls == blocks
        assert jp.shape == (P,)
        ref = _per_segment_fd_params(net, x, h_prev)
        assert np.max(np.abs(jp - ref)) <= FD_TOL


def test_default_block_budget_bounds_rows_and_peak_memory(monkeypatch):
    rng = np.random.Generator(np.random.PCG64(26))
    net = random_net(3, 8, 8, rng)
    x, h_prev = rng.uniform(-1.5, 1.5, size=3), rng.uniform(-0.5, 0.5, size=8)
    P = net.theta.size
    calls = _count_oracle_calls(monkeypatch)
    fd_jacobian_params(net, x, h_prev)
    assert max(calls) * P * 8 <= gradcheck.FD_BLOCK_BYTES
    assert sum(calls) == 2 * P and len(calls) == math.ceil(
        2 * P / (gradcheck.FD_BLOCK_BYTES // (8 * P)))
    monkeypatch.undo()
    tracemalloc.start()
    try:
        fd_jacobian_params(net, x, h_prev)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6


def test_batched_values_match_scalar_reference_per_perturbation():
    for net, x, h_prev in _cases(21, 30):
        prm = _params(net)
        for name, _ in _SEGMENTS:
            cols = _perturbed(getattr(net, name), FD_STEP)
            ref_rows, ref_values = _ref_segment(net, name, x, h_prev)
            # the perturbed parameters are those of the scalar loop, exactly
            assert np.array_equal(cols.reshape(-1, cols.shape[-1]).T, ref_rows)
            values = gradcheck._value_only({**prm, name: cols}, x[:, None],
                                           h_prev[:, None], net.gate_frozen)
            assert _rel(values, ref_values) <= VALUE_TOL
        xs = _perturbed(x, FD_STEP)
        values = gradcheck._value_only(prm, xs, h_prev[:, None],
                                       net.gate_frozen)
        ref_values = [_ref_value(net, xi, h_prev) for xi in xs.T]
        assert _rel(values, ref_values) <= VALUE_TOL


@pytest.mark.parametrize("rows", ["one block", "one row over", "one row"])
def test_both_oracles_lay_out_the_copies_of_the_scalar_loop(monkeypatch, rows):
    """fd_jacobian_params and fd_jacobian_input hand the oracle the same
    copies, column for column, as the scalar loop perturbs: + for every
    element, then - for every element, split into blocks by the budget."""
    blocks = []
    oracle = gradcheck._value_only

    def recorded(prm, x, h_prev, gate_frozen):
        # copies: the oracle refills one block's memory
        cols = len(np.atleast_1d(prm["out_b"]))
        blocks.append((np.concatenate([np.reshape(prm[name], (-1, cols))
                                       for name, _ in _SEGMENTS]), x.copy()))
        return oracle(prm, x, h_prev, gate_frozen)

    monkeypatch.setattr(gradcheck, "_value_only", recorded)
    for net, x, h_prev in _cases(27, 10):
        P = net.theta.size
        budget = {"one block": 2 * P * 8 * P,
                  "one row over": (2 * P - 1) * 8 * P, "one row": 1}[rows]
        monkeypatch.setattr(gradcheck, "FD_BLOCK_BYTES", budget)
        blocks.clear()
        fd_jacobian_params(net, x, h_prev)
        theta = np.hstack([b for b, _ in blocks])
        assert np.array_equal(theta, _perturbed(net.theta, FD_STEP))
        blocks.clear()
        fd_jacobian_input(net, x, h_prev)
        assert np.array_equal(np.hstack([xs for _, xs in blocks]),
                              _perturbed(x, FD_STEP))


def test_unperturbed_value_matches_forward():
    for net, x, h_prev in _cases(22, 20):
        y, _ = net.forward(x, h_prev=h_prev)
        value = gradcheck._value_only(_params(net), x[:, None],
                                      h_prev[:, None], net.gate_frozen)
        assert _rel(value, [y]) <= VALUE_TOL


def test_frozen_gate_columns_are_exactly_zero():
    for net, x, h_prev in _cases(23, 20):
        net.gate_frozen = True
        jp = fd_jacobian_params(net, x, h_prev)
        assert jp.shape == (net.theta.size,)
        layout = {n: (o, s) for n, o, s in net.layout()}
        for name in ("gate_w", "gate_b"):
            off, size = layout[name]
            assert np.all(jp[off:off + size] == 0.0)


# -- independence from the audited kernel -------------------------------------

def test_oracle_never_calls_the_network_kernel(monkeypatch):
    cases = list(_cases(24, 10))

    def boom(*args, **kwargs):
        raise AssertionError("the oracle called the kernel it audits")

    monkeypatch.setattr(TgrbfNet, "forward", boom)
    monkeypatch.setattr(TgrbfNet, "jacobian_params", boom)
    monkeypatch.setattr(TgrbfNet, "jacobian_input", boom)
    monkeypatch.setattr(network, "lgru_step", boom)
    for net, x, h_prev in cases:
        assert np.all(np.isfinite(fd_jacobian_params(net, x, h_prev)))
        assert np.all(np.isfinite(fd_jacobian_input(net, x, h_prev)))


# -- sensitivity: a wrong Jacobian is caught ----------------------------------

@pytest.mark.parametrize("segment", [name for name, _ in _SEGMENTS])
def test_audit_catches_scaled_param_segment(monkeypatch, segment):
    analytic = TgrbfNet.jacobian_params

    def scaled(self, trace):
        J = analytic(self, trace).copy()
        off, size = {n: (o, s) for n, o, s in self.layout()}[segment]
        J[..., off:off + size] *= 1.01
        return J

    monkeypatch.setattr(TgrbfNet, "jacobian_params", scaled)
    assert gradient_audit(n_pairs=20, seed=3) >= 1e-5


def test_audit_catches_scaled_input_jacobian(monkeypatch):
    assert gradient_audit(n_pairs=20, seed=3) < 1e-5   # the same pairs pass
    analytic = TgrbfNet.jacobian_input
    monkeypatch.setattr(TgrbfNet, "jacobian_input",
                        lambda self, trace: 1.01 * analytic(self, trace))
    assert gradient_audit(n_pairs=20, seed=3) >= 1e-5
