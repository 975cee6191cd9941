import numpy as np
import pytest

from tgrbf.gradcheck import (fd_jacobian_input, fd_jacobian_params,
                             gradient_audit, kink_clear)
from tgrbf.network import random_net

TOL = 1e-5


def _random_case(rng, m=None, p=None):
    m = m or int(rng.integers(1, 6))
    p = p or int(rng.integers(1, 6))
    net = random_net(3, m, p, rng)
    x = rng.uniform(-1.5, 1.5, size=3)
    h_prev = rng.uniform(-0.5, 0.5, size=p)
    return net, x, h_prev


def _rel(analytic, numeric):
    scale = max(1.0, float(np.max(np.abs(numeric))))
    return float(np.max(np.abs(analytic - numeric))) / scale


def test_param_jacobian_matches_finite_differences():
    rng = np.random.Generator(np.random.PCG64(11))
    checked = 0
    while checked < 10:
        net, x, h_prev = _random_case(rng)
        _, tr = net.forward(x, h_prev=h_prev)
        if not kink_clear(tr):
            continue
        assert _rel(net.jacobian_params(tr),
                    fd_jacobian_params(net, x, h_prev)) < TOL
        checked += 1


def test_input_jacobian_matches_finite_differences():
    rng = np.random.Generator(np.random.PCG64(12))
    checked = 0
    while checked < 10:
        net, x, h_prev = _random_case(rng)
        _, tr = net.forward(x, h_prev=h_prev)
        if not kink_clear(tr):
            continue
        assert _rel(net.jacobian_input(tr),
                    fd_jacobian_input(net, x, h_prev)) < TOL
        checked += 1


def test_gate_frozen_jacobians_match_fd_and_zero_gate_grads():
    rng = np.random.Generator(np.random.PCG64(13))
    net, x, h_prev = _random_case(rng)
    net.gate_frozen = True
    _, tr = net.forward(x, h_prev=h_prev)
    jp = net.jacobian_params(tr)
    assert _rel(jp, fd_jacobian_params(net, x, h_prev)) < TOL
    assert _rel(net.jacobian_input(tr),
                fd_jacobian_input(net, x, h_prev)) < TOL
    layout = {n: (o, s) for n, o, s in net.layout()}
    for name in ("gate_w", "gate_b"):
        off, size = layout[name]
        assert np.all(jp[off:off + size] == 0.0)


def test_gate_near_one_suppresses_lgru_param_grads():
    rng = np.random.Generator(np.random.PCG64(14))
    net, x, h_prev = _random_case(rng)
    net.gate_b = 40.0                 # g -> 1 to machine precision
    _, tr = net.forward(x, h_prev=h_prev)
    jp = net.jacobian_params(tr)
    layout = {n: (o, s) for n, o, s in net.layout()}
    for name in ("W_z", "W_r", "W_h", "out_w", "out_b", "b_z", "b_r", "b_h"):
        off, size = layout[name]
        assert np.max(np.abs(jp[off:off + size])) < 1e-12


def test_saturated_update_gate_has_zero_subgradient():
    rng = np.random.Generator(np.random.PCG64(15))
    net, x, h_prev = _random_case(rng)
    net.b_z = np.full(net.p, 5.0)     # pre_z > 1 everywhere -> z saturated
    _, tr = net.forward(x, h_prev=h_prev)
    assert np.all(tr.zr[:net.p] == 1.0)
    jp = net.jacobian_params(tr)
    layout = {n: (o, s) for n, o, s in net.layout()}
    for name in ("W_z", "b_z"):
        off, size = layout[name]
        assert np.all(jp[off:off + size] == 0.0)


def test_kink_clear_flags_near_kink_preactivations():
    rng = np.random.Generator(np.random.PCG64(16))
    net, x, h_prev = _random_case(rng, m=2, p=1)
    net.W_z = np.zeros_like(net.W_z)
    net.b_z = np.array([1.0 + 1e-5])  # within margin of the upper kink
    _, tr = net.forward(x, h_prev=h_prev)
    assert not kink_clear(tr)
    net.b_z = np.array([0.5])
    _, tr = net.forward(x, h_prev=h_prev)
    assert kink_clear(tr)


def test_gradient_audit_smoke():
    assert gradient_audit(n_pairs=20, seed=3) < TOL
