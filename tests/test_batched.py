"""Equivalence of the batched network kernel with per-sample evaluation.

The reference functions below evaluate the forward pass, the parameter
Jacobian and the replay loop one sample per call, with code that shares nothing with the
batched formulas in tgrbf.network.  Agreement is required to 1e-12
relative; clamp masks must match exactly, including pre-activations placed
on the kinks.
"""

import numpy as np
import pytest

from tgrbf import online
from tgrbf.network import random_net

TOL = 1e-12


# -- per-sample reference ----------------------------------------------------

def _ref_mask(pre):
    return ((pre > 0.0) & (pre < 1.0)).astype(float)


def _ref_forward(net, x, h_prev):
    """(y, trace dict) for one sample."""
    d2 = np.sum((net.centers - x) ** 2, axis=1)
    phi = np.exp(-d2 / (2.0 * net.widths ** 2))
    y_rbf = float(np.dot(net.rbf_w, phi))
    zeta = np.concatenate([x, h_prev])
    pre_z = net.W_z @ zeta + net.b_z
    pre_r = net.W_r @ zeta + net.b_r
    z = np.clip(pre_z, 0.0, 1.0)
    r = np.clip(pre_r, 0.0, 1.0)
    xi = np.concatenate([x, r * h_prev])
    n = net.W_h @ xi + net.b_h
    h_next = (1.0 - z) * h_prev + z * n
    y_gru = float(net.out_w @ h_next + net.out_b)
    if net.gate_frozen:
        g = 1.0
    else:
        g = float(1.0 / (1.0 + np.exp(-(float(np.dot(net.gate_w, zeta))
                                        + net.gate_b))))
    y = g * y_rbf + (1.0 - g) * y_gru
    return y, dict(x=x, h_prev=h_prev, phi=phi, y_rbf=y_rbf, pre_z=pre_z,
                   pre_r=pre_r, z=z, r=r, n=n, h_next=h_next, y_gru=y_gru,
                   g=g, zeta=zeta, xi=xi)


def _ref_jacobian_params(net, tr):
    x, h_prev, g = tr["x"], tr["h_prev"], tr["g"]
    phi, z, n = tr["phi"], tr["z"], tr["n"]
    one_m_g = 1.0 - g
    diff = x - net.centers
    d_rbf_w = g * phi
    d_centers = (g * net.rbf_w * phi / net.widths ** 2)[:, None] * diff
    d_widths = g * net.rbf_w * phi * np.sum(diff ** 2, axis=1) / net.widths ** 3
    q = one_m_g * net.out_w
    mz, mr = _ref_mask(tr["pre_z"]), _ref_mask(tr["pre_r"])
    zeta = tr["zeta"]
    cz = q * (n - h_prev) * mz
    d_W_z = np.outer(cz, zeta)
    d_W_h = np.outer(q * z, tr["xi"])
    t = ((q * z) @ net.W_h[:, net.n_in:]) * h_prev * mr
    d_W_r = np.outer(t, zeta)
    s_g = 0.0 if net.gate_frozen else g * one_m_g * (tr["y_rbf"] - tr["y_gru"])
    return np.concatenate([
        d_rbf_w, d_centers.ravel(), d_W_z.ravel(), d_W_r.ravel(),
        d_W_h.ravel(), s_g * zeta, [s_g], one_m_g * tr["h_next"], [one_m_g],
        d_widths, cz, t, q * z,
    ])


def _ref_residuals_and_jacobian(net, X, H, targets):
    """The per-sample replay loop: one forward from each stored state, one
    Jacobian."""
    mask = net.online_mask()
    F, J = [], []
    for x, h, target in zip(X, H, targets):
        y_hat, tr = _ref_forward(net, x, h)
        F.append(target - y_hat)
        J.append(-_ref_jacobian_params(net, tr)[mask])
    return np.array(F), np.array(J)


# -- helpers -----------------------------------------------------------------

def _rel(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    scale = max(1.0, float(np.max(np.abs(want)))) if want.size else 1.0
    return float(np.max(np.abs(got - want))) / scale if want.size else 0.0


def _cases(seed, n_cases):
    rng = np.random.Generator(np.random.PCG64(seed))
    for i in range(n_cases):
        m, p = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        s = int(rng.integers(1, 41))
        net = random_net(3, m, p, rng, scale=float(rng.uniform(0.3, 1.5)))
        net.gate_frozen = bool(i % 2)
        X = rng.uniform(-1.5, 1.5, size=(s, 3))
        H = rng.uniform(-0.8, 0.8, size=(s, p))
        yield net, X, H


def _assert_batch_matches(net, X, H):
    y, tr = net.forward(X, h_prev=H)
    J = net.jacobian_params(tr)
    assert y.shape == (len(X),)
    assert J.shape == (len(X), net.theta.size)
    for i in range(len(X)):
        y_ref, ref = _ref_forward(net, X[i], H[i])
        assert _rel(y[i], y_ref) <= TOL
        assert _rel(tr.h_next[i], ref["h_next"]) <= TOL
        assert _rel(tr.g[i], ref["g"]) <= TOL
        assert np.array_equal(_ref_mask(tr.pre_zr[i, :net.p]),
                              _ref_mask(ref["pre_z"]))
        assert np.array_equal(_ref_mask(tr.pre_zr[i, net.p:]),
                              _ref_mask(ref["pre_r"]))
        assert _rel(J[i], _ref_jacobian_params(net, ref)) <= TOL
    return tr


# -- tests -------------------------------------------------------------------

def test_single_sample_forward_keeps_scalar_types():
    net, X, H = next(_cases(0, 1))
    y, tr = net.forward(X[0], h_prev=H[0])
    assert isinstance(y, float)
    for name in ("y_rbf", "y_gru", "g"):
        assert isinstance(getattr(tr, name), float)
    assert net.jacobian_params(tr).shape == (net.theta.size,)
    assert net.jacobian_input(tr).shape == (net.n_in,)
    y_ref, ref = _ref_forward(net, X[0], H[0])
    assert _rel(y, y_ref) <= TOL
    assert _rel(net.jacobian_params(tr), _ref_jacobian_params(net, ref)) <= TOL


def test_batched_forward_and_jacobians_match_per_sample():
    for net, X, H in _cases(1, 120):
        _assert_batch_matches(net, X, H)


def test_batch_sizes_one_to_forty():
    rng = np.random.Generator(np.random.PCG64(2))
    for gate_frozen in (False, True):
        net = random_net(3, 5, 4, rng)
        net.gate_frozen = gate_frozen
        for s in range(1, 41):
            X = rng.uniform(-1.5, 1.5, size=(s, 3))
            H = rng.uniform(-0.8, 0.8, size=(s, 4))
            _assert_batch_matches(net, X, H)


def test_kink_pre_activations_match_exactly():
    """pre_z = x0 and pre_r = x1 exactly, placed on and next to 0 and 1."""
    rng = np.random.Generator(np.random.PCG64(4))
    kinks = np.array([0.0, 1.0, 1e-13, -1e-13, 1.0 - 1e-13, 1.0 + 1e-13,
                      0.5, -0.2, 1.3])
    for gate_frozen in (False, True):
        for p in (1, 3, 6):
            net = random_net(3, 4, p, rng)
            net.gate_frozen = gate_frozen
            net.W_z[:] = 0.0
            net.W_z[:, 0] = 1.0
            net.W_r[:] = 0.0
            net.W_r[:, 1] = 1.0
            net.b_z[:] = 0.0
            net.b_r[:] = 0.0
            x0, x1 = np.meshgrid(kinks, kinks)
            X = np.column_stack([x0.ravel(), x1.ravel(),
                                 rng.uniform(-1.0, 1.0, size=x0.size)])
            H = rng.uniform(-0.8, 0.8, size=(len(X), p))
            tr = _assert_batch_matches(net, X, H)
            assert np.array_equal(tr.pre_zr[:, :p], np.repeat(X[:, :1], p, axis=1))
            assert np.array_equal(tr.pre_zr[:, p:], np.repeat(X[:, 1:2], p, axis=1))


def test_residuals_and_jacobian_match_per_sample_replay():
    rng = np.random.Generator(np.random.PCG64(5))
    for net, X, H in _cases(6, 60):
        targets = rng.normal(size=len(X))
        F, J = online.residuals_and_jacobian(net, X, H, targets)
        F_ref, J_ref = _ref_residuals_and_jacobian(net, X, H, targets)
        assert _rel(F, F_ref) <= TOL
        assert _rel(J, J_ref) <= TOL
        assert online.batch_loss(net, X, H, targets) == pytest.approx(
            float(F_ref @ F_ref) / (2.0 * len(X)), rel=TOL)


def test_batched_forward_validation():
    net, X, _ = next(_cases(8, 1))
    with pytest.raises(ValueError):
        net.forward(X[:, :2])
    with pytest.raises(ValueError):
        net.forward(X[None])
    bad = X.copy()
    bad[-1, 0] = np.nan
    with pytest.raises(ValueError):
        net.forward(bad)
