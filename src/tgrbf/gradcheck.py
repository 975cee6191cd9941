"""Finite-difference audit of the analytic Jacobians.

Central differences with step 1e-6 over random networks and inputs, skipping
configurations whose clamp pre-activations sit within 1e-3 of a kink (where
the subgradient convention makes the comparison ill-posed).
"""

from __future__ import annotations

import numpy as np

from .network import TgrbfNet, random_net

__all__ = ["fd_jacobian_params", "fd_jacobian_input", "gradient_audit",
           "kink_clear"]

FD_STEP = 1e-6
KINK_MARGIN = 1e-3
FD_BLOCK_BYTES = 512 * 1024   # stacked parameters per oracle call


def kink_clear(trace) -> bool:
    """True when every clamp pre-activation is at least KINK_MARGIN away
    from both kinks (0 and 1)."""
    pre = trace.pre_zr
    return bool(np.all(np.minimum(np.abs(pre), np.abs(pre - 1.0)) >= KINK_MARGIN))


def _cat(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Concatenate along the last axis, broadcasting the leading axes."""
    lead = np.broadcast(a[..., 0], b[..., 0]).shape
    return np.concatenate([np.broadcast_to(a, lead + a.shape[-1:]),
                           np.broadcast_to(b, lead + b.shape[-1:])], axis=-1)


def _value_only(prm: dict, x: np.ndarray, h_prev: np.ndarray,
                gate_frozen: bool) -> np.ndarray:
    """Network output from a dict of parameter arrays, written out
    independently of the network kernel it audits.  `x` or entries of `prm`
    may carry a common leading perturbation axis; y then carries it too."""
    mv = lambda A, v: np.einsum("...ij,...j->...i", A, v)
    dot = lambda a, b: np.einsum("...i,...i->...", a, b)
    d2 = np.sum((prm["centers"] - x[..., None, :]) ** 2, axis=-1)
    y_rbf = dot(prm["rbf_w"], np.exp(-d2 / (2.0 * prm["widths"] ** 2)))
    zeta = _cat(x, h_prev)
    z = np.clip(mv(prm["W_z"], zeta) + prm["b_z"], 0.0, 1.0)
    r = np.clip(mv(prm["W_r"], zeta) + prm["b_r"], 0.0, 1.0)
    n = mv(prm["W_h"], _cat(x, r * h_prev)) + prm["b_h"]
    h_next = (1.0 - z) * h_prev + z * n
    y_gru = dot(prm["out_w"], h_next) + prm["out_b"]
    s = dot(prm["gate_w"], zeta) + prm["gate_b"]
    # a frozen gate still takes the batch shape of a perturbed gate segment
    g = np.ones_like(s) if gate_frozen else 1.0 / (1.0 + np.exp(-s))
    return g * y_rbf + (1.0 - g) * y_gru


def _perturbed(base: np.ndarray, step: float) -> np.ndarray:
    """The copies base + step*e_i, then base - step*e_i, for every element
    i, stacked on a leading axis of length 2*size."""
    e = step * np.eye(base.size)
    flat = base.reshape(-1)
    return np.concatenate([flat + e, flat - e]).reshape((-1,) + base.shape)


def fd_jacobian_params(net: TgrbfNet, x, h_prev) -> np.ndarray:
    """Central finite differences of y with respect to the flat parameter
    vector, holding h_prev fixed (same truncation as the analytic path).
    The 2P copies W + FD_STEP*e_i, then W - FD_STEP*e_i, go through the
    oracle in blocks of at most FD_BLOCK_BYTES of parameters."""
    x, h_prev = np.asarray(x, dtype=float), np.asarray(h_prev, dtype=float)
    W, layout = net.theta, net.layout()
    P = W.size
    rows = max(1, FD_BLOCK_BYTES // (W.itemsize * P))
    y = np.empty(2 * P)
    for a in range(0, 2 * P, rows):
        i = np.arange(a, min(a + rows, 2 * P))
        block = np.tile(W, (i.size, 1))
        block[np.arange(i.size), i % P] += np.where(i < P, FD_STEP, -FD_STEP)
        y[i] = _value_only({name: block[:, off:off + size].reshape(
                                (i.size,) + getattr(net, name).shape)
                            for name, off, size in layout},
                           x, h_prev, net.gate_frozen)
    return (y[:P] - y[P:]) / (2.0 * FD_STEP)


def fd_jacobian_input(net: TgrbfNet, x, h_prev) -> np.ndarray:
    prm = {name: getattr(net, name) for name, _, _ in net.layout()}
    xs = _perturbed(np.asarray(x, dtype=float), FD_STEP)
    yp, ym = np.split(_value_only(prm, xs, np.asarray(h_prev, dtype=float),
                                  net.gate_frozen), 2)
    return (yp - ym) / (2.0 * FD_STEP)


def _rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    scale = max(1.0, float(np.max(np.abs(numeric))))
    return float(np.max(np.abs(analytic - numeric))) / scale


def gradient_audit(n_pairs: int, seed: int,
                   m_range=(1, 8), p_range=(1, 8)) -> float:
    """Max relative error between analytic and finite-difference Jacobians
    (parameters and input) over n_pairs random (network, input) pairs."""
    rng = np.random.Generator(np.random.PCG64(seed))
    worst = 0.0
    done = 0
    while done < n_pairs:
        m = int(rng.integers(m_range[0], m_range[1] + 1))
        p = int(rng.integers(p_range[0], p_range[1] + 1))
        net = random_net(3, m, p, rng)
        x = rng.uniform(-1.5, 1.5, size=3)
        h_prev = rng.uniform(-0.5, 0.5, size=p)
        _, trace = net.forward(x, h_prev=h_prev)
        if not kink_clear(trace):
            continue
        jp = net.jacobian_params(trace)
        jx = net.jacobian_input(trace)
        worst = max(worst,
                    _rel_err(jp, fd_jacobian_params(net, x, h_prev)),
                    _rel_err(jx, fd_jacobian_input(net, x, h_prev)))
        done += 1
    return worst
