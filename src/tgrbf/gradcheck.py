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
    """Concatenate along the first axis, broadcasting the trailing one."""
    out = np.empty((len(a) + len(b), max(a.shape[-1], b.shape[-1])))
    out[:len(a)], out[len(a):] = a, b
    return out


def _value_only(prm: dict, x: np.ndarray, h_prev: np.ndarray,
                gate_frozen: bool) -> np.ndarray:
    """Network output from a dict of parameter arrays, written out
    independently of the network kernel it audits.  `x`, `h_prev` and each
    entry of `prm` carry a trailing perturbation axis of length 1 or c, and
    y is (c,); einsum runs every inner loop along that contiguous axis."""
    mv = lambda A, v: np.einsum("ijc,jc->ic", A, v)
    dot = lambda a, b: np.einsum("ic,ic->c", a, b)
    d2 = ((prm["centers"] - x[None]) ** 2).sum(axis=1)
    y_rbf = dot(prm["rbf_w"], np.exp(-d2 / (2.0 * prm["widths"] ** 2)))
    zeta = _cat(x, h_prev)
    z = (mv(prm["W_z"], zeta) + prm["b_z"]).clip(0.0, 1.0)
    r = (mv(prm["W_r"], zeta) + prm["b_r"]).clip(0.0, 1.0)
    n = mv(prm["W_h"], _cat(x, r * h_prev)) + prm["b_h"]
    h_next = (1.0 - z) * h_prev + z * n
    y_gru = dot(prm["out_w"], h_next) + prm["out_b"]
    s = dot(prm["gate_w"], zeta) + prm["gate_b"]
    # a frozen gate still takes the batch shape of a perturbed gate segment
    g = np.ones_like(s) if gate_frozen else 1.0 / (1.0 + np.exp(-s))
    return g * y_rbf + (1.0 - g) * y_gru


def _central_difference(base: np.ndarray, value) -> np.ndarray:
    """Central finite differences of value at the flat vector base.  The 2N
    copies base + FD_STEP*e_i, then base - FD_STEP*e_i, go to value as the
    columns of (N, cols) blocks of at most FD_BLOCK_BYTES; value gives the
    output of each column."""
    N = base.size
    cols = max(1, FD_BLOCK_BYTES // (base.itemsize * N))
    y, buf = np.empty(2 * N), np.empty((N, min(cols, 2 * N)))
    for a in range(0, 2 * N, cols):
        i = np.arange(a, min(a + cols, 2 * N))
        block = buf[:, :i.size]   # one block's memory, refilled
        block[...] = base[:, None]
        block[i % N, np.arange(i.size)] += np.where(i < N, FD_STEP, -FD_STEP)
        y[i] = value(block)
    return (y[:N] - y[N:]) / (2.0 * FD_STEP)


def fd_jacobian_params(net: TgrbfNet, x, h_prev) -> np.ndarray:
    """Central finite differences of y with respect to the flat parameter
    vector, holding h_prev fixed (same truncation as the analytic path)."""
    x = np.asarray(x, dtype=float)[:, None]
    h_prev = np.asarray(h_prev, dtype=float)[:, None]
    return _central_difference(net.theta, lambda block: _value_only(
        {name: block[off:off + size].reshape(getattr(net, name).shape + (-1,))
         for name, off, size in net.layout()}, x, h_prev, net.gate_frozen))


def fd_jacobian_input(net: TgrbfNet, x, h_prev) -> np.ndarray:
    prm = {name: getattr(net, name)[..., None] for name, _, _ in net.layout()}
    h_prev = np.asarray(h_prev, dtype=float)[:, None]
    return _central_difference(np.asarray(x, dtype=float), lambda xs: _value_only(
        prm, xs, h_prev, net.gate_frozen))


def _rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    scale = max(1.0, float(np.max(np.abs(numeric))))
    return float(np.max(np.abs(analytic - numeric))) / scale


def gradient_audit(n_pairs: int, seed: int) -> float:
    """Max relative error between analytic and finite-difference Jacobians
    (parameters and input) over n_pairs random (network, input) pairs."""
    rng = np.random.Generator(np.random.PCG64(seed))
    worst = 0.0
    done = 0
    while done < n_pairs:
        m, p = int(rng.integers(1, 9)), int(rng.integers(1, 9))
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
