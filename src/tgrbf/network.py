"""Temporal-gated RBF network: Gaussian RBF branch, linearized GRU branch,
sigmoid fusion gate, with exact analytic Jacobians.

The network output is a convex combination of the two branch outputs,

    y = g * y_rbf + (1 - g) * y_gru,

where the gate g is a sigmoid of an affine map of [x; h_prev].  The GRU
branch is "linearized": the usual sigmoid gates are replaced by hard clamps
to [0, 1] and the candidate state is affine (no tanh).  Parameter gradients
are single-step: the dependence of h_prev on the parameters is truncated.

The update and reset gates are stacked, as in cuDNN's GRU layout: one
affine map of [x; h_prev] by W_zr = [W_z; W_r] (2p, n_in + p) and one clamp
give both, and one mask gives both derivatives.  dy/dx is one product of
the first-layer terms with the x-columns of [W_z; W_r; W_h; gate_w].
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TgrbfNet",
    "ForwardTrace",
    "lgru_step",
    "sigmoid",
]

# Derivative of clamp(a, 0, 1): 1 strictly inside (0, 1), 0 outside and at
# the kinks themselves (saturated gates stay frozen), as a bool 0/1 mask.
def _clamp_mask(pre: np.ndarray) -> np.ndarray:
    return (pre > 0.0) & (pre < 1.0)


def _item(a):
    """A Python float for one sample, the array itself for a batch."""
    return float(a) if a.ndim == 0 else a


def sigmoid(a):
    return 1.0 / (1.0 + np.exp(-a))


def _check_widths(widths: np.ndarray) -> None:
    if (widths <= 0.0).any():
        raise ValueError("all kernel widths must be positive")


def lgru_step(x, h_prev, W_zr, b_zr, W_h, b_h):
    """One linearized-GRU step.  Returns h_next and the intermediates
    (zeta, pre_zr, zr, xi, n) that the Jacobians reuse.

    W_zr = [W_z; W_r] and b_zr = [b_z; b_r] stack the update and reset
    gates: pre_zr = [pre_z, pre_r] are their affine pre-activations and
    zr = [z, r] their hard clamps to [0, 1].  The candidate state n is
    affine in [x; r*h_prev].  x and h_prev may carry a common leading batch
    axis.
    """
    zeta = np.concatenate([x, h_prev], axis=-1)
    pre_zr = zeta @ W_zr.T + b_zr
    zr = pre_zr.clip(0.0, 1.0)
    p = h_prev.shape[-1]
    z = zr[..., :p]
    xi = np.concatenate([x, zr[..., p:] * h_prev], axis=-1)
    n = xi @ W_h.T + b_h
    h_next = (1.0 - z) * h_prev + z * n
    return h_next, zeta, pre_zr, zr, xi, n


@dataclass
class ForwardTrace:
    """All intermediates of one forward pass, for Jacobian reuse.

    For a batch every field carries the leading batch axis, and the scalar
    fields (y_rbf, y_gru, g) are (s,) arrays instead of floats.  pre_zr and
    zr hold both gates, the update gate's p columns first.  The input x is
    zeta[..., :n_in]; diff is x - centers, which both Jacobians read."""

    diff: np.ndarray
    h_prev: np.ndarray
    phi: np.ndarray
    y_rbf: float | np.ndarray
    pre_zr: np.ndarray
    zr: np.ndarray
    n: np.ndarray
    h_next: np.ndarray
    y_gru: float | np.ndarray
    g: float | np.ndarray
    zeta: np.ndarray
    xi: np.ndarray


def _shapes(n_in: int, m: int, p: int) -> dict[str, tuple[int, ...]]:
    """Every parameter segment's shape, in flat-vector order (the two
    biases are 0-d).  The online set leads; widths and LGRU biases, the
    `_OFFLINE` segments, are trained offline only."""
    k = n_in + p
    return {"rbf_w": (m,), "centers": (m, n_in), "W_z": (p, k),
            "W_r": (p, k), "W_h": (p, k), "gate_w": (k,), "gate_b": (),
            "out_w": (p,), "out_b": (),
            "widths": (m,), "b_z": (p,), "b_r": (p,), "b_h": (p,)}


def _left_repeats(n_in: int, m: int, p: int) -> np.ndarray:
    """How many columns of dy/dW, in flat-vector order, each left factor of
    `TgrbfNet.jacobian_params` multiplies: g (rbf_w), each center's b (its
    n_in coordinates), the 3p row terms (a row of W_z, W_r or W_h each),
    dy/dgate_b (gate_w and gate_b) and 1 - g (out_w and out_b); then one
    column each for the offline widths and b_z, b_r, b_h."""
    k = n_in + p
    return np.array([m] + [n_in] * m + [k] * (3 * p) + [k + 1, p + 1]
                    + [1] * (m + 3 * p))


_OFFLINE = ("widths", "b_z", "b_r", "b_h")
# (name, online) for every segment, in flat-vector order
_SEGMENTS = [(name, name not in _OFFLINE) for name in _shapes(0, 0, 0)]
# attributes that are views of the flat parameter vector: the segments and
# the stacked first-layer views W_zr, b_zr and W_x
_VIEWS = frozenset(name for name, _ in _SEGMENTS) | {"theta", "W_zr", "b_zr", "W_x"}


class TgrbfNet:
    """Network weights plus the recurrent hidden state.

    The weights are one flat vector, `theta`, in `_SEGMENTS` order.  Each
    segment attribute (centers (m, n_in), widths (m,), ..., the 0-d biases
    gate_b and out_b) is a view of it, and assigning a segment writes into
    `theta`.  The online segments lead, so the online set is the prefix
    `theta[:n_online]`.  W_z, W_r, W_h and gate_w are adjacent, and so are
    b_z and b_r, which gives three more views: W_zr = [W_z; W_r] (2p, k),
    b_zr = [b_z; b_r] and W_x, the x-columns of [W_z; W_r; W_h; gate_w]
    (3p + 1, n_in), with k = n_in + p.  `h` is the current hidden state
    (h_init by default); `gate_frozen` forces g = 1, the pure-RBF ablation.

    Forward/jacobian methods never mutate the instance; `advance` is the
    explicit stateful step used by run loops.
    """

    def __init__(self, *, h_init, h=None, gate_frozen=False, **segments):
        h_init = np.asarray(h_init, dtype=float)
        if np.ndim(segments.get("centers")) != 2 or h_init.ndim != 1:
            raise ValueError("segment centers must be (m, n_in) and h_init (p,)")
        m, n_in = np.shape(segments["centers"])
        shapes = _shapes(n_in, m, h_init.size)
        for name in {**shapes, **segments}:
            got = np.shape(segments[name]) if name in segments else "none"
            if got != shapes.get(name):
                raise ValueError(f"segment {name} has shape {got}, "
                                 f"expected {shapes.get(name)}")
        sizes = [math.prod(shape) for shape in shapes.values()]
        bounds = np.cumsum([0] + sizes).tolist()
        theta = np.concatenate([np.ravel(segments[name]) for name in shapes],
                               dtype=float)
        for (name, shape), a, b in zip(shapes.items(), bounds, bounds[1:]):
            self.__dict__[name] = theta[a:b].reshape(shape)
        self.__dict__["theta"] = theta
        # the stacked views: [W_z; W_r; W_h; gate_w] and [b_z; b_r] are adjacent
        off, p = dict(zip(shapes, bounds)), h_init.size
        first = theta[off["W_z"]:off["gate_b"]].reshape(3 * p + 1, n_in + p)
        self.__dict__.update(W_zr=first[:2 * p], W_x=first[:, :n_in],
                             b_zr=theta[off["b_z"]:off["b_h"]])
        # the segment shapes are fixed: assignment keeps them
        self.n_in, self.m, self.p = n_in, m, p
        self._layout = list(zip(shapes, bounds, sizes))
        self._repeats = _left_repeats(n_in, m, p)
        self.n_online = off[_OFFLINE[0]]   # the online segments lead
        self.h_init = h_init
        self.h = h_init.copy() if h is None else h
        self.gate_frozen = gate_frozen
        if m < 1:
            raise ValueError("need at least one RBF node")
        _check_widths(self.widths)
        if not (np.isfinite(theta).all() and np.isfinite(h_init).all()):
            raise ValueError("network parameters must be finite")

    def __setattr__(self, name, value):
        """A segment, theta or a stacked view is assigned by writing into
        theta."""
        if name not in _VIEWS:
            self.__dict__[name] = value
        elif np.shape(value) != self.__dict__[name].shape:
            raise ValueError(f"{name} has shape {self.__dict__[name].shape}, "
                             f"got {np.shape(value)}")
        else:
            self.__dict__[name][...] = value

    # -- forward ------------------------------------------------------------

    def reset(self) -> None:
        """Reset the hidden state for a new independent sequence."""
        self.h = self.h_init.copy()

    def forward(self, x, h_prev=None) -> tuple[float | np.ndarray, ForwardTrace]:
        """Evaluate the network at input x with hidden state h_prev
        (defaults to the stored state).  Pure: does not mutate self.

        x is one input (n_in,) or a batch (s, n_in).  For a batch, h_prev
        is (s, p), one state per row, y is an (s,) array and every trace
        field carries the batch axis."""
        x = self._checked(x)
        h_prev = self.h if h_prev is None else np.asarray(h_prev, dtype=float)
        diff = x[..., None, :] - self.centers   # the RBF branch
        phi = np.exp((diff ** 2).sum(axis=-1) / (-2.0 * self.widths ** 2))
        y_rbf = _item(phi @ self.rbf_w)
        h_next, zeta, pre_zr, zr, xi, n = lgru_step(
            x, h_prev, self.W_zr, self.b_zr, self.W_h, self.b_h)
        y_gru = _item(h_next @ self.out_w + float(self.out_b))
        if self.gate_frozen:
            g = _item(np.ones(x.shape[:-1]))
        else:
            g = _item(sigmoid(zeta @ self.gate_w + float(self.gate_b)))
        y = g * y_rbf + (1.0 - g) * y_gru
        trace = ForwardTrace(diff=diff, h_prev=h_prev, phi=phi, y_rbf=y_rbf,
                             pre_zr=pre_zr, zr=zr, n=n,
                             h_next=h_next, y_gru=y_gru, g=g,
                             zeta=zeta, xi=xi)
        return y, trace

    def _checked(self, x) -> np.ndarray:
        """x as a float array, if forward may evaluate it."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.n_in,) or x.ndim > 2:
            raise ValueError(f"input must have shape ({self.n_in},) or "
                             f"(s, {self.n_in}), got {x.shape}")
        if not np.isfinite(x).all():
            raise ValueError("non-finite network input")
        _check_widths(self.widths)
        return x

    def hidden_states(self, X: np.ndarray, h0=None) -> np.ndarray:
        """Hidden state entering each step of a chronological input sequence
        (n, n_in) from h0 (h_init by default), scanned by `lgru_step` alone: the
        single-sample h_next chain, bit for bit.  (n, c, 1, n_in) scans c side
        by side in one-row products (a (c, n_in) GEMM would move the last bit)."""
        H = np.empty(X.shape[:-1] + (self.p,))
        H[:1] = self.h_init if h0 is None else h0
        for i in range(1, len(X)):
            H[i] = lgru_step(X[i - 1], H[i - 1], self.W_zr, self.b_zr, self.W_h,
                             self.b_h)[0]
        return H

    def advance(self, x) -> tuple[float | np.ndarray, ForwardTrace]:
        """forward() that also commits the new hidden state; a sequence
        (n, n_in) runs from its `hidden_states`, scanned from the stored one."""
        if np.ndim(x) != 2:
            y, trace = self.forward(x)
            self.h = trace.h_next
            return y, trace
        # a zero row more, never read: the scan's last state follows x[-1]
        H = self.hidden_states(np.pad(self._checked(x), ((0, 1), (0, 0))), self.h)
        y, trace = self.forward(x, h_prev=H[:-1])
        self.h = H[-1]   # not trace.h_next[-1], a batched product
        return y, trace

    # -- Jacobians ----------------------------------------------------------

    def _x_terms(self, trace: ForwardTrace):
        """The factors of dy/dW that x also reaches: g and 1 - g (columns for
        a batch), b = g*rbf_w*phi/widths^2 (dy/dcenters is b*diff) and the
        3p + 1 first-layer terms dy/d(b_z, b_r, b_h, gate_b) in one array.
        Both Jacobians are built from them and the trace's intermediates."""
        g, p, lead = trace.g, self.p, trace.zeta.shape[:-1]
        gc = g[:, None] if lead else g
        one_m_gc = 1.0 - gc
        q = one_m_gc * self.out_w                       # dy/dh_next
        terms = np.empty(lead + (3 * p + 1,))
        qz = np.multiply(q, trace.zr[..., :p], out=terms[..., 2 * p:3 * p])
        np.multiply(q, trace.n - trace.h_prev, out=terms[..., :p])
        # reset-gate path: n_j depends on r_l through W_h[j, n_in + l] h_prev_l
        np.multiply(qz @ self.W_h[:, self.n_in:], trace.h_prev,
                    out=terms[..., p:2 * p])
        terms[..., :2 * p] *= _clamp_mask(trace.pre_zr)
        terms[..., -1] = (0.0 if self.gate_frozen
                          else g * (1.0 - g) * (trace.y_rbf - trace.y_gru))
        return gc, one_m_gc, gc * self.rbf_w * trace.phi / self.widths ** 2, terms

    def jacobian_params(self, trace: ForwardTrace,
                        online_only: bool = False) -> np.ndarray:
        """dy/dW in flat-vector layout (single-step, h_prev held fixed).

        Shape (P,) for a single-sample trace, (s, P) for a batched one.
        online_only builds just the leading n_online columns, the online
        update's set; offline training and the gradient audit take all P.

        Every column is one product left * right: the left factors (g, b,
        the first-layer terms, 1 - g) repeated over their columns, times
        the right factors (phi, diff, zeta or xi per first-layer row,
        h_next, and 1 for a bias), in one array."""
        gc, one_m_gc, b, terms = self._x_terms(trace)
        lead, p = trace.zeta.shape[:-1], self.p
        if not lead:   # one sample: the scalar factors need an axis
            gc, one_m_gc = np.array([gc]), np.array([one_m_gc])
        zeta, one = trace.zeta, np.ones(lead + (1,))
        left = [gc, b, terms, one_m_gc]
        right = [trace.phi, trace.diff.reshape(lead + (-1,)), *[zeta] * (2 * p),
                 *[trace.xi] * p, zeta, one, trace.h_next, one]
        if not online_only:   # widths, then b_z, b_r and b_h
            left += [gc * self.rbf_w * trace.phi * (trace.diff ** 2).sum(axis=-1)
                     / self.widths ** 3, terms[..., :3 * p]]
            right.append(np.ones(lead + (self.m + 3 * p,)))
        left = np.concatenate(left, axis=-1)
        J = left.repeat(self._repeats[:left.shape[-1]], axis=-1)
        J *= np.concatenate(right, axis=-1)
        return J

    def readout_rows(self, trace: ForwardTrace) -> np.ndarray:
        """The readout's (rbf_w, out_w, out_b) columns of dy/dW, [g*phi,
        (1 - g)*h_next, 1 - g]: (m + p + 1,), or (s, m + p + 1) for a batch."""
        g = np.asarray(trace.g)[..., None]
        return np.concatenate([g * trace.phi, (1.0 - g) * trace.h_next,
                               1.0 - g], axis=-1)

    def jacobian_input(self, trace: ForwardTrace) -> np.ndarray:
        """dy/dx, shape (n_in,) for a single-sample trace, (s, n_in) for a
        batched one.  x enters only as x - centers and through the
        first-layer affine maps of [x; h_prev], so dy/dx is one product of
        dy/d(b_z, b_r, b_h, gate_b) with those maps' x-columns W_x, less
        sum_i dy/dc_i."""
        b, terms = self._x_terms(trace)[2:]
        return terms @ self.W_x - (b[..., None, :] @ trace.diff)[..., 0, :]

    # -- flat parameter vector ----------------------------------------------

    def layout(self) -> list[tuple[str, int, int]]:
        """Ordered (name, offset, length) for every parameter segment."""
        return list(self._layout)

    def to_vector(self) -> np.ndarray:
        return self.theta.copy()

    def online_mask(self) -> np.ndarray:
        """Boolean mask over the flat vector selecting the online-updated
        segments (RBF weights/centers, LGRU matrices, gate, readout)."""
        return np.arange(self.theta.size) < self.n_online

    def copy(self) -> "TgrbfNet":
        return TgrbfNet(**{name: getattr(self, name) for name, _ in _SEGMENTS},
                        h_init=self.h_init.copy(), h=self.h.copy(),
                        gate_frozen=self.gate_frozen)

    # -- checkpoint ---------------------------------------------------------

    def save(self, path) -> None:
        doc = {
            "format": "tgrbf-checkpoint-v1",
            "n_in": self.n_in, "m": self.m, "p": self.p,
            "segments": {name: np.atleast_1d(getattr(self, name)).tolist()
                         for name, _ in _SEGMENTS},
            "h_init": self.h_init.tolist(),
            "gate_frozen": self.gate_frozen,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)

    @classmethod
    def load(cls, path) -> "TgrbfNet":
        with open(path) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict) or doc.get("format") != "tgrbf-checkpoint-v1":
            raise ValueError(f"not a network checkpoint: {path}")
        # each entry's JSON type, compared exactly: a bool is not an int
        kinds = dict(n_in=int, m=int, p=int, segments=dict, gate_frozen=bool)
        for key, kind in kinds.items():
            if key in doc and type(doc[key]) is not kind:
                raise ValueError(f"{path}: {key} must be a JSON {kind.__name__}, "
                                 f"got {type(doc[key]).__name__}")
        try:
            shapes = _shapes(doc["n_in"], doc["m"], doc["p"])
            seg = {name: np.asarray(doc["segments"][name], dtype=float)
                   for name in shapes}
        except KeyError as exc:
            raise ValueError(f"{path}: missing {exc}") from None
        unknown = set(doc["segments"]) - set(shapes)
        if unknown:
            raise ValueError(f"{path}: unknown segments {sorted(unknown)}")
        # a stored scalar becomes 0-d; the constructor names a wrong size
        return cls(**{name: a.reshape(shapes[name])
                      if a.size == math.prod(shapes[name]) else a
                      for name, a in seg.items()},
                   h_init=doc.get("h_init"),
                   gate_frozen=doc.get("gate_frozen", False))


def random_net(n_in: int, m: int, p: int, rng: np.random.Generator,
               scale: float = 0.3) -> TgrbfNet:
    """Random network for tests and gradient audits.  Gate and LGRU weights
    uniform in [-scale, scale]; gate bias 0.5; clamp gates start mid-range."""
    k = n_in + p
    centers = rng.uniform(-1.0, 1.0, size=(m, n_in))
    widths = rng.uniform(0.5, 1.5, size=m)
    # rbf_w, W_z, W_r, W_h, gate_w and out_w: consecutive draws, in one call
    rbf_w, W_z, W_r, W_h, gate_w, out_w = np.split(
        rng.uniform(-scale, scale, size=m + 3 * p * k + k + p),
        np.cumsum([m, p * k, p * k, p * k, k]))
    return TgrbfNet(
        centers=centers, widths=widths, rbf_w=rbf_w,
        W_z=W_z.reshape(p, k), b_z=np.full(p, 0.5),
        W_r=W_r.reshape(p, k), b_r=np.full(p, 0.5),
        W_h=W_h.reshape(p, k), b_h=np.zeros(p),
        gate_w=gate_w, gate_b=0.5, out_w=out_w, out_b=0.0,
        h_init=np.zeros(p),
    )
