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
    "rbf_forward",
    "lgru_step",
    "sigmoid",
]

# Derivative of clamp(a, 0, 1): 1 strictly inside (0, 1), 0 outside and at
# the kinks themselves (saturated gates stay frozen), as a bool 0/1 mask.
def _clamp_mask(pre: np.ndarray) -> np.ndarray:
    return (pre > 0.0) & (pre < 1.0)


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[..., :, None] * b[..., None, :]


def _item(a):
    """A Python float for one sample, the array itself for a batch."""
    return float(a) if a.ndim == 0 else a


def _col(v) -> np.ndarray:
    """A per-sample scalar as a column: (1,) for a float, (s, 1) for (s,)."""
    return np.asarray(v)[..., None]


def sigmoid(a):
    return 1.0 / (1.0 + np.exp(-a))


def rbf_forward(x, centers, widths, weights):
    """Evaluate the RBF branch.  Returns (y_rbf, phi).

    x is one input (n_in,) or a batch (s, n_in); y_rbf is then a float or
    an (s,) array and phi has shape (m,) or (s, m)."""
    x = np.asarray(x, dtype=float)
    centers = np.asarray(centers, dtype=float)
    widths = np.asarray(widths, dtype=float)
    if centers.ndim != 2 or centers.shape[1] != x.shape[-1]:
        raise ValueError(f"centers shape {centers.shape} incompatible with input {x.shape}")
    if (widths <= 0.0).any():
        raise ValueError("all kernel widths must be positive")
    d2 = ((centers - x[..., None, :]) ** 2).sum(axis=-1)
    phi = np.exp(d2 / (-2.0 * widths ** 2))
    return _item(phi @ weights), phi


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
    zr hold both gates, the update gate's p columns first."""

    x: np.ndarray
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
        for (name, shape), seg in zip(shapes.items(),
                                      np.split(theta, bounds[1:-1])):
            self.__dict__[name] = seg.reshape(shape)
        self.__dict__["theta"] = theta
        # the stacked views: [W_z; W_r; W_h; gate_w] and [b_z; b_r] are adjacent
        off, p = dict(zip(shapes, bounds)), h_init.size
        first = theta[off["W_z"]:off["gate_b"]].reshape(3 * p + 1, n_in + p)
        self.__dict__.update(W_zr=first[:2 * p], W_x=first[:, :n_in],
                             b_zr=theta[off["b_z"]:off["b_h"]])
        # the segment shapes are fixed: assignment keeps them
        self.n_in, self.m, self.p = n_in, m, p
        self.n_online = sum(size for (_, online), size in zip(_SEGMENTS, sizes)
                            if online)
        self.h_init = h_init
        self.h = h_init.copy() if h is None else h
        self.gate_frozen = gate_frozen
        if m < 1:
            raise ValueError("need at least one RBF node")
        if (self.widths <= 0.0).any():
            raise ValueError("all kernel widths must be positive")
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
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.n_in,) or x.ndim > 2:
            raise ValueError(f"input must have shape ({self.n_in},) or "
                             f"(s, {self.n_in}), got {x.shape}")
        if not np.isfinite(x).all():
            raise ValueError("non-finite network input")
        h_prev = self.h if h_prev is None else np.asarray(h_prev, dtype=float)
        y_rbf, phi = rbf_forward(x, self.centers, self.widths, self.rbf_w)
        h_next, zeta, pre_zr, zr, xi, n = lgru_step(
            x, h_prev, self.W_zr, self.b_zr, self.W_h, self.b_h)
        y_gru = _item(h_next @ self.out_w + float(self.out_b))
        if self.gate_frozen:
            g = _item(np.ones(x.shape[:-1]))
        else:
            g = _item(sigmoid(zeta @ self.gate_w + float(self.gate_b)))
        y = g * y_rbf + (1.0 - g) * y_gru
        trace = ForwardTrace(x=x, h_prev=h_prev, phi=phi, y_rbf=y_rbf,
                             pre_zr=pre_zr, zr=zr, n=n,
                             h_next=h_next, y_gru=y_gru, g=g,
                             zeta=zeta, xi=xi)
        return y, trace

    def advance(self, x) -> tuple[float, ForwardTrace]:
        """forward() that also commits the new hidden state."""
        y, trace = self.forward(x)
        self.h = trace.h_next
        return y, trace

    # -- Jacobians ----------------------------------------------------------

    def _x_terms(self, trace: ForwardTrace):
        """The factors of dy/dW that x also reaches: diff = x - centers, the
        RBF factor a = g*rbf_w*phi and b = a/widths^2 (dy/dcenters is
        b*diff), c_zr = dy/d(b_z, b_r), qz = dy/db_h and s_g = dy/dgate_b.
        Both Jacobians are built from them."""
        g = trace.g
        q = _col(1.0 - g) * self.out_w                  # dy/dh_next
        diff = trace.x[..., None, :] - self.centers     # (..., m, n_in)
        a = _col(g) * self.rbf_w * trace.phi
        qz = q * trace.zr[..., :self.p]
        # reset-gate path: n_j depends on r_l through W_h[j, n_in + l] h_prev_l
        c_zr = np.concatenate([q * (trace.n - trace.h_prev),
                               (qz @ self.W_h[:, self.n_in:]) * trace.h_prev],
                              axis=-1) * _clamp_mask(trace.pre_zr)
        if self.gate_frozen:
            s_g = np.zeros(np.shape(g))
        else:
            s_g = g * (1.0 - g) * (trace.y_rbf - trace.y_gru)
        return diff, a, a / self.widths ** 2, c_zr, qz, s_g

    def jacobian_params(self, trace: ForwardTrace,
                        online_only: bool = False) -> np.ndarray:
        """dy/dW in flat-vector layout (single-step, h_prev held fixed).

        Shape (P,) for a single-sample trace, (s, P) for a batched one.
        online_only builds just the leading n_online columns, the online
        update's set; offline training and the gradient audit take all P."""
        diff, a, b, c_zr, qz, s_g = self._x_terms(trace)
        gc, one_m_gc, s_gc = _col(trace.g), _col(1.0 - trace.g), _col(s_g)
        zeta, lead = trace.zeta, np.shape(trace.g)
        cols = [
            gc * trace.phi, (b[..., None] * diff).reshape(lead + (-1,)),
            _outer(c_zr, zeta).reshape(lead + (-1,)),
            _outer(qz, trace.xi).reshape(lead + (-1,)), s_gc * zeta, s_gc,
            one_m_gc * trace.h_next, one_m_gc]
        if not online_only:
            d_widths = a * (diff ** 2).sum(axis=-1) / self.widths ** 3
            cols += [d_widths, c_zr, qz]
        return np.concatenate(cols, axis=-1)

    def jacobian_input(self, trace: ForwardTrace) -> np.ndarray:
        """dy/dx, shape (n_in,) for a single-sample trace, (s, n_in) for a
        batched one.  x enters only as x - centers and through the
        first-layer affine maps of [x; h_prev], so dy/dx is one product of
        dy/d(b_z, b_r, b_h, gate_b) with those maps' x-columns W_x, less
        sum_i dy/dc_i."""
        diff, _, b, c_zr, qz, s_g = self._x_terms(trace)
        terms = np.concatenate([c_zr, qz, _col(s_g)], axis=-1)
        return terms @ self.W_x - (b[..., None, :] @ diff)[..., 0, :]

    # -- flat parameter vector ----------------------------------------------

    def layout(self) -> list[tuple[str, int, int]]:
        """Ordered (name, offset, length) for every parameter segment."""
        out, off = [], 0
        for name, _ in _SEGMENTS:
            size = getattr(self, name).size
            out.append((name, off, size))
            off += size
        return out

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
