"""Temporal-gated RBF network: Gaussian RBF branch, linearized GRU branch,
sigmoid fusion gate, with exact analytic Jacobians.

The network output is a convex combination of the two branch outputs,

    y = g * y_rbf + (1 - g) * y_gru,

where the gate g is a sigmoid of an affine map of [x; h_prev].  The GRU
branch is "linearized": the usual sigmoid gates are replaced by hard clamps
to [0, 1] and the candidate state is affine (no tanh).  Parameter gradients
are single-step: the dependence of h_prev on the parameters is truncated.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TgrbfNet",
    "ForwardTrace",
    "rbf_forward",
    "lgru_step",
    "gate_value",
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
    phi = np.exp(-d2 / (2.0 * widths ** 2))
    return _item(phi @ weights), phi


def lgru_step(x, h_prev, W_z, b_z, W_r, b_r, W_h, b_h):
    """One linearized-GRU step.  Returns h_next and the intermediates
    (zeta, pre_z, pre_r, z, r, xi, n) that the Jacobians reuse.

    pre_z/pre_r are the affine pre-activations; z and r are their hard
    clamps to [0, 1].  The candidate state n is affine in [x; r*h_prev].
    x and h_prev may carry a common leading batch axis.
    """
    zeta = np.concatenate([x, h_prev], axis=-1)
    pre_z = zeta @ W_z.T + b_z
    pre_r = zeta @ W_r.T + b_r
    z = pre_z.clip(0.0, 1.0)
    r = pre_r.clip(0.0, 1.0)
    xi = np.concatenate([x, r * h_prev], axis=-1)
    n = xi @ W_h.T + b_h
    h_next = (1.0 - z) * h_prev + z * n
    return h_next, zeta, pre_z, pre_r, z, r, xi, n


def gate_value(x, h_prev, gate_w, gate_b):
    """Fusion gate g = sigmoid(gate_w . [x; h_prev] + gate_b), in (0, 1).
    x and h_prev may carry a common leading batch axis."""
    zeta = np.concatenate([x, h_prev], axis=-1)
    return _item(sigmoid(zeta @ gate_w + gate_b))


@dataclass
class ForwardTrace:
    """All intermediates of one forward pass, for Jacobian reuse.

    For a batch every field carries the leading batch axis, and the scalar
    fields (y_rbf, y_gru, g, y) are (s,) arrays instead of floats."""

    x: np.ndarray
    h_prev: np.ndarray
    phi: np.ndarray
    y_rbf: float | np.ndarray
    pre_z: np.ndarray
    pre_r: np.ndarray
    z: np.ndarray
    r: np.ndarray
    n: np.ndarray
    h_next: np.ndarray
    y_gru: float | np.ndarray
    g: float | np.ndarray
    y: float | np.ndarray
    zeta: np.ndarray
    xi: np.ndarray


# Parameter segments, in flat-vector order.  The first block is the online
# set (mask True); widths and LGRU biases are trained offline only.
_SEGMENTS = [
    ("rbf_w", True),
    ("centers", True),
    ("W_z", True),
    ("W_r", True),
    ("W_h", True),
    ("gate_w", True),
    ("gate_b", True),
    ("out_w", True),
    ("out_b", True),
    ("widths", False),
    ("b_z", False),
    ("b_r", False),
    ("b_h", False),
]
# The online segments lead, so the online set is a prefix of the flat vector.
_ONLINE = [seg for seg in _SEGMENTS if seg[1]]
# Segments held as a Python float on the network, as a length-1 array in
# the flat vector and the checkpoint.
_SCALARS = ("gate_b", "out_b")


@dataclass
class TgrbfNet:
    """Network weights plus the recurrent hidden state.

    Value-semantics container: forward/jacobian methods never mutate the
    instance; `advance` is the explicit stateful step used by run loops.
    """

    centers: np.ndarray     # (m, n_in)
    widths: np.ndarray      # (m,), > 0
    rbf_w: np.ndarray       # (m,)
    W_z: np.ndarray         # (p, n_in + p)
    b_z: np.ndarray
    W_r: np.ndarray
    b_r: np.ndarray
    W_h: np.ndarray
    b_h: np.ndarray
    gate_w: np.ndarray      # (n_in + p,)
    gate_b: float
    out_w: np.ndarray       # (p,)
    out_b: float
    h_init: np.ndarray      # (p,)
    h: np.ndarray = field(default=None)  # current hidden state
    gate_frozen: bool = False            # force g = 1 (pure-RBF ablation)

    def __post_init__(self):
        if self.h is None:
            self.h = self.h_init.copy()
        if self.m < 1:
            raise ValueError("need at least one RBF node")
        if np.any(self.widths <= 0.0):
            raise ValueError("all kernel widths must be positive")
        if not all(np.isfinite(np.asarray(v, dtype=float)).all()
                   for v in (*self._segment_arrays().values(), self.h_init)):
            raise ValueError("network parameters must be finite")

    # -- dimensions ---------------------------------------------------------

    @property
    def m(self) -> int:
        return self.centers.shape[0]

    @property
    def n_in(self) -> int:
        return self.centers.shape[1]

    @property
    def p(self) -> int:
        return self.h_init.shape[0]

    def count_parameters(self) -> int:
        return sum(a.size for a in self._segment_arrays().values())

    # -- forward ------------------------------------------------------------

    def reset(self) -> None:
        """Reset the hidden state for a new independent sequence."""
        self.h = self.h_init.copy()

    def _inputs(self, x, h_prev) -> tuple[np.ndarray, np.ndarray]:
        """Checked float input and its hidden state, broadcast for a batch."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.n_in,) or x.ndim > 2:
            raise ValueError(f"input must have shape ({self.n_in},) or "
                             f"(s, {self.n_in}), got {x.shape}")
        if not np.isfinite(x).all():
            raise ValueError("non-finite network input")
        h_prev = self.h if h_prev is None else np.asarray(h_prev, dtype=float)
        if x.ndim == 2:
            h_prev = np.broadcast_to(h_prev, (x.shape[0], self.p))
        return x, h_prev

    def forward(self, x, h_prev=None) -> tuple[float | np.ndarray, ForwardTrace]:
        """Evaluate the network at input x with hidden state h_prev
        (defaults to the stored state).  Pure: does not mutate self.

        x is one input (n_in,) or a batch (s, n_in).  For a batch, h_prev
        is (s, p) or one (p,) state shared by every row, y is an (s,)
        array and every trace field carries the batch axis."""
        x, h_prev = self._inputs(x, h_prev)
        y_rbf, phi = rbf_forward(x, self.centers, self.widths, self.rbf_w)
        h_next, zeta, pre_z, pre_r, z, r, xi, n = lgru_step(
            x, h_prev, self.W_z, self.b_z, self.W_r, self.b_r, self.W_h, self.b_h)
        y_gru = _item(h_next @ self.out_w + self.out_b)
        if self.gate_frozen:
            g = _item(np.ones(x.shape[:-1]))
        else:
            g = gate_value(x, h_prev, self.gate_w, self.gate_b)
        y = g * y_rbf + (1.0 - g) * y_gru
        trace = ForwardTrace(x=x, h_prev=h_prev, phi=phi, y_rbf=y_rbf,
                             pre_z=pre_z, pre_r=pre_r, z=z, r=r, n=n,
                             h_next=h_next, y_gru=y_gru, g=g, y=y,
                             zeta=zeta, xi=xi)
        return y, trace

    def advance(self, x) -> tuple[float, ForwardTrace]:
        """forward() that also commits the new hidden state."""
        y, trace = self.forward(x)
        self.h = trace.h_next
        return y, trace

    # -- Jacobians ----------------------------------------------------------

    def jacobian_params(self, trace: ForwardTrace) -> np.ndarray:
        """dy/dW in flat-vector layout (single-step, h_prev held fixed).

        Shape (P,) for a single-sample trace, (s, P) for a batched one."""
        x, h_prev = trace.x, trace.h_prev
        g = np.asarray(trace.g)
        one_m_g = 1.0 - g
        gc, one_m_gc = g[..., None], one_m_g[..., None]   # one column per row
        phi, z, n = trace.phi, trace.z, trace.n

        diff = x[..., None, :] - self.centers           # (..., m, n_in)
        d_rbf_w = gc * phi
        d_centers = (gc * self.rbf_w * phi / self.widths ** 2)[..., None] * diff
        d_widths = gc * self.rbf_w * phi * (diff ** 2).sum(axis=-1) / self.widths ** 3

        q = one_m_gc * self.out_w                       # dy/dh_next
        mz = _clamp_mask(trace.pre_z)
        mr = _clamp_mask(trace.pre_r)
        zeta = trace.zeta

        cz = q * (n - h_prev) * mz                      # (..., p)
        d_W_z = _outer(cz, zeta)
        d_b_z = cz
        d_W_h = _outer(q * z, trace.xi)
        d_b_h = q * z
        # reset-gate path: n_j depends on r_l through W_h[j, n_in + l] h_prev_l
        t = ((q * z) @ self.W_h[:, self.n_in:]) * h_prev * mr   # (..., p)
        d_W_r = _outer(t, zeta)
        d_b_r = t

        if self.gate_frozen:
            s_g = np.zeros_like(g)
        else:
            s_g = g * one_m_g * (trace.y_rbf - trace.y_gru)
        s_gc = s_g[..., None]
        d_gate_w = s_gc * zeta
        d_out_w = one_m_gc * trace.h_next

        lead = g.shape
        return np.concatenate([
            d_rbf_w, d_centers.reshape(lead + (-1,)),
            d_W_z.reshape(lead + (-1,)), d_W_r.reshape(lead + (-1,)),
            d_W_h.reshape(lead + (-1,)), d_gate_w, s_gc, d_out_w, one_m_gc,
            d_widths, d_b_z, d_b_r, d_b_h,
        ], axis=-1)

    def jacobian_input(self, trace: ForwardTrace) -> np.ndarray:
        """dy/dx including the RBF, LGRU and gate paths, for a single-sample
        trace."""
        n_in = self.n_in
        g = trace.g
        diff = self.centers - trace.x
        d_rbf = g * ((self.rbf_w * trace.phi / self.widths ** 2)[:, None] * diff
                     ).sum(axis=0)

        q = (1.0 - g) * self.out_w
        mz = _clamp_mask(trace.pre_z)
        mr = _clamp_mask(trace.pre_r)
        dn_dx = (self.W_h[:, :n_in]
                 + self.W_h[:, n_in:] @ ((trace.h_prev * mr)[:, None] * self.W_r[:, :n_in]))
        dh_dx = ((trace.n - trace.h_prev) * mz)[:, None] * self.W_z[:, :n_in] \
            + trace.z[:, None] * dn_dx
        d_gru = q @ dh_dx

        if self.gate_frozen:
            d_gate = 0.0
        else:
            d_gate = g * (1.0 - g) * (trace.y_rbf - trace.y_gru) * self.gate_w[:n_in]
        return d_rbf + d_gru + d_gate

    # -- flat parameter vector ----------------------------------------------

    def _segment_arrays(self) -> dict[str, np.ndarray]:
        """Every segment as an array, in layout order (scalars as (1,))."""
        arrs = {name: getattr(self, name) for name, _ in _SEGMENTS}
        for name in _SCALARS:
            arrs[name] = np.atleast_1d(arrs[name])
        return arrs

    def layout(self) -> list[tuple[str, int, int]]:
        """Ordered (name, offset, length) for every parameter segment."""
        out, off = [], 0
        arrs = self._segment_arrays()
        for name, _ in _SEGMENTS:
            size = arrs[name].size
            out.append((name, off, size))
            off += size
        return out

    def to_vector(self) -> np.ndarray:
        return self._vector(_SEGMENTS)

    def _vector(self, segments: list) -> np.ndarray:
        arrs = self._segment_arrays()
        return np.concatenate([arrs[name].ravel() for name, _ in segments])

    def from_vector(self, vec: np.ndarray) -> None:
        """Load parameters from a flat vector (inverse of to_vector)."""
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (self.count_parameters(),):
            raise ValueError(f"expected vector of length {self.count_parameters()}, "
                             f"got {vec.shape}")
        self._load(vec, _SEGMENTS)
        if np.any(self.widths <= 0.0):
            raise ValueError("all kernel widths must be positive")

    def _load(self, vec: np.ndarray, segments: list) -> None:
        """Set the leading `segments` of the layout from the flat vec."""
        arrs = self._segment_arrays()
        off = 0
        for name, _ in segments:
            arr = arrs[name]
            chunk = vec[off:off + arr.size].reshape(arr.shape)
            off += arr.size
            setattr(self, name, float(chunk[0]) if name in _SCALARS else chunk.copy())

    def online_mask(self) -> np.ndarray:
        """Boolean mask over the flat vector selecting the online-updated
        segments (RBF weights/centers, LGRU matrices, gate, readout)."""
        arrs = self._segment_arrays()
        return np.repeat([online for _, online in _SEGMENTS],
                         [arrs[name].size for name, _ in _SEGMENTS])

    def copy(self) -> "TgrbfNet":
        kw = {k: (v.copy() if isinstance(v, np.ndarray) else v)
              for k, v in self.__dict__.items()}
        return TgrbfNet(**kw)

    # -- checkpoint ---------------------------------------------------------

    def save(self, path) -> None:
        doc = {
            "format": "tgrbf-checkpoint-v1",
            "n_in": self.n_in, "m": self.m, "p": self.p,
            "segments": {name: np.asarray(arr, dtype=float).tolist()
                         for name, arr in self._segment_arrays().items()},
            "h_init": self.h_init.tolist(),
            "gate_frozen": self.gate_frozen,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)

    @classmethod
    def load(cls, path) -> "TgrbfNet":
        with open(path) as fh:
            doc = json.load(fh)
        if doc.get("format") != "tgrbf-checkpoint-v1":
            raise ValueError(f"not a network checkpoint: {path}")
        seg = {name: np.asarray(doc["segments"][name], dtype=float)
               for name, _ in _SEGMENTS}
        for name in _SCALARS:
            seg[name] = float(seg[name][0])
        return cls(**seg, h_init=np.asarray(doc["h_init"], dtype=float),
                   gate_frozen=bool(doc.get("gate_frozen", False)))


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
