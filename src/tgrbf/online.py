"""Event-triggered online refinement of the network parameters.

An update fires when the instantaneous prediction error exceeds a threshold.
It draws a batch from a priority-aware FIFO experience buffer and applies one
explicit-step-size momentum gradient step restricted to the online parameter
segments.  The step size is

    eta = (v'F) / (v'v),   v = J J' F,

with F the residual vector and J the residual Jacobian, capped by the
singular-value safeguard before use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import _ONLINE, lgru_step

__all__ = [
    "TriggerConfig", "UpdateEvent", "ExperienceBuffer", "OnlineOptimizer",
    "should_trigger", "sample_batch", "residuals_and_jacobian",
    "explicit_step_size", "step_size_safeguard", "momentum_update",
    "replay_hidden_state",
]

_DEGENERATE_TOL = 1e-12


@dataclass(frozen=True)
class TriggerConfig:
    delta: float = 0.01          # trigger threshold on |prediction error|
    batch_s: int = 32
    momentum_alpha: float = 0.2
    eta_max: float = 10.0
    cooldown_steps: int = 0

    def __post_init__(self):
        if self.delta <= 0.0:
            raise ValueError("delta must be > 0")
        if self.batch_s < 1:
            raise ValueError("batch_s must be >= 1")
        if not (0.0 <= self.momentum_alpha < 1.0):
            raise ValueError("momentum_alpha must be in [0, 1)")
        if not self.eta_max > 0.0:
            raise ValueError("eta_max must be > 0")
        if self.cooldown_steps < 0:
            raise ValueError("cooldown_steps must be >= 0")


@dataclass
class UpdateEvent:
    k: int
    eta: float
    loss_before: float
    loss_after: float
    grad_norm: float
    safeguard_hit: bool
    sigma_min: float = 0.0
    sigma_max: float = 0.0
    eta_explicit: float = 0.0
    rejected: bool = False


def should_trigger(e_t: float, cfg: TriggerConfig,
                   steps_since_update: float = math.inf) -> bool:
    """Strict-inequality trigger |e_t| > delta, gated by the cooldown."""
    return abs(e_t) > cfg.delta and steps_since_update >= cfg.cooldown_steps


class ExperienceBuffer:
    """Bounded sample store with priority-aware FIFO eviction.

    Rows of X (inputs), targets and priority hold the samples, oldest
    first; the first len(buf) rows are in use.  When full, the row with the
    smallest priority among the oldest ceil(N/4) is evicted (ties broken by
    age, i.e. pure FIFO under equal priorities).
    """

    def __init__(self, capacity: int, n_in: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.X = np.empty((capacity, n_in))
        self.targets = np.empty(capacity)
        self.priority = np.empty(capacity)
        self._n = 0

    def __len__(self) -> int:
        return self._n

    def push(self, x, target: float, priority: float) -> None:
        n = self._n
        if n == self.capacity:
            # argmin returns the first minimum: the oldest row wins ties
            evict = int(self.priority[:math.ceil(n / 4)].argmin())
            for a in (self.X, self.targets, self.priority):
                a[evict:n - 1] = a[evict + 1:n]
            n -= 1
        self.X[n], self.targets[n], self.priority[n] = x, target, priority
        self._n = n + 1


def sample_batch(buf: ExperienceBuffer, s: int,
                 rng: np.random.Generator) -> np.ndarray:
    """Buffer positions of a uniform sample without replacement; s is capped
    at the buffer size (an empty buffer gives no positions)."""
    return rng.choice(len(buf), size=min(s, len(buf)), replace=False)


def replay_hidden_state(net, x: np.ndarray) -> np.ndarray:
    """Hidden state used when replaying buffered samples: the LGRU step
    alone (no RBF branch or gate) from h_init on each sample's own input,
    after forward's input checks.  x is (n_in,) or a stacked (s, n_in)."""
    x, h_init = net._inputs(x, net.h_init)
    return lgru_step(x, h_init, net.W_z, net.b_z, net.W_r, net.b_r,
                     net.W_h, net.b_h)[0]


def _replay(net, X: np.ndarray, targets: np.ndarray):
    """Residuals F_k = y_k - yhat_k of a batch of inputs X (s, n_in),
    replayed with one batched recurrence step and one batched forward, and
    that forward's trace."""
    y_hat, trace = net.forward(X, h_prev=replay_hidden_state(net, X))
    return targets - y_hat, trace


def residuals_and_jacobian(net, X: np.ndarray,
                           targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Residuals F_k = y_k - yhat_k and Jacobian rows -d yhat_k / dW
    restricted to the online-masked parameter columns."""
    F, trace = _replay(net, X, targets)
    # the online columns are a prefix; negating the slice copies it row-major
    n = sum(np.size(getattr(net, name)) for name, _ in _ONLINE)
    return F, -net.jacobian_params(trace)[:, :n]


def explicit_step_size(F: np.ndarray, J: np.ndarray) -> tuple[float, bool]:
    """Closed-form step size; returns (eta, degenerate).  Degenerate means
    the denominator v'v is numerically zero and a fallback must be used."""
    v = J @ (J.T @ F)
    vv = float(v @ v)
    if vv < _DEGENERATE_TOL * (1.0 + float(F @ F)):
        return 0.0, True
    return float(v @ F) / vv, False


def step_size_safeguard(eta: float, J: np.ndarray, alpha: float,
                        eta_max: float) -> tuple[float, bool, float, float]:
    """Cap eta by the singular-value stability bound.

    cap = max(0, (s_min^2 - 2 a^2 L^2 / s_min^2) / s_max^2) with L taken as
    s_max (conservative, computable).  If s_min degenerates the configured
    eta_max is the cap.  Returns (eta', safeguard_hit, s_min, s_max).
    """
    sv = np.linalg.svd(J, compute_uv=False)
    s_min, s_max = float(sv[-1]), float(sv[0])
    if s_min <= 1e-6 or s_max == 0.0:
        cap = eta_max
    else:
        L = s_max
        cap = max(0.0, (s_min ** 2 - 2.0 * alpha ** 2 * L ** 2 / s_min ** 2)
                  / s_max ** 2)
    eta_capped = min(eta, cap, eta_max)
    return eta_capped, eta_capped < eta, s_min, s_max


def momentum_update(W: np.ndarray, W_prev: np.ndarray, grad: np.ndarray,
                    eta: float, alpha: float) -> np.ndarray | None:
    """W - eta*grad + alpha*(W - W_prev); None signals a rejected
    (non-finite) step."""
    W_next = W - eta * grad + alpha * (W - W_prev)
    if not np.all(np.isfinite(W_next)):
        return None
    return W_next


def batch_loss(net, X: np.ndarray, targets: np.ndarray) -> float:
    F, _ = _replay(net, X, targets)
    return float(F @ F) / (2.0 * len(F))


class OnlineOptimizer:
    """Owns the event-triggered update of a single network instance."""

    def __init__(self, net, buf: ExperienceBuffer, cfg: TriggerConfig,
                 rng: np.random.Generator):
        self.net = net
        self.buf = buf
        self.cfg = cfg
        self.rng = rng
        self.W_prev_masked = net._vector(_ONLINE)
        self.last_update_k: float = -math.inf
        self.events: list[UpdateEvent] = []

    def maybe_update(self, k: int, e_pred: float) -> UpdateEvent | None:
        """Run one triggered update if warranted; returns the event or None
        (skipped).  A rejected step leaves the network unchanged."""
        if not should_trigger(e_pred, self.cfg, k - self.last_update_k):
            return None
        idx = sample_batch(self.buf, self.cfg.batch_s, self.rng)
        if idx.size == 0:
            return None
        self.last_update_k = k

        X, targets = self.buf.X[idx], self.buf.targets[idx]
        F, J = residuals_and_jacobian(self.net, X, targets)
        s = len(idx)
        grad = (J.T @ F) / s
        loss_before = float(F @ F) / (2.0 * s)

        eta_explicit, degenerate = explicit_step_size(F, J)
        if degenerate:
            eta0 = self.cfg.eta_max
        else:
            eta0 = eta_explicit
        eta, hit, s_min, s_max = step_size_safeguard(
            eta0, J, self.cfg.momentum_alpha, self.cfg.eta_max)
        hit = hit or degenerate

        Wm = self.net._vector(_ONLINE)
        Wm_next = momentum_update(Wm, self.W_prev_masked, grad, eta,
                                  self.cfg.momentum_alpha)
        event = UpdateEvent(k=k, eta=eta, loss_before=loss_before,
                            loss_after=loss_before,
                            grad_norm=float(np.linalg.norm(grad)),
                            safeguard_hit=hit, sigma_min=s_min,
                            sigma_max=s_max, eta_explicit=eta_explicit)
        if Wm_next is None:
            # rejected step: keep parameters, drop stale momentum
            self.W_prev_masked = Wm.copy()
            event.rejected = True
            event.eta = 0.0
        else:
            self.net._load(Wm_next, _ONLINE)
            self.W_prev_masked = Wm
            event.loss_after = batch_loss(self.net, X, targets)

        # refresh replay priorities of the evaluated samples
        self.buf.priority[idx] = np.abs(F)

        self.events.append(event)
        return event
