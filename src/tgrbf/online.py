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

__all__ = [
    "TriggerConfig", "UpdateEvent", "ExperienceBuffer", "OnlineOptimizer",
    "should_trigger", "sample_batch", "residuals_and_jacobian",
    "explicit_step_size", "step_size_safeguard", "momentum_update",
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
    loss_before: float
    grad_norm: float
    eta_explicit: float
    # set by OnlineOptimizer.settle(), which finishes the update
    eta: float = math.nan
    loss_after: float = math.nan
    safeguard_hit: bool = False
    sigma_min: float = math.nan
    sigma_max: float = math.nan
    rejected: bool = False


def should_trigger(e_t: float, cfg: TriggerConfig,
                   steps_since_update: float) -> bool:
    """Strict-inequality trigger |e_t| > delta, gated by the cooldown."""
    return abs(e_t) > cfg.delta and steps_since_update >= cfg.cooldown_steps


class ExperienceBuffer:
    """Bounded sample store with priority-aware FIFO eviction.

    Rows of X (inputs), H (the hidden state the sample's deployment forward
    started from), targets and priority are the samples in use, oldest
    first.  When full, the row with the smallest priority among the oldest
    ceil(N/4) is evicted (ties broken by age, i.e. pure FIFO under equal
    priorities).

    The rows in use are a window [start, start + len) of stores twice the
    capacity.  An eviction moves only the rows older than the evicted one,
    one place newer, and advances the start; the window is copied down to
    the front once every `capacity` evictions.
    """

    def __init__(self, capacity: int, n_in: int, p: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._X = np.empty((2 * capacity, n_in))
        self._H = np.empty((2 * capacity, p))
        self._targets = np.empty(2 * capacity)
        self._priority = np.empty(2 * capacity)
        self._start = 0
        self._n = 0

    def __len__(self) -> int:
        return self._n

    X = property(lambda self: self._X[self._start:self._start + self._n])
    H = property(lambda self: self._H[self._start:self._start + self._n])
    targets = property(
        lambda self: self._targets[self._start:self._start + self._n])
    priority = property(
        lambda self: self._priority[self._start:self._start + self._n])

    def push(self, x, h, target: float, priority: float) -> None:
        s, n = self._start, self._n
        if n == self.capacity:
            # argmin returns the first minimum: the oldest row wins ties
            evict = int(self._priority[s:s + math.ceil(n / 4)].argmin())
            stores = (self._X, self._H, self._targets, self._priority)
            for a in stores:
                a[s + 1:s + evict + 1] = a[s:s + evict]
            s, n = s + 1, n - 1
            if s + n == 2 * self.capacity:   # no room after the window
                for a in stores:
                    a[:n] = a[s:s + n]
                s = 0
            self._start = s
        self._X[s + n], self._H[s + n] = x, h
        self._targets[s + n], self._priority[s + n] = target, priority
        self._n = n + 1


def sample_batch(buf: ExperienceBuffer, s: int,
                 rng: np.random.Generator) -> np.ndarray:
    """Buffer positions of a uniform sample without replacement; s is capped
    at the buffer size (an empty buffer gives no positions)."""
    return rng.choice(len(buf), size=min(s, len(buf)), replace=False)


def _replay(net, X: np.ndarray, H: np.ndarray, targets: np.ndarray):
    """Residuals F_k = y_k - yhat_k of a batch of inputs X (s, n_in), each
    replayed from its stored hidden state H (s, p) in one batched forward,
    and that forward's trace."""
    y_hat, trace = net.forward(X, h_prev=H)
    return targets - y_hat, trace


def residuals_and_jacobian(net, X: np.ndarray, H: np.ndarray,
                           targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Residuals F_k = y_k - yhat_k and Jacobian rows -d yhat_k / dW
    restricted to the online-masked parameter columns."""
    F, trace = _replay(net, X, H, targets)
    return F, -net.jacobian_params(trace, online_only=True)


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
    # J is wide (batch_s rows, n_online columns).  LAPACK reduces the tall
    # J' by QR before the SVD of its small R (Chan's R-SVD), which costs
    # less than its path for the wide J; the values agree to rounding.
    sv = np.linalg.svd(J.T, compute_uv=False)
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
    if not np.isfinite(W_next).all():
        return None
    return W_next


def batch_loss(net, X: np.ndarray, H: np.ndarray, targets: np.ndarray) -> float:
    F, _ = _replay(net, X, H, targets)
    return float(F @ F) / (2.0 * len(F))


class OnlineOptimizer:
    """Owns the event-triggered update of a single network instance."""

    def __init__(self, net, buf: ExperienceBuffer, cfg: TriggerConfig,
                 rng: np.random.Generator):
        self.net = net
        self.buf = buf
        self.cfg = cfg
        self.rng = rng
        self.W_prev_masked = net.theta[:net.n_online].copy()
        self.last_update_k: float = -math.inf
        self.events: list[UpdateEvent] = []
        self._pending = None   # a triggered update awaiting settle()

    def settle(self) -> UpdateEvent | None:
        """Finish the update the last triggering maybe_update call began: cap
        its step with the safeguard, write theta[:n_online] and, for an
        applied step, replay its batch under the new theta for loss_after.
        Returns the event it finished, or None when nothing waits.

        Only this writes theta, the replays start from the stored states and
        the batch rows are copies, so a caller that settles before anything
        else reads theta gets the bits of an update run whole inside the
        triggering call."""
        if self._pending is None:
            return None
        event, X, H, targets, J, grad, degenerate = self._pending
        self._pending = None
        alpha = self.cfg.momentum_alpha
        eta0 = self.cfg.eta_max if degenerate else event.eta_explicit
        eta, hit, event.sigma_min, event.sigma_max = step_size_safeguard(
            eta0, J, alpha, self.cfg.eta_max)
        event.safeguard_hit = hit or degenerate

        Wm = self.net.theta[:self.net.n_online]   # a view, written below
        Wm_next = momentum_update(Wm, self.W_prev_masked, grad, eta, alpha)
        # the parameters before this step; a rejected step keeps them, which
        # drops the stale momentum
        self.W_prev_masked = Wm.copy()
        if Wm_next is None:
            event.rejected, event.eta = True, 0.0
            event.loss_after = event.loss_before
        else:
            Wm[:] = Wm_next
            event.eta = eta
            event.loss_after = batch_loss(self.net, X, H, targets)
        return event

    def maybe_update(self, k: int, e_pred: float) -> UpdateEvent | None:
        """Begin one triggered update if warranted; returns the event or None
        (skipped).  Settles the previous update first.  This call replays
        the batch, builds its Jacobian and explicit step size and refreshes
        the batch's priorities; the step, its safeguard and loss_after wait
        for settle(), and theta is unchanged until then.  A rejected step
        leaves the network unchanged."""
        self.settle()
        if not should_trigger(e_pred, self.cfg, k - self.last_update_k):
            return None
        idx = sample_batch(self.buf, self.cfg.batch_s, self.rng)
        if idx.size == 0:
            return None
        self.last_update_k = k

        X, H, targets = self.buf.X[idx], self.buf.H[idx], self.buf.targets[idx]
        F, J = residuals_and_jacobian(self.net, X, H, targets)
        s = len(idx)
        grad = (J.T @ F) / s
        eta_explicit, degenerate = explicit_step_size(F, J)
        event = UpdateEvent(k=k, loss_before=float(F @ F) / (2.0 * s),
                            grad_norm=math.sqrt(float(grad @ grad)),
                            eta_explicit=eta_explicit)
        self._pending = (event, X, H, targets, J, grad, degenerate)

        # refresh replay priorities of the evaluated samples
        self.buf.priority[idx] = np.abs(F)

        self.events.append(event)
        return event
