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
    # set by OnlineOptimizer.settle(), which finishes the update
    grad_norm: float = math.nan
    eta_explicit: float = math.nan
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

    A sample is a row [x, h, target, priority] of one store twice the
    capacity; X, H, targets and priority are column views of the rows in
    use, a window [start, start + len).  An eviction moves only the rows
    older than the evicted one, one place newer, and advances the start; the
    window is copied down to the front once every `capacity` evictions.
    """

    def __init__(self, capacity: int, n_in: int, p: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._rows = np.empty((2 * capacity, n_in + p + 2))
        self._n_in = n_in
        self._start = 0
        self._n = 0

    def __len__(self) -> int:
        return self._n

    X = property(lambda self: self._rows[self._start:][:self._n, :self._n_in])
    H = property(lambda self: self._rows[self._start:][:self._n, self._n_in:-2])
    targets = property(lambda self: self._rows[self._start:][:self._n, -2])
    priority = property(lambda self: self._rows[self._start:][:self._n, -1])

    def gather(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Copies of X[idx], H[idx] and targets[idx], in one index of the
        row store."""
        rows = self._rows[self._start + idx]
        return rows[:, :self._n_in], rows[:, self._n_in:-2], rows[:, -2]

    def push(self, x, h, target: float, priority: float) -> None:
        rows, s, n = self._rows, self._start, self._n
        if n == self.capacity:
            # argmin returns the first minimum: the oldest row wins ties
            evict = int(rows[s:s + math.ceil(n / 4), -1].argmin())
            rows[s + 1:s + evict + 1] = rows[s:s + evict]
            s, n = s + 1, n - 1
            if s + n == 2 * self.capacity:   # no room after the window
                rows[:n] = rows[s:s + n]
                s = 0
            self._start = s
        row = rows[s + n]
        row[:self._n_in], row[self._n_in:-2] = x, h
        row[-2], row[-1] = target, priority
        self._n = n + 1


def sample_batch(buf: ExperienceBuffer, s: int,
                 rng: np.random.Generator) -> np.ndarray:
    """Buffer positions of a uniform sample without replacement; s is capped
    at the buffer size (an empty buffer gives no positions)."""
    return rng.choice(len(buf), size=min(s, len(buf)), replace=False)


def residuals_and_jacobian(net, X: np.ndarray, H: np.ndarray,
                           targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Residuals F_k = y_k - yhat_k of a batch X (s, n_in), each row replayed
    from its stored hidden state H (s, p), and Jacobian rows -d yhat_k / dW
    restricted to the online-masked parameter columns."""
    y_hat, trace = net.forward(X, h_prev=H)
    J = net.jacobian_params(trace, online_only=True)
    return targets - y_hat, np.negative(J, out=J)


def explicit_step_size(F: np.ndarray,
                       J: np.ndarray) -> tuple[np.ndarray, float, bool]:
    """The gradient J'F / s of the batch loss and the closed-form step size;
    returns (grad, eta, degenerate).  Degenerate means the denominator v'v
    is numerically zero and a fallback must be used."""
    JtF = J.T @ F
    v = J @ JtF
    vv = float(v @ v)
    degenerate = vv < _DEGENERATE_TOL * (1.0 + float(F @ F))
    return JtF / len(F), 0.0 if degenerate else float(v @ F) / vv, degenerate


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
                    eta: float, alpha: float) -> bool:
    """Write W - eta*grad + alpha*(W - W_prev) into W and the old W into
    W_prev, the history of the next step; returns whether the step was
    applied.  A non-finite step leaves W as it was, so W_prev = W drops the
    stale momentum."""
    W_next = W - eta * grad + alpha * (W - W_prev)
    W_prev[:] = W
    if not np.isfinite(W_next).all():
        return False
    W[:] = W_next
    return True


def batch_loss(net, X: np.ndarray, H: np.ndarray, targets: np.ndarray) -> float:
    y_hat, _ = net.forward(X, h_prev=H)
    F = targets - y_hat
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
        self.events: list[UpdateEvent] = []
        self._pending = None   # a begun update, its step awaiting settle()
        self._replay = None    # a written step, its loss_after awaiting settle()

    def settle(self) -> UpdateEvent | None:
        """Run the stages of an update that wait, one large kernel each:
        first the loss_after replay of the step an earlier call wrote, under
        the parameters that step wrote; then the step of the update the last
        triggering maybe_update call began.  The step takes the gradient and
        the explicit step size, caps eta with the safeguard and writes
        theta[:n_online]; an applied step's replay then waits for the next
        settle().  Returns the event whose step ran, or None when no step
        waited.

        Only a step writes theta, every replay runs before the next write,
        the replays start from the stored states and the batch rows are
        copies, so every update gets the bits of one run whole inside the
        triggering call."""
        if self._replay is not None:
            event, X, H, targets = self._replay
            self._replay = None
            event.loss_after = batch_loss(self.net, X, H, targets)
        if self._pending is None:
            return None
        event, X, H, targets, F, J = self._pending
        self._pending = None
        grad, event.eta_explicit, degenerate = explicit_step_size(F, J)
        event.grad_norm = math.sqrt(float(grad @ grad))
        alpha = self.cfg.momentum_alpha
        eta0 = self.cfg.eta_max if degenerate else event.eta_explicit
        eta, hit, event.sigma_min, event.sigma_max = step_size_safeguard(
            eta0, J, alpha, self.cfg.eta_max)
        event.safeguard_hit = hit or degenerate

        if momentum_update(self.net.theta[:self.net.n_online],
                           self.W_prev_masked, grad, eta, alpha):
            event.eta = eta
            self._replay = (event, X, H, targets)
        else:
            event.rejected, event.eta = True, 0.0
            event.loss_after = event.loss_before
        return event

    def maybe_update(self, k: int, e_pred: float) -> UpdateEvent | None:
        """Begin one triggered update if warranted; returns the event or None
        (skipped).  A step still pending is settled first, after the replay
        that waits before it.  This call replays the batch, builds its
        Jacobian and loss_before and refreshes the batch's priorities; the
        step (gradient, explicit step size, safeguard, write) and loss_after
        wait for settle(), and theta is unchanged until then.  A rejected
        step leaves the network unchanged."""
        if self._pending is not None:
            self.settle()
        last_k = self.events[-1].k if self.events else -math.inf
        if not should_trigger(e_pred, self.cfg, k - last_k):
            return None
        idx = sample_batch(self.buf, self.cfg.batch_s, self.rng)
        if idx.size == 0:
            return None

        X, H, targets = self.buf.gather(idx)
        F, J = residuals_and_jacobian(self.net, X, H, targets)
        event = UpdateEvent(k=k, loss_before=float(F @ F) / (2.0 * len(F)))
        self._pending = (event, X, H, targets, F, J)

        # refresh replay priorities of the evaluated samples
        self.buf.priority[idx] = np.abs(F)

        self.events.append(event)
        return event
