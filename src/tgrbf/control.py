"""Nonlinear tracking controller with model-Jacobian-driven adaptive gains,
plus PID and fixed-gain nonlinear baselines.

The control law is u = k1*e + k2*sig_alpha(e): the linear term dominates for
large errors, the signed-power term keeps authority near zero error without
high-frequency chattering.  Gains adapt along the gradient of the squared
tracking error through the identified model's input sensitivity dym_du.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "FixedGains", "GainState", "PidState", "sig_alpha", "control_law",
    "adapt_gains", "pid_step",
]


def sig_alpha(e: float, a: float) -> float:
    """Signed power |e|^a * sign(e), for a in (0, 1)."""
    if not (0.0 < a < 1.0):
        raise ValueError("power coefficient must be in (0, 1)")
    if e == 0.0:
        return 0.0
    return math.copysign(abs(e) ** a, e)


@dataclass
class FixedGains:
    """The control law's gains: all the fixed-gain baseline reads."""
    k1: float = 2.0
    k2: float = 3.0
    alpha_pow: float = 0.7

    def __post_init__(self):
        if not (0.0 < self.alpha_pow < 1.0):
            raise ValueError("alpha_pow must be in (0, 1)")


@dataclass
class GainState(FixedGains):
    """The adaptive law's configuration; k1, k2 are the starting gains k0."""
    eta1: float = 0.5
    eta2: float = 0.5
    k1_min: float = 0.01
    k1_max: float = 50.0
    k2_min: float = 0.01
    k2_max: float = 50.0

    def __post_init__(self):
        super().__post_init__()
        if self.k1_min > self.k1_max or self.k2_min > self.k2_max:
            raise ValueError("gain bounds need k_min <= k_max")


def control_law(e: float, k1: float, k2: float, alpha_pow: float) -> float:
    """u = k1*e + k2*sig_alpha(e), before the actuator limit."""
    return k1 * e + k2 * sig_alpha(e, alpha_pow)


def adapt_gains(g: GainState, k1: float, k2: float, e: float,
                dym_du: float) -> tuple[float, float]:
    """(k1, k2) after one gradient-driven step, projected onto g's bounds.

    k1 moves by eta1*e^2*dym_du, k2 by eta2*e*sig_alpha(e)*dym_du; both
    share the sign of dym_du since e*sig_alpha(e) >= 0.  A non-finite
    model Jacobian skips the update.
    """
    if not math.isfinite(dym_du):
        return k1, k2
    k1 = k1 + g.eta1 * e * e * dym_du
    k2 = k2 + g.eta2 * e * sig_alpha(e, g.alpha_pow) * dym_du
    return min(max(k1, g.k1_min), g.k1_max), min(max(k2, g.k2_min), g.k2_max)


@dataclass
class PidState:
    kp: float = 1.0
    ki: float = 0.0
    kd: float = 0.0
    integral_limit: float = 100.0   # anti-windup clamp on the raw integral

    def __post_init__(self):
        if not self.integral_limit >= 0.0:
            raise ValueError(
                f"integral_limit must be >= 0, got {self.integral_limit}")


def pid_step(p: PidState, e: float, e_prev: float, integral: float,
             Ts: float) -> tuple[float, float]:
    """Textbook discrete PID with clamped integral and backward-difference
    derivative, from the caller's run state; returns (u before the actuator
    limit, the new integral)."""
    if Ts <= 0.0:
        raise ValueError("Ts must be positive")
    integral = integral + e * Ts
    integral = min(max(integral, -p.integral_limit), p.integral_limit)
    return p.kp * e + p.ki * integral + p.kd * (e - e_prev) / Ts, integral
