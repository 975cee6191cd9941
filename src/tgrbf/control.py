"""Nonlinear tracking controller with model-Jacobian-driven adaptive gains,
plus PID and fixed-gain nonlinear baselines.

The control law is u = k1*e + k2*sig_alpha(e): the linear term dominates for
large errors, the signed-power term keeps authority near zero error without
high-frequency chattering.  Gains adapt along the gradient of the squared
tracking error through the identified model's input sensitivity dym_du.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import plant as pl

__all__ = [
    "GainState", "PidState", "sig_alpha", "control_law", "adapt_gains",
    "pid_step", "tune_pid_relay_zn",
]


def sig_alpha(e: float, a: float) -> float:
    """Signed power |e|^a * sign(e), for a in (0, 1)."""
    if not (0.0 < a < 1.0):
        raise ValueError("power coefficient must be in (0, 1)")
    if e == 0.0:
        return 0.0
    return math.copysign(abs(e) ** a, e)


@dataclass
class GainState:
    k1: float = 2.0
    k2: float = 3.0
    alpha_pow: float = 0.7
    eta1: float = 0.5
    eta2: float = 0.5
    k1_min: float = 0.01
    k1_max: float = 50.0
    k2_min: float = 0.01
    k2_max: float = 50.0

    def __post_init__(self):
        if not (0.0 < self.alpha_pow < 1.0):
            raise ValueError("alpha_pow must be in (0, 1)")
        if self.k1_min > self.k1_max or self.k2_min > self.k2_max:
            raise ValueError("gain bounds need k_min <= k_max")


def control_law(e: float, g: GainState, u_limit: float = 10.0) -> float:
    """u = k1*e + k2*sig_alpha(e), clamped to the actuator limit."""
    u = g.k1 * e + g.k2 * sig_alpha(e, g.alpha_pow)
    return min(max(u, -u_limit), u_limit)


def adapt_gains(g: GainState, e: float, dym_du: float) -> GainState:
    """Gradient-driven gain update projected onto the configured bounds.

    k1 moves by eta1*e^2*dym_du, k2 by eta2*e*sig_alpha(e)*dym_du; both
    share the sign of dym_du since e*sig_alpha(e) >= 0.  A non-finite
    model Jacobian skips the update.
    """
    if not math.isfinite(dym_du):
        return g
    k1 = g.k1 + g.eta1 * e * e * dym_du
    k2 = g.k2 + g.eta2 * e * sig_alpha(e, g.alpha_pow) * dym_du
    k1 = min(max(k1, g.k1_min), g.k1_max)
    k2 = min(max(k2, g.k2_min), g.k2_max)
    return replace(g, k1=k1, k2=k2)


@dataclass
class PidState:
    kp: float = 1.0
    ki: float = 0.0
    kd: float = 0.0
    # run state, carried between pid_step calls; not a config key
    integral: float = field(default=0.0, metadata={"run_state": True})
    e_prev: float = field(default=0.0, metadata={"run_state": True})
    integral_limit: float = 100.0   # anti-windup clamp on the raw integral


def pid_step(p: PidState, e: float, Ts: float,
             u_limit: float = 10.0) -> tuple[float, PidState]:
    """Textbook discrete PID with clamped integral and backward-difference
    derivative."""
    if Ts <= 0.0:
        raise ValueError("Ts must be positive")
    integral = p.integral + e * Ts
    integral = min(max(integral, -p.integral_limit), p.integral_limit)
    u = p.kp * e + p.ki * integral + p.kd * (e - p.e_prev) / Ts
    u = min(max(u, -u_limit), u_limit)
    return u, replace(p, integral=integral, e_prev=e)


def tune_pid_relay_zn(params: pl.PlantParams, Ts: float,
                      relay_amp: float = 1.0, n_steps: int = 4000,
                      setpoint: float = 0.0) -> tuple[float, float, float]:
    """Fixed, reproducible PID tuning: relay feedback to estimate the
    ultimate gain/period, then classic Ziegler-Nichols PID rules.

    Returns (kp, ki, kd).  Deterministic: no disturbance during the test.
    """
    state = pl.make_state(params)
    ys = []
    switch_steps = []
    u = relay_amp
    for k in range(n_steps):
        y = pl.output(state, params)
        ys.append(y)
        u_new = relay_amp if y < setpoint else -relay_amp
        if k > 0 and math.copysign(1.0, u_new) != math.copysign(1.0, u):
            switch_steps.append(k)
        u = u_new
        state = pl.plant_step(state, u, 0.0, params)
    ys = np.asarray(ys)
    if len(switch_steps) < 6:
        raise RuntimeError("relay test produced no sustained oscillation")
    # use the back half of the test where the limit cycle has settled
    half = switch_steps[len(switch_steps) // 2:]
    periods = 2.0 * np.diff(half) * Ts
    Tu = float(np.mean(periods))
    tail = ys[half[0]:]
    a = 0.5 * float(tail.max() - tail.min())
    if a <= 0.0:
        raise RuntimeError("relay test oscillation has zero amplitude")
    ku = 4.0 * relay_amp / (math.pi * a)
    kp = 0.6 * ku
    Ti = 0.5 * Tu
    Td = 0.125 * Tu
    return kp, kp / Ti, kp * Td
