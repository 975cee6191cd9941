"""Discrete-time benchmark plant, disturbance and reference generators.

The plant advances by discrete increments at the sample time Ts,

    x1(k+1) = x1(k) + Ts * x2(k)
    x2(k+1) = x2(k) + Ts * [ (1/T) * (-2 x2(k) - sin(x1(k)) + u(k - n_d)) + d(k) ]
    y(k)    = K * x1(k)

with input delay n_d implemented as a pending-input queue and d a rate-type
disturbance.  The "true" benchmark plant has T = 3, K = 0.5; the nominal
model used for offline identification has T = 2, K = 2 and sees white noise
only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PlantParams", "PlantState", "DisturbanceSpec", "ReferenceSpec",
    "TRUE_PLANT", "NOMINAL_PLANT",
    "make_state", "plant_step",
    "disturbance_at", "reference_at",
]


@dataclass(frozen=True)
class PlantParams:
    T: float = 3.0            # dynamics divisor
    K: float = 0.5            # output gain
    Ts: float = 0.001         # sample time, seconds
    input_delay: int = 1      # n_d, steps

    def __post_init__(self):
        if self.T <= 0.0:
            raise ValueError("T must be positive")
        if self.Ts <= 0.0:
            raise ValueError("Ts must be positive")
        if self.input_delay < 0:
            raise ValueError("input_delay must be >= 0")


TRUE_PLANT = PlantParams(T=3.0, K=0.5)
NOMINAL_PLANT = PlantParams(T=2.0, K=2.0)


@dataclass
class PlantState:
    x1: float = 0.0
    x2: float = 0.0
    u_queue: list = field(default_factory=list)  # pending inputs, len n_d


def make_state(p: PlantParams) -> PlantState:
    """Zero initial state with an empty (zero) delay queue."""
    return PlantState(0.0, 0.0, [0.0] * p.input_delay)


def output(state: PlantState, p: PlantParams) -> float:
    return p.K * state.x1


def plant_step(state: PlantState, u: float, d: float, p: PlantParams) -> PlantState:
    """Advance one step under input u and additive disturbance d."""
    if not math.isfinite(u):
        raise ValueError("non-finite control input")
    queue = state.u_queue + [float(u)]
    u_eff = queue.pop(0)
    x1 = state.x1 + p.Ts * state.x2
    rate = (1.0 / p.T) * (-2.0 * state.x2 - math.sin(state.x1) + u_eff) + d
    x2 = state.x2 + p.Ts * rate
    return PlantState(x1, x2, queue)


@dataclass(frozen=True)
class DisturbanceSpec:
    noise_std: float = 0.01
    sine_amp: float = 0.05
    sine_freq_hz: float = 0.5

    def __post_init__(self):
        if self.noise_std < 0.0:
            raise ValueError("noise_std must be >= 0")


def disturbance_at(spec: DisturbanceSpec, k: int, Ts: float,
                   rng: np.random.Generator) -> float:
    """Disturbance sample at step k: low-frequency sine plus white noise
    drawn from the supplied seeded stream."""
    s = spec.sine_amp * math.sin(2.0 * math.pi * spec.sine_freq_hz * k * Ts)
    if spec.noise_std > 0.0:
        s += spec.noise_std * rng.standard_normal()
    return s


@dataclass(frozen=True)
class ReferenceSpec:
    kind: str = "step"            # "step" | "sine"
    amplitude: float = 1.0
    freq_hz: float = 0.1          # sine only
    step_time_s: float = 0.0      # step only

    def __post_init__(self):
        if self.kind not in ("step", "sine"):
            raise ValueError(f"unknown reference kind: {self.kind}")
        if not math.isfinite(self.amplitude):
            raise ValueError("amplitude must be finite")


def reference_at(spec: ReferenceSpec, t: float) -> float:
    if spec.kind == "step":
        return spec.amplitude if t >= spec.step_time_s else 0.0
    return spec.amplitude * math.sin(2.0 * math.pi * spec.freq_hz * t)
