"""Scenario configuration, the closed-loop run engine, metrics, controller
comparison and CSV export.

A scenario wires the benchmark plant, the identified network with its
event-triggered optimizer, and one of three controllers (adaptive nonlinear,
fixed-gain nonlinear, PID) into a deterministic seeded run.  Every run
produces a per-step trace from which all metrics and plot data derive.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import __version__
from . import control as ctl
from . import plant as pl
from .network import TgrbfNet
from .offline import HISTORY_LEN, Dataset, _check_keys, _write_rows
from .online import ExperienceBuffer, OnlineOptimizer, TriggerConfig

__all__ = [
    "ScenarioConfig", "RunTrace", "MetricsReport", "RunAborted",
    "load_config", "run_scenario", "compute_metrics", "compare_controllers",
    "export_trace_csv", "export_metrics_csv", "export_events_csv",
]

TRACE_COLUMNS = ["t", "r", "y", "e", "u", "y_pred", "k1", "k2", "dym_du",
                 "g", "triggered", "eta"]

CONTROLLER_TYPES = ("tgrbf_nc", "nc_fixed", "pid")
_MODEL_ROWS = 256   # steps per block of the baselines' model pass: a fixed peak
_U, _Y = TRACE_COLUMNS.index("u"), TRACE_COLUMNS.index("y")


class RunAborted(RuntimeError):
    """Raised when the divergence guard trips (|y| > 1e6)."""


@dataclass
class ScenarioConfig:
    plant: pl.PlantParams = field(default_factory=lambda: pl.TRUE_PLANT)
    disturbance: pl.DisturbanceSpec = field(default_factory=pl.DisturbanceSpec)
    reference: pl.ReferenceSpec = field(default_factory=pl.ReferenceSpec)
    controller: str = "tgrbf_nc"
    gains: ctl.GainState = field(default_factory=ctl.GainState)
    nc_gains: ctl.FixedGains | None = None   # fixed-gain baseline tuning
    pid: ctl.PidState = field(default_factory=ctl.PidState)
    u_limit: float = 10.0
    checkpoint: str | None = None
    trigger: TriggerConfig = field(default_factory=TriggerConfig)
    buffer_capacity: int = 1000
    duration_s: float = 3.0
    seed: int = 0
    raw: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.controller not in CONTROLLER_TYPES:
            raise ValueError(f"unknown controller type: {self.controller}")
        if not self.u_limit > 0.0:
            raise ValueError(f"u_limit must be > 0, got {self.u_limit}")
        if not self.duration_s >= 0.0:
            raise ValueError(f"duration_s must be >= 0, got {self.duration_s}")
        if self.buffer_capacity < 1:
            raise ValueError(f"network.buffer_capacity must be >= 1, "
                             f"got {self.buffer_capacity}")
        steps = self.duration_s / self.plant.Ts
        if abs(steps - round(steps)) > 1e-9:
            raise ValueError("duration_s must be an integer number of samples")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @property
    def n_steps(self) -> int:
        return int(round(self.duration_s / self.plant.Ts))

    def config_hash(self) -> str:
        doc = self.raw if self.raw else {"controller": self.controller,
                                         "seed": self.seed}
        return hashlib.sha256(
            json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


# config section -> the dataclass it builds; "trigger" sits inside "network"
_SECTIONS = {"plant": pl.PlantParams, "disturbance": pl.DisturbanceSpec,
             "reference": pl.ReferenceSpec, "gains": ctl.GainState,
             "nc_gains": ctl.FixedGains, "pid": ctl.PidState,
             "trigger": TriggerConfig}


def config_from_dict(doc: dict) -> ScenarioConfig:
    """Build a ScenarioConfig from a parsed JSON document, rejecting
    unknown keys and values of the wrong type."""
    sections = dict.fromkeys({*_SECTIONS, "controller", "network"} - {"trigger"},
                             "object")
    _check_keys("top", doc, {**sections, "duration_s": "number",
                             "seed": "whole number"})
    c = _check_keys("controller", doc.get("controller", {}),
                    {"type": "str", "u_limit": "number"})
    n = _check_keys("network", doc.get("network", {}), {
        "checkpoint": "str | None", "buffer_capacity": "whole number",
        "trigger": "object"})
    found = {**doc, **n}   # every section, "trigger" included
    kw = {name: cls(**_check_keys(f"network.{name}" if name in n else name,
                                  found[name], {f.name: f.type for f in fields(cls)}))
          for name, cls in _SECTIONS.items() if name in found}
    if "type" in c:
        kw["controller"] = c["type"]
    for key, conv, src in (("u_limit", float, c), ("buffer_capacity", int, n),
                           ("duration_s", float, doc), ("seed", int, doc)):
        if key in src:
            kw[key] = conv(src[key])
    return ScenarioConfig(checkpoint=n.get("checkpoint"), raw=doc, **kw)


def load_config(path) -> ScenarioConfig:
    with open(path) as fh:
        return config_from_dict(json.load(fh))


@dataclass
class RunTrace:
    data: np.ndarray                # (n_steps, len(TRACE_COLUMNS))
    metadata: dict
    events: list = field(default_factory=list)

    def col(self, name: str) -> np.ndarray:
        return self.data[:, TRACE_COLUMNS.index(name)]


@dataclass
class MetricsReport:
    iae: float = 0.0
    ise: float = 0.0
    itae: float = 0.0
    overshoot_pct: float = math.nan
    settling_time_s: float = math.nan
    settled: bool = False
    update_count: int = 0
    fit_mse_online: float = math.nan   # nan when nothing was predicted

    def as_rows(self) -> list[tuple[str, float]]:
        return [(f.name, float(getattr(self, f.name))) for f in fields(self)]


def run_scenario(cfg: ScenarioConfig,
                 net: TgrbfNet | None = None) -> tuple[RunTrace, MetricsReport]:
    """Execute one closed-loop scenario.  Returns (trace, metrics).

    For the adaptive controller the network predicts each step's output from
    its deployment row, which drives the buffer, the optimizer and the gains;
    for a baseline it predicts every step after the loop, read by nothing."""
    if net is None and cfg.checkpoint:
        net = TgrbfNet.load(cfg.checkpoint)
    if net is not None:
        net = net.copy()
        net.reset()
    adaptive = cfg.controller == "tgrbf_nc"
    if adaptive and net is None:
        raise ValueError("tgrbf_nc controller requires a network checkpoint")

    noise = np.random.Generator(np.random.PCG64(cfg.seed))
    if adaptive:
        opt = OnlineOptimizer(net, ExperienceBuffer(cfg.buffer_capacity, net.n_in, net.p),
                              cfg.trigger, np.random.Generator(np.random.PCG64(cfg.seed + 1)))

    state = pl.make_state(cfg.plant)
    gains = (cfg.nc_gains if cfg.controller == "nc_fixed"
             and cfg.nc_gains is not None else cfg.gains)
    k1, k2 = gains.k1, gains.k2   # the adaptive law's run state
    e_prev, integral = 0.0, 0.0   # the PID's run state
    n = cfg.n_steps
    # the trace, after HISTORY_LEN zero rows: the plant at rest before step 0
    padded = np.zeros((HISTORY_LEN + n, len(TRACE_COLUMNS)))
    data = padded[HISTORY_LEN:]

    for k in range(n):
        t = k * cfg.plant.Ts
        r = pl.reference_at(cfg.reference, t)
        y = pl.output(state, cfg.plant)
        if abs(y) > 1e6:
            raise RunAborted(f"output diverged at step {k}: y = {y}")
        e = r - y

        y_pred, g_val, dym_du = 0.0, 0.0, 0.0
        if adaptive:
            # an earlier update's waiting stage runs before the network
            # predicts again: the last trigger's step, or the replay after it
            opt.settle()
            data[k, _Y] = y
            X, targets = _deploy_rows(padded, k, 1)
            y_pred, trace = net.advance(X[0])
            g_val, dym_du = trace.g, float(net.jacobian_input(trace)[0])
            opt.buf.push(X[0], trace.h_prev, targets[0], abs(y - y_pred))
            opt.maybe_update(k, y - y_pred)

        if cfg.controller == "pid":
            u, integral = ctl.pid_step(cfg.pid, e, e_prev, integral, cfg.plant.Ts)
            e_prev = e
        else:
            u = ctl.control_law(e, k1, k2, gains.alpha_pow)
        # the actuator limit, as a conditional: min(max()) costs 5x per step
        u = cfg.u_limit if u > cfg.u_limit else -cfg.u_limit if u < -cfg.u_limit else u
        if adaptive:
            k1, k2 = ctl.adapt_gains(gains, k1, k2, e, dym_du)

        d = pl.disturbance_at(cfg.disturbance, k, cfg.plant.Ts, noise)
        state = pl.plant_step(state, u, d, cfg.plant)
        data[k] = (t, r, y, e, u, y_pred, k1, k2, dym_du, g_val, 0.0, 0.0)

    col = TRACE_COLUMNS.index
    if adaptive:
        opt.settle()   # the last update's step
        opt.settle()   # and its loss_after replay
        for ev in opt.events:   # the update log fills the update columns
            data[ev.k, col("triggered")], data[ev.k, col("eta")] = 1.0, ev.eta
    elif net is not None:   # the baselines never read the model's columns
        for k in range(0, n, _MODEL_ROWS):   # so they are filled block by block
            block = data[k:k + _MODEL_ROWS]
            y_pred, trace = net.advance(_deploy_rows(padded, k, len(block))[0])
            block[:, col("y_pred")], block[:, col("g")] = y_pred, trace.g
            block[:, col("dym_du")] = net.jacobian_input(trace)[:, 0]
    trace = RunTrace(
        data=data,
        metadata={"config_hash": cfg.config_hash(), "seed": cfg.seed,
                  "version": __version__, "rng": "numpy.PCG64",
                  "controller": cfg.controller},
        events=opt.events if adaptive else [],
    )
    metrics = compute_metrics(trace, cfg.reference, cfg.plant.Ts)
    if net is None:
        metrics.fit_mse_online = math.nan   # no model predicted y
    return trace, metrics


def _deploy_rows(padded: np.ndarray, k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Steps k ... k+n-1's deploy rows and targets, once y_{k+n-1} is in padded."""
    rows = padded[k:k + n + HISTORY_LEN]
    X, targets = Dataset(rows[:-1, _U], rows[:, _Y]).regressor(deploy=True)
    return X[-n:], targets[-n:]


def compute_metrics(trace: RunTrace, ref: pl.ReferenceSpec,
                    Ts: float) -> MetricsReport:
    """IAE/ISE/ITAE (sums times the sample time Ts) for every run; overshoot
    and 2%-criterion settling time after the step, for step references only."""
    if trace.data.shape[0] == 0:
        return MetricsReport()
    t = trace.col("t")
    e = trace.col("e")
    y = trace.col("y")
    rep = MetricsReport(
        iae=float(np.sum(np.abs(e)) * Ts),
        ise=float(np.sum(e ** 2) * Ts),
        itae=float(np.sum(t * np.abs(e)) * Ts),
        update_count=int(np.sum(trace.col("triggered"))),
    )
    half = trace.data.shape[0] // 2
    resid = y[half:] - trace.col("y_pred")[half:]
    rep.fit_mse_online = float(np.mean(resid ** 2))

    if ref.kind == "step":
        r_final = ref.amplitude
        if r_final == 0.0:
            return rep   # overshoot undefined, left as nan
        past = math.copysign(1.0, r_final) * (y - r_final)   # in the step's direction
        rep.overshoot_pct = max(0.0, 100.0 * float(np.max(past)) / abs(r_final))
        outside = np.nonzero((t >= ref.step_time_s)
                             & (np.abs(e) > 0.02 * abs(r_final)))[0]
        if outside.size == 0:
            rep.settling_time_s, rep.settled = 0.0, True
        elif outside[-1] + 1 < len(t):
            rep.settling_time_s, rep.settled = float(t[outside[-1] + 1]) - ref.step_time_s, True
        # else: never settles, flagged by settled=False / nan time
    return rep


def compare_controllers(cfg: ScenarioConfig,
                        net: TgrbfNet | None = None) -> dict:
    """Run the three controllers on the identical plant, reference and seed.
    Returns {name: (trace, metrics)}; an aborted run maps to (None, None)."""
    out = {}
    for name in CONTROLLER_TYPES:
        sub = ScenarioConfig(**{**cfg.__dict__, "controller": name})
        try:
            out[name] = run_scenario(sub, net=net)
        except RunAborted:
            out[name] = (None, None)
    return out


def export_trace_csv(trace: RunTrace, path) -> None:
    _write_rows(path, TRACE_COLUMNS, trace.data)


def export_metrics_csv(rep: MetricsReport, path) -> None:
    _write_rows(path, ["metric", "value"], rep.as_rows())


def export_events_csv(events: list, path) -> None:
    _write_rows(path, ["k", "eta", "eta_explicit", "sigma_min", "sigma_max",
                       "loss_before", "loss_after", "grad_norm", "safeguard",
                       "rejected"],
                [[ev.k, ev.eta, ev.eta_explicit, ev.sigma_min, ev.sigma_max,
                  ev.loss_before, ev.loss_after, ev.grad_norm,
                  ev.safeguard_hit, ev.rejected] for ev in events])
