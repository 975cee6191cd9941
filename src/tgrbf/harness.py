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
from .offline import _write_csv, deploy_input
from .online import ExperienceBuffer, OnlineOptimizer, TriggerConfig

__all__ = [
    "ScenarioConfig", "RunTrace", "MetricsReport", "RunAborted",
    "load_config", "run_scenario", "compute_metrics", "compare_controllers",
    "export_trace_csv", "export_metrics_csv", "export_events_csv",
]

TRACE_COLUMNS = ["t", "r", "y", "e", "u", "y_pred", "k1", "k2", "dym_du",
                 "g", "triggered", "eta"]

CONTROLLER_TYPES = ("tgrbf_nc", "nc_fixed", "pid")


class RunAborted(RuntimeError):
    """Raised when the divergence guard trips (|y| > 1e6)."""


@dataclass
class ScenarioConfig:
    plant: pl.PlantParams = field(default_factory=lambda: pl.TRUE_PLANT)
    disturbance: pl.DisturbanceSpec = field(default_factory=pl.DisturbanceSpec)
    reference: pl.ReferenceSpec = field(default_factory=pl.ReferenceSpec)
    controller: str = "tgrbf_nc"
    gains: ctl.GainState = field(default_factory=ctl.GainState)
    nc_gains: ctl.GainState | None = None   # fixed-gain baseline tuning
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
             "nc_gains": ctl.GainState, "pid": ctl.PidState,
             "trigger": TriggerConfig}


# JSON values a key of each kind takes: a dataclass field's declared type,
# "number" for a float() conversion, "whole number" (3.0 passes, 3.5 not) for
# an int() one, "object" for a section.  A bool is not a number.
_JSON_TYPES = {"float": (int, float), "int": (int,), "str": (str,),
               "str | None": (str, type(None)), "number": (int, float),
               "whole number": (int, float), "object": (dict,)}


def _check_keys(section: str, d, accepted: dict) -> dict:
    """d, if it is a JSON object whose keys are all in `accepted`, each with a
    value of the kind that `accepted` gives it."""
    if not isinstance(d, dict):
        raise ValueError(f"'{section}' config must be a JSON object, got {d!r}")
    unknown = set(d) - set(accepted)
    if unknown:
        raise ValueError(f"unknown keys in '{section}' config: {sorted(unknown)}")
    for key, value in d.items():
        kind = accepted[key]
        if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[kind]):
            raise ValueError(f"'{section}.{key}' must be a JSON {kind}, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"'{section}.{key}' must be finite, got {value!r}")
        if kind == "whole number" and value != int(value):
            raise ValueError(f"'{section}.{key}' must be a whole number, got {value!r}")
    return d


def _config_keys(cls) -> dict[str, str]:
    """A dataclass's fields, less those marked as run state, with their types."""
    return {f.name: f.type for f in fields(cls) if not f.metadata.get("run_state")}


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
                                  found[name], _config_keys(cls)))
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

    The network (when present) predicts the current output each step from
    the deploy-mode input; its prediction error drives the experience buffer
    and, for the adaptive controller, the event-triggered optimizer and the
    gain adaptation.
    """
    if net is None and cfg.checkpoint:
        net = TgrbfNet.load(cfg.checkpoint)
    if net is not None:
        net = net.copy()
        net.reset()
    adaptive = cfg.controller == "tgrbf_nc"
    if adaptive and net is None:
        raise ValueError("tgrbf_nc controller requires a network checkpoint")

    noise = np.random.Generator(np.random.PCG64(cfg.seed))
    opt_rng = np.random.Generator(np.random.PCG64(cfg.seed + 1))
    opt = None
    if adaptive:
        buf = ExperienceBuffer(cfg.buffer_capacity, net.n_in, net.p)
        opt = OnlineOptimizer(net, buf, cfg.trigger, opt_rng)

    state = pl.make_state(cfg.plant)
    gains = cfg.gains
    if cfg.controller == "nc_fixed" and cfg.nc_gains is not None:
        gains = cfg.nc_gains
    pid = cfg.pid
    u_prev, y_last = 0.0, 0.0
    n = cfg.n_steps
    data = np.zeros((n, len(TRACE_COLUMNS)))

    for k in range(n):
        t = k * cfg.plant.Ts
        r = pl.reference_at(cfg.reference, t)
        y = pl.output(state, cfg.plant)
        if abs(y) > 1e6:
            raise RunAborted(f"output diverged at step {k}: y = {y}")
        if opt is not None:
            # last step's update finishes before the network predicts again
            _settle(opt, data)
        e = r - y

        y_pred, g_val, dym_du, e_pred = 0.0, 0.0, 0.0, 0.0
        if net is not None:
            x_dep = deploy_input(u_prev, y_last)
            y_pred, trace = net.advance(x_dep)
            g_val = trace.g
            dym_du = float(net.jacobian_input(trace)[0])
            e_pred = y - y_pred

        if cfg.controller == "pid":
            u, pid = ctl.pid_step(pid, e, cfg.plant.Ts, cfg.u_limit)
        else:
            u = ctl.control_law(e, gains, cfg.u_limit)

        triggered, eta = 0.0, 0.0
        if opt is not None:
            opt.buf.push(x_dep, trace.h_prev, y, abs(e_pred))
            event = opt.maybe_update(k, e_pred)
            if event is not None:   # eta is nan until the update settles
                triggered, eta = 1.0, event.eta
            gains = ctl.adapt_gains(gains, e, dym_du)

        d = pl.disturbance_at(cfg.disturbance, k, cfg.plant.Ts, noise)
        state = pl.plant_step(state, u, d, cfg.plant)
        data[k] = (t, r, y, e, u, y_pred, gains.k1, gains.k2, dym_du,
                   g_val, triggered, eta)
        u_prev, y_last = u, y

    if opt is not None:
        _settle(opt, data)
    trace = RunTrace(
        data=data,
        metadata={"config_hash": cfg.config_hash(), "seed": cfg.seed,
                  "version": __version__, "rng": "numpy.PCG64",
                  "controller": cfg.controller},
        events=opt.events if opt is not None else [],
    )
    metrics = compute_metrics(trace, cfg.reference, cfg.plant.Ts)
    if net is None:
        metrics.fit_mse_online = math.nan   # no model predicted y
    return trace, metrics


def _settle(opt: OnlineOptimizer, data: np.ndarray) -> None:
    """Finish the optimizer's waiting update, if any, and log its step size
    in the row of the step that triggered it."""
    event = opt.settle()
    if event is not None:
        data[event.k, TRACE_COLUMNS.index("eta")] = event.eta


def compute_metrics(trace: RunTrace, ref: pl.ReferenceSpec,
                    Ts: float) -> MetricsReport:
    """IAE/ISE/ITAE (sums times the sample time Ts) for every run; overshoot
    and 2%-criterion settling time for step references only."""
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
        rep.overshoot_pct = max(0.0, 100.0 * float(np.max(y - r_final)) / abs(r_final))
        band = 0.02 * abs(r_final)
        outside = np.nonzero(np.abs(e) > band)[0]
        if outside.size == 0:
            rep.settling_time_s, rep.settled = float(t[0]), True
        elif outside[-1] + 1 < len(t):
            rep.settling_time_s, rep.settled = float(t[outside[-1] + 1]), True
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


_EXPORT_ROWS = 64   # trace rows per string operation; more saves no time, costs memory


def export_trace_csv(trace: RunTrace, path) -> None:
    """Values as %.17g, CRLF line ends (the csv module's bytes for these
    unquoted fields), streamed in blocks of rows, never built whole in
    memory."""
    line = ",".join(["%.17g"] * len(TRACE_COLUMNS)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\r\n")
        for i in range(0, len(trace.data), _EXPORT_ROWS):
            block = trace.data[i:i + _EXPORT_ROWS]
            fh.write((line * len(block)) % tuple(block.ravel().tolist()))


def export_metrics_csv(rep: MetricsReport, path) -> None:
    _write_csv(path, ["metric", "value"], rep.as_rows())


def export_events_csv(events: list, path) -> None:
    _write_csv(path, ["k", "eta", "eta_explicit", "sigma_min", "sigma_max",
                      "loss_before", "loss_after", "grad_norm", "safeguard",
                      "rejected"],
               ([ev.k, ev.eta, ev.eta_explicit, ev.sigma_min, ev.sigma_max,
                 ev.loss_before, ev.loss_after, ev.grad_norm,
                 int(ev.safeguard_hit), int(ev.rejected)] for ev in events))
