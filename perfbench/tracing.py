"""Span tracing of the tgrbf layers from outside the program.

Each traced function or method is replaced, for the length of one traced
repetition, by a wrapper that records a span (name, start, end, parent).
The wrapper is installed on the object the caller looks the name up on:
``tgrbf.offline`` binds ``explicit_step_size`` at import and ``tgrbf.cli``
binds ``gradient_audit``, so those names are patched there as well as (or
instead of) in their defining module.  Spans stay in memory in flat arrays;
when the run ends the last traced repetition's spans are written out.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import statistics
import time
from array import array
from dataclasses import dataclass

ADAPTIVE, FIXED, OFFLINE = "adaptive-sine", "fixed-sine", "offline"
CLOSED_LOOP = frozenset({ADAPTIVE, FIXED})


@dataclass(frozen=True)
class Traced:
    """One traced name: where callers look it up, which statistics it
    yields, and on which workloads it must record at least one call."""

    span: str                  # "<module>.<function>"
    owners: tuple[str, ...]    # "module" or "module:Class" the caller uses
    attr: str
    stats: tuple[str, ...]     # from "calls", "us", "ms", "self_s"
    used_on: frozenset


def _t(span, owners, stats, used_on):
    owners = (owners,) if isinstance(owners, str) else owners
    return Traced(span, owners, span.rsplit(".", 1)[1], stats,
                  frozenset(used_on))


A, F, O = {ADAPTIVE}, {FIXED}, {OFFLINE}
CU = ("calls", "us")
NET = "tgrbf.network:TgrbfNet"

TRACED = [
    _t("network.forward", NET, CU, A | F | O),
    _t("network.advance", NET, CU, A | F),
    _t("network.jacobian_params", NET, CU, A | O),
    _t("network.jacobian_input", NET, CU, A | F | O),
    _t("network.load", NET, ("ms",), A | F),
    _t("online.maybe_update", "tgrbf.online:OnlineOptimizer", CU, A),
    _t("online.residuals_and_jacobian", "tgrbf.online", CU, A),
    _t("online.step_size_safeguard", "tgrbf.online", CU, A),
    _t("online.explicit_step_size", ("tgrbf.online", "tgrbf.offline"), CU,
       A | O),
    _t("online.sample_batch", "tgrbf.online", CU, A),
    _t("online.ExperienceBuffer.push", "tgrbf.online:ExperienceBuffer", CU, A),
    _t("control.control_law", "tgrbf.control", CU, A | F),
    _t("control.adapt_gains", "tgrbf.control", CU, A),
    _t("control.pid_step", "tgrbf.control", CU, F),
    _t("plant.plant_step", "tgrbf.plant", CU, A | F | O),
    _t("plant.disturbance_at", "tgrbf.plant", CU, A | F),
    _t("plant.reference_at", "tgrbf.plant", CU, A | F),
    _t("harness.run_scenario", "tgrbf.harness", ("self_s",), A | F),
    _t("harness.load_config", "tgrbf.harness", ("ms",), A | F),
    _t("harness.compute_metrics", "tgrbf.harness", ("ms",), A | F),
    _t("harness.export_trace_csv", "tgrbf.harness", ("ms",), A | F),
    _t("harness.export_metrics_csv", "tgrbf.harness", ("ms",), A | F),
    _t("harness.export_events_csv", "tgrbf.harness", ("ms",), A | F),
    _t("offline.generate_dataset", "tgrbf.offline", ("ms",), O),
    _t("offline.train_offline", "tgrbf.offline", ("ms",), O),
    _t("offline.evaluate_teacher", "tgrbf.offline", ("ms",), O),
    _t("offline.evaluate_deploy", "tgrbf.offline", ("ms",), O),
    _t("offline.dataset_to_csv", "tgrbf.offline", ("ms",), O),
    _t("gradcheck.gradient_audit", "tgrbf.cli", ("ms",), O),
    _t("gradcheck.fd_jacobian_params", "tgrbf.gradcheck", CU, O),
    _t("gradcheck.fd_jacobian_input", "tgrbf.gradcheck", CU, O),
    _t("gradcheck.kink_clear", "tgrbf.gradcheck", ("calls",), O),
    # spans the benchmark opens around each cli.main call
    _t("cli.run", (), ("self_s",), A | F),
    _t("cli.identify", (), ("self_s",), O),
    _t("cli.gradcheck", (), ("self_s",), O),
]

STAT_UNITS = {"calls": "count", "us": "us", "ms": "ms", "self_s": "s"}
_STAT_SCALE = {"us": 1e6, "ms": 1e3}


def span_metric_units() -> dict[str, str]:
    """Per-layer metric name -> unit for every span statistic."""
    return {f"{t.span}.{s}": STAT_UNITS[s] for t in TRACED for s in t.stats}


def _resolve(owner: str):
    mod, _, cls = owner.partition(":")
    obj = importlib.import_module(mod)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """In-memory span store.  Span i has name id ``sid[i]``, start
    ``t0[i]``, end ``t1[i]`` and parent index ``parent[i]`` (-1 at the
    top), all from ``time.perf_counter``."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.sid, self.parent = array("i"), array("i")
        self.t0, self.t1 = array("d"), array("d")
        self._stack = [-1]
        self.kink_rejects = 0
        self.reps = 0
        self._rep_start = 0

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(self._name_id(name))
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, start)

    def _open(self, nid: int) -> int:
        idx = len(self.sid)
        self.sid.append(nid)
        self.parent.append(self._stack[-1])
        self.t0.append(0.0)
        self.t1.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, start: float) -> None:
        self.t1[idx] = time.perf_counter()
        self.t0[idx] = start
        self._stack.pop()

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        clock, opener, closer = time.perf_counter, self._open, self._close
        count_rejects = name == "gradcheck.kink_clear"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = opener(nid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                closer(idx, start)
            if count_rejects and not result:
                self.kink_rejects += 1
            return result
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced name for the duration of one repetition."""
        saved = []
        self._rep_start = len(self.sid)
        try:
            for t in TRACED:
                for owner in map(_resolve, t.owners):
                    raw = inspect.getattr_static(owner, t.attr)
                    saved.append((owner, t.attr, raw))
                    if isinstance(raw, classmethod):
                        patched = classmethod(self.wrap(t.span, raw.__func__))
                    else:
                        patched = self.wrap(t.span, raw)
                    setattr(owner, t.attr, patched)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)
        self.reps += 1

    def per_layer(self) -> dict[str, float]:
        """Span statistics per repetition: calls, median duration per call
        (us or ms), and self time (span time minus the time its direct
        child spans cover), summed over a repetition."""
        n = len(self.sid)
        reps = max(self.reps, 1)
        durations: dict[int, list[float]] = {}
        self_s = [0.0] * len(self.names)
        for i in range(n):
            d = self.t1[i] - self.t0[i]
            durations.setdefault(self.sid[i], []).append(d)
            self_s[self.sid[i]] += d
            if self.parent[i] >= 0:
                self_s[self.sid[self.parent[i]]] -= d
        out = {}
        for t in TRACED:
            nid = self._ids.get(t.span)
            ds = durations.get(nid, []) if nid is not None else []
            for stat in t.stats:
                if stat == "calls":
                    value = len(ds) / reps
                elif stat == "self_s":
                    value = self_s[nid] / reps if ds else 0.0
                else:
                    value = statistics.median(ds) * _STAT_SCALE[stat] if ds else 0.0
                out[f"{t.span}.{stat}"] = value
        return out

    def unused(self, workload: str) -> list[str]:
        """Traced names the workload should call but never did."""
        called = {self.names[s] for s in set(self.sid)}
        return [t.span for t in TRACED
                if workload in t.used_on and t.span not in called]

    def write(self, path) -> None:
        """Write the spans of the last traced repetition as CSV: span id,
        name, start_s, end_s, parent span id (-1 at the top)."""
        first = self._rep_start
        with open(path, "w") as fh:
            fh.write("span,name,start_s,end_s,parent\n")
            for i in range(first, len(self.sid)):
                parent = self.parent[i] - first if self.parent[i] >= 0 else -1
                fh.write(f"{i - first},{self.names[self.sid[i]]},"
                         f"{self.t0[i]:.9f},{self.t1[i]:.9f},{parent}\n")
