"""Workloads, output checks and metrics of the tgrbf benchmark.

Every workload drives the repository's own CLI in-process
(``tgrbf.cli.main``), one command after another, and measures it from
outside the program.  In untraced repetitions the only hook is a timestamp
taken after each call to ``tgrbf.plant.plant_step``.  The plant stands for
the physical system, so the gap between consecutive plant calls is the host
time the controller, identifier and optimizer spend on one sample.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tgrbf import cli, harness, offline
from tgrbf import plant as pl
from tgrbf.network import TgrbfNet

from tracing import ADAPTIVE, CLOSED_LOOP, FIXED, OFFLINE, Tracer, span_metric_units

MODULES = ("network", "online", "offline", "control", "plant", "harness",
           "gradcheck", "cli")
SHIPPED_CHECKPOINT = "artifacts/network.json"
GRADCHECK_TOL = 1e-5
SIGMA_DEGENERATE = 1e-6     # the safeguard's own degenerate-branch threshold
SETUP_SHARE = 0.1   # share of an untraced run spent on set-up interpreters

# Gated metrics: printed in the result line with --trace 0, on every workload.
END_TO_END = {"setup_s": "s", "wall_s": "s", "step_us_p99": "us",
              "peak_rss_mb": "MB"}
# Reported beside the gated metrics on the workloads they apply to.  The
# step median is not gated: on adaptive-sine it follows the host's speed
# over minutes by up to 1.5x, past the largest bound a metric may have.
REPORTED = {
    ADAPTIVE: {"step_us_p50": "us", "deadline_miss_frac": "ratio",
               "iae": "1", "fit_mse_online": "1"},
    FIXED: {"step_us_p50": "us", "deadline_miss_frac": "ratio", "iae": "1",
            "fit_mse_online": "1"},
    OFFLINE: {"step_us_p50": "us", "identify_s": "s", "gradcheck_s": "s",
              "holdout_deploy_mse": "1"},
}
COUNTERS = {"online.update_frac": "ratio", "online.safeguard_hit_frac": "ratio",
            "online.degenerate_frac": "ratio", "online.rejected": "count",
            "online.loss_improved_frac": "ratio", "online.J_bytes": "B",
            "offline.epochs_run": "count", "gradcheck.kink_reject_frac": "ratio"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units = dict(span_metric_units())
    units.pop("gradcheck.kink_clear.calls")   # folded into kink_reject_frac
    units.update(COUNTERS)
    units.update({f"{m}.src_lines": "lines" for m in (*MODULES, "total")})
    units["benchmark.trace_overhead_s"] = "s"
    return units


@dataclass(frozen=True)
class Inputs:
    """Configs and sizes the workloads run on; the self-test swaps in
    shortened copies."""

    sine_config: str = "configs/sine.json"
    identify_config: str = "configs/identify.json"
    gradcheck_pairs: int = 200


@dataclass
class Command:
    kind: str                  # "run", "identify" or "gradcheck"
    argv: list[str]
    out: str | None = None


@dataclass
class CommandResult:
    kind: str
    wall_s: float
    steps_us: np.ndarray
    failures: list[str]
    outputs: dict[str, float] = field(default_factory=dict)


def commands(workload: str, inputs: Inputs, seed: int, out: str) -> list[Command]:
    """The workload's CLI commands; each writes into its own directory under
    ``out``, so all of a repetition's outputs can be checked after it."""
    seed_arg = ["--seed", str(seed)]
    if workload in CLOSED_LOOP:
        controllers = ["tgrbf_nc"] if workload == ADAPTIVE else ["nc_fixed", "pid"]
        return [Command("run", ["run", "--config", inputs.sine_config,
                                "--controller", c, *seed_arg, "--out", d], d)
                for c, d in ((c, os.path.join(out, c)) for c in controllers)]
    ident = os.path.join(out, "identify")
    return [Command("identify", ["identify", "--config", inputs.identify_config,
                                 *seed_arg, "--out", ident], ident),
            Command("gradcheck", ["gradcheck", "--pairs",
                                  str(inputs.gradcheck_pairs), *seed_arg])]


class PlantClock:
    """The untraced hook: a timestamp after every plant_step call, installed
    where harness.run_scenario looks it up (``pl.plant_step``)."""

    def __init__(self):
        self.stamps: list[float] = []

    @contextlib.contextmanager
    def installed(self):
        self.stamps.clear()
        plant_step = pl.plant_step
        stamp, clock = self.stamps.append, time.perf_counter

        def hooked(*args, **kwargs):
            state = plant_step(*args, **kwargs)
            stamp(clock())
            return state

        pl.plant_step = hooked
        try:
            yield self
        finally:
            pl.plant_step = plant_step


def _read_table(path) -> tuple[list[str], np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        body = fh.read()
    if not body.strip():
        return header, np.empty((0, len(header)))
    return header, np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)


def _read_metric_rows(path) -> dict[str, float]:
    with open(path, newline="") as fh:
        return {name: float(value) for name, value in list(csv.reader(fh))[1:]}


class Checker:
    """Checks one command's exit code and outputs, and derives the
    deterministic outputs and online counters from the files it wrote."""

    def __init__(self, inputs: Inputs):
        self.scenario = harness.load_config(inputs.sine_config)
        with open(inputs.identify_config) as fh:
            self.n_samples = int(json.load(fh).get("n_samples", 1000))
        self.n_online = int(TgrbfNet.load(self.scenario.checkpoint)
                            .online_mask().sum())

    def check(self, cmd: Command, code: int, n_stamps: int,
              stdout: str) -> tuple[list[str], dict[str, float]]:
        if code != 0:
            return [f"{cmd.kind} exited with code {code}"], {}
        return getattr(self, f"_check_{cmd.kind}")(cmd, n_stamps, stdout)

    def _check_run(self, cmd, n_stamps, stdout):
        n = self.scenario.n_steps
        fails = []
        if n_stamps != n:
            fails.append(f"plant hook counted {n_stamps} steps, expected {n}")
        header, trace = _read_table(os.path.join(cmd.out, "trace.csv"))
        if trace.shape[0] != n:
            fails.append(f"trace has {trace.shape[0]} rows, expected {n}")
        if not np.all(np.isfinite(trace)):
            fails.append("trace holds a non-finite value")
        metrics = _read_metric_rows(os.path.join(cmd.out, "metrics.csv"))
        # overshoot and settling time are defined for step references only
        undefined = ({"overshoot_pct", "settling_time_s"}
                     if self.scenario.reference.kind != "step" else set())
        bad = [k for k, v in metrics.items()
               if k not in undefined and not math.isfinite(v)]
        if bad:
            fails.append(f"metrics.csv holds non-finite {bad}")
        ev_header, events = _read_table(
            os.path.join(cmd.out, "update_events.csv"))
        ev = {name: events[:, i] for i, name in enumerate(ev_header)}
        updates = events.shape[0]
        triggered = int(trace[:, header.index("triggered")].sum())
        if not updates == triggered == metrics["update_count"]:
            fails.append(f"update count disagrees: events {updates}, trace "
                         f"{triggered}, metrics {metrics['update_count']}")
        frac = (lambda mask: float(np.mean(mask))) if updates else (lambda _: 0.0)
        return fails, {
            "iae": metrics["iae"],
            "fit_mse_online": metrics["fit_mse_online"],
            "online.update_frac": updates / n,
            "online.safeguard_hit_frac": frac(ev["safeguard"] != 0),
            "online.degenerate_frac": frac(ev["sigma_min"] <= SIGMA_DEGENERATE),
            "online.rejected": float(np.sum(ev["rejected"])) if updates else 0.0,
            "online.loss_improved_frac": frac(ev["loss_after"] < ev["loss_before"]),
            # bytes of J per residuals_and_jacobian call, computed from sizes
            "online.J_bytes": float(self.scenario.trigger.batch_s
                                    * self.n_online * 8) if updates else 0.0,
        }

    def _check_identify(self, cmd, n_stamps, stdout):
        fails = []
        if n_stamps != self.n_samples:
            fails.append(f"plant hook counted {n_stamps} steps, "
                         f"expected {self.n_samples}")
        net = TgrbfNet.load(os.path.join(cmd.out, "network.json"))
        data = offline.dataset_from_csv(os.path.join(cmd.out, "dataset.csv"))
        if len(data.samples) != self.n_samples:
            fails.append(f"dataset has {len(data.samples)} rows")
        pred, actual = offline.evaluate_deploy(net, data.holdout())
        mse = offline.fit_metrics(pred, actual).mse
        if not math.isfinite(mse):
            fails.append("holdout deploy MSE is not finite")
        report = _read_metric_rows(os.path.join(cmd.out, "fit_report.csv"))
        epochs = sum(k.startswith("epoch_") for k in report) - 1
        return fails, {"holdout_deploy_mse": mse,
                       "offline.epochs_run": float(epochs)}

    def _check_gradcheck(self, cmd, n_stamps, stdout):
        match = re.search(r"max relative error over \d+ pairs: (\S+)", stdout)
        if match is None:
            return ["gradcheck printed no error"], {}
        err = float(match.group(1))
        if not err < GRADCHECK_TOL:
            return [f"gradcheck error {err} >= {GRADCHECK_TOL}"], {}
        return [], {"gradcheck_err": err}


def run_command(cmd: Command, clock: PlantClock,
                tracer: Tracer | None) -> tuple[int, float, np.ndarray, str]:
    """Run one command; returns (exit code, wall time, plant-call
    timestamps, captured stdout)."""
    buf = io.StringIO()
    span = tracer.span(f"cli.{cmd.kind}") if tracer else contextlib.nullcontext()
    with clock.installed(), contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        with span:
            code = cli.main(cmd.argv)
        wall = time.perf_counter() - t0
    return code, wall, np.asarray(clock.stamps), buf.getvalue()


def run_rep(cmds: list[Command], clock: PlantClock, checker: Checker,
            tracer: Tracer | None = None) -> list[CommandResult]:
    """Run the commands one after another, then check their outputs, with
    the tracer (if any) already removed so the checks leave no spans."""
    with tracer.installed() if tracer else contextlib.nullcontext():
        raw = [run_command(c, clock, tracer) for c in cmds]
    results = []
    for cmd, (code, wall, stamps, stdout) in zip(cmds, raw):
        failures, outputs = checker.check(cmd, code, stamps.size, stdout)
        results.append(CommandResult(cmd.kind, wall, np.diff(stamps) * 1e6,
                                     failures, outputs))
    return results


_SETUP_CODE = """\
import json, sys
from tgrbf import cli, harness
from tgrbf.network import TgrbfNet
if sys.argv[2] == "scenario":
    TgrbfNet.load(harness.load_config(sys.argv[1]).checkpoint)
else:
    with open(sys.argv[1]) as fh:
        json.load(fh)
print("ready", flush=True)
"""


def measure_setup(workload: str, inputs: Inputs, root: Path) -> float:
    """Time from spawning a fresh interpreter until it has imported tgrbf,
    parsed the workload's config and loaded its checkpoint."""
    config, kind = ((inputs.sine_config, "scenario") if workload in CLOSED_LOOP
                    else (inputs.identify_config, "identify"))
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", _SETUP_CODE, config, kind],
                          cwd=root, env=env, stdout=subprocess.PIPE,
                          text=True) as proc:
        ready = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.communicate(timeout=60)
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up interpreter failed ({proc.returncode})")
    return elapsed


def max_rel_diff(path_a, path_b) -> float:
    """Largest element-wise |a - b| / max(|a|, |b|) over two checkpoints."""
    a, b = TgrbfNet.load(path_a).to_vector(), TgrbfNet.load(path_b).to_vector()
    scale = np.maximum(np.abs(a), np.abs(b))
    rel = np.divide(np.abs(a - b), scale, out=np.zeros_like(a), where=scale > 0)
    return float(rel.max())


def src_lines(root: Path) -> dict[str, float]:
    lines = {}
    for path in sorted((root / "src" / "tgrbf").glob("*.py")):
        lines[path.stem] = path.read_bytes().count(b"\n")
    out = {f"{m}.src_lines": float(lines.get(m, 0)) for m in MODULES}
    out["total.src_lines"] = float(sum(lines.values()))
    return out


def facts(root: Path) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "src_lines": src_lines(root),
    }


_SKIP_DIRS = {".git", "__pycache__", ".pytest_cache"}


def snapshot(root: Path, own_out: Path) -> dict[str, tuple[int, int]]:
    """Size and mtime of every file of the checkout outside the benchmark's
    own output directory and interpreter caches."""
    snap = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d not in _SKIP_DIRS
                       and Path(dirpath, d) != own_out]
        for name in filenames:
            st = os.stat(os.path.join(dirpath, name))
            snap[os.path.relpath(os.path.join(dirpath, name), root)] = (
                st.st_size, st.st_mtime_ns)
    return snap


def git_status(root: Path) -> str | None:
    if not (root / ".git").exists() or shutil.which("git") is None:
        return None
    return subprocess.run(["git", "status", "--porcelain"], cwd=root,
                          capture_output=True, text=True, check=True).stdout


@dataclass
class Result:
    workload: str
    seed: int
    trace: bool
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]     # the result line's metrics
    reported: dict[str, tuple[float, str]]    # printed, not gated
    notes: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def line(self) -> str:
        return json.dumps({
            "correct": self.correct, "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in self.metrics.items()}})


def _layer_metrics(tracer: Tracer, counters: dict, wall_s: float,
                   traced: list[list[CommandResult]], root: Path) -> dict:
    layer = tracer.per_layer()
    kink_calls = layer.pop("gradcheck.kink_clear.calls")
    layer["gradcheck.kink_reject_frac"] = (
        tracer.kink_rejects / tracer.reps / kink_calls if kink_calls else 0.0)
    layer.update(counters)
    layer.update(src_lines(root))
    layer["benchmark.trace_overhead_s"] = statistics.median(
        sum(r.wall_s for r in rep) for rep in traced) - wall_s
    return {k: (layer[k], u) for k, u in per_layer_units().items()}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            root: Path, inputs: Inputs = Inputs()) -> Result:
    """Run one benchmark measurement: repetitions of the workload's commands
    until ``seconds`` have passed (at least one), every output checked.
    With ``trace`` each untraced repetition is followed by a traced one."""
    own_out = root / "perfbench" / "out"
    own_out.mkdir(parents=True, exist_ok=True)
    before, git_before = snapshot(root, own_out), git_status(root)
    checker = Checker(inputs)
    clock = PlantClock()
    tracer = Tracer() if trace else None
    setup_times: list[float] = []

    plain: list[list[CommandResult]] = []
    traced: list[list[CommandResult]] = []
    extra: list[CommandResult] = []
    with tempfile.TemporaryDirectory(dir=own_out) as tmp:
        cmds = commands(workload, inputs, seed, tmp)
        start = time.perf_counter()
        while True:
            plain.append(run_rep(cmds, clock, checker))
            if tracer is not None:
                traced.append(run_rep(cmds, clock, checker, tracer))
            else:
                # set-up interpreters follow every repetition until they
                # have taken a fixed share of the run, so that they sample
                # the same stretches of machine time as the workload
                while True:
                    setup_times.append(measure_setup(workload, inputs, root))
                    if sum(setup_times) >= SETUP_SHARE * (
                            time.perf_counter() - start):
                        break
            if time.perf_counter() - start >= seconds:
                break
        if workload == OFFLINE:
            # identify at the config's own seed should give back the
            # shipped checkpoint; the difference is recorded, not gated
            probe = os.path.join(tmp, "config-seed")
            extra += run_rep([Command("identify", [
                "identify", "--config", inputs.identify_config,
                "--out", probe], probe)], clock, checker)
            ckpt_diff = max_rel_diff(os.path.join(probe, "network.json"),
                                     root / SHIPPED_CHECKPOINT)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    every = [r for rep in plain + traced for r in rep] + extra
    problems = [f for r in every for f in r.failures]
    good_reps = [rep for rep in plain if not any(r.failures for r in rep)]
    if not good_reps:
        raise RuntimeError(f"every repetition failed: {problems[:3]}")
    outputs = [[r.outputs for r in rep] for rep in plain + traced
               if not any(r.failures for r in rep)]
    if any(o != outputs[0] for o in outputs):
        problems.append("outputs differ between repetitions at one seed")

    def total(key):
        return sum(o.get(key, 0.0) for o in outputs[0])

    def median_wall(kind):
        return statistics.median(r.wall_s for rep in good_reps for r in rep
                                 if r.kind == kind)

    rep_steps = [np.concatenate([r.steps_us for r in rep]) for rep in good_reps]
    steps = np.concatenate(rep_steps)
    wall_s = statistics.median(sum(r.wall_s for r in rep) for rep in good_reps)
    counters = {k: total(k) for k in COUNTERS
                if k != "gradcheck.kink_reject_frac"}
    if trace:
        metrics = _layer_metrics(tracer, counters, wall_s, traced, root)
        unused = tracer.unused(workload)
        if unused:
            problems.append(f"traced names never called: {unused}")
        tracer.write(own_out / f"spans-{workload}.csv")
    else:
        e2e = {"setup_s": statistics.median(setup_times), "wall_s": wall_s,
               # per repetition: at least 100 steps lie beyond a run's p99
               # (10 for identify's 1000), and one noisy repetition
               # cannot move the median
               "step_us_p99": statistics.median(
                   float(np.quantile(s, 0.99)) for s in rep_steps),
               "peak_rss_mb": peak_rss_mb}
        metrics = {k: (e2e[k], u) for k, u in END_TO_END.items()}

    n_steps = 0
    values = {"step_us_p50": float(np.median(steps))}
    if workload == OFFLINE:
        values.update(identify_s=median_wall("identify"),
                      gradcheck_s=median_wall("gradcheck"),
                      holdout_deploy_mse=total("holdout_deploy_mse"))
    else:
        n_steps = checker.scenario.n_steps * len(cmds)
        deadline_us = checker.scenario.plant.Ts * 1e6
        values.update(deadline_miss_frac=float(np.mean(steps > deadline_us)),
                      iae=total("iae"), fit_mse_online=total("fit_mse_online"))
    reported = {k: (values[k], u) for k, u in REPORTED[workload].items()}
    notes = {"reps": len(plain), "traced_reps": len(traced),
             "setup_samples": len(setup_times),
             "step_samples": int(steps.size), "counters": counters,
             "untraced": {"wall_s": wall_s, "wall_us_per_step":
                          wall_s / n_steps * 1e6 if n_steps else 0.0,
                          "step_us_p50": values["step_us_p50"]}}
    if workload == OFFLINE:
        notes["gradcheck_err"] = total("gradcheck_err")
        notes["checkpoint_max_rel_diff_vs_shipped"] = ckpt_diff

    if snapshot(root, own_out) != before:
        problems.append("the benchmark changed files of the checkout")
    if git_status(root) != git_before:
        problems.append("git status changed during the benchmark")
    return Result(workload, seed, trace, correct=not problems,
                  attempted=len(every),
                  failed=sum(bool(r.failures) for r in every),
                  metrics=metrics, reported=reported, notes=notes,
                  problems=problems)
