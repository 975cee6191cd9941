"""tgrbf benchmark: closed-loop per-step latency against the plant's sample
time, and offline identification throughput.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload adaptive-sine --seed 0 --seconds 30 --trace 0

Workloads: adaptive-sine, fixed-sine, offline (see perfbench/README.md).
With ``--trace 0`` the last line of standard output is a JSON object holding
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a traced run.  Human-readable lines above it add the metrics that are
reported but not gated, the online counters and the machine facts.  The
full result is also written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from tracing import ADAPTIVE, FIXED, OFFLINE

ROOT = Path(__file__).resolve().parent.parent

# ROADMAP baseline rows: (row, metric, workload, low, high).  A single
# number has low == high; the row "differs" when the measurement lies more
# than 15% outside [low, high].
ROADMAP_ROWS = [
    ("one adaptive sine run", "wall_s", ADAPTIVE, 7.6, 7.6),
    ("adaptive sine per step (us)", "wall_us_per_step", ADAPTIVE, 760, 760),
    ("pid, nc_fixed per step (us)", "step_us_p50", FIXED, 65, 65),
    ("identify (s)", "identify_s", OFFLINE, 0.3, 0.3),
    ("forward (us)", "network.forward.us", ADAPTIVE, 36, 36),
    ("jacobian_params (us)", "network.jacobian_params.us", ADAPTIVE, 40, 40),
    ("jacobian_input (us)", "network.jacobian_input.us", ADAPTIVE, 24, 24),
    ("residuals_and_jacobian s=32 (us)", "online.residuals_and_jacobian.us",
     ADAPTIVE, 3300, 4000),
    ("SVD safeguard (us)", "online.step_size_safeguard.us", ADAPTIVE, 270, 270),
    ("ExperienceBuffer.push at capacity (us)", "online.ExperienceBuffer.push.us",
     ADAPTIVE, 30, 30),
    ("plant_step (us)", "plant.plant_step.us", ADAPTIVE, 1.1, 1.1),
    ("control law + adapt (us)", "control_law+adapt_gains.us", ADAPTIVE,
     6.5, 6.5),
]


def pin_blas_threads() -> None:
    """Keep BLAS threads at or below the usable cores.  Must run before
    numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            current = int(os.environ.get(var, nproc))
        except ValueError:
            current = nproc
        os.environ[var] = str(max(1, min(current, nproc)))


def load_program(root: Path):
    """Import tgrbf from the checkout's own src/, never from elsewhere."""
    src = root / "src"
    if not (src / "tgrbf" / "__init__.py").is_file():
        raise SystemExit(f"error: no tgrbf sources under {src}")
    sys.path.insert(0, str(src))
    import tgrbf
    if Path(tgrbf.__file__).resolve().parent != (src / "tgrbf").resolve():
        raise SystemExit(f"error: tgrbf imported from {tgrbf.__file__}")
    import workloads
    return workloads


def roadmap_table(workload: str, values: dict) -> list[str]:
    lines = []
    for row, metric, wl, low, high in ROADMAP_ROWS:
        if wl != workload or metric not in values:
            continue
        v = values[metric]
        differs = v < 0.85 * low or v > 1.15 * high
        base = f"{low:g}" if low == high else f"{low:g}-{high:g}"
        lines.append(f"  {row:42s} roadmap {base:>9s}  now {v:10.4g}  "
                     f"{'DIFFERS' if differs else 'within 15%'}")
    return lines


def report(result, facts: dict) -> list[str]:
    lines = [f"workload {result.workload}  seed {result.seed}  "
             f"trace {int(result.trace)}  reps {result.notes['reps']}  "
             f"traced reps {result.notes['traced_reps']}  "
             f"setup samples {result.notes['setup_samples']}  "
             f"step samples {result.notes['step_samples']}"]
    lines.append(f"facts: nproc {facts['nproc']}  python {facts['python']}  "
                 f"numpy {facts['numpy']}  blas {facts['blas']} "
                 f"({facts['blas_config']})  blas threads {facts['blas_threads']}")
    lines.append("src lines: " + "  ".join(
        f"{k.split('.')[0]} {int(v)}" for k, v in facts["src_lines"].items()))
    for title, table in (("metrics", result.metrics),
                         ("reported, not gated", result.reported)):
        lines.append(f"{title}:")
        lines += [f"  {k:40s} {v:14.6g} {u}" for k, (v, u) in table.items()]
    lines.append("counters: " + "  ".join(
        f"{k} {v:g}" for k, v in result.notes["counters"].items()))
    for key in ("gradcheck_err", "checkpoint_max_rel_diff_vs_shipped"):
        if key in result.notes:
            lines.append(f"{key}: {result.notes[key]:.3e}")
    if result.trace:
        values = {k: v for k, (v, _) in {**result.metrics,
                                         **result.reported}.items()}
        values.update(result.notes["untraced"])
        values["control_law+adapt_gains.us"] = (
            values["control.control_law.us"] + values["control.adapt_gains.us"])
        lines.append("ROADMAP baseline rows (traced times include the "
                     "wrappers):")
        lines += roadmap_table(result.workload, values)
    for p in result.problems:
        lines.append(f"CHECK FAILED: {p}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=(ADAPTIVE, FIXED, OFFLINE))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    pin_blas_threads()
    os.chdir(ROOT)
    wl = load_program(ROOT)
    result = wl.measure(args.workload, args.seed, args.seconds,
                        bool(args.trace), ROOT)
    facts = wl.facts(ROOT)
    out = ROOT / "perfbench" / "out" / (
        f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    out.write_text(json.dumps({
        "workload": result.workload, "seed": result.seed,
        "trace": result.trace, "correct": result.correct,
        "attempted": result.attempted, "failed": result.failed,
        "metrics": result.metrics, "reported": result.reported,
        "notes": result.notes, "problems": result.problems,
        "facts": facts}, indent=1))
    print("\n".join(report(result, facts)))
    print(result.line(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
