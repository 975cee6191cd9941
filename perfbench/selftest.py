"""Tiny-size self-test of the benchmark.  Gates on no timing.

Runs every workload once untraced and once traced on shortened copies of the
shipped configs and checks that each result is correct and names every
metric with its unit: the result line against BENCHMARK.json, and the
metrics reported beside it against the workloads they apply to.  Then checks
that the benchmark exits non-zero, printing no result, in a directory that
holds only its own files.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run


def tiny_inputs(wl, tmp: Path):
    sine = json.loads((run.ROOT / "configs/sine.json").read_text())
    sine["duration_s"] = 0.3
    ident = json.loads((run.ROOT / "configs/identify.json").read_text())
    ident.update(n_samples=150, epochs=2)
    (tmp / "sine.json").write_text(json.dumps(sine))
    (tmp / "identify.json").write_text(json.dumps(ident))
    return wl.Inputs(sine_config=str(tmp / "sine.json"),
                     identify_config=str(tmp / "identify.json"),
                     gradcheck_pairs=3)


def check_names(what: str, got: dict, want: dict) -> list[str]:
    got_units = {k: u for k, (_, u) in got.items()}
    errors = [f"{what}: {k} has unit {got_units.get(k)}, expected {u}"
              for k, u in want.items() if got_units.get(k) != u]
    errors += [f"{what}: unexpected metric {k}" for k in got if k not in want]
    errors += [f"{what}: {k} = {v}" for k, (v, _) in got.items()
               if not math.isfinite(v)]
    return errors


def check_benchmark_json(wl) -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    errors = []
    if not {w["name"] for w in spec["workloads"]} <= {run.ADAPTIVE, run.FIXED,
                                                       run.OFFLINE}:
        errors.append("BENCHMARK.json lists an unknown workload")
    for key, want in (("end_to_end", wl.END_TO_END),
                      ("per_layer", wl.per_layer_units())):
        if {m["name"]: m["unit"] for m in spec[key]} != want:
            errors.append(f"BENCHMARK.json {key} differs from the benchmark's")
    return errors


def check_bare_directory(tmp: Path) -> list[str]:
    bare = tmp / "bare"
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", run.OFFLINE,
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return ["benchmark ran in a directory without the program"]
    return []


def main() -> int:
    run.pin_blas_threads()
    os.chdir(run.ROOT)
    wl = run.load_program(run.ROOT)
    own_out = run.ROOT / "perfbench" / "out"
    own_out.mkdir(parents=True, exist_ok=True)
    errors = check_benchmark_json(wl)
    with tempfile.TemporaryDirectory(dir=own_out) as tmp:
        tmp = Path(tmp)
        inputs = tiny_inputs(wl, tmp)
        for workload in (run.ADAPTIVE, run.FIXED, run.OFFLINE):
            for trace in (False, True):
                res = wl.measure(workload, 0, 0, trace, run.ROOT, inputs)
                what = f"{workload} trace={int(trace)}"
                run.report(res, wl.facts(run.ROOT))
                json.loads(res.line())
                if not res.correct:
                    errors.append(f"{what}: not correct: {res.problems}")
                want = wl.per_layer_units() if trace else wl.END_TO_END
                errors += check_names(what, res.metrics, want)
                errors += check_names(what, res.reported,
                                      wl.REPORTED[workload])
                print(f"{what}: {res.attempted} commands checked")
        errors += check_bare_directory(tmp)
    for e in errors:
        print(f"FAIL {e}")
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
