"""Write artifacts/closed_loop.csv, the closed-loop numbers that
tests/test_acceptance.py::test_closed_loop_numbers_match_the_reference_file
recomputes.

Each row is a row of the `comparison.csv` that `tgrbf compare` writes for
configs/step.json or configs/sine.json, as the CLI wrote it, with the
config's file name in front and the run's number of online updates (the
triggered steps of its trace CSV, 0 for the baselines) at the end.

Run from anywhere, after a change that moves a closed-loop number on
purpose:

    python tests/write_closed_loop_reference.py
"""

import csv
import os
import tempfile
from pathlib import Path

from tgrbf import cli

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "artifacts" / "closed_loop.csv"
CONFIGS = ("step.json", "sine.json")


def main() -> None:
    os.chdir(ROOT)   # the configs name their checkpoint from the root
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in CONFIGS:
            out = Path(tmp) / name
            assert cli.main(["compare", "--config", f"configs/{name}",
                             "--out", str(out)]) == 0
            with open(out / "comparison.csv", newline="") as fh:
                header, *table = csv.reader(fh)
            for row in table:
                trace = out / f"trace_{row[0]}.csv"   # none if aborted
                updates = 0
                if trace.exists():
                    with open(trace, newline="") as fh:
                        updates = sum(float(step["triggered"]) == 1.0
                                      for step in csv.DictReader(fh))
                rows.append([name, *row, updates])
    with open(REFERENCE, "w", newline="") as fh:
        csv.writer(fh).writerows([["config", *header, "updates"], *rows])
    print(f"reference written to {REFERENCE}")


if __name__ == "__main__":
    main()
