"""Command-line harness.

Subcommands:
  identify   train the network offline from a config and write a checkpoint
  run        execute a single closed-loop scenario
  compare    run the three controllers on one scenario (comparison table)
  gradcheck  audit analytic Jacobians against central finite differences

Exit codes: 0 success, 2 validation failure, 3 aborted run.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

from . import harness, offline
from .gradcheck import gradient_audit

EXIT_OK, EXIT_VALIDATION, EXIT_ABORTED = 0, 2, 3


def cmd_identify(args) -> int:
    with open(args.config) as fh:
        cfg = offline.IdentifyConfig.from_dict(json.load(fh))
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    os.makedirs(args.out, exist_ok=True)

    data = offline.generate_dataset(cfg.n_samples, seed=cfg.seed)
    net0 = offline.initialize_network(data, m=cfg.m, p=cfg.p, seed=cfg.seed)
    net, report = offline.train_offline(net0, data, epochs=cfg.epochs, seed=cfg.seed)

    ckpt = os.path.join(args.out, "network.json")
    net.save(ckpt)
    offline.dataset_to_csv(data, os.path.join(args.out, "dataset.csv"))
    # reference: the persistence predictor y_hat[k + 1] = y[k] on the holdout
    hold = data.holdout()
    persistence = offline.fit_metrics(hold.y[:-1], hold.y[1:])
    # every value parses with float(): nan when training did not halt
    halted = report.halted_epoch
    offline._write_csv(
        os.path.join(args.out, "fit_report.csv"), ["metric", "value"],
        [*((name, getattr(report, name)) for name in
           ("mse", "rmse", "mae", "r2", "deploy_mse", "deploy_r2")),
         ("persistence_mse", persistence.mse),
         ("halted_epoch", math.nan if halted is None else halted),
         *((f"epoch_{i}_loss", loss) for i, loss in enumerate(report.loss_curve))])
    print(f"checkpoint written to {ckpt}")
    print(f"holdout mse={report.mse:.6g} rmse={report.rmse:.6g} "
          f"mae={report.mae:.6g} r2={report.r2:.6g}")
    return EXIT_OK


def cmd_run(args) -> int:
    cfg = harness.load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.controller is not None:
        cfg.controller = args.controller
    try:
        trace, metrics = harness.run_scenario(cfg)
    except harness.RunAborted as exc:
        print(f"run aborted: {exc}", file=sys.stderr)
        return EXIT_ABORTED
    os.makedirs(args.out, exist_ok=True)
    harness.export_trace_csv(trace, os.path.join(args.out, "trace.csv"))
    harness.export_metrics_csv(metrics, os.path.join(args.out, "metrics.csv"))
    harness.export_events_csv(trace.events,
                              os.path.join(args.out, "update_events.csv"))
    print(f"iae={metrics.iae:.6g} ise={metrics.ise:.6g} "
          f"itae={metrics.itae:.6g} overshoot={metrics.overshoot_pct:.6g}% "
          f"settling={metrics.settling_time_s:.6g}s settled={metrics.settled}")
    return EXIT_OK


def cmd_compare(args) -> int:
    cfg = harness.load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    results = harness.compare_controllers(cfg)
    os.makedirs(args.out, exist_ok=True)
    rows = []
    for name, (trace, metrics) in results.items():
        if trace is None:
            rows.append([name] + ["nan"] * 6 + [1])
            continue
        harness.export_trace_csv(
            trace, os.path.join(args.out, f"trace_{name}.csv"))
        rows.append([name, metrics.iae, metrics.ise, metrics.itae,
                     metrics.overshoot_pct, metrics.settling_time_s,
                     int(metrics.settled), 0])
    table_path = os.path.join(args.out, "comparison.csv")
    offline._write_csv(table_path, ["controller", "iae", "ise", "itae",
                                    "overshoot_pct", "settling_time_s",
                                    "settled", "aborted"], rows)
    print(f"comparison table written to {table_path}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    if args.pairs < 1:
        raise ValueError(f"--pairs must be >= 1, got {args.pairs}")
    err = gradient_audit(n_pairs=args.pairs, seed=args.seed)
    print(f"max relative error over {args.pairs} pairs: {err:.3e}")
    return EXIT_OK if err < 1e-5 else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="tgrbf", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    for name, fn in [("identify", cmd_identify), ("run", cmd_run),
                     ("compare", cmd_compare)]:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", default="out")
        sp.set_defaults(fn=fn)
    sub.choices["run"].add_argument("--controller", default=None,
                                    choices=harness.CONTROLLER_TYPES)

    gp = sub.add_parser("gradcheck")
    gp.add_argument("--seed", type=int, default=0)
    gp.add_argument("--pairs", type=int, default=200)
    gp.set_defaults(fn=cmd_gradcheck)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0, None) else 0
    try:
        # numpy's generators take no negative seed, and their error names no key
        if args.seed is not None and args.seed < 0:
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
        return args.fn(args)
    # an OSError (a missing config, a directory given as one, an --out that
    # names a file) carries the path in its message
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
