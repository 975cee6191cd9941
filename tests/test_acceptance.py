"""End-to-end acceptance gate.

One test per criterion; each prints a single PASS/FAIL line.  The helper
fixtures run the shipped step and sine scenarios once per session and share
the results across criteria.
"""

import csv
import dataclasses
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from tgrbf import cli, harness, offline, online
from tgrbf.gradcheck import gradient_audit
from tgrbf.network import TgrbfNet

ROOT = Path(__file__).resolve().parents[1]
CHECKPOINT = ROOT / "artifacts" / "network.json"


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {n:2d}: {'PASS' if ok else 'FAIL'} - {detail}")


def _load_cfg(name: str) -> harness.ScenarioConfig:
    cfg = harness.load_config(ROOT / "configs" / name)
    cfg.checkpoint = str(CHECKPOINT)
    return cfg


@pytest.fixture(scope="session")
def step_compare():
    cfg = _load_cfg("step.json")
    t0 = time.perf_counter()
    results = harness.compare_controllers(cfg)
    return cfg, results, time.perf_counter() - t0


@pytest.fixture(scope="session")
def sine_compare():
    cfg = _load_cfg("sine.json")
    t0 = time.perf_counter()
    results = harness.compare_controllers(cfg)
    return cfg, results, time.perf_counter() - t0


@pytest.fixture(scope="session")
def identification():
    """Offline training with the shipped identification settings."""
    with open(ROOT / "configs" / "identify.json") as fh:
        doc = json.load(fh)
    t0 = time.perf_counter()
    data = offline.generate_dataset(doc["n_samples"], seed=doc["seed"])
    net0 = offline.initialize_network(data, m=doc["m"], p=doc["p"],
                                      seed=doc["seed"])
    net, report = offline.train_offline(net0, data, epochs=doc["epochs"],
                                        seed=doc["seed"])
    return doc, data, net0, net, report, time.perf_counter() - t0


def test_criterion_01_gradient_audit():
    t0 = time.perf_counter()
    err = gradient_audit(n_pairs=200, seed=0)
    elapsed = time.perf_counter() - t0
    ok = err < 1e-5 and elapsed < 10.0
    _report(1, ok, f"max rel err {err:.3e} over 200 pairs in {elapsed:.2f}s")
    assert err < 1e-5, f"gradient audit max relative error {err:.3e} >= 1e-5"
    assert elapsed < 10.0, f"gradient audit took {elapsed:.2f}s >= 10s"


def test_criterion_02_scalar_newton_property():
    rng = np.random.Generator(np.random.PCG64(2))
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        a = rng.uniform(0.2, 5.0) * (1 if rng.random() < 0.5 else -1)
        b = rng.normal()
        w = rng.normal()
        F = np.array([b - a * w])
        J = np.array([[-a]])
        grad, eta, degenerate = online.explicit_step_size(F, J)
        assert not degenerate
        W = np.array([w])
        assert online.momentum_update(W, W.copy(), grad, eta, 0.0)
        worst = max(worst, abs(b - a * float(W[0])))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 1.0
    _report(2, ok, f"worst residual {worst:.3e} on 100 affine problems "
                   f"in {elapsed*1e3:.0f}ms")
    assert worst < 1e-10
    assert elapsed < 1.0


def test_criterion_03_offline_identification(identification):
    doc, _, _, _, report, elapsed = identification
    ok = report.r2 >= 0.99 and report.mse <= 0.02 and elapsed < 60.0
    _report(3, ok, f"holdout R2 {report.r2:.5f} MSE {report.mse:.3e} "
                   f"({doc['n_samples']} samples, {elapsed:.1f}s)")
    assert report.r2 >= 0.99, f"holdout R2 {report.r2} < 0.99"
    assert report.mse <= 0.02, f"holdout MSE {report.mse} > 0.02"
    assert elapsed < 60.0, f"identification took {elapsed:.1f}s >= 60s"


def test_criterion_04_ablation_ordering(identification):
    doc, data, net0, _, report, elapsed_full = identification
    t0 = time.perf_counter()
    net_rbf = net0.copy()
    net_rbf.gate_frozen = True
    _, rbf_report = offline.train_offline(net_rbf, data, epochs=doc["epochs"],
                                          seed=doc["seed"])
    elapsed = (time.perf_counter() - t0) + elapsed_full
    ok = report.mse < rbf_report.mse and elapsed < 120.0
    _report(4, ok, f"full MSE {report.mse:.3e} < pure-RBF ablation MSE "
                   f"{rbf_report.mse:.3e} ({elapsed:.1f}s)")
    assert report.mse < rbf_report.mse, (
        f"gated network MSE {report.mse} not below ablation {rbf_report.mse}")
    assert elapsed < 120.0


def test_criterion_05_step_test_orderings(step_compare):
    _, results, elapsed = step_compare
    m = {name: rep for name, (_, rep) in results.items()}
    assert all(rep is not None for rep in m.values()), "a step run aborted"
    tg, nc, pid = m["tgrbf_nc"], m["nc_fixed"], m["pid"]

    checks = {
        "IAE(tgrbf)<IAE(nc)": tg.iae < nc.iae,
        "IAE(nc)<IAE(pid)": nc.iae < pid.iae,
        "ovs(tgrbf)<ovs(nc)": tg.overshoot_pct < nc.overshoot_pct,
        "ovs(nc)<ovs(pid)": nc.overshoot_pct < pid.overshoot_pct,
        "settle(tgrbf)<settle(pid)": (tg.settled and
                                      (not pid.settled or
                                       tg.settling_time_s < pid.settling_time_s)),
        "ovs(tgrbf)<=15%": tg.overshoot_pct <= 15.0,
        "settle(tgrbf)<=1.0s": tg.settled and tg.settling_time_s <= 1.0,
        "runtime<30s": elapsed < 30.0,
    }
    failed = [k for k, v in checks.items() if not v]
    _report(5, not failed,
            f"IAE {tg.iae:.4f}/{nc.iae:.4f}/{pid.iae:.4f}, "
            f"ovs% {tg.overshoot_pct:.2f}/{nc.overshoot_pct:.2f}/"
            f"{pid.overshoot_pct:.2f}, tg settled={tg.settled} "
            f"({elapsed:.1f}s)" + (f"; failed: {failed}" if failed else ""))
    assert not failed, f"step-test sub-criteria failed: {failed}"


def test_criterion_06_sine_test_itae_ordering(sine_compare):
    _, results, elapsed = sine_compare
    m = {name: rep for name, (_, rep) in results.items()}
    assert all(rep is not None for rep in m.values()), "a sine run aborted"
    tg, nc, pid = m["tgrbf_nc"], m["nc_fixed"], m["pid"]
    ok = tg.itae < nc.itae < pid.itae and elapsed < 60.0
    _report(6, ok, f"ITAE {tg.itae:.3f} < {nc.itae:.3f} < {pid.itae:.3f} "
                   f"({elapsed:.1f}s)")
    assert tg.itae < nc.itae < pid.itae, (
        f"ITAE ordering violated: {tg.itae}, {nc.itae}, {pid.itae}")
    assert elapsed < 60.0


def test_criterion_07_trigger_no_mutation():
    # (a) |e| <= delta forced for an entire run: bit-identical parameters
    net = TgrbfNet.load(CHECKPOINT)
    cfg = online.TriggerConfig(delta=0.01)
    buf = online.ExperienceBuffer(1000, net.n_in, net.p)
    rng = np.random.Generator(np.random.PCG64(0))
    for _ in range(64):
        x = rng.uniform(-1.0, 1.0, size=net.n_in)
        buf.push(x, net.h_init, float(rng.normal()), 1.0)
    opt = online.OnlineOptimizer(net, buf, cfg,
                                 np.random.Generator(np.random.PCG64(1)))
    before = net.to_vector().copy()
    for k in range(1000):
        opt.maybe_update(k, cfg.delta if k % 2 else -cfg.delta)
    identical = bool(np.array_equal(net.to_vector(), before)) \
        and len(opt.events) == 0

    # (b) default step run with delta = 0.01: update fraction after 1 s < 0.5
    run_cfg = _load_cfg("step.json")
    run_cfg.trigger = dataclasses.replace(run_cfg.trigger, delta=0.01)
    trace, _ = harness.run_scenario(run_cfg)
    tail = trace.col("t") >= 1.0
    frac = float(np.mean(trace.col("triggered")[tail]))
    ok = identical and frac < 0.5
    _report(7, ok, f"no-trigger params bit-identical={identical}, "
                   f"update fraction after 1s = {frac:.3f}")
    assert identical, "parameters mutated despite |e| <= delta throughout"
    assert frac < 0.5, f"update fraction after 1s is {frac} >= 0.5"


def _brute_force_retained(priorities, capacity):
    """Independent brute-force model of the eviction policy."""
    entries = []   # (priority, insertion index), oldest first
    for idx, p in enumerate(priorities):
        if len(entries) >= capacity:
            window = math.ceil(len(entries) / 4)
            best = 0
            for i in range(1, window):
                if entries[i][0] < entries[best][0]:
                    best = i
            entries.pop(best)
        entries.append((p, idx))
    return entries


def test_criterion_08_buffer_policy_oracle():
    rng = np.random.Generator(np.random.PCG64(8))
    capacities = [2, 10, 1000]
    trials = 0
    for trial in range(1000):
        cap = capacities[trial % 3]
        if cap == 1000:
            # a few long sequences exercise eviction at this capacity; the
            # rest stay short and verify the no-eviction regime
            n = 1010 if trial < 9 else int(rng.integers(1, 60))
        else:
            n = int(rng.integers(1, cap + 30))
        pr = rng.integers(0, 7, size=n).astype(float)
        buf = online.ExperienceBuffer(capacity=cap, n_in=1, p=1)
        for i, p in enumerate(pr):
            # the target carries the insertion index
            buf.push(np.zeros(1), np.zeros(1), float(i), float(p))
            assert len(buf) <= cap, "capacity exceeded"
        got = [(p, int(i)) for p, i in
               zip(buf.priority[:len(buf)].tolist(), buf.targets[:len(buf)])]
        want = _brute_force_retained(pr, cap)
        assert got == want, (
            f"eviction mismatch (capacity {cap}): {got} != {want}")
        trials += 1
    _report(8, True, f"{trials} push sequences match the brute-force oracle, "
                     f"capacities {capacities}")


def test_closed_loop_numbers_match_the_reference_file(step_compare,
                                                      sine_compare):
    """Every number of artifacts/closed_loop.csv, `tgrbf compare`'s tables
    for step.json and sine.json and each run's update count (written by
    tests/write_closed_loop_reference.py): the metrics to 1e-9 relative,
    nan to nan; settled, aborted and the update counts exactly."""
    with open(ROOT / "artifacts" / "closed_loop.csv", newline="") as fh:
        ref = list(csv.DictReader(fh))
    results = {"step.json": step_compare[1], "sine.json": sine_compare[1]}
    assert [(row["config"], row["controller"]) for row in ref] == [
        (config, name) for config, res in results.items() for name in res]
    floats = ("iae", "ise", "itae", "overshoot_pct", "settling_time_s")
    for row in ref:
        trace, metrics = results[row["config"]][row["controller"]]
        where = (row["config"], row["controller"])
        assert int(row["aborted"]) == (trace is None), where
        if trace is None:
            assert all(row[key] == "nan" for key in (*floats, "settled"))
            assert int(row["updates"]) == 0, where
            continue
        for key in floats:
            got, want = getattr(metrics, key), float(row[key])
            assert (math.isnan(got) if math.isnan(want)
                    else math.isclose(got, want, rel_tol=1e-9)), (where, key)
        assert int(row["settled"]) == metrics.settled, where
        assert int(row["updates"]) == len(trace.events), where


def test_criterion_09_compare_determinism(tmp_path):
    cfg_doc = json.loads((ROOT / "configs" / "step.json").read_text())
    cfg_doc["network"]["checkpoint"] = str(CHECKPOINT)
    cfg_path = tmp_path / "step.json"
    cfg_path.write_text(json.dumps(cfg_doc))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["compare", "--config", str(cfg_path),
                     "--out", str(out_a)]) == 0
    assert cli.main(["compare", "--config", str(cfg_path),
                     "--out", str(out_b)]) == 0
    names = sorted(p.name for p in out_a.glob("trace_*.csv"))
    assert len(names) == 3
    identical = all((out_a / n).read_bytes() == (out_b / n).read_bytes()
                    for n in names)
    _report(9, identical, f"two compare executions, {len(names)} trace CSVs "
                          f"byte-identical={identical}")
    assert identical, "trace CSVs differ between identical compare runs"


def test_criterion_10_safeguard_bound(step_compare, sine_compare, tmp_path):
    events = []
    for _, results, _ in (step_compare, sine_compare):
        trace, _ = results["tgrbf_nc"]
        assert trace is not None
        events.extend(trace.events)
    assert events, "no update events logged on the closed-loop runs"

    eta_max = _load_cfg("step.json").trigger.eta_max
    alpha = _load_cfg("step.json").trigger.momentum_alpha
    checked = 0
    for ev in events:
        assert ev.eta <= eta_max + 1e-15, f"eta {ev.eta} exceeds {eta_max}"
        if ev.rejected or ev.sigma_min <= 1e-6 or ev.eta_explicit == 0.0:
            continue
        cap = max(0.0, (ev.sigma_min ** 2
                        - 2.0 * alpha ** 2 * ev.sigma_max ** 2
                        / ev.sigma_min ** 2) / ev.sigma_max ** 2)
        want = min(ev.eta_explicit, cap, eta_max)
        assert math.isclose(ev.eta, want, rel_tol=1e-12, abs_tol=1e-15), (
            f"event k={ev.k}: applied eta {ev.eta} != min(explicit, cap) {want}")
        checked += 1

    # the event log round-trips through the documented CSV surface
    path = tmp_path / "events.csv"
    harness.export_events_csv(events, path)
    rows = path.read_text().strip().split("\n")
    assert rows[0].split(",")[:5] == ["k", "eta", "eta_explicit",
                                      "sigma_min", "sigma_max"]
    assert len(rows) == len(events) + 1
    _report(10, True, f"{len(events)} events, all eta <= {eta_max}; "
                      f"{checked} non-degenerate events match "
                      f"min(explicit eta, cap)")
