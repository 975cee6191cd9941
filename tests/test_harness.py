import copy
import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from tgrbf import cli, harness, offline
from tgrbf import control as ctl
from tgrbf import plant as pl
from tgrbf.network import TgrbfNet

ROOT = Path(__file__).resolve().parents[1]


def _pid_cfg(**kw):
    base = dict(controller="pid", checkpoint=None, duration_s=0.2, seed=0)
    base.update(kw)
    return harness.ScenarioConfig(**base)


# -- config ------------------------------------------------------------------

def test_load_shipped_step_config():
    cfg = harness.load_config(ROOT / "configs" / "step.json")
    assert cfg.controller == "tgrbf_nc"
    assert cfg.reference.kind == "step"
    assert cfg.trigger.delta == pytest.approx(1e-4)
    assert cfg.nc_gains == ctl.FixedGains(k1=2.0, k2=3.0, alpha_pow=0.3)
    assert cfg.pid.kp == pytest.approx(264.1023066475561)
    assert cfg.n_steps == 3000


def test_config_rejects_unknown_top_key():
    with pytest.raises(ValueError):
        harness.config_from_dict({"durations": 3.0})


@pytest.mark.parametrize("key", ["eta1", "eta2", "k1_min", "k1_max",
                                 "k2_min", "k2_max"])
def test_nc_gains_rejects_the_adaptive_law_keys(key):
    """The fixed-gain baseline never adapts, so the adaptive law's rates and
    gain bounds are unknown keys under nc_gains, named in the error."""
    with pytest.raises(ValueError, match=rf"unknown keys in 'nc_gains' config: \['{key}'\]"):
        harness.config_from_dict({"nc_gains": {key: 0.5}})


def test_nc_gains_takes_the_control_law_gains():
    cfg = harness.config_from_dict(
        {"nc_gains": {"k1": 4.0, "k2": 1.0, "alpha_pow": 0.5}})
    assert cfg.nc_gains == ctl.FixedGains(k1=4.0, k2=1.0, alpha_pow=0.5)
    for alpha_pow in (0.0, 1.0, 1.5):
        with pytest.raises(ValueError, match=r"alpha_pow must be in \(0, 1\)"):
            harness.config_from_dict({"nc_gains": {"alpha_pow": alpha_pow}})


def test_config_rejects_unknown_nested_key():
    with pytest.raises(ValueError):
        harness.config_from_dict({"reference": {"kind": "step", "slope": 1.0}})
    with pytest.raises(ValueError):
        harness.config_from_dict({"network": {"trigger": {"delay": 1}}})


@pytest.mark.parametrize("trigger, text", [
    ({"batch_s": 32.0}, "'network.trigger.batch_s' must be a JSON int"),
    ({"delay": 1}, "unknown keys in 'network.trigger' config"),
], ids=["wrong-type", "unknown-key"])
def test_config_errors_name_the_network_trigger_path(trigger, text):
    """The trigger section sits inside network; its errors used to name
    'trigger' alone."""
    with pytest.raises(ValueError) as exc:
        harness.config_from_dict({"network": {"trigger": trigger}})
    assert text in str(exc.value)


def test_config_rejects_unknown_controller():
    with pytest.raises(ValueError):
        harness.ScenarioConfig(controller="lqr")


def test_config_rejects_fractional_step_count():
    with pytest.raises(ValueError):
        harness.ScenarioConfig(controller="pid", duration_s=0.0015707)


def test_config_hash_stable():
    doc = {"seed": 3, "duration_s": 0.1}
    a = harness.config_from_dict(doc).config_hash()
    b = harness.config_from_dict(copy.deepcopy(doc)).config_hash()
    assert a == b and len(a) == 16


# -- metrics -----------------------------------------------------------------

def _make_trace(t, r, y):
    t, r, y = map(np.asarray, (t, r, y))
    data = np.zeros((t.size, len(harness.TRACE_COLUMNS)))
    data[:, harness.TRACE_COLUMNS.index("t")] = t
    data[:, harness.TRACE_COLUMNS.index("r")] = r
    data[:, harness.TRACE_COLUMNS.index("y")] = y
    data[:, harness.TRACE_COLUMNS.index("e")] = r - y
    return harness.RunTrace(data=data, metadata={})


def test_metrics_zero_error():
    t = np.arange(10) * 0.001
    rep = harness.compute_metrics(_make_trace(t, np.ones(10), np.ones(10)),
                                  pl.ReferenceSpec(kind="step", amplitude=1.0), 0.001)
    assert rep.iae == rep.ise == rep.itae == 0.0
    assert rep.settled and rep.settling_time_s == 0.0
    assert rep.overshoot_pct == 0.0


def test_metrics_constant_error_closed_forms():
    N, Ts = 50, 0.001
    t = np.arange(N) * Ts
    rep = harness.compute_metrics(_make_trace(t, np.ones(N), np.zeros(N)),
                                  pl.ReferenceSpec(kind="sine"), Ts)
    assert rep.iae == pytest.approx(N * Ts)
    assert rep.ise == pytest.approx(N * Ts)
    assert rep.itae == pytest.approx(Ts * float(t.sum()))
    # sine reference: no overshoot / settling fields
    assert math.isnan(rep.overshoot_pct)


def test_metrics_overshoot_and_settling():
    Ts = 0.001
    t = np.arange(100) * Ts
    y = np.ones(100)
    y[:10] = np.linspace(0.0, 1.0, 10)
    y[20] = 1.25
    rep = harness.compute_metrics(_make_trace(t, np.ones(100), y),
                                  pl.ReferenceSpec(kind="step", amplitude=1.0), 0.001)
    assert rep.overshoot_pct == pytest.approx(25.0)
    assert rep.settled
    # last excursion outside the 2% band is the overshoot spike at index 20
    assert rep.settling_time_s == pytest.approx(t[21])


def test_a_step_down_reads_the_metrics_of_its_mirror_image():
    """Overshoot is the excursion past the reference in the step's own
    direction, so a step to -1 reads what its mirror image to +1 reads:
    for a response that passes the reference, one that stops short of it
    and one that never reaches the 2% band."""
    Ts = 0.001
    t = np.arange(100) * Ts
    rise = np.ones(100)
    rise[:10] = np.linspace(0.0, 1.0, 10)
    for y, overshoot in ((np.where(t == t[20], 1.25, rise), 25.0),
                         (np.where(t == t[20], 0.9, rise), 0.0),
                         (0.5 * rise, 0.0)):
        up, down = (harness.compute_metrics(
            _make_trace(t, np.full(100, sign), sign * y),
            pl.ReferenceSpec(kind="step", amplitude=sign), Ts) for sign in (1.0, -1.0))
        assert up.overshoot_pct == pytest.approx(overshoot)
        np.testing.assert_array_equal(
            [down.overshoot_pct, down.settling_time_s, down.settled],
            [up.overshoot_pct, up.settling_time_s, up.settled])


def test_settling_time_counts_from_the_step():
    """A step at 1.0 s whose output enters the 2% band at 1.5 s and stays
    there settles in 0.5 s.  Leaving the band only before the step, where
    the output sits at 0.5 against a reference of 0, settles in 0."""
    Ts = 0.01
    t = np.arange(300) * Ts
    spec = pl.ReferenceSpec(kind="step", amplitude=1.0, step_time_s=1.0)
    r = np.array([pl.reference_at(spec, ti) for ti in t])
    assert r[99] == 0.0 and r[100] == 1.0
    y = np.zeros(300)
    y[150:] = 1.0   # t[150] = 1.5 s
    rep = harness.compute_metrics(_make_trace(t, r, y), spec, Ts)
    assert rep.settled and rep.settling_time_s == pytest.approx(0.5)
    y = np.where(r == 0.0, 0.5, 1.0)
    rep = harness.compute_metrics(_make_trace(t, r, y), spec, Ts)
    assert rep.settled and rep.settling_time_s == 0.0


def test_metrics_zero_final_reference_flagged():
    t = np.arange(10) * 0.001
    rep = harness.compute_metrics(_make_trace(t, np.zeros(10), np.zeros(10)),
                                  pl.ReferenceSpec(kind="step", amplitude=0.0), 0.001)
    assert math.isnan(rep.overshoot_pct)


def test_metrics_empty_trace():
    rep = harness.compute_metrics(
        harness.RunTrace(data=np.zeros((0, len(harness.TRACE_COLUMNS))),
                         metadata={}),
        pl.ReferenceSpec(), 0.001)
    assert rep.iae == 0.0 and rep.update_count == 0


def test_metrics_one_step_run_uses_the_sample_time():
    # one row gives no time difference to read Ts from: it is passed in
    trace, rep = harness.run_scenario(_pid_cfg(duration_s=0.001))
    assert trace.data.shape[0] == 1
    assert rep.iae == pytest.approx(1e-3, rel=1e-15)
    assert rep.ise == pytest.approx(1e-3, rel=1e-15)
    rep = harness.compute_metrics(trace, pl.ReferenceSpec(), 0.5)
    assert rep.iae == 0.5


# -- run engine --------------------------------------------------------------

def test_zero_duration_run():
    trace, rep = harness.run_scenario(_pid_cfg(duration_s=0.0))
    assert trace.data.shape[0] == 0
    assert rep.iae == 0.0


def test_adaptive_controller_requires_checkpoint():
    with pytest.raises(ValueError):
        harness.run_scenario(harness.ScenarioConfig(controller="tgrbf_nc",
                                                    duration_s=0.1))


def test_pid_run_deterministic_and_logged():
    a, _ = harness.run_scenario(_pid_cfg())
    b, _ = harness.run_scenario(_pid_cfg())
    assert np.array_equal(a.data, b.data)
    assert a.metadata["controller"] == "pid"
    assert np.all(np.diff(a.col("t")) > 0)
    assert np.all(np.abs(a.col("u")) <= 10.0 + 1e-12)


def test_nc_fixed_uses_dedicated_gains_when_given():
    gains = ctl.GainState(k1=1.0, k2=1.0, eta1=0.0, eta2=0.0)
    nc = ctl.FixedGains(k1=4.0, k2=1.0)
    t1, _ = harness.run_scenario(_pid_cfg(controller="nc_fixed", gains=gains,
                                          nc_gains=nc))
    t2, _ = harness.run_scenario(_pid_cfg(controller="nc_fixed", gains=gains))
    assert t1.col("k1")[0] == 4.0
    assert t2.col("k1")[0] == 1.0
    assert not np.array_equal(t1.col("u"), t2.col("u"))


def test_adaptive_gains_are_run_state_from_the_configured_gains():
    """A tgrbf_nc run's k1 and k2 columns are adapt_gains applied step by
    step over the trace's own e and dym_du, starting from the configured
    gains k0; each step's control law reads the gains before that step's
    adaptation.  The run leaves cfg.gains as they were."""
    cfg = harness.load_config(ROOT / "configs" / "sine.json")
    cfg.checkpoint, cfg.duration_s = str(ROOT / cfg.checkpoint), 0.5
    k0 = copy.deepcopy(cfg.gains)
    trace, _ = harness.run_scenario(cfg)
    assert cfg.gains == k0
    g, k1, k2 = cfg.gains, cfg.gains.k1, cfg.gains.k2
    for i, (e, dym_du) in enumerate(zip(trace.col("e"), trace.col("dym_du"))):
        u = ctl.control_law(e, k1, k2, g.alpha_pow)
        assert trace.col("u")[i] == min(max(u, -cfg.u_limit), cfg.u_limit)
        k1, k2 = ctl.adapt_gains(g, k1, k2, e, dym_du)
        assert (trace.col("k1")[i], trace.col("k2")[i]) == (k1, k2)
    assert k1 != k0.k1 and k2 != k0.k2   # the gains moved


def test_the_loop_applies_the_actuator_limit_to_every_controller(monkeypatch):
    """control_law and pid_step return the law's value; the run loop clamps
    it to +-u_limit, once, whichever law ran.  sine.json at u_limit 2
    saturates every controller both ways."""
    laws = []
    control_law, pid_step = ctl.control_law, ctl.pid_step

    def recorded_law(*args):
        laws.append(control_law(*args))
        return laws[-1]

    def recorded_pid(*args):
        u, integral = pid_step(*args)
        laws.append(u)
        return u, integral

    monkeypatch.setattr(ctl, "control_law", recorded_law)
    monkeypatch.setattr(ctl, "pid_step", recorded_pid)
    cfg = harness.load_config(ROOT / "configs" / "sine.json")
    cfg.checkpoint, cfg.u_limit = str(ROOT / cfg.checkpoint), 2.0
    for controller in harness.CONTROLLER_TYPES:
        laws.clear()
        trace, _ = harness.run_scenario(dataclasses.replace(cfg, controller=controller))
        u, law = trace.col("u"), np.array(laws)
        assert len(law) == len(u)
        assert np.array_equal(u, np.clip(law, -2.0, 2.0)), controller
        assert np.max(law) > 2.0 and np.min(law) < -2.0, controller
        assert 2.0 in u and -2.0 in u, controller


# -- export ------------------------------------------------------------------

def test_trace_csv_round_trip(tmp_path):
    trace, rep = harness.run_scenario(_pid_cfg(duration_s=0.05))
    path = tmp_path / "trace.csv"
    harness.export_trace_csv(trace, path)
    rows = path.read_text().strip().split("\n")
    assert rows[0].split(",") == harness.TRACE_COLUMNS
    back = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
    assert np.array_equal(back, trace.data)


def test_empty_trace_exports_header_only(tmp_path):
    trace, _ = harness.run_scenario(_pid_cfg(duration_s=0.0))
    path = tmp_path / "trace.csv"
    harness.export_trace_csv(trace, path)
    assert path.read_text().strip() == ",".join(harness.TRACE_COLUMNS)


def test_metrics_csv_schema(tmp_path):
    _, rep = harness.run_scenario(_pid_cfg(duration_s=0.05))
    path = tmp_path / "metrics.csv"
    harness.export_metrics_csv(rep, path)
    rows = [r.split(",") for r in path.read_text().strip().split("\n")]
    assert rows[0] == ["metric", "value"]
    names = [r[0] for r in rows[1:]]
    assert names[:3] == ["iae", "ise", "itae"]


# -- CLI ---------------------------------------------------------------------

def test_cli_missing_config_exit_2():
    assert cli.main(["run", "--config", "no-such-file.json"]) == 2


def test_cli_invalid_json_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["run", "--config", str(bad)]) == 2


def test_cli_unknown_flag_exit_2():
    assert cli.main(["run", "--config", "x.json", "--frobnicate"]) == 2


def test_cli_unknown_key_in_config_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"duratoin_s": 1.0}))
    assert cli.main(["run", "--config", str(bad)]) == 2


def test_cli_identify_unknown_key_exit_2(tmp_path):
    # a typo must not fall back to the default (200 epochs) silently
    bad = tmp_path / "identify.json"
    bad.write_text(json.dumps({"n_samples": 50, "epoch": 5}))
    out = tmp_path / "out"
    assert cli.main(["identify", "--config", str(bad), "--out", str(out)]) == 2
    assert not out.exists()


def _cli_exit(tmp_path, capsys, command, doc):
    """cli.main's exit code for `command` on the config `doc`; a code of 2
    must come with the one-line error message, not a traceback."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    code = cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
    if code == 2:
        assert capsys.readouterr().err.startswith("error: ")
    return code


@pytest.mark.parametrize("command", ["run", "identify"])
def test_cli_top_level_array_exit_2(tmp_path, capsys, command):
    assert _cli_exit(tmp_path, capsys, command, []) == 2


def test_cli_section_not_an_object_exit_2(tmp_path, capsys):
    assert _cli_exit(tmp_path, capsys, "run", {"plant": 5}) == 2


def test_cli_value_of_wrong_type_exit_2(tmp_path, capsys):
    assert _cli_exit(tmp_path, capsys, "run", {"plant": {"T": "abc"}}) == 2


def test_cli_identify_value_of_wrong_type_exit_2(tmp_path, capsys):
    assert _cli_exit(tmp_path, capsys, "identify", {"m": [1]}) == 2
    assert not (tmp_path / "out").exists()


def test_cli_disturbance_seed_is_not_a_config_key(tmp_path, capsys):
    doc = {"controller": {"type": "pid"}, "disturbance": {"seed": 1}}
    assert _cli_exit(tmp_path, capsys, "run", doc) == 2


@pytest.mark.parametrize("change, name", [
    (lambda doc: doc["segments"].update(gate_b=[]), "gate_b"),
    (lambda doc: doc["segments"].pop("W_h"), "W_h"),
    (lambda doc: doc["segments"].update(gate_b=[0.5, 0.7]), "gate_b"),
    (lambda doc: doc["segments"]["out_w"].pop(), "out_w"),
    (lambda doc: doc.update(gate_frozen="no"), "gate_frozen"),
    (lambda doc: doc["segments"].update(foo=[1.0]), "foo"),
    (lambda doc: doc.update(segments=list(doc["segments"].values())),
     "segments"),
    (lambda doc: doc.update(n_in="3"), "n_in"),
    (lambda doc: doc.update(m=6.0), "m"),
    (lambda doc: doc.update(p=True), "p"),
], ids=["gate_b-empty", "W_h-missing", "gate_b-two-values", "out_w-short",
        "gate_frozen-string", "foo-unknown", "segments-list", "n_in-string",
        "m-float", "p-bool"])
def test_cli_malformed_checkpoint_exit_2(tmp_path, capsys, change, name):
    """A checkpoint entry that is missing, unknown, of the wrong shape or of
    the wrong JSON type is a validation error whose one-line message names
    it.  Before, these exited 1 with a traceback, or 0 with gate_b[0] or
    without the unknown segment used."""
    doc = json.loads((ROOT / "artifacts" / "network.json").read_text())
    change(doc)
    ckpt = tmp_path / "net.json"
    ckpt.write_text(json.dumps(doc))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"network": {"checkpoint": str(ckpt)},
                               "duration_s": 0.01}))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and name in err
    assert not out.exists()


def test_cli_checkpoint_that_is_a_json_array_exit_2(tmp_path, capsys):
    """A checkpoint whose top level is an array is not a checkpoint; it
    used to exit 1 with an AttributeError."""
    doc = json.loads((ROOT / "artifacts" / "network.json").read_text())
    ckpt = tmp_path / "net.json"
    ckpt.write_text(json.dumps([doc]))
    code = _cli_exit(tmp_path, capsys, "run",
                     {"network": {"checkpoint": str(ckpt)}, "duration_s": 0.01})
    assert code == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, doc, key", [
    ("run", {"seed": 0.5}, "seed"),
    ("run", {"network": {"buffer_capacity": 1000.9}}, "buffer_capacity"),
    *(("identify", {key: 6.7}, key)
      for key in ("n_samples", "epochs", "m", "p", "seed")),
], ids=["run-seed", "run-buffer_capacity", "identify-n_samples",
        "identify-epochs", "identify-m", "identify-p", "identify-seed"])
def test_cli_whole_number_key_rejects_a_fraction_exit_2(tmp_path, capsys,
                                                         command, doc, key):
    """A key the parser converts with int() takes no fraction; it used to
    be truncated (seed 0.5 ran with seed 0, m 6.7 trained m = 6)."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "whole number" in err and key in err
    assert not out.exists()


@pytest.mark.parametrize("doc, key", [
    ({"epochs": -1}, "epochs"), ({"m": 0}, "m"), ({"p": 0}, "p"),
    ({"n_samples": 2}, "n_samples"), ({"n_samples": -5}, "n_samples"),
], ids=["epochs-negative", "m-zero", "p-zero", "n_samples-no-holdout",
        "n_samples-negative"])
def test_cli_identify_out_of_range_key_exit_2(tmp_path, capsys, doc, key):
    """epochs -1 and p 0 used to exit 0 and write a checkpoint, and
    n_samples 2 (a holdout of round(0.4) = 0 rows) exited 2 with a message
    that named no key."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert cli.main(["identify", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"identify.{key}" in err
    assert not out.exists()


def test_cli_identify_takes_the_smallest_sizes(tmp_path):
    """The edges of the range checks: 3 samples leave one holdout row, and
    0 epochs, m 1 and p 1 train."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_samples": 3, "epochs": 0, "m": 1, "p": 1}))
    out = tmp_path / "out"
    assert cli.main(["identify", "--config", str(cfg), "--out", str(out)]) == 0
    net = TgrbfNet.load(out / "network.json")
    assert (net.m, net.p) == (1, 1)


def test_cli_identify_takes_integral_floats(tmp_path):
    """An integral float still passes as a whole number."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_samples": 50.0, "epochs": 1.0, "m": 2.0,
                               "p": 2.0, "seed": 3.0}))
    out = tmp_path / "out"
    assert cli.main(["identify", "--config", str(cfg), "--out", str(out)]) == 0
    net = TgrbfNet.load(out / "network.json")
    assert (net.m, net.p) == (2, 2)
    assert len(offline.dataset_from_csv(out / "dataset.csv").samples) == 50


def test_identify_config_defaults_are_the_recipe():
    assert dataclasses.asdict(offline.IdentifyConfig()) == {
        "n_samples": 1000, "epochs": 200, "m": 6, "p": 6, "seed": 0}


@pytest.mark.parametrize("doc, message", [
    ({"m": 6.7}, "'identify.m' must be a whole number, got 6.7"),
    ({"epochs": -1}, "'identify.epochs' must be >= 0, got -1"),
    ({"seed": -1}, "'identify.seed' must be >= 0, got -1"),
    ({"n_samples": 2}, "'identify.n_samples' must leave a holdout row (the "
                       "last 0.2 of the rows), got 2"),
], ids=["m-fraction", "epochs-negative", "seed-negative", "n_samples-no-holdout"])
def test_cli_identify_rejection_messages(tmp_path, capsys, doc, message):
    """IdentifyConfig holds the bounds that cmd_identify checked by hand,
    with the same messages."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert cli.main(["identify", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_cli_identify_seed_flag_replaces_the_config_seed(tmp_path):
    """--seed 5 on a config of seed 3 writes what a config of seed 5 does."""
    outs = {}
    for name, seed, argv in (("flag", 3, ["--seed", "5"]), ("five", 5, []),
                             ("three", 3, [])):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps({"n_samples": 50, "epochs": 0, "m": 2,
                                   "p": 2, "seed": seed}))
        out = tmp_path / name
        assert cli.main(["identify", "--config", str(cfg), "--out", str(out),
                         *argv]) == 0
        outs[name] = [(out / f).read_bytes() for f in
                      ("network.json", "dataset.csv", "fit_report.csv")]
    assert outs["flag"] == outs["five"] != outs["three"]


@pytest.mark.parametrize("command, text", [
    ("run", '{"seed": 1e999}'),
    ("identify", '{"n_samples": 1e999}'),
    ("run", '{"duration_s": 1e999}'),
    ("run", '{"controller": {"u_limit": -Infinity}}'),
    ("identify", '{"epochs": Infinity}'),
    ("run", '{"plant": {"K": NaN}}'),
], ids=["run-seed-1e999", "identify-n_samples-1e999", "run-duration-1e999",
        "run-minus-infinity", "identify-infinity", "run-nan"])
def test_cli_number_that_is_not_finite_exit_2(tmp_path, capsys, command, text):
    """A JSON number that parses to +-inf or NaN is a validation error (it
    used to reach int() or round() and exit 1 with OverflowError)."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("doc", [
    {"plant": {"input_delay": 2.0}},
    {"plant": {"K": True}},
    {"reference": {"kind": 1}},
    {"network": {"checkpoint": 5}},
    {"network": {"trigger": [1]}},
    {"controller": {"u_limit": "10"}},
    {"seed": None},
], ids=["float-for-int", "bool-for-float", "int-for-str", "int-checkpoint",
        "array-section", "string-number", "null-seed"])
def test_config_rejects_values_of_the_wrong_json_type(doc):
    with pytest.raises(ValueError, match="must be a JSON"):
        harness.config_from_dict(doc)


def test_config_keeps_number_conversions():
    """Keys the parser converts take any JSON number, as before."""
    cfg = harness.config_from_dict({"seed": 3.0, "duration_s": 1,
                                    "network": {"buffer_capacity": 500.0,
                                                "checkpoint": None}})
    assert (cfg.seed, cfg.duration_s, cfg.buffer_capacity) == (3, 1.0, 500)
    assert cfg.checkpoint is None


def test_cli_run_pid_scenario(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "controller": {"type": "pid"},
        "pid": {"kp": 5.0, "ki": 1.0, "kd": 0.1},
        "duration_s": 0.05,
        "seed": 0,
    }))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "trace.csv").exists()
    assert (out / "metrics.csv").exists()
    assert (out / "update_events.csv").exists()


def test_cli_gradcheck_small():
    assert cli.main(["gradcheck", "--pairs", "5", "--seed", "1"]) == 0


@pytest.mark.parametrize("pairs", ["0", "-1"])
def test_cli_gradcheck_without_a_pair_exit_2(capsys, pairs):
    """An audit of no pairs checks nothing; it used to print an error of 0
    "over -1 pairs" and pass."""
    assert cli.main(["gradcheck", "--pairs", pairs]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and "--pairs" in err and not out


def _pid_doc():
    return {"controller": {"type": "pid"}, "duration_s": 0.01}


@pytest.mark.parametrize("argv, doc, name", [
    (["identify"], {"seed": -1, "n_samples": 50}, "'identify.seed'"),
    (["identify", "--seed", "-1"], {"n_samples": 50}, "--seed"),
    (["run", "--seed", "-1"], _pid_doc(), "--seed"),
    (["run"], {**_pid_doc(), "seed": -3}, "seed must be"),
    (["compare", "--seed", "-1"], _pid_doc(), "--seed"),
    (["gradcheck", "--seed", "-1"], None, "--seed"),
], ids=["identify-config", "identify-flag", "run-flag", "run-config",
        "compare-flag", "gradcheck-flag"])
def test_cli_negative_seed_exit_2(tmp_path, capsys, argv, doc, name):
    """A negative seed used to reach numpy's generator and exit 2 with
    'expected non-negative integer', which names no key, after identify had
    created its output directory."""
    out = tmp_path / "out"
    if doc is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        argv = [*argv, "--config", str(cfg), "--out", str(out)]
    assert cli.main(argv) == 2
    std, err = capsys.readouterr()
    assert err.startswith("error: ") and name in err and not std
    assert not out.exists()


@pytest.mark.parametrize("doc, key", [
    ({"controller": {"type": "nc_fixed", "u_limit": -5}, "duration_s": 0.01},
     "u_limit"),
    ({"controller": {"type": "pid", "u_limit": 0}, "duration_s": 0.01},
     "u_limit"),
    ({**_pid_doc(), "pid": {"integral_limit": -1}}, "integral_limit"),
    ({**_pid_doc(), "duration_s": -1}, "duration_s"),
    ({"controller": {"type": "pid", "control_sign": -1}, "duration_s": 0.01},
     "control_sign"),
    ({**_pid_doc(), "network": {"buffer_capacity": 0}}, "buffer_capacity"),
    ({"controller": {"type": "tgrbf_nc"}, "duration_s": 0.01,
      "network": {"checkpoint": str(ROOT / "artifacts" / "network.json"),
                  "buffer_capacity": 0}}, "buffer_capacity"),
], ids=["u_limit-negative", "u_limit-zero", "integral_limit-negative",
        "duration_s-negative", "control_sign-unknown", "buffer_capacity-pid",
        "buffer_capacity-tgrbf_nc"])
def test_cli_run_rejects_an_out_of_range_scenario_value_exit_2(tmp_path, capsys,
                                                                doc, key):
    """u_limit -5 used to pin u at -5 (an inverted clamp), u_limit 0 to run
    with u = 0 and integral_limit -1 to pin the integral at -1, all exiting
    0; duration_s -1 exited 2 with numpy's message, which names no key.
    control_sign is no longer a key.  buffer_capacity 0 exited 0 with pid
    (only tgrbf_nc builds a buffer) and 2 with tgrbf_nc, naming 'capacity'."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    std, err = capsys.readouterr()
    assert err.startswith("error: ") and key in err and not std
    assert not out.exists()


@pytest.mark.parametrize("checkpoint", [False, True],
                         ids=["no-checkpoint", "checkpoint"])
def test_cli_run_fit_mse_online_needs_a_network(tmp_path, checkpoint):
    """Without a checkpoint nothing predicts y, so fit_mse_online is nan; it
    used to be mean(y^2) of the second half.  With one it stays finite."""
    doc = {"controller": {"type": "pid"}, "duration_s": 1.0}
    if checkpoint:
        doc["network"] = {"checkpoint": str(ROOT / "artifacts" / "network.json")}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "metrics.csv").read_text().splitlines()
    rows = dict(line.split(",") for line in lines[1:])
    fit = float(rows["fit_mse_online"])
    assert math.isfinite(fit) if checkpoint else math.isnan(fit)
    assert math.isfinite(float(rows["iae"]))


def test_cli_zero_step_run_reports_no_fit(tmp_path):
    """duration_s 0 is a run of no steps: with a checkpoint it used to write
    fit_mse_online 0, a perfect fit from no predictions."""
    doc = {"duration_s": 0.0,
           "network": {"checkpoint": str(ROOT / "artifacts" / "network.json")}}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "metrics.csv").read_text().splitlines()
    rows = dict(line.split(",") for line in lines[1:])
    assert math.isnan(float(rows["fit_mse_online"]))
    assert float(rows["update_count"]) == 0.0


@pytest.mark.parametrize("command, where", [
    ("run", "config"), ("run", "out"), ("identify", "out")],
    ids=["run-config-is-a-directory", "run-out-is-a-file",
         "identify-out-is-a-file"])
def test_cli_os_error_exit_2(tmp_path, capsys, command, where):
    """A directory given as --config, or an --out that names a file, used to
    exit 1 with a traceback (IsADirectoryError, FileExistsError), the code
    gradcheck uses for a failed audit.  The file is left as it was."""
    doc = _pid_doc() if command == "run" else {"n_samples": 50, "epochs": 0}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    if where == "config":
        cfg, path = tmp_path, tmp_path
    else:
        out.write_text("keep")
        path = out
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 2
    std, err = capsys.readouterr()
    assert err.startswith("error: ") and str(path) in err and not std
    if where == "out":
        assert out.read_text() == "keep"


@pytest.mark.parametrize("epochs,halted", [(0, None), (3, 0)])
def test_cli_identify_fit_report_keeps_halt_and_deploy_rows(tmp_path, epochs,
                                                            halted):
    cfg = tmp_path / "identify.json"
    cfg.write_text(json.dumps({"n_samples": 200, "epochs": epochs,
                               "m": 2, "p": 2, "seed": 1}))
    out = tmp_path / "out"
    assert cli.main(["identify", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "fit_report.csv").read_text().splitlines()
    assert lines[0] == "metric,value"
    rows = dict(line.split(",") for line in lines[1:])
    values = {name: float(v) for name, v in rows.items()}   # all parse
    for name in ("halted_epoch", "deploy_mse", "deploy_r2"):
        assert name in values
    epoch_rows = [n for n in rows if n.startswith("epoch_")]
    assert all(n.endswith("_loss") for n in epoch_rows)
    if halted is None:
        assert rows["halted_epoch"] == "nan"
        assert len(epoch_rows) == epochs + 1
    else:
        assert values["halted_epoch"] == halted
        assert len(epoch_rows) == halted + 1
    # the deploy rows are those of the written checkpoint on the holdout
    net = TgrbfNet.load(out / "network.json")
    data = offline.dataset_from_csv(out / "dataset.csv")
    dep = offline.fit_metrics(*offline.evaluate_deploy(net, data.holdout()))
    assert values["deploy_mse"] == pytest.approx(dep.mse, rel=1e-9)
    assert values["deploy_r2"] == pytest.approx(dep.r2, rel=1e-9)


def test_cli_identify_fit_report_has_persistence_reference(tmp_path):
    cfg = tmp_path / "identify.json"
    cfg.write_text(json.dumps({"n_samples": 200, "epochs": 2,
                               "m": 2, "p": 2, "seed": 4}))
    out = tmp_path / "out"
    assert cli.main(["identify", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "fit_report.csv").read_text().splitlines()
    rows = dict(line.split(",") for line in lines[1:])
    value = float(rows["persistence_mse"])
    # y_hat = y_prev against the target, on the holdout of the written data
    hold = offline.dataset_from_csv(out / "dataset.csv").holdout().samples
    y_prev, target = hold[:, 1], hold[:, -1]
    assert value > 0.0
    assert value == pytest.approx(float(np.mean((target - y_prev) ** 2)),
                                  rel=1e-12)


@pytest.mark.parametrize("config", ["step.json", "sine.json"])
@pytest.mark.parametrize("controller", ["nc_fixed", "pid"])
def test_closed_loop_predictions_are_the_offline_deploy_evaluation(
        config, controller):
    """With no online update the closed loop runs the shipped network over
    the deployment rows of its own series, from rest: the input before step
    k is u_{k-1} (0 at step 0) and the output y_{k-1} (0 before the run).
    evaluate_deploy on that series gives the logged outputs as its targets,
    bit for bit, and the logged predictions to rounding."""
    cfg = harness.load_config(ROOT / "configs" / config)
    cfg.controller, cfg.checkpoint = controller, str(ROOT / cfg.checkpoint)
    trace, _ = harness.run_scenario(cfg)
    u, y, y_pred = trace.col("u"), trace.col("y"), trace.col("y_pred")
    data = offline.Dataset(np.concatenate([[0.0], u[:-1]]),
                           np.concatenate([[0.0], y]))
    net = TgrbfNet.load(cfg.checkpoint)
    pred, targets = offline.evaluate_deploy(net, data)
    assert targets.tobytes() == y.tobytes()
    assert np.max(np.abs(pred - y_pred)) <= 1e-12 * np.max(np.abs(y_pred))
