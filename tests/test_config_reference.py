"""Config parsing and checkpoint I/O against kept copies of earlier code.

The scenario parser used to list every accepted key by hand (`_SCHEMA`) and
build each section in its own `if` block; it now takes the keys from the
dataclass fields.  The network's checkpoint loader and parameter count used
to name all 13 segments by hand; they now follow `_SEGMENTS`.  These tests
keep the earlier code and require the same accepted keys (less
`disturbance.seed`, deleted because the run seed always overrode it,
`controller.control_sign`, deleted because no config set it, and the
adaptive law's `eta1`, `eta2` and gain bounds under `nc_gains`, deleted
because the fixed-gain baseline never adapts), the same parsed configs and
the same bytes.  The kept parser builds `nc_gains` as a `GainState`; it is
compared through the `FixedGains` fields, all that `nc_fixed` reads.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from tgrbf import control as ctl
from tgrbf import harness
from tgrbf import plant as pl
from tgrbf.network import _SEGMENTS, TgrbfNet, random_net
from tgrbf.online import TriggerConfig

ROOT = Path(__file__).resolve().parents[1]


# -- kept references ---------------------------------------------------------

_REF_SCHEMA = {
    "plant": {"T", "K", "Ts", "input_delay"},
    "disturbance": {"noise_std", "sine_amp", "sine_freq_hz", "seed"},
    "reference": {"kind", "amplitude", "freq_hz", "step_time_s"},
    "controller": {"type", "u_limit", "control_sign"},
    "gains": {"k1", "k2", "alpha_pow", "eta1", "eta2",
              "k1_min", "k1_max", "k2_min", "k2_max"},
    "pid": {"kp", "ki", "kd", "integral_limit"},
    "network": {"checkpoint", "buffer_capacity", "trigger"},
    "trigger": {"delta", "batch_s", "momentum_alpha", "eta_max",
                "cooldown_steps"},
    "top": {"plant", "disturbance", "reference", "controller", "gains",
            "nc_gains", "pid", "network", "duration_s", "seed"},
}


def _ref_check_keys(section, d):
    unknown = set(d) - _REF_SCHEMA[section]
    if unknown:
        raise ValueError(f"unknown keys in '{section}' config: {sorted(unknown)}")


def _ref_config_from_dict(doc):
    _ref_check_keys("top", doc)
    kw = {"raw": doc}
    if "plant" in doc:
        _ref_check_keys("plant", doc["plant"])
        kw["plant"] = pl.PlantParams(**doc["plant"])
    if "disturbance" in doc:
        _ref_check_keys("disturbance", doc["disturbance"])
        kw["disturbance"] = pl.DisturbanceSpec(**doc["disturbance"])
    if "reference" in doc:
        _ref_check_keys("reference", doc["reference"])
        kw["reference"] = pl.ReferenceSpec(**doc["reference"])
    if "controller" in doc:
        _ref_check_keys("controller", doc["controller"])
        c = doc["controller"]
        if "type" in c:
            kw["controller"] = c["type"]
        if "u_limit" in c:
            kw["u_limit"] = float(c["u_limit"])
        if "control_sign" in c:
            kw["control_sign"] = float(c["control_sign"])
    if "gains" in doc:
        _ref_check_keys("gains", doc["gains"])
        kw["gains"] = ctl.GainState(**doc["gains"])
    if "nc_gains" in doc:
        _ref_check_keys("gains", doc["nc_gains"])
        kw["nc_gains"] = ctl.GainState(**doc["nc_gains"])
    if "pid" in doc:
        _ref_check_keys("pid", doc["pid"])
        kw["pid"] = ctl.PidState(**doc["pid"])
    if "network" in doc:
        _ref_check_keys("network", doc["network"])
        n = doc["network"]
        kw["checkpoint"] = n.get("checkpoint")
        if "buffer_capacity" in n:
            kw["buffer_capacity"] = int(n["buffer_capacity"])
        if "trigger" in n:
            _ref_check_keys("trigger", n["trigger"])
            kw["trigger"] = TriggerConfig(**n["trigger"])
    if "duration_s" in doc:
        kw["duration_s"] = float(doc["duration_s"])
    if "seed" in doc:
        kw["seed"] = int(doc["seed"])
    return harness.ScenarioConfig(**kw)


def _ref_count_parameters(net):
    m, p, n = net.m, net.p, net.n_in
    return m * n + 2 * m + 3 * (p * (n + p) + p) + (p + 1) + (n + p + 1)


# -- config ------------------------------------------------------------------

# every accepted key set, with values unlike the defaults; ints stand where
# the parser converts to float, floats where it converts to int
FULL = {
    "plant": {"T": 2.5, "K": 0.75, "Ts": 0.002, "input_delay": 2},
    "disturbance": {"noise_std": 0.02, "sine_amp": 0.1, "sine_freq_hz": 0.25},
    "reference": {"kind": "sine", "amplitude": 0.5, "freq_hz": 0.2,
                  "step_time_s": 0.1},
    "controller": {"type": "nc_fixed", "u_limit": 5},
    "gains": {"k1": 1.5, "k2": 2.5, "alpha_pow": 0.6, "eta1": 0.1,
              "eta2": 0.2, "k1_min": 0.05, "k1_max": 40.0, "k2_min": 0.02,
              "k2_max": 30.0},
    "nc_gains": {"k1": 3.5, "k2": 1.5, "alpha_pow": 0.4},
    "pid": {"kp": 3.0, "ki": 0.5, "kd": 0.01, "integral_limit": 50.0},
    "network": {"checkpoint": "artifacts/network.json",
                "buffer_capacity": 500.0,
                "trigger": {"delta": 0.001, "batch_s": 16,
                            "momentum_alpha": 0.1, "eta_max": 5.0,
                            "cooldown_steps": 3}},
    "duration_s": 1,
    "seed": 3.0,
}

# where each section sits in a config document
_PATHS = {name: (name,) for name in _REF_SCHEMA if name not in ("top", "trigger")}
_PATHS.update({"top": (), "nc_gains": ("nc_gains",),
               "trigger": ("network", "trigger")})

# every key any section could plausibly take: the old schema, every field of
# the dataclasses the sections build, run state and deleted fields included
_CANDIDATES = set().union(*_REF_SCHEMA.values()) | {
    f for cls in (pl.PlantParams, pl.DisturbanceSpec, pl.ReferenceSpec,
                  ctl.GainState, ctl.PidState, TriggerConfig,
                  harness.ScenarioConfig)
    for f in cls.__dataclass_fields__} | {"k1_prev", "k2_prev", "k", "epoch"}


def _lookup(doc, path):
    for part in path:
        doc = doc[part]
    return doc


def _accepts(parse, path, key) -> bool:
    """Whether `parse` lets `key` through the key check of the section at
    `path`; the value is FULL's where it has one."""
    try:
        value = _lookup(FULL, path)[key]
    except KeyError:
        value = 1.0
    doc = {key: value}
    for part in reversed(path):
        doc = {part: doc}
    try:
        parse(doc)
    except ValueError as exc:
        return "unknown keys" not in str(exc)
    except Exception:
        pass   # failed after the key check, on the value
    return True


@pytest.mark.parametrize("section", sorted(_PATHS))
def test_every_section_accepts_the_same_keys(section):
    path = _PATHS[section]
    old = {k for k in _CANDIDATES if _accepts(_ref_config_from_dict, path, k)}
    new = {k for k in _CANDIDATES if _accepts(harness.config_from_dict, path, k)}
    assert old == _REF_SCHEMA["gains" if section == "nc_gains" else section]
    # disturbance.seed never changed a run (the run seed overrode it),
    # controller.control_sign was never set and nc_fixed never adapts its
    # gains; none of these is a key any more
    deleted = {"disturbance": {"seed"}, "controller": {"control_sign"},
               "nc_gains": {"eta1", "eta2", "k1_min", "k1_max", "k2_min",
                            "k2_max"}}
    assert old - new == deleted.get(section, set())
    assert new <= old


def test_run_state_is_not_a_config_key():
    """The PID's run state lives in the run loop: PidState's fields are the
    pid schema, and the run state's names are unknown keys."""
    assert {f.name for f in dataclasses.fields(ctl.PidState)} == _REF_SCHEMA["pid"]
    for key in ("integral", "e_prev"):
        with pytest.raises(ValueError, match="unknown keys"):
            harness.config_from_dict({"pid": {key: 1.0}})


@pytest.mark.parametrize("doc", [
    json.loads((ROOT / "configs" / "step.json").read_text()),
    json.loads((ROOT / "configs" / "sine.json").read_text()),
    FULL,
    {},
    {"network": {}},
], ids=["step.json", "sine.json", "every-key", "empty", "empty-network"])
def test_configs_parse_equal_under_old_and_new_parser(doc):
    old, new = _ref_config_from_dict(doc), harness.config_from_dict(doc)
    if old.nc_gains is not None:
        old.nc_gains = ctl.FixedGains(**{f.name: getattr(old.nc_gains, f.name)
                                         for f in dataclasses.fields(ctl.FixedGains)})
    assert new == old
    assert repr(new) == repr(old)   # same types too: 5.0 is not 5


def test_every_key_config_sets_every_field():
    cfg = harness.config_from_dict(FULL)
    default = harness.ScenarioConfig()
    changed = {name for name in harness.ScenarioConfig.__dataclass_fields__
               if getattr(cfg, name) != getattr(default, name)}
    assert changed == set(harness.ScenarioConfig.__dataclass_fields__)


# -- checkpoint --------------------------------------------------------------

@pytest.mark.parametrize("frozen", [False, True])
def test_checkpoint_round_trips_every_segment_byte_for_byte(tmp_path, frozen):
    rng = np.random.Generator(np.random.PCG64(11))
    path = tmp_path / "net.json"
    for _ in range(20):
        net = random_net(int(rng.integers(1, 5)), int(rng.integers(1, 9)),
                         int(rng.integers(1, 9)), rng)
        net.gate_b, net.out_b = rng.normal(), rng.normal()
        net.h_init = rng.normal(size=net.p)
        net.gate_frozen = frozen
        net.save(path)
        back = TgrbfNet.load(path)
        assert list(json.loads(path.read_text())["segments"]) == \
            [name for name, _ in _SEGMENTS]
        for name, _ in _SEGMENTS:
            a, b = getattr(net, name), getattr(back, name)
            assert type(a) is type(b), name
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), name
            assert np.shape(a) == np.shape(b), name
        assert back.h_init.tobytes() == net.h_init.tobytes()
        assert back.gate_frozen is frozen
        assert back.theta.size == _ref_count_parameters(net)
