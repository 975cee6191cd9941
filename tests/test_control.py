import json
import math
from pathlib import Path

import numpy as np
import pytest

from tgrbf import control as ctl
from tgrbf import plant as pl

ROOT = Path(__file__).resolve().parents[1]


def test_sig_alpha_values():
    assert ctl.sig_alpha(0.0, 0.7) == 0.0
    assert ctl.sig_alpha(4.0, 0.5) == pytest.approx(2.0)
    assert ctl.sig_alpha(-4.0, 0.5) == pytest.approx(-2.0)
    assert ctl.sig_alpha(2.0, 1.0 - 1e-9) == pytest.approx(2.0, rel=1e-6)


def test_sig_alpha_validation():
    for a in (0.0, 1.0, -0.3, 1.5):
        with pytest.raises(ValueError):
            ctl.sig_alpha(1.0, a)


def test_control_law_hand_value():
    g = ctl.GainState(k1=1.5, k2=0.8, alpha_pow=0.7)
    assert ctl.control_law(1.0, g, 10.0) == pytest.approx(2.3)


def test_control_law_zero_and_odd():
    g = ctl.GainState(k1=1.5, k2=0.8, alpha_pow=0.7)
    assert ctl.control_law(0.0, g, 10.0) == 0.0
    for e in (0.2, 1.7):
        assert ctl.control_law(-e, g, 10.0) == pytest.approx(
            -ctl.control_law(e, g, 10.0))


def test_control_law_actuator_clamp():
    g = ctl.GainState(k1=50.0, k2=50.0, alpha_pow=0.5)
    assert ctl.control_law(5.0, g, u_limit=10.0) == 10.0
    assert ctl.control_law(-5.0, g, u_limit=10.0) == -10.0


def test_gain_state_validation():
    with pytest.raises(ValueError):
        ctl.GainState(alpha_pow=1.0)
    ctl.GainState(k1_min=1.0, k1_max=1.0, k2_min=2.0, k2_max=2.0)


def test_gain_state_rejects_k1_bounds_out_of_order():
    with pytest.raises(ValueError):
        ctl.GainState(k1_min=2.0, k1_max=1.0)


def test_gain_state_rejects_k2_bounds_out_of_order():
    with pytest.raises(ValueError):
        ctl.GainState(k2_min=2.0, k2_max=1.0)


def test_adapt_gains_hand_value():
    g = ctl.GainState(k1=1.5, k2=0.8, alpha_pow=0.7, eta1=0.1, eta2=0.0)
    g2 = ctl.adapt_gains(g, 0.5, 2.0)
    assert g2.k1 == pytest.approx(1.55)


def test_adapt_gains_zero_error_fixed_point():
    g = ctl.GainState()
    g2 = ctl.adapt_gains(g, 0.0, 3.0)
    assert (g2.k1, g2.k2) == (g.k1, g.k2)


def test_adapt_gains_shares_sign_of_sensitivity():
    g = ctl.GainState(k1=5.0, k2=5.0, eta1=0.1, eta2=0.1)
    down = ctl.adapt_gains(g, 0.8, -2.0)
    assert down.k1 < g.k1 and down.k2 < g.k2
    up = ctl.adapt_gains(g, 0.8, 2.0)
    assert up.k1 > g.k1 and up.k2 > g.k2
    # negative error moves gains the same way: e*sig_alpha(e) >= 0
    up_neg = ctl.adapt_gains(g, -0.8, 2.0)
    assert up_neg.k1 > g.k1 and up_neg.k2 > g.k2


def test_adapt_gains_projection_onto_bounds():
    g = ctl.GainState(k1=49.9, k2=0.02, eta1=100.0, eta2=100.0)
    g2 = ctl.adapt_gains(g, 2.0, 5.0)
    assert g2.k1 == g.k1_max
    g3 = ctl.adapt_gains(g, 2.0, -5.0)
    assert g3.k1 == g.k1_min and g3.k2 == g.k2_min


def test_adapt_gains_skips_nonfinite_sensitivity():
    g = ctl.GainState()
    assert ctl.adapt_gains(g, 1.0, math.nan) is g


def test_pid_pure_proportional():
    p = ctl.PidState(kp=2.0)
    u, p2 = ctl.pid_step(p, 1.5, 0.001, 10.0)
    assert u == pytest.approx(3.0)
    assert p2.e_prev == 1.5


def test_pid_integral_accumulation():
    p = ctl.PidState(kp=0.0, ki=1.0, kd=0.0)
    Ts, N = 0.01, 50
    for _ in range(N):
        u, p = ctl.pid_step(p, 1.0, Ts, u_limit=100.0)
    assert u == pytest.approx(N * Ts)


def test_pid_zero_error_zero_output():
    u, _ = ctl.pid_step(ctl.PidState(kp=3.0, ki=2.0, kd=1.0), 0.0, 0.001, 10.0)
    assert u == 0.0


def test_pid_anti_windup_clamp():
    p = ctl.PidState(kp=0.0, ki=1.0, integral_limit=0.05)
    for _ in range(200):
        u, p = ctl.pid_step(p, 1.0, 0.01, u_limit=100.0)
    assert p.integral == 0.05
    assert u == pytest.approx(0.05)


def test_pid_validation():
    with pytest.raises(ValueError):
        ctl.pid_step(ctl.PidState(), 1.0, 0.0, 10.0)


def tune_pid_relay_zn(params: pl.PlantParams, Ts: float,
                      relay_amp: float = 1.0, n_steps: int = 4000,
                      setpoint: float = 0.0) -> tuple[float, float, float]:
    """Fixed, reproducible PID tuning: relay feedback to estimate the
    ultimate gain/period, then classic Ziegler-Nichols PID rules.

    Returns (kp, ki, kd).  Deterministic: no disturbance during the test.
    """
    state = pl.make_state(params)
    ys = []
    switch_steps = []
    u = relay_amp
    for k in range(n_steps):
        y = pl.output(state, params)
        ys.append(y)
        u_new = relay_amp if y < setpoint else -relay_amp
        if k > 0 and math.copysign(1.0, u_new) != math.copysign(1.0, u):
            switch_steps.append(k)
        u = u_new
        state = pl.plant_step(state, u, 0.0, params)
    ys = np.asarray(ys)
    if len(switch_steps) < 6:
        raise RuntimeError("relay test produced no sustained oscillation")
    # use the back half of the test where the limit cycle has settled
    half = switch_steps[len(switch_steps) // 2:]
    periods = 2.0 * np.diff(half) * Ts
    Tu = float(np.mean(periods))
    tail = ys[half[0]:]
    a = 0.5 * float(tail.max() - tail.min())
    if a <= 0.0:
        raise RuntimeError("relay test oscillation has zero amplitude")
    ku = 4.0 * relay_amp / (math.pi * a)
    kp = 0.6 * ku
    Ti = 0.5 * Tu
    Td = 0.125 * Tu
    return kp, kp / Ti, kp * Td


def test_relay_zn_tuning_matches_recorded_config():
    kp, ki, kd = tune_pid_relay_zn(pl.NOMINAL_PLANT, 0.001)
    with open(ROOT / "configs" / "step.json") as fh:
        pid = json.load(fh)["pid"]
    assert kp == pytest.approx(pid["kp"], rel=1e-12)
    assert ki == pytest.approx(pid["ki"], rel=1e-12)
    assert kd == pytest.approx(pid["kd"], rel=1e-12)
