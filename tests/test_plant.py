import math

import numpy as np
import pytest

from tgrbf import plant as pl


def _p(**kw):
    base = dict(T=3.0, K=0.5, Ts=0.001, input_delay=0)
    base.update(kw)
    return pl.PlantParams(**base)


def test_step_from_origin_increments():
    p = _p(T=3.0)
    s = pl.plant_step(pl.make_state(p), 1.0, 0.0, p)
    assert s.x1 == 0.0
    assert s.x2 == pytest.approx(p.Ts / 3.0)


def test_increment_ratio_between_nominal_and_true_time_constants():
    # from zero state the one-step x2 increment scales as 1/T: ratio 3/2
    pt, pn = _p(T=3.0), _p(T=2.0)
    st = pl.plant_step(pl.make_state(pt), 1.0, 0.0, pt)
    sn = pl.plant_step(pl.make_state(pn), 1.0, 0.0, pn)
    assert sn.x2 / st.x2 == pytest.approx(1.5)


def test_step_general_state():
    p = _p(T=3.0)
    s0 = pl.PlantState(x1=math.pi / 2.0, x2=1.0, u_queue=[])
    s = pl.plant_step(s0, 0.0, 0.0, p)
    assert s.x1 == pytest.approx(math.pi / 2.0 + p.Ts)
    # rate = (-2*1 - sin(pi/2) + 0) / 3 = -1
    assert s.x2 == pytest.approx(1.0 - p.Ts)


def test_disturbance_enters_the_rate():
    p = _p()
    clean = pl.plant_step(pl.make_state(p), 0.0, 0.0, p)
    bumped = pl.plant_step(pl.make_state(p), 0.0, 2.0, p)
    assert bumped.x2 - clean.x2 == pytest.approx(2.0 * p.Ts)
    assert bumped.x1 == clean.x1


def test_input_delay_queue():
    p = _p(input_delay=1)
    s = pl.make_state(p)
    assert s.u_queue == [0.0]
    s1 = pl.plant_step(s, 5.0, 0.0, p)          # applies the queued zero
    assert s1.x2 == 0.0
    s2 = pl.plant_step(s1, 0.0, 0.0, p)         # now the 5.0 arrives
    assert s2.x2 == pytest.approx(p.Ts * 5.0 / p.T)


def test_output_gain():
    p = _p(K=0.5)
    assert pl.output(pl.PlantState(x1=2.0, x2=0.0, u_queue=[]), p) == 1.0


def test_nominal_step_uses_nominal_parameters():
    # the nominal preset carries a one-step input delay: the first push
    # applies the queued zero, the second applies the commanded input
    s = pl.make_state(pl.NOMINAL_PLANT)
    s = pl.plant_step(s, 1.0, 0.0, pl.NOMINAL_PLANT)
    assert s.x2 == 0.0
    s = pl.plant_step(s, 0.0, 0.0, pl.NOMINAL_PLANT)
    assert s.x2 == pytest.approx(pl.NOMINAL_PLANT.Ts / 2.0)


def test_benchmark_parameter_presets():
    assert (pl.TRUE_PLANT.T, pl.TRUE_PLANT.K) == (3.0, 0.5)
    assert (pl.NOMINAL_PLANT.T, pl.NOMINAL_PLANT.K) == (2.0, 2.0)
    assert pl.TRUE_PLANT.Ts == 0.001


def test_nonfinite_input_rejected():
    p = _p()
    with pytest.raises(ValueError):
        pl.plant_step(pl.make_state(p), math.inf, 0.0, p)


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        pl.PlantParams(T=0.0)
    with pytest.raises(ValueError):
        pl.PlantParams(Ts=-0.001)
    with pytest.raises(ValueError):
        pl.PlantParams(input_delay=-1)


def test_disturbance_sine_component():
    spec = pl.DisturbanceSpec(noise_std=0.0, sine_amp=0.05, sine_freq_hz=0.5)
    rng = pl.make_noise_stream(spec)
    # k*Ts = 0.5 s -> phase 2*pi*0.5*0.5 = pi/2 -> full amplitude
    assert pl.disturbance_at(spec, 500, 0.001, rng) == pytest.approx(0.05)


def test_noise_stream_seeded_reproducible():
    spec = pl.DisturbanceSpec(noise_std=0.01, sine_amp=0.0, seed=42)
    a = [pl.disturbance_at(spec, k, 0.001, pl.make_noise_stream(spec))
         for k in range(3)]
    b = [pl.disturbance_at(spec, k, 0.001, pl.make_noise_stream(spec))
         for k in range(3)]
    assert a == b


def test_disturbance_spec_validation():
    with pytest.raises(ValueError):
        pl.DisturbanceSpec(noise_std=-0.1)


def test_reference_step():
    spec = pl.ReferenceSpec(kind="step", amplitude=2.0, step_time_s=0.5)
    assert pl.reference_at(spec, 0.0) == 0.0
    assert pl.reference_at(spec, 0.5) == 2.0
    assert pl.reference_at(spec, 1.0) == 2.0


def test_reference_sine():
    spec = pl.ReferenceSpec(kind="sine", amplitude=1.5, freq_hz=0.25)
    assert pl.reference_at(spec, 1.0) == pytest.approx(1.5)
    assert pl.reference_at(spec, 0.0) == 0.0


def test_reference_validation():
    with pytest.raises(ValueError):
        pl.ReferenceSpec(kind="ramp")
    with pytest.raises(ValueError):
        pl.ReferenceSpec(amplitude=math.nan)
