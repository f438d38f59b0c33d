import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crashsim import (
    DropScenario,
    ImpactParams,
    Termination,
    analytic_solution,
    simulate_contact,
    simulate_impact,
)
from crashsim import _kernels

MASS = 0.241
STIFFNESS = 7040.0
C_CRIT = 2.0 * math.sqrt(STIFFNESS * MASS)


def params_at(zeta: float, mass: float = MASS, stiffness: float = STIFFNESS) -> ImpactParams:
    return ImpactParams(mass=mass, damping=zeta * 2.0 * math.sqrt(stiffness * mass),
                        stiffness=stiffness)


def max_rel(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


class TestPropagatorMatchesClosedForm:
    @pytest.mark.parametrize("zeta", [0.0, 0.3, 0.9])
    @pytest.mark.parametrize("sample_rate", [5000.0, 20000.0, 100000.0])
    @pytest.mark.parametrize("altitude", [0.5, 20.0])
    def test_states_on_sample_grid(self, zeta, sample_rate, altitude):
        params = params_at(zeta)
        traj = simulate_contact(params, DropScenario(altitude, sample_rate=sample_rate))
        x_ref, v_ref, a_ref = analytic_solution(params, traj.impact_velocity, traj.time)
        assert max_rel(traj.compression, x_ref) < 1e-9
        assert max_rel(traj.velocity, v_ref) < 1e-9
        assert max_rel(traj.acceleration, a_ref) < 1e-9

    def test_long_contact_crosses_chunks(self):
        # a slow undamped zero-gravity oscillator with a far clearance stays in
        # contact for thousands of steps, carried over many propagation chunks
        params = ImpactParams(mass=1.0, damping=0.0, stiffness=100.0, gravity=0.0)
        traj = simulate_impact(params, v0=1.0, clearance=10.0, sample_rate=20000.0,
                               max_time=0.5)
        # the rebound at t = pi/10 ends it before the horizon
        assert traj.termination is Termination.REBOUND
        assert traj.time[-1] == pytest.approx(math.pi / 10.0, rel=1e-12)
        assert len(traj) > 4 * _kernels.CHUNK_STEPS
        x_ref, v_ref, _ = analytic_solution(params, 1.0, traj.time)
        assert max_rel(traj.compression, x_ref) < 1e-12
        assert max_rel(traj.velocity, v_ref) < 1e-12


class TestCriticalDampingContinuity:
    # (1 kg, 40 000 N/m, 400 N·s/m) is critical with no rounding at all
    @pytest.mark.parametrize("mass,stiffness,c_crit", [(MASS, STIFFNESS, C_CRIT),
                                                       (1.0, 40000.0, 400.0)])
    @pytest.mark.parametrize("altitude", [0.5, 20.0])
    @pytest.mark.parametrize("sample_rate", [5000.0, 20000.0])
    def test_neighbours_of_critical_agree(self, mass, stiffness, c_crit, altitude,
                                          sample_rate):
        scenario = DropScenario(altitude, sample_rate=sample_rate)
        critical = simulate_contact(ImpactParams(mass, c_crit, stiffness), scenario)
        for factor in (1.0 - 1e-9, 1.0 + 1e-9):
            near = simulate_contact(ImpactParams(mass, c_crit * factor, stiffness), scenario)
            assert near.termination is critical.termination
            assert len(near) == len(critical)
            assert max_rel(near.time, critical.time) < 1e-7
            assert max_rel(near.compression, critical.compression) < 1e-7
            assert max_rel(near.velocity, critical.velocity) < 1e-7
            assert max_rel(near.damper_energy, critical.damper_energy) < 1e-7


class TestDamperEnergyClosure:
    @settings(max_examples=40, deadline=None)
    @given(zeta=st.sampled_from([0.0, 1.0, 2.0, 5.0]),
           mass=st.floats(0.05, 5.0),
           stiffness=st.floats(500.0, 50000.0),
           altitude=st.floats(0.01, 30.0),
           sample_rate=st.sampled_from([5000.0, 20000.0, 100000.0]))
    def test_balance_closes_at_every_sample(self, zeta, mass, stiffness, altitude,
                                            sample_rate):
        params = params_at(zeta, mass, stiffness)
        traj = simulate_contact(params, DropScenario(altitude, sample_rate=sample_rate),
                                max_time=0.2)
        m, k, g = params.mass, params.stiffness, params.gravity
        ke0 = 0.5 * m * traj.impact_velocity ** 2
        lhs = (0.5 * m * traj.velocity ** 2 + 0.5 * k * traj.compression ** 2
               + traj.damper_energy)
        rhs = ke0 + m * g * traj.compression
        assert np.max(np.abs(lhs - rhs) / rhs) < 1e-9
        if zeta == 0.0:
            assert np.max(traj.damper_energy) == 0.0


def lowpass_loop(values, k_mid, k_last):
    """Reference recurrence, one sample at a time."""
    out = np.empty(len(values))
    x_prev = y_prev = values[0]
    for i, x_i in enumerate(values):
        k = k_last if i == len(values) - 1 else k_mid
        y_prev = k / (1.0 + k) * (x_i + x_prev) - (k - 1.0) / (1.0 + k) * y_prev
        out[i] = y_prev
        x_prev = x_i
    return out


class TestLowpassMatchesLoop:
    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=3000),
           ratio=st.sampled_from([4.0, 10.0, 40.0, 200.0, 2000.0]),
           last_share=st.floats(0.01, 1.0))
    def test_scan_equals_recurrence(self, values, ratio, last_share):
        values = np.array(values)
        k_mid = math.tan(math.pi / ratio)
        k_last = math.tan(math.pi / ratio * last_share)
        expected = lowpass_loop(values, k_mid, k_last)
        got = _kernels.lowpass(values, k_mid, k_last)
        scale = max(float(np.max(np.abs(values))), 1e-300)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12 * scale)

    @pytest.mark.parametrize("values", [[3.0], [3.0, -1.0], [2.0, 5.0, 7.0]])
    @pytest.mark.parametrize("k_last", [0.0787, 0.02])
    def test_short_traces(self, values, k_last):
        values = np.array(values)
        np.testing.assert_allclose(_kernels.lowpass(values, 0.0787, k_last),
                                   lowpass_loop(values, 0.0787, k_last),
                                   rtol=1e-12, atol=1e-12)
