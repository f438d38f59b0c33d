import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crashsim import (
    DropScenario,
    FilterSpec,
    ImpactParams,
    NumericalError,
    Termination,
    analytic_solution,
    drop_peaks,
    filtered_peak,
    peak_acceleration,
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
    # 1500 Hz: the coarsest grid, ~0.11 rad of the natural period per step
    @pytest.mark.parametrize("sample_rate", [1500.0, 5000.0, 20000.0, 100000.0])
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
        traj = simulate_impact(params, v0=1.0,
                               scenario=DropScenario(0.0, clearance=10.0, sample_rate=20000.0),
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


class TestTransitionPastSquareRange:
    # alpha*alpha overflows from alpha ~1.34e154; from 1e154 on the
    # discriminant is scaled, and Phi must join the plain branch's there
    def test_factored_branch_joins_plain_one(self):
        w2 = STIFFNESS / MASS
        tau = np.array([0.0, 1e-160, 1e-155, 5e-5])
        alpha = 1e154
        plain = _kernels._transition(np.nextafter(alpha, 0.0), w2, tau)
        factored = _kernels._transition(alpha, w2, tau)
        for p, q in zip(plain, factored):
            assert np.allclose(q, p, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("alpha", [1e160, 1e300, 1e307])
    def test_strong_damping_freezes_the_contact(self, alpha):
        # the slow mode's rate w2/(2*alpha) vanishes: x stays put, v drops to 0
        p00, p01, p10, p11 = _kernels._transition(alpha, STIFFNESS / MASS,
                                                  np.array([0.0, 5e-5, 1.0]))
        assert np.all(p00 == 1.0) and p11[0] == 1.0 and np.all(p11[1:] == 0.0)
        assert np.all(np.isfinite(p01)) and np.all(np.isfinite(p10))
        assert p01[-1] == pytest.approx(0.5 / alpha, rel=1e-12)


class TestDamperEnergyClosure:
    @settings(max_examples=40, deadline=None)
    @given(zeta=st.sampled_from([0.0, 1.0, 2.0, 5.0]),
           mass=st.floats(0.05, 5.0),
           stiffness=st.floats(500.0, 50000.0),
           altitude=st.floats(0.01, 30.0),
           sample_rate=st.sampled_from([1500.0, 5000.0, 20000.0, 100000.0]))
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


class TestStopFiltersOnce:
    """A record is filtered only once its largest reading exceeds the stop's
    bound, so every contact is filtered once, at its stop or at its end."""

    @pytest.fixture
    def passes(self, monkeypatch):
        lengths = []
        lowpass = _kernels.lowpass

        def counting(values, k_mid, k_last):
            lengths.append(values.size)
            return lowpass(values, k_mid, k_last)

        monkeypatch.setattr(_kernels, "lowpass", counting)
        return lengths

    # overdamped drops of a fraction of a micrometre read barely above 1 g:
    # their energy band lies inside the stroke at every chunk boundary long
    # before the bound falls below their peak
    @pytest.mark.parametrize("zeta,altitude", [(3.0, 1e-7), (2.0, 1e-6)])
    def test_near_zero_overdamped_drop(self, passes, zeta, altitude):
        params = params_at(zeta)
        scenario = DropScenario(0.0, sample_rate=100000.0)
        _, terminations = drop_peaks(params, scenario, [params.damping], [altitude])
        assert terminations[0, 0] is Termination.MAX_TIME
        assert len(passes) == 1
        assert passes[0] < 100000  # the stop settled it before the horizon

    def test_reference_fit_grid(self, passes):
        # the 64-point grid and the two bracket ends of a default fit
        params = ImpactParams(MASS, 46.0, STIFFNESS)
        dampings = [*np.geomspace(1e-3, 5.0 * C_CRIT, 64), 0.0, 5.0 * C_CRIT]
        peaks, _ = drop_peaks(params, DropScenario(0.0), dampings, [0.5, 1.0, 1.5])
        assert len(passes) == peaks.size == 198


def full_trajectory_outcome(params, scenario, use_raw_peak):
    """Peak and termination read from the whole simulated trajectory."""
    traj = simulate_contact(params, scenario)
    if use_raw_peak:
        return peak_acceleration(traj, params.gravity).raw, traj.termination
    return (filtered_peak(traj, FilterSpec.from_scenario(scenario), params.gravity),
            traj.termination)


class TestBatchedPeaksMatchTrajectories:
    # soft frames, strokes near the static deflection x_eq = m*g/k and drops
    # of millimetres let contacts settle with their outcome still open; 1500
    # Hz is below 4x the 500 Hz cutoff, so k = tan(pi*fc/fs) > 1 and the
    # filter can overshoot its inputs
    @settings(max_examples=80, deadline=None)
    @given(mass=st.floats(0.03, 3.0),
           zeta=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 8.0),
           stiffness=st.floats(100.0, 50000.0),
           stroke=st.floats(0.9, 100.0),
           altitude=st.just(0.0) | st.floats(-5.0, 1.3).map(lambda e: 10.0 ** e),
           sample_rate=st.sampled_from([1500.0, 5000.0, 20000.0, 100000.0]),
           use_raw_peak=st.booleans())
    def test_single_drop(self, mass, zeta, stiffness, stroke, altitude, sample_rate,
                         use_raw_peak):
        params = params_at(zeta, mass, stiffness)
        scenario = DropScenario(altitude, clearance=stroke * mass * 9.81 / stiffness,
                                sample_rate=sample_rate)
        peaks, terminations = drop_peaks(params, scenario, [params.damping],
                                         [altitude], use_raw_peak)
        peak, termination = full_trajectory_outcome(params, scenario, use_raw_peak)
        assert peaks[0, 0] == peak
        assert terminations[0, 0] is termination

    # contacts whose outcome or raw peak comes after 0.1 s, two chunks or
    # more: a late collision, a late rebound, a late raw peak
    @pytest.mark.parametrize("mass,damping,stiffness,altitude,clearance,sample_rate", [
        (0.0623, 40.16, 150.97, 0.02162, 0.003675, 20000.0),
        (0.319, 5.207, 281.03, 0.2327, 0.8209, 5000.0),
        (1.1299, 0.892, 113.48, 0.01079, 0.5006, 20000.0),
    ])
    @pytest.mark.parametrize("use_raw_peak", [False, True])
    def test_late_outcomes(self, mass, damping, stiffness, altitude, clearance,
                           sample_rate, use_raw_peak):
        params = ImpactParams(mass, damping, stiffness)
        scenario = DropScenario(altitude, clearance=clearance, sample_rate=sample_rate)
        peaks, terminations = drop_peaks(params, scenario, [params.damping],
                                         [altitude], use_raw_peak)
        peak, termination = full_trajectory_outcome(params, scenario, use_raw_peak)
        assert simulate_contact(params, scenario).time[-1] > 0.1
        assert peaks[0, 0] == peak
        assert terminations[0, 0] is termination

    @pytest.mark.parametrize("sample_rate", [1500.0, 5000.0, 20000.0, 100000.0])
    @pytest.mark.parametrize("use_raw_peak", [False, True])
    def test_grid_of_drops(self, sample_rate, use_raw_peak):
        # zeta 0, the exactly critical set and overdamped rows; rebounds,
        # collisions and horizon runs, including h = 0
        dampings = [0.0, 1e-3, 40.0, 400.0, 1000.0, 2000.0]
        altitudes = [0.0, 0.05, 0.5, 5.0, 20.0]
        scenario = DropScenario(0.0, clearance=0.002, sample_rate=sample_rate)
        params = ImpactParams(mass=1.0, damping=0.0, stiffness=40000.0)
        peaks, terminations = drop_peaks(params, scenario, dampings, altitudes,
                                         use_raw_peak=use_raw_peak)
        assert peaks.shape == terminations.shape == (len(dampings), len(altitudes))
        seen = set()
        for b, c in enumerate(dampings):
            for a, h in enumerate(altitudes):
                peak, termination = full_trajectory_outcome(
                    ImpactParams(1.0, c, 40000.0), DropScenario(h, clearance=0.002,
                                                                sample_rate=sample_rate),
                    use_raw_peak)
                assert peaks[b, a] == peak, (c, h)
                assert terminations[b, a] is termination, (c, h)
                seen.add(termination)
        assert seen == set(Termination)

    def test_unresolved_step_raises(self):
        params = ImpactParams(mass=1e-8, damping=0.0, stiffness=1e150)
        with pytest.raises(NumericalError):
            drop_peaks(params, DropScenario(1.0, sample_rate=1500.0), [0.0], [1.0])
        # a zero-length contact takes no step, as in simulate_contact
        peaks, terminations = drop_peaks(params, DropScenario(0.0, sample_rate=1500.0),
                                         [0.0], [0.0])
        assert terminations[0, 0] is Termination.REBOUND
