import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from crashsim import (
    DropScenario,
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

    # the bulk settle filters the records of a call as columns of one block
    @settings(max_examples=40, deadline=None)
    @given(traces=st.lists(st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=300),
                           min_size=1, max_size=8),
           ratio=st.sampled_from([4.0, 10.0, 40.0, 200.0, 2000.0]),
           shares=st.lists(st.floats(0.01, 1.0), min_size=8, max_size=8))
    def test_block_of_mixed_lengths(self, traces, ratio, shares):
        lengths = np.array([len(trace) for trace in traces])
        block = np.full((len(traces), lengths.max() + 2), 7.0)  # samples past a trace are ignored
        for col, trace in enumerate(traces):
            block[col, :len(trace)] = trace
        k_mid = math.tan(math.pi / ratio)
        k_last = np.tan(math.pi / ratio * np.array(shares[:len(traces)]))
        # the time-major block in either memory order
        for time_major in (block.T, np.ascontiguousarray(block.T)):
            got = _kernels.lowpass(time_major, k_mid, k_last, lengths)
            for col, trace in enumerate(traces):
                values = np.array(trace)
                alone = got[:len(trace), col]
                # bit for bit the trace filtered alone, and within rounding of the loop
                np.testing.assert_array_equal(alone, _kernels.lowpass(values, k_mid, k_last[col]))
                scale = max(float(np.max(np.abs(values))), 1e-300)
                np.testing.assert_allclose(alone, lowpass_loop(values, k_mid, k_last[col]),
                                           rtol=1e-12, atol=1e-12 * scale)


class TestStopFiltersOnce:
    """A record is filtered only once its largest reading exceeds the stop's
    bound, so every contact is filtered once, at its stop or at its end,
    alone or as one column of a bulk settle's block."""

    @pytest.fixture
    def passes(self, monkeypatch):
        """The length of every record filtered, one entry per trace."""
        lengths = []
        lowpass = _kernels.lowpass

        def counting(values, k_mid, k_last, traces=None):
            lengths.extend([values.size] if traces is None else traces.tolist())
            return lowpass(values, k_mid, k_last, traces)

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

    # a bulk call filters the contacts that end, at events or at the
    # horizon, as blocks, and each one that stops alone, on n*CHUNK_STEPS + 1
    # readings after n chunks: every max_time contact of the grid stops at
    # its first chunk boundary, as soon as its peak is final, though the
    # frame is then still many x_eq deep
    def test_reference_fit_grid_settles_after_one_chunk(self, passes, monkeypatch):
        stops = []
        lowpass = _kernels.lowpass

        def recording(values, k_mid, k_last, traces=None):
            if traces is None:
                stops.append(values.size)
            return lowpass(values, k_mid, k_last, traces)

        monkeypatch.setattr(_kernels, "lowpass", recording)
        params = ImpactParams(MASS, 46.0, STIFFNESS)
        dampings = [*np.geomspace(1e-3, 5.0 * C_CRIT, 64), 0.0, 5.0 * C_CRIT]
        altitudes = [0.5, 1.0, 1.5]
        peaks, terminations = drop_peaks(params, DropScenario(0.0), dampings, altitudes)
        late = np.argwhere(terminations == Termination.MAX_TIME)
        assert len(passes) == 198
        assert stops == [_kernels.CHUNK_STEPS + 1] * len(late) and len(late) == 33
        for b, a in late:
            peak, termination = full_trajectory_outcome(
                ImpactParams(MASS, dampings[b], STIFFNESS), DropScenario(altitudes[a]), False)
            assert peaks[b, a] == peak and termination is Termination.MAX_TIME

    def test_deep_overdamped_drop_settles_after_one_chunk(self, passes):
        params, scenario = params_at(3.0), DropScenario(1.0)
        full = simulate_contact(params, scenario)
        x_eq = MASS * 9.81 / STIFFNESS
        assert full.compression[_kernels.CHUNK_STEPS] > 2.0 * x_eq
        peaks, terminations = drop_peaks(params, scenario, [params.damping], [1.0])
        assert passes == [_kernels.CHUNK_STEPS + 1]
        assert terminations[0, 0] is full.termination is Termination.MAX_TIME
        assert peaks[0, 0] == filtered_peak(full, scenario.sensor_cutoff)


def free_motion(alpha, w2, y, v, t):
    """(y, v) at times t from the state (y, v) of y'' + 2*alpha*y' + w2*y = 0:
    the textbook solution of each damping regime, in extended precision."""
    ld = np.longdouble
    a, w2, y0, v0 = ld(alpha), ld(w2), ld(y), ld(v)
    t = np.asarray(t, dtype=ld)
    d = w2 - a * a
    if d > 0:
        r = np.sqrt(d)
        decay, cos, sin = np.exp(-a * t), np.cos(r * t), np.sin(r * t) / r
        return (decay * (y0 * cos + (v0 + a * y0) * sin),
                decay * (v0 * cos - (a * v0 + w2 * y0) * sin))
    if d < 0:
        r = np.sqrt(-d)
        slow, fast = -w2 / (a + r), -a - r  # the roots -a + r and -a - r
        c_slow = (v0 - fast * y0) / (2 * r)
        e_slow, e_fast = np.exp(slow * t), np.exp(fast * t)
        return (c_slow * e_slow + (y0 - c_slow) * e_fast,
                slow * c_slow * e_slow + fast * (y0 - c_slow) * e_fast)
    decay, b = np.exp(-a * t), v0 + a * y0
    return decay * (y0 + b * t), decay * (v0 - a * b * t)


class TestReachBound:
    """_reach bounds every later y of a contact's state, and no wider than
    STOP_SLACK: the stop rule ends a contact only where no rebound, no
    collision and no larger compression can follow."""

    ZETAS = [0.0, 0.3, 1.0 - 1e-8, 1.0, 1.0 + 1e-8, 3.0, 30.0]

    @settings(max_examples=100, deadline=None)
    @given(omega=st.floats(1.0, 3.0).map(lambda e: 10.0 ** e),
           zeta=st.sampled_from(ZETAS) | st.floats(-2.0, 1.0).map(lambda e: 10.0 ** e),
           amplitude=st.floats(-5.0, -1.0).map(lambda e: 10.0 ** e),
           y_share=st.just(0.0) | st.floats(-1.0, 1.0),
           v_share=st.just(0.0) | st.floats(-1.0, 1.0))
    def test_hull_holds_and_is_attained(self, omega, zeta, amplitude, y_share, v_share):
        w2, alpha = omega * omega, zeta * omega
        y, v = amplitude * y_share, amplitude * omega * v_share
        radius = math.hypot(y, v / omega)
        # the widening is a normal float: below that the state is all rounding
        assume(radius == 0.0 or _kernels.STOP_SLACK * radius >= sys.float_info.min)
        lo, hi = _kernels._reach(alpha, w2, y, v)
        # the slowest decay rate; 60 time constants leave e**-60 of any term,
        # and an underdamped y meets its next two extrema within 2*pi/r
        d = w2 - alpha * alpha
        slowest = alpha if d >= 0.0 else w2 / (alpha + math.sqrt(-d))
        span = 60.0 / slowest if slowest > 0.0 else math.inf
        if d > 0.0:
            span = min(span, 2.01 * math.pi / math.sqrt(d))
        t = np.unique(np.concatenate([np.linspace(0.0, 1.0, 20001),
                                      np.geomspace(1e-7, max(span, 1.0), 4001)]))
        ys, vs = free_motion(alpha, w2, y, v, t)
        ys = ys.astype(float)
        assert lo <= ys.min() and ys.max() <= hi
        # extrema located between the samples, by an independent root solve
        turns = np.nonzero(np.sign(vs[:-1]) * np.sign(vs[1:]) < 0)[0]
        extrema = [float(free_motion(alpha, w2, y, v, brentq(
            lambda s: float(free_motion(alpha, w2, y, v, s)[1]), t[i], t[i + 1],
            xtol=1e-15))[0]) for i in turns]
        # y tends to 0, which bounds the hull's ends where they are limits
        attained = [ys.min(), ys.max(), *extrema, 0.0]
        tolerance = 2.0 * _kernels.STOP_SLACK * radius
        assert lo >= min(attained) - tolerance
        assert hi <= max(attained) + tolerance

    @pytest.mark.parametrize("phase", [0.0, 0.7, 2.0, 3.0, 4.5])
    def test_undamped_later_peak_at_the_top(self, phase):
        # zeta = 0: every later peak reaches the largest x so far exactly, so
        # a kept contact must not stop below it
        w2, amplitude = 7040.0 / 0.241, 0.01
        y, v = amplitude * math.cos(phase), -amplitude * math.sqrt(w2) * math.sin(phase)
        lo, hi = _kernels._reach(0.0, w2, y, v)
        assert not hi < amplitude and not lo > -amplitude

    @pytest.mark.parametrize("zeta", [0.05, 0.3, 0.7])
    @pytest.mark.parametrize("miss", [-1e-12, 0.0, 1e-12])
    @pytest.mark.parametrize("before", [0.0, 0.4])
    def test_grazing_dip_and_peak(self, zeta, miss, before):
        # a peak of 10 mm, reached `before` of a half period after the state,
        # and the dip after it; x_eq and the stroke are placed so that the dip
        # and the peak stop `miss` metres short of their walls (past them
        # when negative)
        w2 = 7040.0 / 0.241
        alpha = zeta * math.sqrt(w2)
        half = math.pi / math.sqrt(w2 - alpha * alpha)
        y, v = (float(q) for q in free_motion(alpha, w2, 0.01, 0.0, -before * half))
        dip = float(free_motion(alpha, w2, 0.01, 0.0, half)[0])
        lo, hi = _kernels._reach(alpha, w2, y, v)
        x_eq = miss - dip  # the dip reaches x = miss
        clearance = x_eq + 0.01 + miss  # the peak reaches the stroke less miss
        if miss <= 0.0:  # a wall is reached: the band must not clear it
            assert not x_eq + lo > 0.0
            assert not x_eq + hi < clearance
        assert lo <= dip and hi >= 0.01


def full_trajectory_outcome(params, scenario, use_raw_peak):
    """Peak and termination read from the whole simulated trajectory."""
    traj = simulate_contact(params, scenario)
    if use_raw_peak:
        return peak_acceleration(traj).raw, traj.termination
    return filtered_peak(traj, scenario.sensor_cutoff), traj.termination


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


class TestElementwiseMath:
    """A bulk settle solves its events as arrays where a smaller call solves
    each alone; they agree bit for bit only while numpy gives an element of
    an array the bits it gives the same value alone."""

    @pytest.mark.parametrize("function", [np.exp, np.cos, np.sin, np.expm1])
    @pytest.mark.parametrize("size", [1, 3, 8, 165])
    def test_array_element_equals_value_alone(self, function, size):
        rng = np.random.default_rng(size)
        for _ in range(20):
            # arguments as _transition forms them: -alpha*tau, r*tau, -2*r*tau
            values = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-12.0, 2.5, size)
            got = function(values)
            for value, element in zip(values.tolist(), got.tolist()):
                alone = float(function(value))
                assert np.float64(element).tobytes() == np.float64(alone).tobytes(), (
                    f"np.{function.__name__}({value!r}) is {alone!r} alone but {element!r} "
                    f"in a {size}-element array: on this platform a bulk drop_peaks call "
                    f"(B x A >= _kernels.BULK_CONTACTS) can differ in the last bits from "
                    f"the same contacts simulated one by one")


def contact_by_contact(params, scenario, dampings, altitudes, use_raw_peak):
    """drop_peaks of each (damping, altitude) alone, below the bulk size."""
    peaks = np.empty((len(dampings), len(altitudes)))
    terminations = np.empty(peaks.shape, dtype=object)
    for b, damping in enumerate(dampings):
        for a, altitude in enumerate(altitudes):
            peak, termination = drop_peaks(params, scenario, [damping], [altitude], use_raw_peak)
            peaks[b, a], terminations[b, a] = peak[0, 0], termination[0, 0]
    return peaks, terminations


class TestBulkSettle:
    """A call of at least BULK_CONTACTS contacts settles their events and
    filters their records in bulk; it must give what each contact gives alone."""

    @settings(max_examples=25, deadline=None)
    @given(mass=st.floats(0.03, 3.0),
           zetas=st.lists(st.sampled_from([0.0, 1.0, 3.0]) | st.floats(0.0, 8.0),
                          min_size=6, max_size=8),
           stiffness=st.floats(100.0, 50000.0),
           stroke=st.floats(0.9, 20.0),
           altitudes=st.lists(st.just(0.0) | st.floats(-5.0, 1.3).map(lambda e: 10.0 ** e),
                              min_size=3, max_size=3),
           sample_rate=st.sampled_from([1500.0, 20000.0, 100000.0]),
           use_raw_peak=st.booleans())
    def test_bulk_call_equals_contacts_alone(self, mass, zetas, stiffness, stroke, altitudes,
                                             sample_rate, use_raw_peak):
        params = params_at(0.0, mass, stiffness)
        dampings = [zeta * params.critical_damping for zeta in zetas]
        # strokes from just below the static deflection x_eq = m*g/k
        scenario = DropScenario(0.0, clearance=stroke * mass * 9.81 / stiffness,
                                sample_rate=sample_rate)
        assert len(dampings) * len(altitudes) >= _kernels.BULK_CONTACTS
        peaks, terminations = drop_peaks(params, scenario, dampings, altitudes, use_raw_peak)
        alone_peaks, alone_terminations = contact_by_contact(params, scenario, dampings,
                                                             altitudes, use_raw_peak)
        np.testing.assert_array_equal(peaks, alone_peaks)
        assert (terminations == alone_terminations).all()

    def test_event_times_are_the_scalar_solves(self, monkeypatch):
        # every event a bulk call solves, including the unresolved ones of
        # 1e297 m drops whose bracket closes first, against _event_time
        solved = []
        event_times = _kernels._event_times

        def recording(*args):
            solved.append(args)
            return event_times(*args)

        monkeypatch.setattr(_kernels, "_event_times", recording)
        dampings = [0.0, *np.geomspace(1e-3, 5.0 * C_CRIT, 7), C_CRIT]
        for altitudes, sample_rate in [([0.01, 0.5, 1.5, 20.0], 1500.0),
                                       ([0.001, 0.3, 2.0, 5.0], 100000.0),
                                       ([1.0, 1e297, 3e297, 1e298], 20000.0)]:
            scenario = DropScenario(0.0, clearance=0.004, sample_rate=sample_rate)
            try:
                drop_peaks(params_at(0.0), scenario, dampings, altitudes)
            except NumericalError:
                pass
        assert len(solved) == 3
        for branches, w2, offset, y0, y1, dt in solved:
            alpha = np.empty(offset.size)
            for _, at, branch_alpha, _ in branches:
                alpha[at] = branch_alpha
            roots = event_times(branches, w2, offset, y0, y1, dt)
            for i, root in enumerate(roots):
                assert root == _kernels._event_time(alpha[i], w2, offset[i], y0[i], y1[i], dt[i])

    # the scalar solve runs on Python floats, the array solve on numpy
    # arrays: the same IEEE operations, so the same roots, for event solves
    # and turning-step solves (offset 0, on the state (v, a)) in every regime
    @settings(max_examples=200, deadline=None)
    @given(omega=st.floats(1.0, 3.0).map(lambda e: 10.0 ** e),
           zeta=st.sampled_from([0.0, 1.0 - 1e-8, 1.0, 1.0 + 1e-8, 30.0])
           | st.floats(-2.0, 1.0).map(lambda e: 10.0 ** e),
           sample_rate=st.sampled_from([1500.0, 5000.0, 20000.0, 100000.0]),
           y=st.floats(-0.05, 0.05), v=st.floats(-5.0, 5.0),
           share=st.floats(0.0, 1.0), turning=st.booleans())
    def test_scalar_solve_is_the_array_solve(self, omega, zeta, sample_rate, y, v, share,
                                             turning):
        w2, alpha, dt = omega * omega, zeta * omega, 1.0 / sample_rate
        if turning:
            y, v = v, -w2 * y - 2.0 * alpha * v
        p00, p01, _, _ = _kernels._transition(alpha, w2, dt)
        offset = 0.0 if turning else -(y + share * float(p00 * y + p01 * v - y))
        one = np.array([1.0])
        with np.errstate(all="ignore"):  # as the bulk settle runs it
            root = _kernels._event_times(_kernels._branches(alpha * one, w2), w2,
                                         offset * one, y * one, v * one, dt * one)[0]
        for args in [(alpha, offset, y, v, dt), tuple(map(np.float64, (alpha, offset, y, v, dt)))]:
            got = _kernels._event_time(args[0], w2, *args[1:])
            assert type(got) is float and got == root

    @pytest.mark.parametrize("use_raw_peak", [False, True])
    def test_small_budget_settles_in_batches(self, monkeypatch, use_raw_peak):
        params = ImpactParams(MASS, 46.0, STIFFNESS)
        dampings = [*np.geomspace(1e-3, 5.0 * C_CRIT, 64), 0.0, 5.0 * C_CRIT]
        scenario = DropScenario(0.0)
        whole = drop_peaks(params, scenario, dampings, [0.5, 1.0, 1.5], use_raw_peak)
        settles = []
        branches = _kernels._branches

        def counting(alpha, w2):
            settles.append(alpha.size)
            return branches(alpha, w2)

        monkeypatch.setattr(_kernels, "_branches", counting)
        monkeypatch.setattr(_kernels, "SETTLE_SAMPLES", 4 * _kernels.CHUNK_STEPS)
        batched = drop_peaks(params, scenario, dampings, [0.5, 1.0, 1.5], use_raw_peak)
        # batches of events both above and below the size the array solve needs
        assert len(settles) >= 8 and min(settles) < _kernels.BULK_CONTACTS <= max(settles)
        np.testing.assert_array_equal(batched[0], whole[0])
        assert (batched[1] == whole[1]).all()

    def test_unresolved_event_raises_the_first(self, monkeypatch):
        # 1e297 m and 1e298 m drops cross the stroke within a few ulp of the
        # step, where no solve can locate the event (see the CLI's exit 3)
        params = ImpactParams(MASS, 46.0, STIFFNESS)
        dampings, altitudes = np.geomspace(1.0, 100.0, 6), [1.0, 1e298, 1e297]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError) as bulk:
                drop_peaks(params, DropScenario(0.0), dampings, altitudes)
            monkeypatch.setattr(_kernels, "BULK_CONTACTS", math.inf)
            with pytest.raises(NumericalError) as inline:
                drop_peaks(params, DropScenario(0.0), dampings, altitudes)
        assert "not resolved" in str(inline.value)
        assert str(bulk.value) == str(inline.value)
        assert bulk.value.time == inline.value.time
