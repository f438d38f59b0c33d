import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crashsim import (
    ConfigurationError,
    DomainError,
    DropScenario,
    SignalTrace,
    Termination,
    Trajectory,
    filtered_peak,
    ImpactParams,
    filtered_series,
    lowpass_filter,
    peak_acceleration,
    simulate_contact,
)
from crashsim import _kernels

FS = 20000.0
FC = 500.0


def make_trace(values, fs=FS):
    return SignalTrace(fs, np.asarray(values, dtype=float))


def synthetic_trajectory(accel, fs=FS):
    accel = np.asarray(accel, dtype=float)
    n = accel.shape[0]
    return Trajectory(
        time=np.arange(n) / fs,
        compression=np.zeros(n),
        velocity=np.zeros(n),
        acceleration=accel,
        damper_energy=np.zeros(n),
        termination=Termination.MAX_TIME,
        impact_velocity=0.0,
        sample_rate=fs,
        gravity=9.81,
    )


def filter_trace(cutoff, fs):
    return lowpass_filter(make_trace(np.ones(4), fs), cutoff).values


def filter_trajectory(cutoff, fs):
    return filtered_series(synthetic_trajectory(np.zeros(4), fs), cutoff)


class TestFilterSpec:
    """The filter's one setting, its cutoff, is checked when a reader runs,
    against the sample rate of the signal it reads."""

    def test_cutoff_at_nyquist_rejected(self):
        for read in (filter_trace, filter_trajectory):
            with pytest.raises(ConfigurationError, match="twice the cutoff"):
                read(500.0, 1000.0)
            assert len(read(499.0, 1000.0)) == 4

    def test_nonpositive_cutoff_rejected(self):
        for read in (filter_trace, filter_trajectory):
            for cutoff in (0.0, -1.0):
                with pytest.raises(ConfigurationError, match="cutoff must be > 0"):
                    read(cutoff, FS)

    @pytest.mark.parametrize("cutoff", [math.inf, -math.inf, math.nan])
    def test_non_finite_cutoff_rejected(self, cutoff):
        for read in (filter_trace, filter_trajectory):
            with pytest.raises(ConfigurationError, match="cutoff must be > 0"):
                read(cutoff, FS)


class TestSignalTrace:
    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            SignalTrace(FS, np.array([1.0, math.inf]))

    def test_two_dimensional_rejected(self):
        with pytest.raises(DomainError):
            SignalTrace(FS, np.zeros((3, 3)))


class TestLowpassFilter:
    def test_dc_gain_is_unity(self):
        out = lowpass_filter(make_trace(np.full(8000, 3.7)), FC)
        assert np.max(np.abs(out.values - 3.7)) <= 1e-13 * 3.7

    def test_first_sample_passes_through(self):
        out = lowpass_filter(make_trace([5.0, 0.0, 0.0]), FC)
        assert out.values[0] == pytest.approx(5.0, rel=1e-14)

    def test_output_length_matches_input(self):
        out = lowpass_filter(make_trace(np.random.default_rng(0).normal(size=321)),
                             FC)
        assert len(out) == 321
        assert out.sample_rate == FS

    def test_minus_3db_at_cutoff(self):
        # steady-state amplitude at fc must be 1/sqrt(2); FS/FC = 40 samples
        # per period, measured long after 10 time constants
        t = np.arange(int(FS * 0.1)) / FS
        out = lowpass_filter(make_trace(np.sin(2.0 * math.pi * FC * t)),
                             FC)
        tail = out.values[len(out.values) // 2:]
        amplitude = (np.max(tail) - np.min(tail)) / 2.0
        assert amplitude == pytest.approx(1.0 / math.sqrt(2.0), rel=0.01)

    @pytest.mark.parametrize("rate_multiple", [20, 40])
    def test_step_response_tracks_analytic(self, rate_multiple):
        # trapezoidal discretization sees a step turning on mid-sample, so the
        # analytic reference carries a half-sample shift
        fs = rate_multiple * FC
        n_pre, n_post = 50, int(fs * 0.02)
        signal = np.concatenate([np.zeros(n_pre), np.ones(n_post)])
        out = lowpass_filter(make_trace(signal, fs), FC).values
        t_since_step = (np.arange(n_post) + 0.5) / fs
        expected = 1.0 - np.exp(-2.0 * math.pi * FC * t_since_step)
        assert np.max(np.abs(out[n_pre:] - expected)) < 0.01

    def test_linearity(self):
        rng = np.random.default_rng(42)
        u = rng.normal(size=2000)
        w = rng.normal(size=2000)
        alpha, beta = 1.7, -0.6
        spec = FC
        combined = lowpass_filter(make_trace(alpha * u + beta * w), spec).values
        separate = (alpha * lowpass_filter(make_trace(u), spec).values
                    + beta * lowpass_filter(make_trace(w), spec).values)
        assert np.max(np.abs(combined - separate)) < 1e-12 * np.max(np.abs(combined))

    @settings(max_examples=60, deadline=None)
    # subnormal levels carry too few digits for a relative bound
    @given(level=st.just(0.0) | st.floats(1e-280, 1e6) | st.floats(-1e6, -1e-280),
           n=st.integers(1, 5000),
           ratio=st.floats(2.01, 5000.0),
           last_share=st.floats(0.01, 1.0))
    def test_dc_gain_is_unity_for_any_rate(self, level, n, ratio, last_share):
        # ratio = fs/fc; a short final step (event-terminated trace) too
        k_mid = math.tan(math.pi / ratio)
        k_last = math.tan(math.pi / ratio * last_share)
        out = _kernels.lowpass(np.full(n, level), k_mid, k_last)
        # rounding grows with the recurrence's memory 1/(1 - |r|) ~ (k + 1/k)/2
        bound = 8.0 * (k_mid + 1.0 / k_mid) * np.finfo(float).eps * abs(level)
        assert np.max(np.abs(out - level)) <= bound

    @settings(max_examples=60, deadline=None)
    @given(u=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=2000),
           seed=st.integers(0, 2**32 - 1),
           alpha=st.floats(-10.0, 10.0),
           beta=st.floats(-10.0, 10.0),
           ratio=st.floats(2.01, 5000.0))
    def test_linear_for_any_signals(self, u, seed, alpha, beta, ratio):
        u = np.array(u)
        w = np.random.default_rng(seed).normal(scale=100.0, size=u.size)
        k = math.tan(math.pi / ratio)
        combined = _kernels.lowpass(alpha * u + beta * w, k, k)
        separate = alpha * _kernels.lowpass(u, k, k) + beta * _kernels.lowpass(w, k, k)
        # the error of each sum scales with its terms, which can cancel;
        # subnormal terms carry no relative precision
        scale = abs(alpha) * np.max(np.abs(u)) + abs(beta) * np.max(np.abs(w))
        assert np.max(np.abs(combined - separate)) <= 1e-12 * scale + 1e-300

    def test_matches_scipy_butterworth(self):
        # independent oracle: scipy's bilinear-prewarped first-order butter
        scipy_signal = pytest.importorskip("scipy.signal")
        b, a = scipy_signal.butter(1, FC, fs=FS)
        k = math.tan(math.pi * FC / FS)
        assert b[0] == pytest.approx(k / (1.0 + k), rel=1e-12)
        assert b[1] == pytest.approx(k / (1.0 + k), rel=1e-12)
        assert a[1] == pytest.approx((k - 1.0) / (1.0 + k), rel=1e-12)

        rng = np.random.default_rng(7)
        values = rng.normal(size=4096)
        zi = scipy_signal.lfilter_zi(b, a) * values[0]
        expected, _ = scipy_signal.lfilter(b, a, values, zi=zi)
        ours = lowpass_filter(make_trace(values), FC).values
        assert np.max(np.abs(ours - expected)) < 1e-10

    def test_empty_trace_rejected(self):
        with pytest.raises(ConfigurationError):
            lowpass_filter(make_trace([]), FC)


class TestFilteredPeak:
    def test_rest_reads_one_g(self):
        traj = synthetic_trajectory(np.zeros(1000))
        assert filtered_peak(traj, FC) == pytest.approx(9.81)

    def test_slow_signal_passes_unattenuated(self):
        # 2 Hz content against a 500 Hz cutoff: passband is flat
        t = np.arange(int(FS * 1.0)) / FS
        accel = 9.81 + 3.0 * np.sin(2.0 * math.pi * 2.0 * t)
        traj = synthetic_trajectory(accel)
        unfiltered = peak_acceleration(traj).proper
        filtered = filtered_peak(traj, FC)
        assert filtered == pytest.approx(unfiltered, rel=0.01)

    @pytest.mark.parametrize("damping", [10.0, 46.0])
    @pytest.mark.parametrize("altitude", [0.3, 1.0, 2.62])
    def test_peak_passivity(self, damping, altitude):
        from crashsim import ImpactParams

        params = ImpactParams(mass=0.241, damping=damping, stiffness=7040.0)
        traj = simulate_contact(params, DropScenario(altitude))
        filtered = filtered_peak(traj, FC)
        unfiltered = peak_acceleration(traj).proper
        assert filtered <= unfiltered * (1.0 + 1e-12)

    @pytest.mark.parametrize("altitude", [0.3, 1.0, 1.5, 2.62])
    def test_sample_rate_convergence(self, reference_params, altitude):
        peaks = {}
        for fs in (20000.0, 40000.0):
            traj = simulate_contact(reference_params,
                                    DropScenario(altitude, sample_rate=fs))
            peaks[fs] = filtered_peak(traj, FC)
        assert abs(peaks[40000.0] - peaks[20000.0]) / peaks[20000.0] < 0.005

    def test_series_matches_peak(self, reference_params):
        traj = simulate_contact(reference_params, DropScenario(1.0))
        series = filtered_series(traj, FC)
        assert len(series) == len(traj)
        assert filtered_peak(traj, FC) == pytest.approx(
            float(np.max(np.abs(series))), rel=1e-14)


class TestOtherGravity:
    """Both readers take g from the trajectory: here the Moon's 1.62 m/s²."""

    G = 1.62

    @pytest.fixture(scope="class")
    def lunar_drop(self):
        params = ImpactParams(mass=0.241, damping=46.0, stiffness=7040.0, gravity=self.G)
        traj = simulate_contact(params, DropScenario(1.0))
        assert traj.gravity == self.G
        assert traj.termination is Termination.REBOUND  # the last step is partial
        return traj

    def test_proper_peak_reads_the_trajectory_gravity(self, lunar_drop):
        a = lunar_drop.acceleration
        peaks = peak_acceleration(lunar_drop)
        assert peaks.proper == float(np.max(np.abs(a - self.G)))
        assert peaks.proper != float(np.max(np.abs(a - 9.81)))
        assert peaks.raw == float(np.max(np.abs(a)))

    def test_series_filters_the_trajectory_specific_force(self, lunar_drop):
        t = lunar_drop.time
        k_mid = _kernels.prewarped_gain(FC, 1.0 / FS)
        k_last = _kernels.prewarped_gain(FC, float(t[-1] - t[-2]))
        assert k_last != k_mid
        expected = _kernels.lowpass(np.abs(lunar_drop.acceleration - self.G), k_mid, k_last)
        series = filtered_series(lunar_drop, FC)
        assert np.array_equal(series, expected)
        assert filtered_peak(lunar_drop, FC) == float(np.max(np.abs(expected)))
