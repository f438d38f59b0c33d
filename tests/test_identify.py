from dataclasses import replace

import numpy as np
import pytest

from crashsim import (
    ConfigurationError,
    DegenerateDataError,
    DomainError,
    DropScenario,
    FitSetup,
    ImpactParams,
    PeakObservation,
    StaticDeflectionSample,
    drop_peaks,
    estimate_stiffness,
    fit_damping,
    model_peak,
    mse_loss,
)

REFERENCE_SETUP = FitSetup(ImpactParams(mass=0.241, damping=0.0, stiffness=7040.0))


def params_with(damping):
    return replace(REFERENCE_SETUP.params, damping=damping)


def synthetic_observations(damping, altitudes, repeats=1, noise=0.0, seed=None):
    rng = np.random.default_rng(seed)
    params = params_with(damping)
    observations = []
    for h in altitudes:
        peak = model_peak(params, DropScenario(h))
        for _ in range(repeats):
            value = peak * (1.0 + noise * rng.standard_normal()) if noise else peak
            observations.append(PeakObservation(h, value))
    return observations


class TestEstimateStiffness:
    def test_exact_line_recovers_slope(self):
        samples = [StaticDeflectionSample(7040.0 * x, x) for x in (0.002, 0.005, 0.011)]
        assert estimate_stiffness(samples) == pytest.approx(7040.0, rel=1e-12)

    def test_two_point_slope(self):
        samples = [StaticDeflectionSample(0.0, 0.0), StaticDeflectionSample(1.0, 0.001)]
        assert estimate_stiffness(samples) == pytest.approx(1000.0, rel=1e-12)

    def test_noisy_line_within_two_percent(self):
        rng = np.random.default_rng(123)
        deflections = rng.uniform(0.001, 0.02, size=50)
        forces = 5000.0 * deflections * (1.0 + 0.01 * rng.standard_normal(50))
        samples = [StaticDeflectionSample(f, x) for f, x in zip(forces, deflections)]
        assert estimate_stiffness(samples) == pytest.approx(5000.0, rel=0.02)

    def test_all_zero_deflections_rejected(self):
        samples = [StaticDeflectionSample(1.0, 0.0), StaticDeflectionSample(2.0, 0.0)]
        with pytest.raises(DegenerateDataError):
            estimate_stiffness(samples)

    def test_repeated_deflection_rejected(self):
        samples = [StaticDeflectionSample(1.0, 0.004), StaticDeflectionSample(2.0, 0.004)]
        with pytest.raises(DegenerateDataError):
            estimate_stiffness(samples)

    def test_single_sample_rejected(self):
        with pytest.raises(DomainError):
            estimate_stiffness([StaticDeflectionSample(1.0, 0.001)])

    def test_scale_equivariance(self):
        rng = np.random.default_rng(7)
        deflections = rng.uniform(0.001, 0.02, size=20)
        forces = 3000.0 * deflections * (1.0 + 0.05 * rng.standard_normal(20))
        base = estimate_stiffness(
            [StaticDeflectionSample(f, x) for f, x in zip(forces, deflections)])
        force_scaled = estimate_stiffness(
            [StaticDeflectionSample(2.5 * f, x) for f, x in zip(forces, deflections)])
        deflection_scaled = estimate_stiffness(
            [StaticDeflectionSample(f, 4.0 * x) for f, x in zip(forces, deflections)])
        assert force_scaled == pytest.approx(2.5 * base, rel=1e-12)
        assert deflection_scaled == pytest.approx(base / 4.0, rel=1e-12)


class TestModelPeak:
    def test_total_on_damping_axis(self):
        # computable from zero damping up to far past critical
        scenario = DropScenario(1.0)
        peak_undamped = model_peak(params_with(0.0), scenario)
        peak_overdamped = model_peak(
            params_with(10.0 * REFERENCE_SETUP.params.critical_damping),
            scenario)
        assert peak_undamped > 0.0
        assert peak_overdamped > 0.0
        assert peak_undamped != peak_overdamped

    def test_continuity_in_damping(self):
        scenario = DropScenario(1.0)
        base = model_peak(params_with(46.0), scenario)
        d_coarse = abs(model_peak(params_with(46.1), scenario) - base)
        d_fine = abs(model_peak(params_with(46.01), scenario) - base)
        assert d_fine < 0.2 * d_coarse
        assert d_coarse < 0.01 * base

    def test_peaks_increase_with_altitude(self):
        params = params_with(46.0)
        peaks = [model_peak(params, DropScenario(h)) for h in (0.5, 1.0, 1.5)]
        assert peaks[0] < peaks[1] < peaks[2]

    def test_raw_convention_differs(self):
        params = params_with(46.0)
        scenario = DropScenario(1.0)
        raw = model_peak(params, scenario, use_raw_peak=True)
        filtered = model_peak(params, scenario)
        assert raw != filtered


    def test_batch_matches_single_drops(self):
        dampings, altitudes = [0.0, 46.0, 200.0], [0.0, 0.5, 1.5]
        peaks, _ = drop_peaks(params_with(0.0), DropScenario(0.0),
                              dampings, altitudes)
        assert peaks.shape == (3, 3)
        for b, c in enumerate(dampings):
            for a, h in enumerate(altitudes):
                assert peaks[b, a] == model_peak(params_with(c),
                                                 DropScenario(h))


class TestMseLoss:
    def test_zero_on_self_generated_data(self):
        observations = synthetic_observations(46.0, [0.5, 1.0], repeats=3)
        assert mse_loss(46.0, REFERENCE_SETUP, observations) < 1e-18

    def test_positive_away_from_truth(self):
        observations = synthetic_observations(46.0, [0.5, 1.0], repeats=3)
        for delta in (-10.0, -1.0, 1.0, 10.0):
            assert mse_loss(46.0 + delta, REFERENCE_SETUP, observations) > 0.0

    def test_single_observation_definition(self):
        peak = model_peak(params_with(30.0), DropScenario(1.0))
        error = 2.5
        observations = [PeakObservation(1.0, peak + error)]
        assert mse_loss(30.0, REFERENCE_SETUP, observations) == pytest.approx(
            error ** 2, rel=1e-9)

    def test_empty_observations_rejected(self):
        with pytest.raises(DomainError):
            mse_loss(46.0, REFERENCE_SETUP, [])

    def test_negative_damping_rejected(self):
        observations = synthetic_observations(46.0, [1.0])
        for damping in (-1.0, np.nan, np.inf):
            with pytest.raises(DomainError):
                mse_loss(damping, REFERENCE_SETUP, observations)


class TestFitDamping:
    def test_noiseless_recovery(self):
        observations = synthetic_observations(46.0, [0.5, 1.0, 1.5], repeats=5)
        result = fit_damping(REFERENCE_SETUP, observations)
        assert result.damping == pytest.approx(46.0, abs=0.5)
        assert not result.at_boundary
        assert result.loss >= 0.0
        assert result.loss == mse_loss(result.damping, REFERENCE_SETUP, observations)
        assert result.bracket[0] <= result.damping <= result.bracket[1]

    def test_result_beats_bracket_endpoints(self):
        observations = synthetic_observations(46.0, [0.5, 1.0], repeats=2)
        result = fit_damping(REFERENCE_SETUP, observations)
        for endpoint in result.bracket:
            assert result.loss <= mse_loss(endpoint, REFERENCE_SETUP, observations)

    def test_boundary_case_flags(self):
        # data generated exactly at the lower bracket edge
        observations = synthetic_observations(20.0, [0.5, 1.0], repeats=2)
        result = fit_damping(REFERENCE_SETUP, observations, bracket=(20.0, 100.0))
        assert result.damping == pytest.approx(20.0, abs=0.02)
        assert result.at_boundary

    @pytest.mark.parametrize("bracket", [(0.0, 0.0005), (10.0, 10.0004)])
    def test_narrow_bracket_result_inside(self, bracket):
        # the log grid used to start 1e-3 above c_low, outside a narrower bracket
        observations = synthetic_observations(46.0, [0.5, 1.0])
        result = fit_damping(REFERENCE_SETUP, observations, bracket=bracket)
        assert bracket[0] <= result.damping <= bracket[1]
        assert result.at_boundary

    def test_partial_bracket_takes_the_default_end(self):
        observations = synthetic_observations(46.0, [1.0])
        c_high = 5.0 * REFERENCE_SETUP.params.critical_damping
        for bracket, resolved in [((20.0, None), (20.0, c_high)),
                                  ((None, 80.0), (0.0, 80.0))]:
            result = fit_damping(REFERENCE_SETUP, observations, bracket=bracket)
            assert result.bracket == resolved
        with pytest.raises(ConfigurationError) as exc_info:
            fit_damping(REFERENCE_SETUP, observations, bracket=(1000.0, None))
        assert repr((1000.0, c_high)) in str(exc_info.value)

    @pytest.mark.parametrize("bracket", [(-1.0, 10.0), (5.0, 5.0), (10.0, 2.0)])
    def test_invalid_bracket_rejected(self, bracket):
        observations = synthetic_observations(46.0, [1.0])
        with pytest.raises(ConfigurationError):
            fit_damping(REFERENCE_SETUP, observations, bracket=bracket)

    def test_deterministic(self):
        observations = synthetic_observations(46.0, [0.5, 1.5], repeats=3,
                                              noise=0.03, seed=11)
        first = fit_damping(REFERENCE_SETUP, observations)
        second = fit_damping(REFERENCE_SETUP, observations)
        assert first == second

    def test_matches_brute_force_scan(self):
        observations = synthetic_observations(46.0, [1.0], repeats=2,
                                              noise=0.04, seed=3)
        result = fit_damping(REFERENCE_SETUP, observations, bracket=(35.0, 60.0))
        grid = np.arange(35.0, 60.0 + 1e-9, 0.01)
        losses = [mse_loss(float(c), REFERENCE_SETUP, observations) for c in grid]
        brute = float(grid[int(np.argmin(losses))])
        assert abs(result.damping - brute) <= 0.02

    def test_fit_is_idempotent(self):
        noisy = synthetic_observations(46.0, [0.5, 1.0, 1.5], repeats=3,
                                       noise=0.05, seed=29)
        first = fit_damping(REFERENCE_SETUP, noisy)
        regenerated = synthetic_observations(first.damping, [0.5, 1.0, 1.5],
                                             repeats=3)
        second = fit_damping(REFERENCE_SETUP, regenerated)
        assert second.damping == pytest.approx(first.damping, abs=0.05)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_noisy_recovery_stays_close(self, seed):
        observations = synthetic_observations(46.0, [0.5, 1.0, 1.5], repeats=5,
                                              noise=0.05, seed=seed)
        result = fit_damping(REFERENCE_SETUP, observations)
        assert abs(result.damping - 46.0) <= 0.15 * 46.0

    def test_empty_observations_rejected(self):
        with pytest.raises(DomainError):
            fit_damping(REFERENCE_SETUP, [])


class TestObservationTypes:
    def test_negative_altitude_rejected(self):
        with pytest.raises(DomainError):
            PeakObservation(-1.0, 10.0)

    def test_nonpositive_peak_rejected(self):
        with pytest.raises(DomainError):
            PeakObservation(1.0, 0.0)

    def test_negative_force_rejected(self):
        with pytest.raises(DomainError):
            StaticDeflectionSample(-1.0, 0.001)

    def test_setup_critical_damping(self):
        assert REFERENCE_SETUP.params.critical_damping == pytest.approx(
            2.0 * np.sqrt(7040.0 * 0.241), rel=1e-12)
