import math

import numpy as np
import pytest

from crashsim import (
    ConfigurationError,
    DomainError,
    DropScenario,
    ImpactParams,
    NumericalError,
    Termination,
    Trajectory,
    UnsupportedRegimeError,
    analytic_solution,
    drop_peaks,
    impact_velocity,
    peak_acceleration,
    simulate_contact,
    simulate_impact,
)

# frozen with an independent high-precision calculator (mpmath, 30 digits)
V_IMPACT_150CM = 5.424942396007538
V_IMPACT_262CM = 7.169686185601152

# frozen from dense sampling (2e6 points over 50 ms) of the closed-form
# solution for the reference frame at h = 0.5 m; the peak sits at t = 0
PEAK_RAW_050CM = 588.0166797633427
PEAK_PROPER_050CM = 597.8266797633427

# found by bisection on the closed-form solution: from this altitude the
# reference frame's first post-peak minimum dips ~3e-10 m below zero between
# two 20 kHz samples that both sit ~3e-10 m above it
DIP_ALTITUDE = 0.04907112


class TestImpactVelocity:
    def test_zero_altitude(self):
        assert impact_velocity(0.0) == 0.0

    def test_ceiling_drop_is_about_seven_ms(self):
        v = impact_velocity(2.62)
        assert v == pytest.approx(V_IMPACT_262CM, rel=1e-12)
        assert v == pytest.approx(7.17, abs=0.01)

    def test_closed_form_value(self):
        assert impact_velocity(1.5) == pytest.approx(V_IMPACT_150CM, rel=1e-12)

    def test_sqrt_scaling(self):
        assert impact_velocity(4.0) == pytest.approx(2.0 * impact_velocity(1.0), rel=1e-12)

    def test_negative_altitude_rejected(self):
        with pytest.raises(DomainError):
            impact_velocity(-0.1)

    def test_negative_gravity_rejected(self):
        with pytest.raises(DomainError):
            impact_velocity(1.0, gravity=-9.81)

    def test_overflowing_speed_rejected(self):
        # 2*g*h overflows to inf for a finite 1e308 m drop
        with pytest.raises(DomainError, match="impact velocity"):
            impact_velocity(1e308)


class TestParamValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(mass=0.0, damping=1.0, stiffness=10.0),
        dict(mass=-1.0, damping=1.0, stiffness=10.0),
        dict(mass=1.0, damping=-1.0, stiffness=10.0),
        dict(mass=1.0, damping=1.0, stiffness=0.0),
        dict(mass=1.0, damping=1.0, stiffness=10.0, gravity=-1.0),
        dict(mass=math.nan, damping=1.0, stiffness=10.0),
    ])
    def test_bad_params(self, kwargs):
        with pytest.raises(DomainError):
            ImpactParams(**kwargs)

    def test_damping_ratio(self, reference_params):
        # c / (2*sqrt(k*m)); the reference frame sits around 0.56
        assert reference_params.damping_ratio == pytest.approx(0.5584, abs=1e-4)
        assert reference_params.critical_damping == pytest.approx(
            2.0 * math.sqrt(7040.0 * 0.241), rel=1e-12)

    @pytest.mark.parametrize("kwargs", [
        dict(drop_altitude=-0.5),
        dict(drop_altitude=1.0, clearance=0.0),
        dict(drop_altitude=1.0, sensor_cutoff=0.0),
        dict(drop_altitude=1.0, sensor_cutoff=500.0, sample_rate=1000.0),
        dict(drop_altitude=1.0, sensor_cutoff=math.inf),
    ])
    def test_bad_scenario(self, kwargs):
        # a cutoff at or past half the sample rate is a configuration mismatch,
        # refused as the sensor's readers refuse it
        error = ConfigurationError if "sensor_cutoff" in kwargs else DomainError
        with pytest.raises(error):
            DropScenario(**kwargs)


class TestUndampedOscillator:
    """m=1, c=0, k=1, g=0 with unit impact velocity: x(t) = sin(t)."""

    @pytest.fixture
    def traj(self):
        params = ImpactParams(mass=1.0, damping=0.0, stiffness=1.0, gravity=0.0)
        scenario = DropScenario(0.0, clearance=10.0, sensor_cutoff=100.0,
                                sample_rate=1000.0)
        return simulate_impact(params, v0=1.0, scenario=scenario, max_time=10.0)

    def test_rebounds(self, traj):
        assert traj.termination is Termination.REBOUND

    def test_peak_compression_is_v0_over_omega(self, traj):
        # sampled peak sits within (omega*dt)^2/8 of the true maximum
        assert traj.max_compression == pytest.approx(1.0, rel=1e-6)

    def test_rebound_at_half_period(self, traj):
        assert traj.time[-1] == pytest.approx(math.pi, rel=1e-6)
        assert traj.velocity[-1] == pytest.approx(-1.0, rel=1e-6)

    def test_energy_constant(self, traj):
        total = 0.5 * traj.velocity ** 2 + 0.5 * traj.compression ** 2
        assert np.max(np.abs(total - 0.5)) < 1e-9
        assert np.max(traj.damper_energy) == 0.0


class TestSimulateContact:
    def test_rebound_below_collision_threshold(self, reference_params, make_scenario):
        traj = simulate_contact(reference_params, make_scenario(1.0))
        assert traj.termination is Termination.REBOUND
        assert traj.max_compression < 0.016

    def test_collision_from_20m(self, reference_params, make_scenario):
        traj = simulate_contact(reference_params, make_scenario(20.0))
        assert traj.termination is Termination.COLLISION

    def test_150cm_is_marginally_past_threshold(self, reference_params, make_scenario):
        # the reference frame's smallest colliding altitude is ~1.40 m, so a
        # 150 cm drop lands just inside the collision regime
        traj = simulate_contact(reference_params, make_scenario(1.5))
        assert traj.termination is Termination.COLLISION

    def test_zero_altitude_zero_length_contact(self, reference_params, make_scenario):
        traj = simulate_contact(reference_params, make_scenario(0.0))
        assert len(traj) == 1
        assert traj.termination is Termination.REBOUND
        assert traj.impact_velocity == 0.0
        assert traj.compression[0] == 0.0
        assert traj.acceleration[0] == pytest.approx(9.81)

    def test_negative_impact_velocity_rejected(self, reference_params, make_scenario):
        with pytest.raises(DomainError, match="impact velocity must be >= 0"):
            simulate_impact(reference_params, -1.0, make_scenario(0.0))

    def test_max_time_termination(self, reference_params, make_scenario):
        traj = simulate_contact(reference_params, make_scenario(1.0), max_time=0.002)
        assert traj.termination is Termination.MAX_TIME
        assert traj.time[-1] <= 0.002 + 1e-12

    def test_non_finite_state_raises(self):
        # omega*dt ~ 1e75 far exceeds pi, so a rebound or collision could
        # fall between steps; the step is refused
        params = ImpactParams(mass=1e-8, damping=0.0, stiffness=1e150)
        with pytest.raises(NumericalError) as exc_info:
            simulate_impact(params, v0=1.0, scenario=DropScenario(
                0.0, clearance=0.016, sensor_cutoff=100.0, sample_rate=1000.0))
        assert exc_info.value.time is not None
        assert exc_info.value.time > 0.0

    def test_coarse_grid_matches_closed_form(self, reference_params):
        # a 5 kHz scenario steps 2e-4 s at a time; its samples must still
        # sit on the closed-form trajectory
        coarse = simulate_contact(reference_params,
                                  DropScenario(1.0, sample_rate=5000.0))
        x_ref, v_ref, _ = analytic_solution(reference_params,
                                            coarse.impact_velocity, coarse.time)
        assert np.max(np.abs(coarse.compression - x_ref)) / np.max(np.abs(x_ref)) < 1e-8
        assert np.max(np.abs(coarse.velocity - v_ref)) / np.max(np.abs(v_ref)) < 1e-8


class TestTrajectoryInvariants:
    @pytest.mark.parametrize("damping", [0.0, 20.0, 46.0, 70.0])
    @pytest.mark.parametrize("altitude", [0.1, 0.5, 1.0, 2.0, 10.0])
    def test_sample_grid_and_termination_state(self, damping, altitude):
        params = ImpactParams(mass=0.241, damping=damping, stiffness=7040.0)
        scenario = DropScenario(altitude)
        traj = simulate_contact(params, scenario)
        dt = 1.0 / scenario.sample_rate

        assert traj.time[0] == 0.0
        assert np.all(np.diff(traj.time) > 0.0)
        assert traj.compression[0] == 0.0
        assert traj.velocity[0] == traj.impact_velocity

        interior = traj.compression[:-1]
        if traj.termination is Termination.COLLISION:
            assert traj.compression[-1] >= scenario.clearance - 1e-9
            assert np.all(interior < scenario.clearance)
        elif traj.termination is Termination.REBOUND:
            assert traj.compression[-1] <= 1e-9
            assert np.all(interior >= 0.0)
            assert np.all(interior <= scenario.clearance)
        # event samples sit closer than one nominal step from their predecessor
        if len(traj) >= 2:
            assert traj.time[-1] - traj.time[-2] <= dt + 1e-15


class TestAnalyticSolution:
    def test_initial_conditions_exact(self, reference_params):
        x, v, a = analytic_solution(reference_params, 3.0, 0.0)
        assert x == 0.0
        assert v == pytest.approx(3.0, rel=1e-14)

    def test_undamped_quarter_period(self):
        params = ImpactParams(mass=1.0, damping=0.0, stiffness=1.0, gravity=0.0)
        x, v, a = analytic_solution(params, 1.0, math.pi / 2.0)
        assert x == pytest.approx(1.0, rel=1e-12)
        assert v == pytest.approx(0.0, abs=1e-12)
        assert a == pytest.approx(-1.0, rel=1e-12)

    def test_velocity_is_derivative_of_position(self, reference_params):
        delta = 1e-7
        for t in (0.002, 0.005, 0.01):
            x_hi, _, _ = analytic_solution(reference_params, 4.0, t + delta)
            x_lo, _, _ = analytic_solution(reference_params, 4.0, t - delta)
            _, v, _ = analytic_solution(reference_params, 4.0, t)
            assert (x_hi - x_lo) / (2.0 * delta) == pytest.approx(v, rel=1e-6)

    def test_acceleration_satisfies_ode(self, reference_params):
        t = np.linspace(0.0, 0.03, 500)
        x, v, a = analytic_solution(reference_params, 4.0, t)
        m, c, k, g = 0.241, 46.0, 7040.0, 9.81
        residual = m * a + c * v + k * x - m * g
        assert np.max(np.abs(residual)) < 1e-9

    def test_overdamped_rejected(self):
        params = ImpactParams(mass=1.0, damping=10.0, stiffness=1.0)
        with pytest.raises(UnsupportedRegimeError):
            analytic_solution(params, 1.0, 0.1)

    def test_negative_time_rejected(self, reference_params):
        with pytest.raises(DomainError):
            analytic_solution(reference_params, 1.0, -0.01)


class TestOracleEquivalence:
    @pytest.mark.parametrize("damping,altitude", [(0.0, 0.5), (46.0, 0.5), (46.0, 20.0)])
    def test_integrator_matches_closed_form(self, damping, altitude):
        params = ImpactParams(mass=0.241, damping=damping, stiffness=7040.0)
        traj = simulate_contact(params, DropScenario(altitude, sample_rate=100000.0))
        x_ref, v_ref, _ = analytic_solution(params, traj.impact_velocity, traj.time)
        assert np.max(np.abs(traj.compression - x_ref)) / np.max(np.abs(x_ref)) < 1e-6
        assert np.max(np.abs(traj.velocity - v_ref)) / np.max(np.abs(v_ref)) < 1e-6


class TestEnergyBalance:
    @pytest.mark.parametrize("damping,altitude", [(0.0, 1.0), (46.0, 0.5), (46.0, 20.0)])
    def test_closure_at_every_sample(self, damping, altitude):
        params = ImpactParams(mass=0.241, damping=damping, stiffness=7040.0)
        traj = simulate_contact(params, DropScenario(altitude))
        m, k, g = params.mass, params.stiffness, params.gravity
        ke0 = 0.5 * m * traj.impact_velocity ** 2
        lhs = (0.5 * m * traj.velocity ** 2 + 0.5 * k * traj.compression ** 2
               + traj.damper_energy)
        rhs = ke0 + m * g * traj.compression
        assert np.max(np.abs(lhs - rhs) / rhs) < 1e-6

    def test_undamped_rebound_restores_speed(self):
        # without a damper, gravity work cancels over the closed stroke
        params = ImpactParams(mass=0.241, damping=0.0, stiffness=7040.0)
        traj = simulate_contact(params, DropScenario(0.15))
        assert traj.termination is Termination.REBOUND
        assert np.max(traj.damper_energy) == 0.0
        assert abs(traj.velocity[-1]) == pytest.approx(traj.impact_velocity, rel=1e-6)

    def test_undamped_zero_gravity_periodic(self):
        params = ImpactParams(mass=1.0, damping=0.0, stiffness=100.0, gravity=0.0)
        traj = simulate_impact(params, v0=1.0,
                               scenario=DropScenario(0.0, clearance=1.0, sample_rate=20000.0))
        assert traj.termination is Termination.REBOUND
        assert abs(traj.compression[-1]) < 1e-6
        assert traj.velocity[-1] == pytest.approx(-1.0, rel=1e-6)


class TestMonotonicity:
    def test_raw_peak_non_decreasing_in_altitude(self, reference_params):
        altitudes = np.linspace(0.1, 3.0, 25)
        peaks = [
            peak_acceleration(simulate_contact(reference_params, DropScenario(float(h)))).raw
            for h in altitudes
        ]
        assert np.all(np.diff(peaks) >= -1e-9)


class TestEventCorrectness:
    @pytest.mark.parametrize("damping", [10.0, 30.0, 46.0, 60.0])
    @pytest.mark.parametrize("altitude", [0.2, 0.8, 1.2, 2.0, 4.0])
    def test_collision_iff_analytic_max_reaches_clearance(self, damping, altitude):
        params = ImpactParams(mass=0.241, damping=damping, stiffness=7040.0)
        scenario = DropScenario(altitude)
        v0 = impact_velocity(altitude)
        t = np.linspace(0.0, 0.1, 200001)
        x_ref, _, _ = analytic_solution(params, v0, t)
        margin = abs(float(np.max(x_ref)) - scenario.clearance)
        if margin < 1e-6:  # numerically marginal either way; nothing to assert
            return
        expected_collision = float(np.max(x_ref)) >= scenario.clearance
        traj = simulate_contact(params, scenario)
        assert (traj.termination is Termination.COLLISION) == expected_collision

    @pytest.mark.parametrize("altitude", [0.3, 0.8, 1.0, 1.2])
    def test_peak_between_samples_collides(self, reference_params, altitude):
        # the 20 kHz samples pass under the peak by 9-106 nm at these
        # altitudes; a stroke in that gap is reached between two samples
        wide = simulate_contact(reference_params, DropScenario(altitude, clearance=1.0))
        k = int(np.argmax(wide.compression))
        t = np.linspace(wide.time[k - 1], wide.time[k + 1], 200001)
        x_ref, _, _ = analytic_solution(reference_params, wide.impact_velocity, t)
        assert float(np.max(x_ref)) > wide.compression[k]
        stroke = 0.5 * (wide.compression[k] + float(np.max(x_ref)))
        scenario = DropScenario(altitude, clearance=stroke)

        traj = simulate_contact(reference_params, scenario)
        assert traj.termination is Termination.COLLISION
        assert traj.compression[-1] == pytest.approx(stroke, rel=1e-12)
        assert np.all(traj.compression[:-1] < stroke)
        for use_raw_peak in (True, False):
            _, terminations = drop_peaks(reference_params, scenario,
                                         [reference_params.damping], [altitude], use_raw_peak)
            assert terminations[0, 0] is Termination.COLLISION

    def test_dip_between_samples_rebounds(self, reference_params):
        scenario = DropScenario(DIP_ALTITUDE)
        v0 = impact_velocity(DIP_ALTITUDE)
        # over the first damped period: the samples stay above zero, the
        # closed form dips below it
        period = 2.0 * math.pi / (reference_params.natural_frequency
                                  * math.sqrt(1.0 - reference_params.damping_ratio ** 2))
        t = np.arange(1, int(period * scenario.sample_rate)) / scenario.sample_rate
        x_sampled, _, _ = analytic_solution(reference_params, v0, t)
        x_fine, _, _ = analytic_solution(reference_params, v0, np.linspace(0.0, period, 2000001))
        assert np.min(x_sampled) > 0.0 > np.min(x_fine)

        traj = simulate_contact(reference_params, scenario)
        assert traj.termination is Termination.REBOUND
        assert abs(traj.compression[-1]) < 1e-12
        assert traj.time[-1] < period
        for use_raw_peak in (True, False):
            _, terminations = drop_peaks(reference_params, scenario,
                                         [reference_params.damping], [DIP_ALTITUDE],
                                         use_raw_peak)
            assert terminations[0, 0] is Termination.REBOUND

    def test_sample_period_over_half_natural_period_refused(self):
        # at omega_n/fs > pi a step could hold both a peak and a dip
        scenario = DropScenario(0.5, sample_rate=2000.0)
        for factor in (1.0 - 1e-9, 1.0 + 1e-9):
            stiffness = 0.241 * (math.pi * scenario.sample_rate * factor) ** 2
            params = ImpactParams(mass=0.241, damping=0.0, stiffness=stiffness)
            # zero-length contacts never step, so they are never refused
            assert simulate_impact(params, 0.0, scenario).termination is Termination.REBOUND
            drop_peaks(params, scenario, [0.0], [0.0])
            if factor < 1.0:
                assert simulate_impact(params, 1.0, scenario).termination is Termination.REBOUND
                drop_peaks(params, scenario, [0.0], [0.5])
                continue
            with pytest.raises(NumericalError) as exc_info:
                simulate_impact(params, 1.0, scenario)
            assert exc_info.value.time == pytest.approx(1.0 / scenario.sample_rate)
            with pytest.raises(NumericalError):
                drop_peaks(params, scenario, [0.0], [0.0, 0.5])


class TestPeakAcceleration:
    @staticmethod
    def _constant_accel_trajectory(a_value: float, n: int = 100) -> Trajectory:
        t = np.arange(n) / 1000.0
        return Trajectory(
            time=t,
            compression=np.zeros(n),
            velocity=np.zeros(n),
            acceleration=np.full(n, a_value),
            damper_energy=np.zeros(n),
            termination=Termination.MAX_TIME,
            impact_velocity=0.0,
            sample_rate=1000.0,
            gravity=9.81,
        )

    def test_empty_trajectory_rejected(self):
        empty = Trajectory(
            time=np.empty(0), compression=np.empty(0), velocity=np.empty(0),
            acceleration=np.empty(0), damper_energy=np.empty(0),
            termination=Termination.MAX_TIME, impact_velocity=0.0,
            sample_rate=1000.0, gravity=9.81,
        )
        with pytest.raises(DomainError):
            peak_acceleration(empty)

    def test_hover_reads_one_g(self):
        peaks = peak_acceleration(self._constant_accel_trajectory(0.0))
        assert peaks.raw == 0.0
        assert peaks.proper == pytest.approx(9.81)

    def test_free_fall_reads_zero(self):
        peaks = peak_acceleration(self._constant_accel_trajectory(9.81))
        assert peaks.proper == 0.0
        assert peaks.raw == pytest.approx(9.81)

    def test_reference_drop_peaks_match_oracle(self, reference_params, make_scenario):
        traj = simulate_contact(reference_params, make_scenario(0.5))
        peaks = peak_acceleration(traj)
        # dense-sampled closed-form oracle, frozen at module top
        assert peaks.raw == pytest.approx(PEAK_RAW_050CM, rel=1e-9)
        assert peaks.proper == pytest.approx(PEAK_PROPER_050CM, rel=1e-9)
        # recompute the oracle in place to guard the frozen constants
        t = np.linspace(0.0, 0.05, 500001)
        _, _, a_ref = analytic_solution(reference_params, traj.impact_velocity, t)
        assert float(np.max(np.abs(a_ref))) == pytest.approx(PEAK_RAW_050CM, rel=1e-9)
        assert float(np.max(np.abs(a_ref - 9.81))) == pytest.approx(
            PEAK_PROPER_050CM, rel=1e-9)
