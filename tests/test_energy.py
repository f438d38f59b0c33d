import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crashsim import (
    ConfigurationError,
    DomainError,
    DropScenario,
    ImpactParams,
    NumericalError,
    Termination,
    altitude_energy_ratio,
    collision_threshold_altitude,
    drop_peaks,
    energy_distribution_curve,
    energy_partition,
    impact_velocity,
    simulate_contact,
    simulate_impact,
)
from crashsim import energy
from crashsim._kernels import CHUNK_STEPS, first_peak
from crashsim.dynamics import MAX_TIME_S


def brute_force_threshold(params, scenario_template, h_max=5.0, step=0.01):
    """Smallest colliding altitude by a 1 cm sweep; independent of bisection."""
    h = step
    while h <= h_max:
        scenario = replace(scenario_template, drop_altitude=h)
        if simulate_contact(params, scenario).termination is Termination.COLLISION:
            return h
        h += step
    return math.inf


class TestEnergyPartition:
    def test_rebound_case_accounting(self, reference_params, make_scenario):
        scenario = make_scenario(1.0)
        breakdown = energy_partition(reference_params, scenario)
        assert breakdown.termination is Termination.REBOUND
        assert breakdown.collision == 0.0

        # cross-check against the trajectory the partition is built from
        traj = simulate_contact(reference_params, scenario)
        i_max = int(np.argmax(traj.compression))
        x_max = float(traj.compression[i_max])
        assert breakdown.compression_at_eval == pytest.approx(x_max, rel=1e-12)
        assert breakdown.spring == pytest.approx(0.5 * 7040.0 * x_max ** 2, rel=1e-12)
        assert breakdown.damper == pytest.approx(float(traj.damper_energy[i_max]),
                                                 rel=1e-12)

        # exact closure at the evaluation sample (residual kinetic included)
        residual_kinetic = 0.5 * 0.241 * float(traj.velocity[i_max]) ** 2
        expected = breakdown.kinetic_at_impact + 0.241 * 9.81 * x_max
        assert breakdown.spring + breakdown.damper + residual_kinetic == pytest.approx(
            expected, rel=1e-9)
        # at peak compression the velocity is ~0 (sampling-limited), so
        # spring + damper alone already carry the budget
        assert breakdown.spring + breakdown.damper == pytest.approx(expected, rel=2e-5)

    def test_collision_case_closure(self, reference_params, make_scenario):
        breakdown = energy_partition(reference_params, make_scenario(20.0))
        assert breakdown.termination is Termination.COLLISION
        assert breakdown.compression_at_eval == 0.016
        assert breakdown.spring == pytest.approx(0.5 * 7040.0 * 0.016 ** 2, rel=1e-12)
        total = breakdown.spring + breakdown.damper + breakdown.collision
        closed = breakdown.kinetic_at_impact + 0.241 * 9.81 * 0.016
        assert total == pytest.approx(closed, rel=1e-12)
        # the uncorrected difference rule differs by exactly the gravity work
        assert breakdown.damper - breakdown.damper_paper_rule == pytest.approx(
            0.241 * 9.81 * 0.016, rel=1e-9)

    def test_difference_rule_matches_quadrature(self, reference_params, make_scenario):
        # the damper term from the energy balance must agree with the
        # independently accumulated integral of c*v^2
        scenario = make_scenario(20.0)
        breakdown = energy_partition(reference_params, scenario)
        traj = simulate_contact(reference_params, scenario)
        assert breakdown.damper == pytest.approx(float(traj.damper_energy[-1]),
                                                 rel=1e-8)

    def test_20m_claim(self, reference_params, make_scenario):
        breakdown = energy_partition(reference_params, make_scenario(20.0))
        absorbed = (breakdown.spring + breakdown.damper) / breakdown.initial_potential
        assert absorbed > 0.30

    def test_zero_altitude_all_zero(self, reference_params, make_scenario):
        # a drop from h = 0, or from 1 m under g = 0, has no energy to split
        for params, h in [(reference_params, 0.0),
                          (replace(reference_params, gravity=0.0), 1.0)]:
            breakdown = energy_partition(params, make_scenario(h))
            assert breakdown.initial_potential == 0.0
            assert breakdown.spring == breakdown.damper == breakdown.collision == 0.0
            assert (breakdown.frac_spring == breakdown.frac_damper
                    == breakdown.frac_collision == 0.0)

    def test_undamped_exchange_with_explicit_velocity(self):
        # with c = 0 and no gravity forcing, the impact energy converts
        # entirely into spring energy at peak compression
        params = ImpactParams(mass=1.0, damping=0.0, stiffness=400.0, gravity=0.0)
        traj = simulate_impact(params, v0=1.0,
                               scenario=DropScenario(0.0, clearance=1.0, sample_rate=20000.0))
        assert traj.termination is Termination.REBOUND
        spring_max = 0.5 * 400.0 * traj.max_compression ** 2
        assert spring_max == pytest.approx(0.5 * 1.0 ** 2, rel=1e-6)
        assert np.max(traj.damper_energy) == 0.0

    def test_undamped_drop_spring_takes_all(self):
        # public-interface version: gravity forces the contact, so the spring
        # peak holds the impact energy plus the gravity work (to within the
        # residual kinetic energy at the sampled peak)
        params = ImpactParams(mass=0.241, damping=0.0, stiffness=7040.0)
        breakdown = energy_partition(params, DropScenario(0.15))
        assert breakdown.damper == 0.0
        expected = (breakdown.kinetic_at_impact
                    + 0.241 * 9.81 * breakdown.compression_at_eval)
        assert breakdown.spring == pytest.approx(expected, rel=1e-5)

    @pytest.mark.parametrize("altitude", [0.2, 0.7, 1.2, 3.0, 10.0])
    def test_zero_damping_kills_damper_term(self, altitude):
        params = ImpactParams(mass=0.241, damping=0.0, stiffness=7040.0)
        breakdown = energy_partition(params, DropScenario(altitude))
        assert breakdown.damper == 0.0

    @pytest.mark.parametrize("damping", [1e20, 1e100])
    def test_drop_that_never_leaves_zero_dissipates_its_budget(self, damping):
        # x rounds to 0 at every sample, so every sample holds the largest
        # compression; the breakdown is read at the last of them
        params = ImpactParams(mass=0.241, damping=damping, stiffness=7040.0)
        breakdown = energy_partition(params, DropScenario(1.0))
        assert breakdown.termination is Termination.MAX_TIME
        assert breakdown.compression_at_eval == breakdown.spring == 0.0
        assert breakdown.damper == pytest.approx(0.241 * 9.81 * 1.0, rel=1e-9)

    def test_json_dict_reports_both_rules(self, reference_params, make_scenario):
        payload = energy_partition(reference_params, make_scenario(20.0)).as_json_dict()
        assert "damper_closed_rule_j" not in payload
        assert payload["damper_paper_rule_j"] < payload["damper_j"]
        assert payload["termination"] == "collision"


class TestEnergyDistributionCurve:
    def test_no_collision_below_threshold(self, reference_params, make_scenario):
        curve = energy_distribution_curve(
            reference_params, make_scenario(0.0), [0.3, 0.6, 0.9, 1.2, 1.35])
        assert [h for h, _ in curve] == [0.3, 0.6, 0.9, 1.2, 1.35]
        assert all(b.collision == 0.0 for _, b in curve)

    def test_150cm_collision_share_is_marginal(self, reference_params, make_scenario):
        # 1.50 m sits ~10 cm past the smallest colliding altitude; the
        # collision share exists but stays small
        ((_, breakdown),) = energy_distribution_curve(
            reference_params, make_scenario(0.0), [1.5])
        assert breakdown.termination is Termination.COLLISION
        assert 0.0 < breakdown.frac_collision < 0.05

    def test_collision_share_increases_with_altitude(self, reference_params,
                                                     make_scenario):
        curve = energy_distribution_curve(
            reference_params, make_scenario(0.0), [5.0, 10.0, 20.0])
        fractions = [b.frac_collision for _, b in curve]
        assert fractions[0] < fractions[1] < fractions[2]

    def test_collision_share_non_decreasing_on_grid(self, reference_params,
                                                    make_scenario):
        altitudes = list(np.linspace(0.1, 25.0, 18))
        curve = energy_distribution_curve(reference_params, make_scenario(0.0),
                                          altitudes)
        fractions = [b.frac_collision for _, b in curve]
        assert all(b >= a - 1e-12 for a, b in zip(fractions, fractions[1:]))

    def test_zero_altitude_row(self, reference_params, make_scenario):
        ((h, breakdown),) = energy_distribution_curve(
            reference_params, make_scenario(0.0), [0.0])
        assert h == 0.0
        assert breakdown.spring == breakdown.damper == breakdown.collision == 0.0

    def test_empty_list_rejected(self, reference_params, make_scenario):
        with pytest.raises(DomainError):
            energy_distribution_curve(reference_params, make_scenario(0.0), [])

    def test_negative_altitude_named(self, reference_params, make_scenario):
        with pytest.raises(DomainError, match="-2"):
            energy_distribution_curve(reference_params, make_scenario(0.0),
                                      [1.0, -2.0])


class TestCollisionThreshold:
    def test_huge_clearance_never_collides(self, reference_params):
        scenario = DropScenario(0.0, clearance=1.0)
        assert collision_threshold_altitude(reference_params, scenario) == math.inf

    def test_reference_threshold_location(self, reference_params, make_scenario):
        threshold = collision_threshold_altitude(reference_params, make_scenario(0.0))
        assert 1.39 < threshold < 1.41

    def test_bisection_agrees_with_sweep(self, reference_params, make_scenario):
        threshold = collision_threshold_altitude(reference_params, make_scenario(0.0))
        swept = brute_force_threshold(reference_params, make_scenario(0.0))
        assert abs(threshold - swept) <= 0.011

    def test_stiffer_frame_raises_threshold(self, make_scenario):
        # a stiffer spring compresses less per unit impact energy, so it
        # takes a higher drop to use up the 16 mm stroke; checked against the
        # independent 1 cm sweep for both stiffnesses
        soft = ImpactParams(mass=0.241, damping=46.0, stiffness=7040.0)
        stiff = ImpactParams(mass=0.241, damping=46.0, stiffness=14080.0)
        swept_soft = brute_force_threshold(soft, make_scenario(0.0))
        swept_stiff = brute_force_threshold(stiff, make_scenario(0.0))
        assert swept_stiff > swept_soft
        bisected_stiff = collision_threshold_altitude(stiff, make_scenario(0.0))
        assert abs(bisected_stiff - swept_stiff) <= 0.011

    # the threshold is a float altitude whose drop reaches the stroke while
    # the drop from the next float below does not; the last frame's 9 mm
    # stroke lies below its 9.81 mm static sag, so every drop above 0
    # collides there
    @pytest.mark.parametrize("sample_rate", [5000.0, 20000.0, 100000.0])
    @pytest.mark.parametrize("mass,damping,stiffness,stroke", [
        (0.241, 46.0, 7040.0, 0.016),
        *[(0.241, zeta * 2.0 * math.sqrt(0.241 * 7040.0), 7040.0, 0.016)
          for zeta in (0.0, 0.56, 1.0, 3.0)],
        (1.0, 2.0, 1000.0, 0.009),
    ])
    def test_threshold_is_the_smallest_colliding_float(self, mass, damping, stiffness,
                                                      stroke, sample_rate):
        params = ImpactParams(mass, damping, stiffness)
        horizon = (1.0 / sample_rate) * math.ceil(MAX_TIME_S * sample_rate)

        def collides(h):
            return first_peak(params, impact_velocity(h, params.gravity), horizon) >= stroke

        threshold = collision_threshold_altitude(
            params, DropScenario(0.0, clearance=stroke, sample_rate=sample_rate))
        assert collides(threshold) and not collides(math.nextafter(threshold, 0.0))

    def test_exact_thresholds(self, reference_params, make_scenario):
        assert round(collision_threshold_altitude(reference_params, make_scenario(0.0)),
                     7) == 1.3973481
        sagging = ImpactParams(mass=1.0, damping=2.0, stiffness=1000.0)
        assert collision_threshold_altitude(sagging, make_scenario(0.0, clearance=0.009)) == 5e-324

    # a 1e308 m cap is finite, but its impact velocity is not
    @pytest.mark.parametrize("cap", [0.0, -5.0, math.nan, math.inf, 1e308])
    def test_invalid_altitude_cap_rejected(self, reference_params, make_scenario, cap):
        with pytest.raises(ConfigurationError, match="altitude_cap"):
            collision_threshold_altitude(reference_params, make_scenario(0.0),
                                         altitude_cap=cap)

    def test_unresolved_step_raises(self, make_scenario):
        # omega_n/fs ~ 3.2 > pi, as drop_peaks and simulate_contact refuse it
        stiff = ImpactParams(mass=0.241, damping=46.0, stiffness=1e7)
        with pytest.raises(NumericalError):
            collision_threshold_altitude(stiff, make_scenario(0.0, sample_rate=2000.0))

    # without gravity every drop is a zero-length contact: nothing moves, so
    # even a step that could not resolve a contact is not refused
    @pytest.mark.parametrize("stiffness,sample_rate", [(7040.0, 20000.0), (1e7, 2000.0)])
    def test_no_gravity_never_collides(self, make_scenario, stiffness, sample_rate):
        params = ImpactParams(mass=0.241, damping=46.0, stiffness=stiffness, gravity=0.0)
        scenario = make_scenario(0.0, sample_rate=sample_rate)
        assert collision_threshold_altitude(params, scenario) == math.inf

    # the bisection assumes that once a drop collides every higher drop does
    @settings(max_examples=40, deadline=None)
    @given(mass=st.floats(0.05, 2.0),
           zeta=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 5.0),
           stiffness=st.floats(1000.0, 40000.0),
           clearance=st.floats(0.002, 0.05),
           altitudes=st.lists(st.floats(0.0, 20.0), min_size=2, max_size=12))
    def test_collision_monotone_in_altitude(self, mass, zeta, stiffness, clearance,
                                            altitudes):
        params = ImpactParams(mass, zeta * 2.0 * math.sqrt(stiffness * mass), stiffness)
        altitudes = sorted(altitudes)
        _, terminations = drop_peaks(params, DropScenario(0.0, clearance=clearance),
                                     [params.damping], altitudes, use_raw_peak=True)
        collided = [t is Termination.COLLISION for t in terminations[0]]
        assert collided == sorted(collided)


class TestFirstPeak:
    # a drop collides exactly when its first peak within the horizon of its
    # sample grid reaches the stroke; the closed form is monotone in v0, and
    # its float evaluation may wobble by an ulp between neighbouring speeds
    @settings(max_examples=60, deadline=None)
    @given(mass=st.floats(0.03, 3.0), stiffness=st.floats(1000.0, 30000.0),
           zeta=st.sampled_from([0.0, 1.0]) | st.floats(1.0, 30.0),
           clearance=st.floats(0.003, 0.05),
           sample_rate=st.sampled_from([5000.0, 20000.0, 100000.0]),
           altitudes=st.lists(st.floats(0.0, 50.0), min_size=1, max_size=8))
    def test_agrees_with_simulated_outcome(self, mass, stiffness, zeta, clearance,
                                           sample_rate, altitudes):
        params = ImpactParams(mass, zeta * 2.0 * math.sqrt(stiffness * mass), stiffness)
        horizon = (1.0 / sample_rate) * math.ceil(MAX_TIME_S * sample_rate)
        altitudes = sorted(altitudes)
        peaks = [first_peak(params, impact_velocity(h), horizon) for h in altitudes]
        _, terminations = drop_peaks(
            params, DropScenario(0.0, clearance=clearance, sample_rate=sample_rate),
            [params.damping], altitudes, use_raw_peak=True)
        for peak, termination in zip(peaks, terminations[0]):
            if abs(peak - clearance) > 1e-9 * clearance:
                assert (peak >= clearance) == (termination is Termination.COLLISION)
        for lower, higher in zip(peaks, peaks[1:]):
            assert higher >= lower * (1.0 - 4.0 * np.finfo(float).eps)

    def test_stroke_margin_of_the_curve(self, reference_params, make_scenario):
        # criterion 2's gap: the 1.5 m drop overshoots the 16 mm stroke by 0.57 mm
        curve = energy_distribution_curve(reference_params, make_scenario(0.0),
                                          [0.0, 0.5, 1.0, 1.5, 20.0])
        margins = [breakdown.stroke_margin for _, breakdown in curve]
        assert margins[0] == 0.016
        assert [round(m * 1000.0, 2) for m in margins[1:]] == [6.37, 2.44, -0.57, -44.13]
        for h, breakdown in curve:
            assert (breakdown.stroke_margin <= 0.0) == (
                breakdown.termination is Termination.COLLISION)
            if breakdown.termination is Termination.REBOUND and h > 0.0:
                # the sampled peak lies at most a sample away from the closed form
                assert 0.0 <= 0.016 - breakdown.stroke_margin - breakdown.compression_at_eval < 1e-6
            assert breakdown.as_json_dict()["stroke_margin_m"] == breakdown.stroke_margin


class TestFinalBreakdownStop:
    """energy_partition ends a contact once its termination and largest
    compression are final; every other caller keeps the full horizon."""

    @staticmethod
    def full_horizon_partition(params, scenario):
        """energy_partition built from the full simulate_contact trajectory."""
        def full(params, scenario, **_):
            return simulate_contact(params, scenario)

        with mock.patch.object(energy, "simulate_contact", full):
            return energy_partition(params, scenario)

    @settings(max_examples=50, deadline=None)
    @given(mass=st.floats(0.03, 3.0), stiffness=st.floats(1000.0, 30000.0),
           zeta=st.sampled_from([0.0, 1e-3, 0.3, 0.7, 1.0 - 1e-8, 1.0, 1.0 + 1e-8, 2.0, 10.0]),
           clearance=st.sampled_from([0.003, 0.016, 0.05]),
           sample_rate=st.sampled_from([5000.0, 20000.0, 100000.0]),
           log_altitude=st.floats(math.log(0.003), math.log(30.0)))
    def test_breakdown_equals_full_trajectory(self, mass, stiffness, zeta, clearance,
                                              sample_rate, log_altitude):
        params = ImpactParams(mass, zeta * 2.0 * math.sqrt(stiffness * mass), stiffness)
        scenario = DropScenario(math.exp(log_altitude), clearance=clearance,
                                sample_rate=sample_rate)
        got = energy_partition(params, scenario).as_json_dict()
        want = self.full_horizon_partition(params, scenario).as_json_dict()
        # bit for bit: repr tells -0.0 from 0.0 and shows every digit
        assert {k: repr(v) for k, v in got.items()} == {k: repr(v) for k, v in want.items()}

    def test_settled_drop_ends_before_horizon(self, make_scenario):
        # zeta 3, 1 cm: the contact overshoots x_eq once and then settles
        params = ImpactParams(0.241, 3.0 * 2.0 * math.sqrt(0.241 * 7040.0), 7040.0)
        scenario = make_scenario(0.01)
        short = simulate_contact(params, scenario, stop_when_final=True)
        full = simulate_contact(params, scenario)
        assert short.termination is full.termination is Termination.MAX_TIME
        assert short.time[-1] < MAX_TIME_S and len(short) < len(full) // 10
        # the stopped record is a prefix of the full one, its peak included
        n = len(short)
        for name in ("time", "compression", "velocity", "acceleration", "damper_energy"):
            assert np.array_equal(getattr(short, name), getattr(full, name)[:n])
        assert short.max_compression == full.max_compression
        assert energy_partition(params, scenario).termination is Termination.MAX_TIME

    @pytest.mark.parametrize("zeta", [2.0, 3.0, 10.0])
    def test_deep_overdamped_drop_stops_after_one_chunk(self, make_scenario, zeta):
        # still 3 to 8 x_eq deep after the first chunk, yet it can never get
        # back to x = 0 nor above its peak: the contact stops there
        params = ImpactParams(0.241, zeta * 2.0 * math.sqrt(0.241 * 7040.0), 7040.0)
        scenario = make_scenario(1.0)
        short = simulate_contact(params, scenario, stop_when_final=True)
        assert len(short) == CHUNK_STEPS + 1
        assert short.compression[-1] > 2.0 * 0.241 * 9.81 / 7040.0
        got = energy_partition(params, scenario).as_json_dict()
        want = self.full_horizon_partition(params, scenario).as_json_dict()
        assert {k: repr(v) for k, v in got.items()} == {k: repr(v) for k, v in want.items()}

    def test_simulate_contact_keeps_full_horizon(self, make_scenario):
        params = ImpactParams(0.241, 3.0 * 2.0 * math.sqrt(0.241 * 7040.0), 7040.0)
        traj = simulate_contact(params, make_scenario(0.01))
        assert traj.termination is Termination.MAX_TIME
        assert traj.time[-1] == MAX_TIME_S and len(traj) == 20001

    def test_undamped_contact_never_settles(self, make_scenario):
        # zeta = 0 keeps its energy, so only an event or the horizon ends the
        # contact; this soft frame first returns to x = 0 after 4 s
        params = ImpactParams(1.0, 0.0, 2.0)
        traj = simulate_contact(params, make_scenario(0.01, clearance=50.0),
                                stop_when_final=True)
        assert traj.termination is Termination.MAX_TIME and len(traj) == 20001


JOULE_TERMS = ["initial_potential", "kinetic_at_impact", "spring", "damper", "collision",
               "damper_paper_rule"]


class TestMassRelation:
    """Scaling (m, c, k) by a power of two leaves alpha = c/(2m) and w2 = k/m
    exact, so trajectories, terminations and thresholds stay the same bit for
    bit, and every energy term, each a product with m, c or k, scales by
    exactly that power (an oracle-free metamorphic relation)."""

    @settings(max_examples=40, deadline=None)
    @given(mass=st.floats(-1.5, 0.5).map(lambda e: 10.0 ** e),
           stiffness=st.floats(3.0, 4.5).map(lambda e: 10.0 ** e),
           zeta=st.sampled_from([0.0, 1.0 - 1e-8, 1.0, 1.0 + 1e-8, 30.0]) | st.floats(0.0, 8.0),
           altitude=st.just(0.0) | st.floats(-4.0, 1.3).map(lambda e: 10.0 ** e),
           sample_rate=st.sampled_from([5000.0, 20000.0, 100000.0]),
           stroke=st.sampled_from([0.003, 0.016, 0.05]),
           j=st.integers(-30, 30).filter(bool))
    def test_mass_scaling_scales_only_the_energy_terms(self, mass, stiffness, zeta, altitude,
                                                       sample_rate, stroke, j):
        scale = 2.0 ** j
        params = ImpactParams(mass, zeta * 2.0 * math.sqrt(stiffness * mass), stiffness)
        scaled = ImpactParams(scale * mass, scale * params.damping, scale * stiffness)
        scenario = DropScenario(altitude, clearance=stroke, sample_rate=sample_rate)

        traj, scaled_traj = simulate_contact(params, scenario), simulate_contact(scaled, scenario)
        assert scaled_traj.termination is traj.termination
        for name in ("time", "compression", "velocity", "acceleration"):
            np.testing.assert_array_equal(getattr(scaled_traj, name), getattr(traj, name))
        np.testing.assert_array_equal(scaled_traj.damper_energy, scale * traj.damper_energy)

        breakdown, scaled_breakdown = energy_partition(params, scenario), energy_partition(
            scaled, scenario)
        for name, value in vars(breakdown).items():
            expected = scale * value if name in JOULE_TERMS else value
            assert getattr(scaled_breakdown, name) == expected, name

        assert collision_threshold_altitude(scaled, scenario) == collision_threshold_altitude(
            params, scenario)


class TestLengthRelation:
    """Scaling the altitude, the stroke and gravity by a power of two scales
    v0 = sqrt(2*g*h), x_eq = m*g/k and every compression, velocity and
    acceleration by exactly that power and leaves times and terminations the
    same, so peaks, margins and the outcome from each altitude scale by it,
    and every energy term by its square (an oracle-free metamorphic
    relation). The threshold search follows up to the float first peak's
    ulp wobble about the stroke."""

    @staticmethod
    def assert_scaled(scaled, value, scale):
        """scaled == scale * value bit for bit wherever either side reaches
        the smallest normal float of both frames; below it a decayed state is
        subnormal in one of them, where rounding differs."""
        floor = np.finfo(float).tiny * max(scale, 1.0)
        exact = np.maximum(np.abs(scaled), np.abs(scale * value)) >= floor
        np.testing.assert_array_equal(scaled[exact], scale * value[exact])

    @settings(max_examples=40, deadline=None)
    @given(mass=st.floats(-1.5, 0.5).map(lambda e: 10.0 ** e),
           stiffness=st.floats(3.0, 4.5).map(lambda e: 10.0 ** e),
           zeta=st.sampled_from([0.0, 1.0 - 1e-8, 1.0, 1.0 + 1e-8, 30.0])
           | st.floats(math.log(1e-3), math.log(8.0)).map(math.exp),
           altitudes=st.lists(st.floats(-4.0, 1.3).map(lambda e: 10.0 ** e), min_size=1,
                              max_size=3),
           sample_rate=st.sampled_from([5000.0, 20000.0, 100000.0]),
           stroke=st.sampled_from([0.003, 0.016, 0.05]),
           j=st.integers(-30, 30).filter(bool))
    # a frame whose float first peak wobbles about the stroke: the search in
    # the doubled frame ends 5 ulps below twice the threshold
    @example(mass=0.17309690284253174, stiffness=1683.42727632068, zeta=1.0 + 1e-8,
             altitudes=[1.0], sample_rate=5000.0, stroke=0.003, j=1)
    def test_length_scaling_scales_states_peaks_and_threshold(
            self, mass, stiffness, zeta, altitudes, sample_rate, stroke, j):
        scale = 2.0 ** j
        params = ImpactParams(mass, zeta * 2.0 * math.sqrt(stiffness * mass), stiffness)
        scaled = replace(params, gravity=scale * params.gravity)
        scenario = DropScenario(altitudes[0], clearance=stroke, sample_rate=sample_rate)
        scaled_scenario = DropScenario(scale * altitudes[0], clearance=scale * stroke,
                                       sample_rate=sample_rate)

        traj, scaled_traj = simulate_contact(params, scenario), simulate_contact(
            scaled, scaled_scenario)
        assert scaled_traj.termination is traj.termination
        np.testing.assert_array_equal(scaled_traj.time, traj.time)
        for name in ("compression", "velocity", "acceleration"):
            self.assert_scaled(getattr(scaled_traj, name), getattr(traj, name), scale)
        self.assert_scaled(scaled_traj.damper_energy, traj.damper_energy, scale ** 2)

        for use_raw_peak in (True, False):
            peaks, terminations = drop_peaks(params, scenario, [params.damping], altitudes,
                                             use_raw_peak)
            scaled_peaks, scaled_terminations = drop_peaks(
                scaled, scaled_scenario, [params.damping], [scale * h for h in altitudes],
                use_raw_peak)
            np.testing.assert_array_equal(scaled_terminations, terminations)
            self.assert_scaled(scaled_peaks, peaks, scale)

        breakdown, scaled_breakdown = energy_partition(params, scenario), energy_partition(
            scaled, scaled_scenario)
        for name, value in vars(breakdown).items():
            if name in JOULE_TERMS:
                value *= scale ** 2
            elif name in ("compression_at_eval", "stroke_margin"):
                value *= scale
            assert getattr(scaled_breakdown, name) == value, name

        threshold = collision_threshold_altitude(params, scenario)
        scaled_threshold = collision_threshold_altitude(
            scaled, scaled_scenario, altitude_cap=scale * energy.THRESHOLD_CAP_M)
        if threshold < np.finfo(float).tiny:
            # every drop above 0 collides, and the threshold lies among the
            # subnormal floats, where scaling rounds
            assert scaled_threshold < np.finfo(float).tiny
        elif threshold == math.inf:
            assert scaled_threshold == math.inf
        else:
            # the scaled frame also collides from scale * threshold and not
            # from the float below; where the float first peak wobbles by an
            # ulp about the stroke, the scaled search, whose probes are not the
            # scaled probes, can end on another such pair a few floats away
            # (at most 5 ulps in the 1 204 random frames and the example above)
            horizon = (1.0 / sample_rate) * math.ceil(MAX_TIME_S * sample_rate)
            for h in (threshold, math.nextafter(threshold, 0.0)):
                v0 = impact_velocity(scale * h, scaled.gravity)
                assert (first_peak(scaled, v0, horizon) >= scale * stroke) is (h == threshold)
            assert abs(scaled_threshold - scale * threshold) <= 8 * math.ulp(scaled_threshold)


class TestTimeRelation:
    """Scaling the sample rate, the cutoff and the damping by a power of two
    L, and the stiffness and gravity by L**2, runs the same contact L times
    faster: alpha, omega, v0 and 1/period scale by L, x_eq, every step's
    angle and the filter gain tan(pi*fc/fs) stay, so times scale by 1/L,
    compressions stay, velocities scale by L and accelerations and the damper
    energy by L**2 (an oracle-free metamorphic relation). drop_peaks ends
    every contact at the fixed MAX_TIME_S, so its peaks scale only on the
    contacts that end at an event inside both horizons."""

    @settings(max_examples=30, deadline=None)
    @given(mass=st.floats(-1.5, 0.5).map(lambda e: 10.0 ** e),
           stiffness=st.floats(3.0, 4.5).map(lambda e: 10.0 ** e),
           zeta=st.sampled_from([0.0, 1.0 - 1e-8, 1.0, 1.0 + 1e-8, 30.0])
           | st.floats(math.log(1e-3), math.log(8.0)).map(math.exp),
           altitudes=st.lists(st.floats(-4.0, 1.3).map(lambda e: 10.0 ** e), min_size=1,
                              max_size=3),
           sample_rate=st.sampled_from([5000.0, 20000.0, 100000.0]),
           stroke=st.sampled_from([0.003, 0.016, 0.05]),
           j=st.integers(-8, 3).filter(bool))
    def test_time_scaling_scales_times_rates_and_accelerations(
            self, mass, stiffness, zeta, altitudes, sample_rate, stroke, j):
        scale = 2.0 ** j
        params = ImpactParams(mass, zeta * 2.0 * math.sqrt(stiffness * mass), stiffness)
        scaled = ImpactParams(mass, scale * params.damping, scale * scale * stiffness,
                              scale * scale * params.gravity)
        scenario = DropScenario(0.0, clearance=stroke, sample_rate=sample_rate)
        scaled_scenario = DropScenario(0.0, clearance=stroke, sensor_cutoff=scale * 500.0,
                                       sample_rate=scale * sample_rate)
        assert_scaled = TestLengthRelation.assert_scaled

        ends = []  # the contacts that end at an event inside both horizons
        for h in altitudes:
            v0 = impact_velocity(h, params.gravity)
            traj = simulate_impact(params, v0, scenario)
            scaled_traj = simulate_impact(scaled, impact_velocity(h, scaled.gravity),
                                          scaled_scenario, max_time=MAX_TIME_S / scale)
            assert scaled_traj.impact_velocity == scale * v0
            assert scaled_traj.termination is traj.termination
            assert_scaled(scaled_traj.time, traj.time, 1.0 / scale)
            assert_scaled(scaled_traj.compression, traj.compression, 1.0)
            assert_scaled(scaled_traj.velocity, traj.velocity, scale)
            assert_scaled(scaled_traj.acceleration, traj.acceleration, scale * scale)
            assert_scaled(scaled_traj.damper_energy, traj.damper_energy, scale * scale)
            ends.append(traj.termination is not Termination.MAX_TIME
                        and traj.time[-1] + 1.0 / sample_rate <= min(1.0, scale) * MAX_TIME_S)

        for use_raw_peak in (True, False):
            peaks, terminations = drop_peaks(params, scenario, [params.damping], altitudes,
                                             use_raw_peak)
            scaled_peaks, scaled_terminations = drop_peaks(
                scaled, scaled_scenario, [scaled.damping], altitudes, use_raw_peak)
            np.testing.assert_array_equal(scaled_terminations[0, ends], terminations[0, ends])
            assert_scaled(scaled_peaks[0, ends], peaks[0, ends], scale * scale)


class TestAltitudeEnergyRatio:
    def test_flexible_vs_rigid_five_fold(self):
        # 241 g from 150 cm against 239 g from 30 cm
        assert altitude_energy_ratio(0.241, 1.5, 0.239, 0.3) == pytest.approx(
            5.0418410041841, rel=1e-12)
        assert altitude_energy_ratio(0.241, 1.5, 0.239, 0.3) == pytest.approx(
            5.04, abs=0.01)

    def test_identity(self):
        assert altitude_energy_ratio(0.3, 1.2, 0.3, 1.2) == 1.0

    def test_linear_in_altitude(self):
        assert altitude_energy_ratio(1.0, 2.0, 1.0, 1.0) == 2.0

    @pytest.mark.parametrize("args", [
        (0.0, 1.0, 1.0, 1.0),
        (1.0, -1.0, 1.0, 1.0),
        (1.0, 1.0, 0.0, 1.0),
        (1.0, 1.0, 1.0, 0.0),
    ])
    def test_nonpositive_inputs_rejected(self, args):
        with pytest.raises(DomainError):
            altitude_energy_ratio(*args)
