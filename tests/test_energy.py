import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crashsim import (
    ConfigurationError,
    DomainError,
    DropScenario,
    ImpactParams,
    Termination,
    altitude_energy_ratio,
    collision_threshold_altitude,
    drop_peaks,
    energy_distribution_curve,
    energy_partition,
    simulate_contact,
    simulate_impact,
)


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


    @pytest.mark.parametrize("tolerance", [0.0, -1e-3, math.nan, math.inf])
    def test_invalid_tolerance_rejected(self, reference_params, make_scenario,
                                        tolerance):
        # a zero tolerance used to stall the bisection once hi and lo were
        # adjacent floats
        with pytest.raises(ConfigurationError):
            collision_threshold_altitude(reference_params, make_scenario(0.0),
                                         tolerance=tolerance)

    # a 1e308 m cap is finite, but its impact velocity is not
    @pytest.mark.parametrize("cap", [0.0, -5.0, math.nan, math.inf, 1e308])
    def test_invalid_altitude_cap_rejected(self, reference_params, make_scenario, cap):
        with pytest.raises(ConfigurationError, match="altitude_cap"):
            collision_threshold_altitude(reference_params, make_scenario(0.0),
                                         altitude_cap=cap)

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
