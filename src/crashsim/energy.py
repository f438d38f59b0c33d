"""Partition of drop energy into spring, damper and rigid-collision terms.

For a rebound the breakdown is evaluated at maximum compression, at the
last sample that holds it: the spring term is the stored peak 0.5*k*x_max^2
(all of it is returned by lift-off) and the damper term is the energy
dissipated up to that point. For a collision the breakdown is evaluated at
the instant compression reaches the clearance: the collision term is the
residual kinetic energy of the payload there, and the damper term follows
from the energy balance

    damper = KE_impact + m*g*clearance - spring - collision.

The gravity-work term m*g*clearance (~0.04 J for the reference frame) makes
the balance close exactly; the plain difference rule without it is reported
alongside in JSON output as ``damper_paper_rule``.

Fractions are taken against the initial potential energy m*g*h, and read 0
when it is 0 (a drop from h = 0 or under g = 0 is a zero-length contact).
Because gravity keeps doing work over the compression stroke, the fractions
can sum marginally above 1 (by x_eval/h); they are reported unclamped.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from ._kernels import first_peak
from .dynamics import (
    MAX_TIME_S,
    DropScenario,
    ImpactParams,
    Termination,
    _step_grid,
    impact_velocity,
    simulate_contact,
)
from .errors import ConfigurationError, DomainError, NumericalError

THRESHOLD_CAP_M = 100.0  # default altitude cap [m] of the collision-threshold search


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy terms [J] of one drop and their fractions of m*g*h."""

    initial_potential: float
    kinetic_at_impact: float
    spring: float
    damper: float
    collision: float
    frac_spring: float
    frac_damper: float
    frac_collision: float
    termination: Termination
    compression_at_eval: float
    damper_paper_rule: float
    stroke_margin: float

    def as_json_dict(self) -> dict:
        return {
            "initial_potential_j": self.initial_potential,
            "kinetic_at_impact_j": self.kinetic_at_impact,
            "spring_j": self.spring,
            "damper_j": self.damper,
            "collision_j": self.collision,
            "frac_spring": self.frac_spring,
            "frac_damper": self.frac_damper,
            "frac_collision": self.frac_collision,
            "termination": self.termination.value,
            "compression_at_eval_m": self.compression_at_eval,
            "damper_paper_rule_j": self.damper_paper_rule,
            "stroke_margin_m": self.stroke_margin,
        }


def energy_partition(params: ImpactParams, scenario: DropScenario) -> EnergyBreakdown:
    """Simulate one drop until its breakdown is final (at most MAX_TIME_S) and
    partition its energy budget; the stroke margin is what its first peak leaves."""
    traj = simulate_contact(params, scenario, stop_when_final=True)
    v0 = traj.impact_velocity
    m, k, g = params.mass, params.stiffness, params.gravity
    h = scenario.drop_altitude

    initial_potential = m * g * h
    kinetic_at_impact = 0.5 * m * v0 ** 2

    if traj.termination is Termination.COLLISION:
        x_eval = scenario.clearance
        v_event = float(traj.velocity[-1])
        spring = 0.5 * k * x_eval ** 2
        collision = 0.5 * m * v_event ** 2
        if params.damping == 0.0:
            # no damper, no dissipation; keeps the term exactly zero instead
            # of attributing float residue of the difference rule to it
            damper = 0.0
            paper_rule = 0.0
        else:
            damper = kinetic_at_impact + m * g * x_eval - spring - collision
            paper_rule = kinetic_at_impact - spring - collision
    else:
        # the last of equal maxima: a contact that never leaves x = 0 has
        # dissipated its whole budget only by its last sample
        i_max = len(traj) - 1 - int(np.argmax(traj.compression[::-1]))
        x_eval = float(traj.compression[i_max])
        spring = 0.5 * k * x_eval ** 2
        damper = float(traj.damper_energy[i_max])
        collision = 0.0
        paper_rule = damper

    # guard float residue from the difference rule
    damper = max(damper, 0.0)
    paper_rule = max(paper_rule, 0.0)

    def fraction(term: float) -> float:
        if not math.isfinite(share := term / initial_potential if initial_potential else 0.0):
            raise NumericalError(f"the energy share {term:g} J / {initial_potential:g} J overflows")
        return share

    return EnergyBreakdown(
        initial_potential=initial_potential,
        kinetic_at_impact=kinetic_at_impact,
        spring=spring,
        damper=damper,
        collision=collision,
        frac_spring=fraction(spring),
        frac_damper=fraction(damper),
        frac_collision=fraction(collision),
        termination=traj.termination,
        compression_at_eval=x_eval,
        damper_paper_rule=paper_rule,
        stroke_margin=stroke_margin(params, scenario),
    )


def stroke_margin(params: ImpactParams, scenario: DropScenario) -> float:
    """Stroke [m] left by the first compression peak of the drop of `scenario`
    within the contact horizon; negative when the unclipped peak passes it."""
    v0 = impact_velocity(scenario.drop_altitude, params.gravity)
    period, max_records = _step_grid(params, scenario, MAX_TIME_S, [v0])
    return scenario.clearance - first_peak(params, v0, period * max_records)


def energy_distribution_curve(params: ImpactParams, scenario_template: DropScenario,
                              altitudes) -> list[tuple[float, EnergyBreakdown]]:
    """energy_partition mapped over altitudes [m]; output ordered as input.
    Every altitude is checked, as DropScenario checks it, before the first
    drop is simulated."""
    scenarios = [replace(scenario_template, drop_altitude=h) for h in altitudes]
    if not scenarios:
        raise DomainError("altitude list is empty")
    return [(s.drop_altitude, energy_partition(params, s)) for s in scenarios]


def collision_threshold_altitude(params: ImpactParams, scenario_template: DropScenario,
                                 altitude_cap: float = THRESHOLD_CAP_M) -> float:
    """Smallest float drop altitude [m] that ends in a collision: 5e-324 when
    every drop above 0 collides, math.inf when none does up to altitude_cap.
    A drop collides exactly when its first peak within the contact horizon,
    _kernels.first_peak, reaches the stroke (later peaks are lower: the energy
    about x_eq never grows). That is monotone in altitude, as x(t) grows with
    v0 while p01(t) > 0, at least to the first zero of v; and non-negative
    floats sort like their bit patterns, so at most 64 probes bisect those
    from 0 (no collision) to the cap. Where the float peak wobbles by an ulp
    about the stroke, it may end a few floats up, still just above a miss."""
    if not (math.isfinite(altitude_cap) and altitude_cap > 0.0):
        raise ConfigurationError(f"altitude_cap must be > 0, got {altitude_cap}")
    try:
        v_cap = impact_velocity(altitude_cap, params.gravity)
    except DomainError as exc:
        raise ConfigurationError(f"altitude_cap {altitude_cap!r}: {exc}") from exc

    period, max_records = _step_grid(params, scenario_template, MAX_TIME_S, [v_cap])

    def altitude(bits: int) -> float:
        return struct.unpack("<d", struct.pack("<Q", bits))[0]

    def collides(bits: int) -> bool:
        v0 = math.sqrt(2.0 * params.gravity * altitude(bits))  # as impact_velocity, below v_cap
        return first_peak(params, v0, period * max_records) >= scenario_template.clearance

    lo, hi = 0, struct.unpack("<Q", struct.pack("<d", altitude_cap))[0]
    if not collides(hi):
        return math.inf
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if collides(mid) else (mid, hi)
    return altitude(hi)


def altitude_energy_ratio(m1: float, h1: float, m2: float, h2: float) -> float:
    """Ratio of impact energies (m1*g*h1)/(m2*g*h2) of two drop tests;
    gravity cancels."""
    for name, value in (("m1", m1), ("h1", h1), ("m2", m2), ("h2", h2)):
        if not (math.isfinite(value) and value > 0.0):
            raise DomainError(f"{name} must be > 0, got {value}")
    return (m1 * h1) / (m2 * h2)
