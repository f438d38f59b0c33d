"""Ground-contact dynamics of a payload riding on a flexible frame.

Model
-----
During contact the payload is a single lumped degree of freedom,

    m*x'' + c*x' + k*x = m*g,

where x is the downward compression of the frame measured from the instant of
first frame-ground contact (positive x compresses the spring). The forcing is
the payload weight: gravity keeps acting on the free body while the spring and
damper push back. The contact starts at x(0) = 0 with x'(0) equal to the
free-fall impact velocity sqrt(2*g*h).

The linear model is only trusted up to a compression stroke (``clearance``,
nominally 16 mm); beyond it the payload hits the ground rigidly and the
simulation stops with a Collision event. If the frame extends back through
x = 0 the payload lifts off. The simulation covers a single compression
event; bounce chains are out of scope.

Integration
-----------
The contact ODE is linear and time-invariant, so the state advances from
sample to sample by its exact propagator exp(A*h), h = 1/sample_rate.
Termination events are located inside their step on the closed-form solution,
also where the stroke or zero is touched between two samples; the final sample
holds the exact state at the event. Sample periods with omega_n*h > pi are
refused: a step could then hold both a peak and a dip.

One chunk loop, _kernels.propagate_contacts, propagates every contact.
simulate_impact keeps the samples of one contact; drop_peaks keeps only the
peak acceleration and the termination of many, and stops each contact as
soon as neither can change any more, so both read the same samples (as
simulate_impact does, with stop_when_final, for its largest compression).
A drop_peaks call of at least _kernels.BULK_CONTACTS drops, such as the
fit's grid scan, settles the contacts that end in bulk, with one array
event solve and one batched filter per batch instead of one of each per
contact; the results are the same bit for bit.
The accumulated damper energy (integral of c*x'^2) is not propagated:
simulate_impact sums the exact dissipation y'Q(h)y of each sample step over
the recorded states, independently of the energy balance; damper_gram is
memoised, so the drops of one frame compute Q(period) once.

Sign conventions for acceleration follow x: positive a points downward. An
ideal accelerometer measures specific force |a - g|: zero in free fall, 1 g
at rest. A Trajectory carries its sample rate and the gravity that forced
it, so peak_acceleration reads it alone and the sensor's readers need only
a cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import _kernels
from .errors import DomainError, NumericalError, UnsupportedRegimeError

STANDARD_GRAVITY = 9.81

# contact horizon [s]: a contact with no event by then ends as MAX_TIME
MAX_TIME_S = 1.0
MAX_RECORDS = 1e7  # samples to the horizon, max_time * sample_rate, that a run may take


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class ImpactParams:
    """Lumped model constants: mass [kg], damping [N·s/m], stiffness [N/m],
    gravity [m/s²]."""

    mass: float
    damping: float
    stiffness: float
    gravity: float = STANDARD_GRAVITY

    def __post_init__(self):
        for name in ("mass", "damping", "stiffness", "gravity"):
            object.__setattr__(self, name, _require_finite(name, getattr(self, name)))
        if not self.mass > 0.0:
            raise DomainError(f"mass must be > 0, got {self.mass}")
        if not self.stiffness / self.mass > 0.0:
            raise DomainError(f"stiffness/mass must be > 0, got {self.stiffness}/{self.mass}")
        if self.damping < 0.0:
            raise DomainError(f"damping must be >= 0, got {self.damping}")
        if self.gravity < 0.0:
            raise DomainError(f"gravity must be >= 0, got {self.gravity}")

    @property
    def natural_frequency(self) -> float:
        """Undamped angular frequency sqrt(k/m) [rad/s]."""
        return math.sqrt(self.stiffness / self.mass)

    @property
    def critical_damping(self) -> float:
        """2*sqrt(k*m) [N·s/m]."""
        return 2.0 * math.sqrt(self.stiffness * self.mass)

    @property
    def damping_ratio(self) -> float:
        return self.damping / self.critical_damping


@dataclass(frozen=True)
class DropScenario:
    """One free-fall drop: altitude [m], available compression stroke [m],
    sensor bandwidth [Hz] and trajectory sample rate [Hz]."""

    drop_altitude: float
    clearance: float = 0.016
    sensor_cutoff: float = 500.0
    sample_rate: float = 20000.0

    def __post_init__(self):
        for name in ("drop_altitude", "clearance", "sensor_cutoff", "sample_rate"):
            object.__setattr__(self, name, _require_finite(name, getattr(self, name)))
        if self.drop_altitude < 0.0:
            raise DomainError(f"drop_altitude must be >= 0, got {self.drop_altitude}")
        if not self.clearance > 0.0:
            raise DomainError(f"clearance must be > 0, got {self.clearance}")
        if not self.sensor_cutoff > 0.0:
            raise DomainError(f"sensor_cutoff must be > 0, got {self.sensor_cutoff}")
        if not self.sample_rate > 2.0 * self.sensor_cutoff:
            raise DomainError(
                f"sample_rate must exceed twice the sensor cutoff "
                f"({2.0 * self.sensor_cutoff} Hz), got {self.sample_rate}"
            )


class Termination(Enum):
    REBOUND = "rebound"
    COLLISION = "collision"
    MAX_TIME = "max_time_reached"


# indexed by the termination codes of _kernels.propagate_contacts
_TERMINATIONS = np.array([Termination.REBOUND, Termination.COLLISION,
                          Termination.MAX_TIME], dtype=object)


@dataclass(frozen=True)
class Trajectory:
    """Time-sampled contact state.

    Arrays share one length: time [s] (strictly increasing from 0),
    compression [m], velocity [m/s], acceleration [m/s²] and the cumulative
    damper energy [J], the exact dissipation summed over the sample steps.
    When the run ended in an event, the final sample sits at the located
    event time and is spaced closer than 1/sample_rate from its predecessor.
    gravity [m/s²] is the g that forced the contact, against which an
    accelerometer reads |a - g|.
    """

    time: np.ndarray
    compression: np.ndarray
    velocity: np.ndarray
    acceleration: np.ndarray
    damper_energy: np.ndarray
    termination: Termination
    impact_velocity: float
    sample_rate: float
    gravity: float

    def __len__(self) -> int:
        return self.time.shape[0]

    @property
    def max_compression(self) -> float:
        return float(np.max(self.compression))


class PeakAcceleration(NamedTuple):
    raw: float
    proper: float


def impact_velocity(drop_altitude: float, gravity: float = STANDARD_GRAVITY) -> float:
    """Free-fall speed sqrt(2*g*h) at first ground contact [m/s]; raises
    DomainError when it overflows."""
    if _require_finite("drop_altitude", drop_altitude) < 0.0:
        raise DomainError(f"drop_altitude must be >= 0, got {drop_altitude}")
    if _require_finite("gravity", gravity) < 0.0:
        raise DomainError(f"gravity must be >= 0, got {gravity}")
    return _require_finite(f"impact velocity of a {drop_altitude!r} m drop",
                           math.sqrt(2.0 * gravity * drop_altitude))


def _step_grid(params: ImpactParams, scenario: DropScenario, max_time: float,
               v0s) -> tuple[float, int]:
    """(sample period, samples to max_time) for contacts from the speeds v0s
    with the stroke and sample rate of `scenario`; refuses an overflowing rate
    or contact scale, a static sag that swamps the stroke, over MAX_RECORDS
    samples and, unless no contact moves, omega_n*h > pi: a step could hold a
    peak and a dip."""
    period, w, m = 1.0 / float(scenario.sample_rate), params.natural_frequency, params.mass
    if not math.isfinite(rate := 2.0 * w + params.damping / m):
        raise NumericalError(f"the contact rate 2*omega_n + c/m overflows to {rate}")
    # r = sqrt(2E) of the fastest contact bounds |v| and omega*|x - x_eq|: what it
    # scales (squares, forces, energies) and 1/m must stay inside the float range
    r = math.hypot(max(v0s, default=0.0), params.gravity / w)
    span = r / min(w, 1.0)
    if not math.isfinite(4.0 * max(span * span, max(m, 1.0) * r * max(r, rate), 1.0 / m)):
        raise NumericalError(f"the contact scales overflow: sqrt(2E) = {r:g} m/s, m = {m:g} kg")
    # states are propagated as y = x - x_eq and an event is accepted within
    # STOP_SLACK*(|x_eq - wall| + |y|) of its wall, so a sag that makes that
    # exceed the stroke cannot tell the stroke from zero (at x_eq = 3.4e15 m
    # y rounds to 0.5 m and a collision was reported at x = 0)
    x_eq = params.gravity / (params.stiffness / m)
    if _kernels.STOP_SLACK * x_eq > scenario.clearance:
        raise NumericalError(f"the static sag m*g/k = {x_eq:g} m swamps the "
                             f"{scenario.clearance:g} m stroke in rounding")
    if any(v0s) and w * period > math.pi:
        raise NumericalError(
            f"sample period {period:.6g} s exceeds half the natural period "
            f"{math.pi / w:.6g} s; a rebound or "
            f"collision could fall between samples",
            time=period,
        )
    if not (records := float(max_time) * float(scenario.sample_rate)) <= MAX_RECORDS:
        raise DomainError(f"max_time * sample_rate is {records:g} samples, over {MAX_RECORDS:g}")
    return period, math.ceil(records)


def simulate_impact(params: ImpactParams, v0: float, scenario: DropScenario,
                    max_time: float = MAX_TIME_S, stop_when_final: bool = False) -> Trajectory:
    """Propagate a contact that starts at compression 0 with velocity v0,
    with the stroke and sample rate of `scenario` (its drop_altitude is not
    used).

    Lower-level entry point used by simulate_contact; taking v0 directly
    decouples the initial speed from the gravity that forces the contact.
    A zero v0 is a zero-length contact: the trajectory holds the single
    initial sample and terminates as a rebound; with stop_when_final, as
    MAX_TIME once neither its termination nor its largest compression can
    change. Raises NumericalError when omega_n*h > pi, where a step could
    hold both a peak and a dip, and when the rounding of the step cannot
    locate an event: a contact so fast that it crosses the stroke within a
    few ulp of the sample period.
    """
    v0 = _require_finite("impact velocity", v0)
    if v0 < 0.0:
        raise DomainError(f"impact velocity must be >= 0, got {v0}")
    if not _require_finite("max_time", max_time) > 0.0:
        raise DomainError(f"max_time must be > 0, got {max_time}")

    period, max_records = _step_grid(params, scenario, max_time, [v0])
    _, codes, kept = _kernels.propagate_contacts(
        params.mass, [params.damping], params.stiffness, params.gravity, [v0],
        scenario.clearance, period, max_records, keep=True, stop_when_final=stop_when_final,
    )
    t, x, v, a = kept[0, 0]
    termination = _TERMINATIONS[codes][0, 0]

    # a sample step of h from y = (x - x_eq, v) dissipates y'Q(h)y; a zero-length
    # contact takes none, and its period may exceed pi/omega_n
    alpha, w2 = 0.5 * params.damping / params.mass, params.stiffness / params.mass
    y, u = x[:-1] - params.gravity / w2, v[:-1]
    gram = _kernels.damper_gram(alpha, w2, params.damping, period) if y.size else (0.0,) * 3
    dissipation = _kernels.dissipated(gram, y, u)
    if termination is not Termination.MAX_TIME and dissipation.size:
        # the event ends the last step short of a full period
        gram = _kernels.damper_gram(alpha, w2, params.damping, t[-1] - t[-2])
        dissipation[-1] = _kernels.dissipated(gram, y[-1], u[-1])
    energy = np.zeros(x.size)
    np.cumsum(dissipation, out=energy[1:])
    return Trajectory(
        time=t,
        compression=x,
        velocity=v,
        acceleration=a,
        damper_energy=energy,
        termination=termination,
        impact_velocity=v0,
        sample_rate=scenario.sample_rate,
        gravity=params.gravity,
    )


def simulate_contact(params: ImpactParams, scenario: DropScenario,
                     max_time: float = MAX_TIME_S, stop_when_final: bool = False) -> Trajectory:
    """Simulate the ground contact of a drop described by `scenario`."""
    v0 = impact_velocity(scenario.drop_altitude, params.gravity)
    return simulate_impact(params, v0, scenario, max_time, stop_when_final)


def drop_peaks(params: ImpactParams, scenario: DropScenario, dampings, altitudes,
               use_raw_peak: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Peak accelerations [m/s²] and terminations of B x A drops, as two
    (B, A) arrays, without their trajectories.

    Entry (b, a) is the drop of `scenario` from altitudes[a] with damping
    dampings[b]; params gives the mass, stiffness and gravity (its damping
    and scenario.drop_altitude are not used). Each entry equals what
    simulate_contact followed by filtered_peak (or peak_acceleration's raw
    |a| when use_raw_peak) gives for that drop, and its termination; see
    _kernels.propagate_contacts for the rule that ends contacts early. Raises
    NumericalError as simulate_impact does at the strongest damping.
    """
    dampings = np.atleast_1d(np.asarray(dampings, dtype=np.float64))
    if dampings.ndim != 1 or not np.all(np.isfinite(dampings) & (dampings >= 0.0)):
        raise DomainError(f"dampings must be finite and >= 0, got {dampings!r}")
    v0s = [impact_velocity(h, params.gravity) for h in altitudes]
    strongest = replace(params, damping=float(dampings.max(initial=0.0)))
    period, max_records = _step_grid(strongest, scenario, MAX_TIME_S, v0s)
    peaks, codes, _ = _kernels.propagate_contacts(
        params.mass, dampings, params.stiffness, params.gravity, v0s,
        scenario.clearance, period, max_records,
        None if use_raw_peak else scenario.sensor_cutoff,
    )
    return peaks, _TERMINATIONS[codes]


def analytic_solution(params: ImpactParams, v0: float, t):
    """Closed-form underdamped solution of the contact ODE at times t.

    Returns (x, v, a) evaluated at t (scalar or array). A separate
    hand-written formula that serves as the independent oracle for the
    propagator in simulate_impact; only the underdamped branch
    (c < 2*sqrt(k*m)) is implemented.
    """
    zeta = params.damping_ratio
    if zeta >= 1.0:
        raise UnsupportedRegimeError(
            f"analytic solution implemented for the underdamped branch only "
            f"(damping ratio {zeta:.4g} >= 1)"
        )
    v0 = _require_finite("impact velocity", v0)

    t_arr = np.asarray(t, dtype=np.float64)
    if np.any(t_arr < 0.0):
        raise DomainError("time must be >= 0")

    m, c, k, g = params.mass, params.damping, params.stiffness, params.gravity
    wn = params.natural_frequency
    wd = wn * math.sqrt(1.0 - zeta * zeta)
    x_eq = m * g / k

    # x = x_eq + exp(-zeta*wn*t) * (A cos(wd t) + B sin(wd t)),
    # with x(0) = 0 and x'(0) = v0
    A = -x_eq
    B = (v0 + zeta * wn * A) / wd

    decay = np.exp(-zeta * wn * t_arr)
    cos_t = np.cos(wd * t_arr)
    sin_t = np.sin(wd * t_arr)

    x = x_eq + decay * (A * cos_t + B * sin_t)
    v = decay * ((B * wd - zeta * wn * A) * cos_t - (A * wd + zeta * wn * B) * sin_t)
    a = g - (c * v + k * x) / m

    if np.isscalar(t) or t_arr.ndim == 0:
        return float(x), float(v), float(a)
    return x, v, a


def peak_acceleration(traj: Trajectory) -> PeakAcceleration:
    """Peak |a| and peak |a - g| (what an accelerometer registers) over a
    trajectory [m/s²], with the trajectory's g."""
    if len(traj) == 0:
        raise DomainError("trajectory is empty")
    raw = float(np.max(np.abs(traj.acceleration)))
    proper = float(np.max(np.abs(traj.acceleration - traj.gravity)))
    return PeakAcceleration(raw=raw, proper=proper)
