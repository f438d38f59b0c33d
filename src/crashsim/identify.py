"""Parameter identification from drop-test and static-test data.

Stiffness comes from a static load-deflection test as the least-squares slope
through the origin. Damping comes from matching model-predicted peak
accelerations to measured ones: the loss is the mean squared error over all
drop observations, minimized in one dimension by a coarse log-spaced grid
scan followed by golden-section refinement of the best cell. The peaks
entering the loss are the sensor-filtered specific-force peaks by default
(that is what the accelerometer records); raw |a| peaks are available behind
a switch.

A FitSetup holds what the fit keeps fixed: one ImpactParams (its damping is
not used) and one DropScenario, each checked once, when it is built.

Model peaks come from one batched evaluator, dynamics.drop_peaks: the grid
(which ends on the upper bracket end) and the lower bracket end are one
(65, A) call for A distinct altitudes, and each golden-section step is one
(1, A) call; why its early-stopped peaks equal the full trajectories'
peaks is set out in _kernels.propagate_contacts and in README
"Performance". fit_damping records every (damping, loss) it evaluates, in
order, and returns the first least-loss entry of that record. The
golden-section search stops when its interval is no wider than the
tolerance, or when its two probes no longer lie strictly inside it, so it
always ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import DropScenario, ImpactParams, drop_peaks
from .errors import ConfigurationError, DegenerateDataError, DomainError, NumericalError

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
DAMPING_TOLERANCE = 0.01  # default absolute tolerance [N·s/m] of the fitted damping


@dataclass(frozen=True)
class PeakObservation:
    """One drop experiment reduced to (altitude [m], peak acceleration [m/s²])."""

    drop_altitude: float
    measured_peak: float
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "drop_altitude", float(self.drop_altitude))
        object.__setattr__(self, "measured_peak", float(self.measured_peak))
        if not (math.isfinite(self.drop_altitude) and self.drop_altitude > 0.0):
            raise DomainError(f"drop_altitude must be > 0, got {self.drop_altitude}")
        if not (math.isfinite(self.measured_peak) and self.measured_peak > 0.0):
            raise DomainError(f"measured_peak must be > 0 and finite, got {self.measured_peak}")


@dataclass(frozen=True)
class StaticDeflectionSample:
    """One point of the static deformation test: force [N] at deflection [m]."""

    force: float
    deflection: float

    def __post_init__(self):
        object.__setattr__(self, "force", float(self.force))
        object.__setattr__(self, "deflection", float(self.deflection))
        if not (math.isfinite(self.force) and self.force >= 0.0):
            raise DomainError(f"force must be >= 0, got {self.force}")
        if not (math.isfinite(self.deflection) and self.deflection >= 0.0):
            raise DomainError(f"deflection must be >= 0, got {self.deflection}")


@dataclass(frozen=True)
class FitSetup:
    """Everything held fixed while fitting the damping coefficient. The
    damping of `params` and the drop_altitude of `scenario` are not used."""

    params: ImpactParams
    scenario: DropScenario = field(default_factory=lambda: DropScenario(drop_altitude=0.0))
    use_raw_peak: bool = False


@dataclass(frozen=True)
class FitResult:
    """Fitted damping [N·s/m], its MSE loss [(m/s²)²], and search metadata."""

    damping: float
    loss: float
    evaluations: int
    bracket: tuple[float, float]
    at_boundary: bool


def estimate_stiffness(samples: list[StaticDeflectionSample]) -> float:
    """Least-squares slope of force vs. deflection constrained through the
    origin: k = sum(F*x) / sum(x^2) [N/m]."""
    if len(samples) < 2:
        raise DomainError(f"need at least 2 static samples, got {len(samples)}")
    deflections = np.array([s.deflection for s in samples])
    forces = np.array([s.force for s in samples])
    if deflections.min() == deflections.max():
        raise DegenerateDataError("static samples need at least 2 distinct deflections")
    return float(np.dot(forces, deflections) / np.dot(deflections, deflections))


def model_peak(params: ImpactParams, scenario: DropScenario,
               use_raw_peak: bool = False) -> float:
    """Model-predicted peak acceleration [m/s²] for one drop: the sensor-
    filtered peak of its contact (or raw |a| when requested)."""
    peaks, _ = drop_peaks(params, scenario, [params.damping],
                          [scenario.drop_altitude], use_raw_peak)
    return float(peaks[0, 0])


def _losses(setup: FitSetup, observations: list[PeakObservation]):
    """losses(dampings): the MSE [(m/s²)²] between model and measured peaks
    for each damping, from one batched drop_peaks call. Model peaks for
    repeated altitudes are computed once."""
    if not observations:
        raise DomainError("observation list is empty")
    altitudes = sorted({o.drop_altitude for o in observations})
    column = {h: i for i, h in enumerate(altitudes)}
    columns = [column[o.drop_altitude] for o in observations]
    measured = np.array([o.measured_peak for o in observations])

    def losses(dampings) -> list[float]:
        peaks, _ = drop_peaks(setup.params, setup.scenario, dampings, altitudes,
                              setup.use_raw_peak)
        with np.errstate(over="ignore"):  # a loss past the float range ranks last as inf
            values = [float(np.mean(np.square(row[columns] - measured))) for row in peaks]
        if nan := [c for c, value in zip(dampings, values) if math.isnan(value)]:
            raise NumericalError(f"the peak-matching loss is NaN at damping {nan[0]!r} N·s/m")
        return values

    return losses


def mse_loss(damping: float, setup: FitSetup,
             observations: list[PeakObservation]) -> float:
    """Mean squared error [(m/s²)²] between model peaks and measured peaks."""
    return _losses(setup, observations)([damping])[0]


def fit_damping(setup: FitSetup, observations: list[PeakObservation],
                bracket: tuple[float | None, float | None] | None = None,
                tolerance: float = DAMPING_TOLERANCE) -> FitResult:
    """Minimize the peak-matching MSE over the damping coefficient.

    A 64-point log-spaced grid over the bracket locates the best cell, then
    golden-section search refines it to `tolerance` [N·s/m]; the search also
    stops when its interval no longer shrinks, as happens once `tolerance`
    falls below the float spacing of the cell. The bracket endpoints are
    also evaluated so the returned loss never exceeds either. The result is
    the first least-loss damping evaluated; if even that loss overflows to
    inf, NumericalError is raised. Deterministic for fixed inputs.
    The default bracket is (0, 5*c_crit]; an end given as None takes its
    default.
    """
    losses = _losses(setup, observations)
    c_low, c_high = bracket if bracket is not None else (None, None)
    c_low = 0.0 if c_low is None else float(c_low)
    c_high = 5.0 * setup.params.critical_damping if c_high is None else float(c_high)
    if not (math.isfinite(c_low) and math.isfinite(c_high)
            and 0.0 <= c_low < c_high and c_low + 0.5 * (c_high - c_low) > 0.0):
        raise ConfigurationError(f"invalid damping bracket {(c_low, c_high)!r}")
    if not (math.isfinite(tolerance) and tolerance > 0.0):
        raise ConfigurationError(f"tolerance must be > 0, got {tolerance}")

    record = []  # every (damping, loss) evaluated, in order

    def evaluate(*dampings) -> list[float]:
        values = losses(dampings)
        record.extend(zip(dampings, values))
        return values

    # coarse scan: log-spaced grid from at most 1e-3*c_crit above c_low (log
    # spacing needs a positive start) and c_low in one batch; the grid ends on
    # c_high, recorded again in its place, so the result provably beats both ends
    offset = min(1e-6 * (c_high - c_low), 1e-3 * setup.params.critical_damping)
    eps = min(max(1e-3, offset), 0.5 * (c_high - c_low))
    with np.errstate(over="ignore"):  # 10**log10(c_high) may round past the float range
        grid = np.geomspace(c_low + eps, c_high, 64)  # whose ends geomspace then sets exactly
    values = evaluate(*grid.tolist(), c_low)
    record.append((c_high, values[len(grid) - 1]))
    i = int(np.argmin(values[:len(grid)]))

    # golden-section refinement inside the bracketing grid cell
    a = c_low if i == 0 else float(grid[i - 1])
    b = float(grid[min(i + 1, len(grid) - 1)])
    x1 = b - INV_PHI * (b - a)
    x2 = a + INV_PHI * (b - a)
    f1, f2 = evaluate(x1, x2)
    while b - a > tolerance and a < x1 < x2 < b:
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - INV_PHI * (b - a)
            f1 = evaluate(x1)[0]
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + INV_PHI * (b - a)
            f2 = evaluate(x2)[0]

    damping, loss = min(record, key=lambda entry: entry[1])
    if not math.isfinite(loss):  # every loss ties at inf: no damping is preferred
        raise NumericalError("the squared peak error overflows at every damping evaluated; "
                             "the measured peaks are too large to fit")
    margin = 2.0 * max(tolerance, eps)
    at_boundary = (damping - c_low) <= margin or (c_high - damping) <= margin
    return FitResult(damping=damping, loss=loss, evaluations=len(record),
                     bracket=(c_low, c_high), at_boundary=at_boundary)
