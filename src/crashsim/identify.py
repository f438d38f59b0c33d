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
and both bracket endpoints are one (66, A) call for A distinct altitudes,
and each golden-section step is one (1, A) call. It runs the chunk loop that
simulate_contact runs, on the same samples, but propagates the contacts
together and keeps no samples. A contact ends at its rebound or
collision, or as soon as its outcome and peak can no longer change: the
energy v**2/2 + w2*(x - x_eq)**2/2 never grows, so it bounds both the
compression and every later |a - g|; once the compression bound lies inside
the stroke and the acceleration bound below the peak so far, the contact
would run to max_time without a new peak (for a filter with
tan(pi*fc/fs) <= 1, whose output never exceeds its inputs and its last
output). The peaks are the full trajectories' peaks bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import DropScenario, ImpactParams, drop_peaks
from .errors import ConfigurationError, DegenerateDataError, DomainError

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


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
    if np.unique(deflections).size < 2:
        raise DegenerateDataError("static samples need at least 2 distinct deflections")
    return float(np.dot(forces, deflections) / np.dot(deflections, deflections))


def model_peak(params: ImpactParams, scenario: DropScenario,
               use_raw_peak: bool = False) -> float:
    """Model-predicted peak acceleration [m/s²] for one drop: the sensor-
    filtered peak of its contact (or raw |a| when requested)."""
    peaks, _ = drop_peaks(params, scenario, [params.damping],
                          [scenario.drop_altitude], use_raw_peak)
    return float(peaks[0, 0])


def _model_peaks(setup: FitSetup, dampings, altitudes) -> np.ndarray:
    """(B, A) model peaks [m/s²] of every (damping, altitude) pair."""
    peaks, _ = drop_peaks(setup.params, setup.scenario, dampings, altitudes,
                          setup.use_raw_peak)
    return peaks


def _mse(peaks: np.ndarray, measured: np.ndarray) -> float:
    return float(np.mean(np.square(peaks - measured)))


def _loss_columns(observations: list[PeakObservation]):
    """Distinct altitudes, each observation's column among them, and the
    measured peaks: model peaks for repeated altitudes are computed once."""
    if not observations:
        raise DomainError("observation list is empty")
    altitudes = sorted({o.drop_altitude for o in observations})
    column = {h: i for i, h in enumerate(altitudes)}
    return (altitudes, [column[o.drop_altitude] for o in observations],
            np.array([o.measured_peak for o in observations]))


def mse_loss(damping: float, setup: FitSetup,
             observations: list[PeakObservation]) -> float:
    """Mean squared error [(m/s²)²] between model peaks and measured peaks."""
    altitudes, columns, measured = _loss_columns(observations)
    return _mse(_model_peaks(setup, [damping], altitudes)[0, columns], measured)


def fit_damping(setup: FitSetup, observations: list[PeakObservation],
                bracket: tuple[float | None, float | None] | None = None,
                tolerance: float = 0.01) -> FitResult:
    """Minimize the peak-matching MSE over the damping coefficient.

    A 64-point log-spaced grid over the bracket locates the best cell, then
    golden-section search refines it to `tolerance` [N·s/m]. The bracket
    endpoints are also evaluated so the returned loss never exceeds either.
    Deterministic for fixed inputs. The default bracket is (0, 5*c_crit];
    an end given as None takes its default.
    """
    altitudes, columns, measured = _loss_columns(observations)
    c_low, c_high = bracket if bracket is not None else (None, None)
    c_low = 0.0 if c_low is None else float(c_low)
    c_high = 5.0 * setup.params.critical_damping if c_high is None else float(c_high)
    if not (math.isfinite(c_low) and math.isfinite(c_high)
            and 0.0 <= c_low < c_high):
        raise ConfigurationError(f"invalid damping bracket {(c_low, c_high)!r}")
    if not (math.isfinite(tolerance) and tolerance > 0.0):
        raise ConfigurationError(f"tolerance must be > 0, got {tolerance}")

    def losses(dampings) -> list[float]:
        peaks = _model_peaks(setup, dampings, altitudes)
        return [_mse(row[columns], measured) for row in peaks]

    def loss(c: float) -> float:
        return losses([c])[0]

    # coarse scan: log-spaced grid above c_low (log spacing needs a positive
    # start), evaluated in one batch with both endpoints
    eps = min(max(1e-3, 1e-6 * (c_high - c_low)), 0.5 * (c_high - c_low))
    grid = np.geomspace(c_low + eps, c_high, 64)
    scan = losses([*grid, c_low, c_high])
    grid_losses = scan[:len(grid)]
    evaluations = len(scan)

    best_c = float(grid[int(np.argmin(grid_losses))])
    best_f = float(min(grid_losses))

    # endpoints, so the result provably beats both
    for c_end, f_end in zip((c_low, c_high), scan[len(grid):]):
        if f_end < best_f:
            best_c, best_f = c_end, f_end

    # golden-section refinement inside the bracketing grid cell
    i = int(np.argmin(grid_losses))
    a = float(grid[max(i - 1, 0)])
    b = float(grid[min(i + 1, len(grid) - 1)])
    if i == 0:
        a = c_low
    x1 = b - INV_PHI * (b - a)
    x2 = a + INV_PHI * (b - a)
    f1, f2 = losses([x1, x2])
    evaluations += 2
    if f1 < best_f:
        best_c, best_f = x1, f1
    if f2 < best_f:
        best_c, best_f = x2, f2
    while b - a > tolerance:
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - INV_PHI * (b - a)
            f1 = loss(x1)
            evaluations += 1
            if f1 < best_f:
                best_c, best_f = x1, f1
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + INV_PHI * (b - a)
            f2 = loss(x2)
            evaluations += 1
            if f2 < best_f:
                best_c, best_f = x2, f2

    margin = 2.0 * max(tolerance, eps)
    at_boundary = (best_c - c_low) <= margin or (c_high - best_c) <= margin
    return FitResult(damping=best_c, loss=best_f, evaluations=evaluations,
                     bracket=(c_low, c_high), at_boundary=at_boundary)
