"""crashsim: lumped mass-spring-damper toolkit for drone crash landings.

Forward contact simulation with an analytic oracle, accelerometer-bandwidth
modeling, impact-energy partitioning with altitude extrapolation, and damping
identification from drop-test peak data.
"""

from .dynamics import (
    STANDARD_GRAVITY,
    DropScenario,
    ImpactParams,
    PeakAcceleration,
    Termination,
    Trajectory,
    analytic_solution,
    drop_peaks,
    impact_velocity,
    peak_acceleration,
    simulate_contact,
    simulate_impact,
)
from .energy import (
    EnergyBreakdown,
    altitude_energy_ratio,
    collision_threshold_altitude,
    energy_distribution_curve,
    energy_partition,
)
from .errors import (
    ConfigurationError,
    CrashSimError,
    DegenerateDataError,
    DomainError,
    NumericalError,
    UnsupportedRegimeError,
)
from .identify import (
    FitResult,
    FitSetup,
    PeakObservation,
    StaticDeflectionSample,
    estimate_stiffness,
    fit_damping,
    model_peak,
    mse_loss,
)
from .sensor import (
    SignalTrace,
    filtered_peak,
    filtered_series,
    lowpass_filter,
)

__version__ = "0.1.0"

__all__ = [
    "STANDARD_GRAVITY",
    "ConfigurationError",
    "CrashSimError",
    "DegenerateDataError",
    "DomainError",
    "DropScenario",
    "EnergyBreakdown",
    "FitResult",
    "FitSetup",
    "ImpactParams",
    "NumericalError",
    "PeakAcceleration",
    "PeakObservation",
    "SignalTrace",
    "StaticDeflectionSample",
    "Termination",
    "Trajectory",
    "UnsupportedRegimeError",
    "altitude_energy_ratio",
    "analytic_solution",
    "collision_threshold_altitude",
    "drop_peaks",
    "energy_distribution_curve",
    "energy_partition",
    "estimate_stiffness",
    "filtered_peak",
    "filtered_series",
    "fit_damping",
    "impact_velocity",
    "lowpass_filter",
    "model_peak",
    "mse_loss",
    "peak_acceleration",
    "simulate_contact",
    "simulate_impact",
]
