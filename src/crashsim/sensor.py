"""Accelerometer bandwidth model: first-order Butterworth low-pass.

The sensor sees the specific-force magnitude |a - g| of the payload; its
limited bandwidth is modeled as H(s) = w_c / (s + w_c) with w_c = 2*pi*fc,
discretized by the bilinear transform with frequency pre-warping so the
-3 dB point lands exactly on fc. The filter state is warm-started at the
first input value: the physical sensor is already tracking the signal when
contact begins, so a constant input passes through unchanged from sample 0.

Filtering is applied to the magnitude signal |a - g| rather than the signed
acceleration; for the unimodal contact pulse the difference is negligible.

Every reader takes the cutoff [Hz] and nothing else: the sample rate comes
from the trace or trajectory it reads, and g from the trajectory. All of
them filter through _lowpass, which checks the cutoff against that rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .dynamics import Trajectory
from .errors import ConfigurationError, DomainError


@dataclass(frozen=True)
class SignalTrace:
    """Uniformly sampled acceleration signal [m/s²]."""

    sample_rate: float
    values: np.ndarray

    def __post_init__(self):
        if not (math.isfinite(self.sample_rate) and self.sample_rate > 0.0):
            raise DomainError(f"sample_rate must be > 0, got {self.sample_rate}")
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1:
            raise DomainError(f"values must be one-dimensional, got shape {values.shape}")
        if values.size and not np.all(np.isfinite(values)):
            raise DomainError("signal values must all be finite")
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.values.shape[0]


def _lowpass(what: str, sample_rate: float, values: np.ndarray, cutoff: float,
             last_step: float | None = None) -> np.ndarray:
    """_kernels.lowpass of the samples of `what` at sample_rate through the
    low-pass at cutoff [Hz], which must be finite, > 0 and below half the
    sample rate; the final transition spans last_step [s], else one period."""
    if not (math.isfinite(cutoff) and cutoff > 0.0):
        raise ConfigurationError(f"cutoff must be > 0, got {cutoff}")
    if not sample_rate > 2.0 * cutoff:
        raise ConfigurationError(f"{what} sample rate {sample_rate} Hz must exceed "
                                 f"twice the cutoff ({2.0 * cutoff} Hz)")
    if len(values) == 0:
        raise ConfigurationError(f"cannot filter an empty {what}")
    k_mid = _kernels.prewarped_gain(cutoff, 1.0 / sample_rate)
    k_last = k_mid if last_step is None else _kernels.prewarped_gain(cutoff, last_step)
    return _kernels.lowpass(values, k_mid, k_last)


def lowpass_filter(trace: SignalTrace, cutoff: float) -> SignalTrace:
    """Apply the discretized low-pass at cutoff [Hz] to a trace, at the
    trace's sample rate; output length equals input."""
    return SignalTrace(trace.sample_rate,
                       _lowpass("trace", trace.sample_rate, trace.values, cutoff))


def filtered_series(traj: Trajectory, cutoff: float) -> np.ndarray:
    """Low-pass-filtered specific-force magnitude |a - g| along a trajectory,
    at its sample rate and gravity, through the low-pass at cutoff [Hz].

    The final sample of an event-terminated trajectory sits on a partial
    step; the filter advances over it with a coefficient matched to the
    actual step length.
    """
    last_step = float(traj.time[-1] - traj.time[-2]) if len(traj) >= 2 else None
    return _lowpass("trajectory", traj.sample_rate, np.abs(traj.acceleration - traj.gravity),
                    cutoff, last_step)


def filtered_peak(traj: Trajectory, cutoff: float) -> float:
    """Peak of the filtered specific-force signal [m/s²] - the sensor-side
    counterpart of peak_acceleration().proper."""
    return float(np.max(np.abs(filtered_series(traj, cutoff))))
