"""Closed-form oracles for checking crashsim's outputs.

Written from the contact ODE alone, m*x'' + c*x' + k*x = m*g with x(0) = 0
and x'(0) = v0, and sharing no code with the package under test. The motion
and its first peak cover every damping ratio (underdamped, critical and
overdamped).
"""

from __future__ import annotations

import math

import numpy as np

# damping ratios this close to 1 use the critical form, whose error there is
# O(|zeta - 1|); the overdamped form loses precision as its roots merge
CRITICAL_BAND = 1e-9


def motion(m: float, c: float, k: float, g: float, v0: float, t):
    """Compression x(t) [m] and velocity v(t) [m/s] of the unclipped contact."""
    t = np.asarray(t, dtype=np.float64)
    wn = math.sqrt(k / m)
    zeta = c / (2.0 * math.sqrt(k * m))
    x_eq = m * g / k
    y0 = -x_eq  # start offset from the static equilibrium
    if zeta < 1.0 - CRITICAL_BAND:
        sigma = zeta * wn
        wd = wn * math.sqrt(1.0 - zeta * zeta)
        b = (v0 + sigma * y0) / wd
        decay = np.exp(-sigma * t)
        cos, sin = np.cos(wd * t), np.sin(wd * t)
        y = decay * (y0 * cos + b * sin)
        v = decay * (v0 * cos - (y0 * wd + sigma * b) * sin)
    elif zeta <= 1.0 + CRITICAL_BAND:
        slope = v0 + wn * y0
        decay = np.exp(-wn * t)
        y = (y0 + slope * t) * decay
        v = (slope - wn * (y0 + slope * t)) * decay
    else:
        root = wn * math.sqrt(zeta * zeta - 1.0)
        r1, r2 = -zeta * wn + root, -zeta * wn - root
        c1 = (v0 - r2 * y0) / (r1 - r2)
        c2 = y0 - c1
        e1, e2 = np.exp(r1 * t), np.exp(r2 * t)
        y = c1 * e1 + c2 * e2
        v = r1 * c1 * e1 + r2 * c2 * e2
    return x_eq + y, v


def first_peak_time(m: float, c: float, k: float, g: float, v0: float) -> float:
    """Time [s] of the first velocity zero, the maximum compression."""
    wn = math.sqrt(k / m)
    zeta = c / (2.0 * math.sqrt(k * m))
    y0 = -m * g / k
    if zeta < 1.0 - CRITICAL_BAND:
        sigma = zeta * wn
        wd = wn * math.sqrt(1.0 - zeta * zeta)
        b = (v0 + sigma * y0) / wd
        # v(t) is proportional to v0*cos(wd t) - q*sin(wd t)
        q = y0 * wd + sigma * b
        return math.atan2(v0, q) / wd
    if zeta <= 1.0 + CRITICAL_BAND:
        return 1.0 / wn - y0 / (v0 + wn * y0)
    root = wn * math.sqrt(zeta * zeta - 1.0)
    r1, r2 = -zeta * wn + root, -zeta * wn - root
    c1 = (v0 - r2 * y0) / (r1 - r2)
    c2 = y0 - c1
    return math.log(-r2 * c2 / (r1 * c1)) / (r1 - r2)


def peak_compression(m: float, c: float, k: float, g: float, drop_altitude: float) -> float:
    """Unclipped maximum compression [m] of a drop from `drop_altitude` [m]."""
    v0 = math.sqrt(2.0 * g * drop_altitude)
    if v0 == 0.0:
        return 0.0
    x, _ = motion(m, c, k, g, v0, first_peak_time(m, c, k, g, v0))
    return float(x)


def stroke_crossing_time(m: float, c: float, k: float, g: float, v0: float,
                         clearance: float) -> float:
    """First time [s] the compression reaches `clearance`; the caller has
    checked that the peak does."""
    lo, hi = 0.0, first_peak_time(m, c, k, g, v0)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if float(motion(m, c, k, g, v0, mid)[0]) >= clearance:
            hi = mid
        else:
            lo = mid
    return hi


def outcome(m: float, c: float, k: float, g: float, v0: float, clearance: float,
            max_time: float) -> tuple[str, float]:
    """How the clipped contact ends: "collision" if the first peak reaches
    `clearance`, else "rebound" if the motion comes back through 0 before
    `max_time`, else "max_time_reached". Also returns the margin [m] by which
    the deciding extremes clear their levels; near 0 the outcome is a graze
    that sampling may resolve either way.

    After the first peak the compression falls to the first trough, half a
    damped period later, and every later trough is higher; without
    oscillation (zeta >= 1) it falls monotonically towards m*g/k > 0.
    """
    t1 = first_peak_time(m, c, k, g, v0)
    peak = float(motion(m, c, k, g, v0, t1)[0])
    if peak >= clearance:
        return "collision", peak - clearance
    zeta = c / (2.0 * math.sqrt(k * m))
    t2 = max_time
    if zeta < 1.0 - CRITICAL_BAND:
        wd = math.sqrt(k / m) * math.sqrt(1.0 - zeta * zeta)
        t2 = min(t1 + math.pi / wd, max_time)
    trough = float(motion(m, c, k, g, v0, t2)[0])
    if trough <= 0.0:
        return "rebound", min(clearance - peak, -trough)
    return "max_time_reached", min(clearance - peak, trough)


def lowpass(values: np.ndarray, cutoff: float, sample_rate: float,
            last_step: float) -> np.ndarray:
    """First-order Butterworth low-pass by the pre-warped bilinear transform,
    state warm-started at values[0]; the final transition spans `last_step`
    seconds instead of 1/sample_rate."""
    out = np.empty_like(values)
    x_prev = y_prev = float(values[0])
    n = len(values)
    w = math.tan(math.pi * cutoff / sample_rate)
    for i, x in enumerate(values.tolist()):
        if i == n - 1:
            w = math.tan(math.pi * cutoff * last_step)
        y = (w * (x + x_prev) + (1.0 - w) * y_prev) / (1.0 + w)
        out[i] = y
        x_prev, y_prev = x, y
    return out
