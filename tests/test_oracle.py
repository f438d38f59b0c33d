"""An independent oracle for the damping regimes analytic_solution refuses.

analytic_solution covers zeta < 1 only. Here scipy's DOP853 integrates the
contact ODE m*x'' + c*x' + k*x = m*g with terminal events at the stroke and
at x = 0 after compression, for zeta = 1 exactly, 1 + 1e-8, 3 and 30, at
altitudes on both sides of each frame's collision threshold. Nothing here
uses the package's propagator: the oracle sees only the model constants.
"""

import math

import numpy as np
import pytest

from crashsim import (
    DropScenario,
    ImpactParams,
    Termination,
    drop_peaks,
    peak_acceleration,
    simulate_contact,
)
from crashsim.dynamics import MAX_TIME_S
from test_kernels import lowpass_loop

integrate = pytest.importorskip("scipy.integrate")

# DOP853 keeps each step's local error below RTOL*|y| + ATOL, ATOL far below
# every state's scale, and its dense output is of the same order. The flow
# never grows the energy norm, so an error made in one step does not grow in
# later ones, and after N steps the global error is at most N local errors.
# With N below MAX_STEPS, every compared quantity agrees to TOL relative to
# its largest value over the contact; an event time agrees to TOL times the
# largest compression over the speed at the event, its error in x over v.
RTOL, ATOL = 1e-12, 1e-15
MAX_STEPS = 10_000
TOL = MAX_STEPS * RTOL

CUTOFF = 500.0
SAMPLE_RATE = 20000.0
C_REFERENCE = 2.0 * math.sqrt(0.241 * 7040.0)

# (mass, damping, stiffness) and an altitude below and above the frame's
# collision threshold with the 16 mm stroke (3.83 m, 3.83 m, 16.0 m and
# 1378 m); 400 N*s/m is exactly critical for the 1 kg, 40 000 N/m frame
CASES = [
    ((1.0, 400.0, 40000.0), (3.0, 4.8)),
    ((1.0, 400.0 * (1.0 + 1e-8), 40000.0), (3.0, 4.8)),
    ((0.241, 3.0 * C_REFERENCE, 7040.0), (12.5, 20.0)),
    ((0.241, 30.0 * C_REFERENCE, 7040.0), (1100.0, 1750.0)),
]


def oracle(params: ImpactParams, scenario: DropScenario):
    """Termination, sample times and (x, a) at them, integrated by DOP853."""
    m, c, k, g = params.mass, params.damping, params.stiffness, params.gravity
    clearance = scenario.clearance

    def stroke(t, y):
        return y[0] - clearance

    def lift_off(t, y):
        return y[0]

    stroke.terminal, stroke.direction = True, 1.0
    lift_off.terminal, lift_off.direction = True, -1.0
    v0 = math.sqrt(2.0 * g * scenario.drop_altitude)
    sol = integrate.solve_ivp(lambda t, y: (y[1], g - (c * y[1] + k * y[0]) / m),
                              (0.0, MAX_TIME_S), (0.0, v0), method="DOP853",
                              rtol=RTOL, atol=ATOL, events=(stroke, lift_off),
                              dense_output=True)
    assert sol.success and sol.t.size < MAX_STEPS
    if sol.t_events[0].size:
        termination = Termination.COLLISION
    elif sol.t_events[1].size:
        termination = Termination.REBOUND
    else:
        termination = Termination.MAX_TIME
    t_end = float(sol.t[-1])
    period = 1.0 / scenario.sample_rate
    t = np.append(period * np.arange(math.ceil(t_end / period)), t_end)
    x, v = sol.sol(t)
    return termination, t, x, v, g - (c * v + k * x) / m


@pytest.mark.parametrize("frame,altitudes", CASES)
def test_overdamped_and_critical_contacts_match_oracle(frame, altitudes):
    params = ImpactParams(*frame)
    outcomes = set()
    for altitude in altitudes:
        scenario = DropScenario(altitude, sensor_cutoff=CUTOFF, sample_rate=SAMPLE_RATE)
        termination, t, x, v, a = oracle(params, scenario)
        outcomes.add(termination)

        traj = simulate_contact(params, scenario)
        assert traj.termination is termination
        assert len(traj) == t.size
        x_scale = float(np.max(np.abs(x)))
        assert abs(traj.time[-1] - t[-1]) <= TOL * x_scale / max(abs(v[-1]), 1e-300)
        assert np.max(np.abs(traj.compression - x)) <= TOL * x_scale
        assert abs(traj.max_compression - float(np.max(x))) <= TOL * x_scale
        raw_peak = float(np.max(np.abs(a)))
        assert abs(peak_acceleration(traj).raw - raw_peak) <= TOL * raw_peak

        k_mid = math.tan(math.pi * CUTOFF / SAMPLE_RATE)
        k_last = math.tan(math.pi * CUTOFF * (t[-1] - t[-2]))
        filtered_peak = float(np.max(np.abs(lowpass_loop(np.abs(a - params.gravity),
                                                         k_mid, k_last))))
        for use_raw_peak, expected in ((True, raw_peak), (False, filtered_peak)):
            peaks, terminations = drop_peaks(params, scenario, [params.damping],
                                             [altitude], use_raw_peak)
            assert terminations[0, 0] is termination
            assert abs(peaks[0, 0] - expected) <= TOL * expected
    # the two altitudes straddle the collision threshold
    assert Termination.COLLISION in outcomes and len(outcomes) == 2
