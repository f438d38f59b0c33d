"""An independent oracle for the damping regimes analytic_solution refuses.

analytic_solution covers zeta < 1 only. Here scipy's DOP853 integrates the
contact ODE m*x'' + c*x' + k*x = m*g with terminal events at the stroke and
at x = 0 after compression, for zeta = 1 exactly, 1 + 1e-8, 3 and 30, and
for the full contacts of zeta = 0, 0.3, the reference 0.56 and 1 - 1e-8 too,
at altitudes on both sides of each frame's collision threshold. The same
integration without the stroke, up to the first v = 0, checks the closed-form
first peak for zeta = 0, 0.3, the reference 0.56, 1 - 1e-8, 1, 1 + 1e-8, 3
and 30, and, with the damper energy integral of c*v**2 as a third state, the
damper energy of every sample for zeta = 0, 0.3, 1 - 1e-8, 1, 1 + 1e-8, 3 and
30. Nothing in the oracle uses the package's propagator: it sees only the
model constants, and this file does not import crashsim._kernels.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crashsim import (
    DropScenario,
    ImpactParams,
    Termination,
    collision_threshold_altitude,
    drop_peaks,
    peak_acceleration,
    simulate_contact,
    simulate_impact,
)
from crashsim.dynamics import MAX_TIME_S
from crashsim.energy import THRESHOLD_CAP_M, first_peak
from test_kernels import lowpass_loop

integrate = pytest.importorskip("scipy.integrate")
optimize = pytest.importorskip("scipy.optimize")

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
# 1378 m; then 0.365 m at zeta 0, 0.824 m at zeta 0.3, 1.397 m for the
# reference zeta 0.56 and 3.83 m at zeta 1 - 1e-8); 400 N*s/m is exactly
# critical for the 1 kg, 40 000 N/m frame
CASES = [
    ((1.0, 400.0, 40000.0), (3.0, 4.8)),
    ((1.0, 400.0 * (1.0 + 1e-8), 40000.0), (3.0, 4.8)),
    ((0.241, 3.0 * C_REFERENCE, 7040.0), (12.5, 20.0)),
    ((0.241, 30.0 * C_REFERENCE, 7040.0), (1100.0, 1750.0)),
    ((0.241, 0.0, 7040.0), (0.2, 0.5)),
    ((0.241, 0.3 * C_REFERENCE, 7040.0), (0.5, 1.2)),
    ((0.241, 46.0, 7040.0), (1.0, 2.0)),
    ((1.0, 400.0 * (1.0 - 1e-8), 40000.0), (3.0, 4.8)),
]


def contact_solution(params: ImpactParams, scenario: DropScenario, damper_energy=False,
                     until_turn=False):
    """Termination and DOP853 solution of the contact, with terminal events
    at the stroke and at x = 0 after compression; with damper_energy, the
    integral of c*v**2 dt rides along as a third state; with until_turn, the
    contact also ends at its first turning point (v = 0 after compression),
    where it reads max_time.

    The stroke and lift-off events see only a sign change of x between
    step ends, so a peak that passes the stroke, or a dip that passes zero,
    and turns back within one step raises none. The first turning point and
    the first dip (v = 0 upward) are events too: where x at the turning
    point reaches the stroke the contact collides, where x at the dip is at
    most 0 it rebounds, and the solution ends at the crossing before it,
    found on the dense output. Later peaks are no higher and later dips no
    lower, since the energy about x_eq never grows."""
    m, c, k, g = params.mass, params.damping, params.stiffness, params.gravity
    clearance = scenario.clearance

    def stroke(t, y):
        return y[0] - clearance

    def lift_off(t, y):
        return y[0]

    def turn(t, y):
        return y[1]

    def dip(t, y):
        return y[1]

    def rhs(t, y):
        a = g - (c * y[1] + k * y[0]) / m
        return (y[1], a, c * y[1] * y[1]) if damper_energy else (y[1], a)

    stroke.terminal, stroke.direction = True, 1.0
    lift_off.terminal, lift_off.direction = True, -1.0
    turn.terminal, turn.direction = until_turn, -1.0
    dip.terminal, dip.direction = False, 1.0
    v0 = math.sqrt(2.0 * g * scenario.drop_altitude)
    y0 = (0.0, v0, 0.0) if damper_energy else (0.0, v0)
    sol = integrate.solve_ivp(rhs, (0.0, MAX_TIME_S), y0, method="DOP853", rtol=RTOL,
                              atol=ATOL, events=(stroke, lift_off, turn, dip), dense_output=True)
    assert sol.success and sol.t.size < MAX_STEPS

    def end_before(wall, t_event):
        """sol, ended at the crossing of wall between the last step end
        before t_event, which lies on the near side, and t_event."""
        t_hit = optimize.brentq(lambda t: wall(t, sol.sol(t)), sol.t[sol.t < t_event][-1],
                                t_event)
        before = sol.t < t_hit
        sol.t = np.append(sol.t[before], t_hit)
        sol.y = np.column_stack((sol.y[:, before], sol.sol(t_hit)))
        return sol

    if sol.t_events[0].size:
        return Termination.COLLISION, sol
    if sol.t_events[2].size and sol.y_events[2][0][0] >= clearance:
        return Termination.COLLISION, end_before(stroke, sol.t_events[2][0])
    if sol.t_events[1].size:
        return Termination.REBOUND, sol
    if sol.t_events[3].size and sol.y_events[3][0][0] <= 0.0:
        return Termination.REBOUND, end_before(lift_off, sol.t_events[3][0])
    return Termination.MAX_TIME, sol


def oracle(params: ImpactParams, scenario: DropScenario):
    """Termination, sample times and (x, a) at them, integrated by DOP853."""
    m, c, k, g = params.mass, params.damping, params.stiffness, params.gravity
    termination, sol = contact_solution(params, scenario)
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


# an undamped frame whose drops from just above its threshold peak 1.2 nm to
# 0.2 um past the 50 mm stroke, between two of DOP853's step ends
@pytest.mark.parametrize("excess", [6.2e-8, 1e-6, 1e-5])
def test_stroke_passed_within_one_step_collides(excess):
    params = ImpactParams(1.0, 0.0, 1097.0)
    threshold = collision_threshold_altitude(params, DropScenario(0.0, clearance=0.05))
    scenario = DropScenario(threshold * (1.0 + excess), clearance=0.05)
    termination, sol = contact_solution(params, scenario)
    traj = simulate_contact(params, scenario)
    assert termination is traj.termination is Termination.COLLISION
    x, v = sol.sol(sol.t[-1])
    assert abs(x - 0.05) <= TOL * 0.05
    assert abs(traj.time[-1] - sol.t[-1]) <= TOL * 0.05 / abs(v)


# a frame whose first dip, 0.1535 s into the 2 cm drop, reaches just below
# zero between two of DOP853's step ends
def test_dip_passed_within_one_step_rebounds():
    stiffness = 1097.0
    zeta = 0.15462296650433585 * (1.0 - 1e-6)
    params = ImpactParams(1.0, zeta * 2.0 * math.sqrt(stiffness), stiffness)
    scenario = DropScenario(0.02, clearance=0.5)
    termination, sol = contact_solution(params, scenario)
    traj = simulate_contact(params, scenario)
    assert termination is traj.termination is Termination.REBOUND
    x, v = sol.sol(sol.t[-1])
    x_scale = traj.max_compression
    assert abs(x) <= TOL * x_scale
    assert abs(traj.time[-1] - sol.t[-1]) <= TOL * x_scale / abs(v)


def oracle_first_peak(params: ImpactParams, v0: float) -> float:
    """Compression at the first v = 0 of the unclipped contact, or at
    MAX_TIME_S when v stays positive up to it, integrated by DOP853."""
    m, c, k, g = params.mass, params.damping, params.stiffness, params.gravity

    def turn(t, y):
        return y[1]

    turn.terminal, turn.direction = True, -1.0
    sol = integrate.solve_ivp(lambda t, y: (y[1], g - (c * y[1] + k * y[0]) / m),
                              (0.0, MAX_TIME_S), (0.0, v0), method="DOP853",
                              rtol=RTOL, atol=ATOL, events=turn)
    assert sol.success and sol.t.size < MAX_STEPS
    return float(sol.y_events[0][0][0]) if sol.t_events[0].size else float(sol.y[0, -1])


# The threshold h* is a float altitude whose first peak P reaches the stroke
# s while the float below it does not, so P(h*) lies within rounding of s.
# The contact from v0 is x(t) = x_g(t) + v0*p01(t), x_g the contact from
# rest, and p01 > 0 while v > 0: raising v0 from v to v' raises P by at
# least (v'/v - 1)*(P(v) - x_g_max), x_g_max the largest x_g within the
# horizon. For eps <= 1, the drop from h*(1 + eps) is faster by a factor of
# at least 1 + 3*eps/8, and the one from h* faster than the one from
# h*(1 - eps) by at least 1 + eps/2. So with eps = 4*TOL*s/(s - x_g_max) the
# first peaks at least 1.5*TOL*s above s, and a drop from h*(1 - eps) that
# the oracle saw collide (P >= s - TOL*s) would put P(h*) about TOL*s above
# s. TOL bounds the oracle's error; the package's first peak is exact to
# rounding.
@settings(max_examples=60, deadline=None)
@given(mass=st.floats(math.log(0.03), math.log(3.0)).map(math.exp),
       stiffness=st.floats(math.log(1e3), math.log(3e4)).map(math.exp),
       zeta=st.sampled_from([0.0, 0.3, 1.0 - 1e-8, 1.0, 1.0 + 1e-8, 3.0, 30.0])
       | st.floats(math.log(0.01), math.log(10.0)).map(math.exp),
       sample_rate=st.sampled_from([5000.0, 20000.0, 100000.0]),
       stroke=st.sampled_from([0.003, 0.016, 0.05]))
def test_threshold_brackets_the_oracle_outcome(mass, stiffness, zeta, sample_rate, stroke):
    params = ImpactParams(mass, zeta * 2.0 * math.sqrt(stiffness * mass), stiffness)
    scenario = DropScenario(0.0, clearance=stroke, sample_rate=sample_rate)
    threshold = collision_threshold_altitude(params, scenario)

    def collides(altitude):
        termination, _ = contact_solution(params, DropScenario(
            altitude, clearance=stroke, sample_rate=sample_rate), until_turn=True)
        return termination is Termination.COLLISION

    # from rest x_g overshoots x_eq by at most exp(-pi*zeta/sqrt(1 - zeta**2))
    # x_eq, and not at all from zeta = 1; past the stroke, integrate it
    x_eq = mass * params.gravity / stiffness
    x_g_max = x_eq * (1.0 + (math.exp(-math.pi * zeta / math.sqrt(1.0 - zeta * zeta))
                             if zeta < 1.0 else 0.0))
    if x_g_max >= stroke:
        x_g_max = oracle_first_peak(params, 0.0)
    if x_g_max >= stroke * (1.0 + TOL):
        # even the slowest drop reaches the stroke
        assert threshold == 5e-324 and collides(threshold)
        return
    eps = 4.0 * TOL * stroke / (stroke - x_g_max)
    assume(eps <= 1.0)
    if threshold == math.inf:
        assert not collides(THRESHOLD_CAP_M * (1.0 - eps))
    else:
        assert collides(threshold * (1.0 + eps)) and not collides(threshold * (1.0 - eps))


# (mass, damping, stiffness) and altitudes [m]; from zeta 1 - 1e-8 up, each
# frame includes a drop too slow to turn before the horizon, v staying
# positive while x creeps up towards m*g/k (below 1.2e-4 m near zeta 1,
# 6 mm at zeta 3 and 0.6 m at zeta 30); the soft 2 N/m frame first turns at
# 1.9 s, after the horizon
FIRST_PEAK_CASES = [
    ((1.0, 0.0, 2.0), (0.5,)),
    ((0.241, 0.0, 7040.0), (0.5, 20.0)),
    ((0.241, 0.3 * C_REFERENCE, 7040.0), (0.5, 20.0)),
    ((1.0, 400.0 * (1.0 - 1e-8), 40000.0), (1e-5, 3.0, 4.8)),
    ((1.0, 400.0, 40000.0), (1e-5, 3.0, 4.8)),
    ((1.0, 400.0 * (1.0 + 1e-8), 40000.0), (1e-5, 3.0, 4.8)),
    ((0.241, 3.0 * C_REFERENCE, 7040.0), (0.001, 12.5, 20.0)),
    ((0.241, 30.0 * C_REFERENCE, 7040.0), (0.3, 1100.0, 1750.0)),
]


@pytest.mark.parametrize("frame,altitudes", FIRST_PEAK_CASES)
def test_first_peak_matches_oracle(frame, altitudes):
    params = ImpactParams(*frame)
    for altitude in altitudes:
        v0 = math.sqrt(2.0 * params.gravity * altitude)
        expected = oracle_first_peak(params, v0)
        assert abs(first_peak(params, v0, MAX_TIME_S) - expected) <= TOL * expected


# criterion 2's unclipped peaks of the reference frame (46 N*s/m, zeta 0.56)
@pytest.mark.parametrize("altitude,peak_mm", [(0.5, 9.63), (1.0, 13.56), (1.5, 16.57),
                                              (20.0, 60.13)])
def test_reference_first_peaks(altitude, peak_mm):
    params = ImpactParams(0.241, 46.0, 7040.0)
    v0 = math.sqrt(2.0 * params.gravity * altitude)
    peak = first_peak(params, v0, MAX_TIME_S)
    assert abs(peak - oracle_first_peak(params, v0)) <= TOL * peak
    assert round(peak * 1000.0, 2) == peak_mm


# (mass, damping, stiffness) and an altitude below and above the frame's
# collision threshold with the 16 mm stroke: 0.365 m at zeta 0, 0.824 m at
# zeta 0.3, 3.83 m around zeta 1, 16.0 m at zeta 3 and 1378 m at zeta 30
DAMPER_ENERGY_CASES = [
    ((0.241, 0.0, 7040.0), (0.2, 0.5)),
    ((0.241, 0.3 * C_REFERENCE, 7040.0), (0.5, 1.2)),
    ((1.0, 400.0 * (1.0 - 1e-8), 40000.0), (3.0, 4.8)),
    ((1.0, 400.0, 40000.0), (3.0, 4.8)),
    ((1.0, 400.0 * (1.0 + 1e-8), 40000.0), (3.0, 4.8)),
    ((0.241, 3.0 * C_REFERENCE, 7040.0), (12.5, 20.0)),
    ((0.241, 30.0 * C_REFERENCE, 7040.0), (1100.0, 1750.0)),
]


@pytest.mark.parametrize("frame,altitudes", DAMPER_ENERGY_CASES)
def test_damper_energy_matches_oracle(frame, altitudes):
    # The oracle's E has two errors. Its own local errors sum to at most
    # TOL*E_max, as for every state. Its velocity is off by at most
    # TOL*v_max, which the integrand c*v**2 turns into at most
    # integral of 2c*|v|*TOL*v_max dt <= 2*sqrt(E_max*c*t_end)*TOL*v_max
    # (Cauchy-Schwarz). The package's E is exact up to rounding, and both are
    # read at the package's own sample times.
    params = ImpactParams(*frame)
    c = params.damping
    outcomes = set()
    for altitude in altitudes:
        scenario = DropScenario(altitude, sensor_cutoff=CUTOFF, sample_rate=SAMPLE_RATE)
        termination, sol = contact_solution(params, scenario, damper_energy=True)
        outcomes.add(termination)
        t_end = float(sol.t[-1])

        traj = simulate_impact(params, math.sqrt(2.0 * params.gravity * altitude), scenario)
        assert traj.termination is termination
        assert len(traj) == math.ceil(t_end * SAMPLE_RATE) + 1
        _, v, expected = sol.sol(traj.time)
        e_max = float(np.max(expected))
        v_max = float(np.max(np.abs(v)))
        tol = TOL * (e_max + 2.0 * math.sqrt(e_max * c * t_end) * v_max)
        assert np.max(np.abs(traj.damper_energy - expected)) <= tol
        if c == 0.0:
            assert not np.any(traj.damper_energy)
    assert Termination.COLLISION in outcomes and len(outcomes) == 2
