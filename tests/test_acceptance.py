"""Acceptance suite: one check per headline criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the report lines.
Criterion 2 is known-red: with the reference parameter set the smallest
colliding drop altitude is ~1.40 m, so the 150 cm case terminates in a
collision rather than a rebound (margin ~0.6 mm of compression stroke).
"""

import json
import math
import time

import numpy as np
import pytest

from crashsim import (
    DropScenario,
    ImpactParams,
    SignalTrace,
    StaticDeflectionSample,
    Termination,
    altitude_energy_ratio,
    analytic_solution,
    energy_partition,
    estimate_stiffness,
    impact_velocity,
    lowpass_filter,
    simulate_contact,
)
from crashsim.cli import main as cli_main
from crashsim.energy import stroke_margin

REFERENCE = ImpactParams(mass=0.241, damping=46.0, stiffness=7040.0)


def report(number: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    # one drop and one filter first, so runtime budgets leave out first-call costs
    simulate_contact(REFERENCE, DropScenario(0.5))
    lowpass_filter(SignalTrace(20000.0, np.zeros(4)), 500.0)


def test_criterion_1_impact_velocity():
    v = impact_velocity(2.62)
    ok = abs(v - 7.17) <= 0.01
    assert report(1, ok, f"impact_velocity(2.62 m) = {v:.4f} m/s (7.17 +/- 0.01)")


def test_criterion_2_regime_reproduction():
    started = time.monotonic()
    expected = {0.5: Termination.REBOUND, 1.0: Termination.REBOUND,
                1.5: Termination.REBOUND, 20.0: Termination.COLLISION}
    mismatches = []
    for altitude, want in expected.items():
        scenario = DropScenario(altitude)
        traj = simulate_contact(REFERENCE, scenario)
        if traj.termination is not want:
            # the closed-form first peak, which holds for every damping ratio
            peak_free = scenario.clearance - stroke_margin(REFERENCE, scenario)
            mismatches.append(
                f"h={altitude:g} m: expected {want.value}, got "
                f"{traj.termination.value} (unclipped compression peak "
                f"{peak_free * 1000:.2f} mm vs 16 mm stroke)")
    elapsed = time.monotonic() - started
    ok = not mismatches and elapsed < 1.0
    detail = (f"regimes over {{50,100,150,2000}} cm in {elapsed:.2f} s"
              if ok else "; ".join(mismatches))
    assert report(2, ok, detail)


def test_criterion_3_twenty_meter_claim():
    started = time.monotonic()
    breakdown = energy_partition(REFERENCE, DropScenario(20.0))
    absorbed = (breakdown.spring + breakdown.damper) / breakdown.initial_potential
    elapsed = time.monotonic() - started
    ok = absorbed > 0.30 and elapsed < 1.0
    assert report(3, ok, f"(spring+damper)/(m*g*h) at 20 m = {absorbed:.4f} (> 0.30), "
                         f"{elapsed:.2f} s")


def test_criterion_4_five_fold_ratio():
    ratio = altitude_energy_ratio(0.241, 1.50, 0.239, 0.30)
    ok = abs(ratio - 5.04) <= 0.01
    assert report(4, ok, f"energy ratio 241 g @ 150 cm vs 239 g @ 30 cm = {ratio:.4f} "
                         f"(5.04 +/- 0.01)")


def test_criterion_5_oracle_equivalence():
    started = time.monotonic()
    dampings = (5.0, 15.0, 30.0, 46.0, 60.0)
    altitudes = (0.3, 0.75, 1.5, 5.0, 20.0)
    worst = 0.0
    for damping in dampings:
        params = ImpactParams(mass=0.241, damping=damping, stiffness=7040.0)
        for altitude in altitudes:
            traj = simulate_contact(params,
                                    DropScenario(altitude, sample_rate=100000.0))
            x_ref, v_ref, _ = analytic_solution(params, traj.impact_velocity,
                                                traj.time)
            err_x = np.max(np.abs(traj.compression - x_ref)) / np.max(np.abs(x_ref))
            err_v = np.max(np.abs(traj.velocity - v_ref)) / np.max(np.abs(v_ref))
            worst = max(worst, float(err_x), float(err_v))
    elapsed = time.monotonic() - started
    ok = worst < 1e-6 and elapsed < 10.0
    assert report(5, ok, f"integrator vs closed form, 5x5 (c,h) grid at 1e-5 s steps: "
                         f"max rel state error {worst:.2e} (< 1e-6), {elapsed:.1f} s")


def test_criterion_6_energy_closure():
    started = time.monotonic()
    worst = 0.0
    for altitude in (0.5, 1.0, 1.5, 20.0):
        traj = simulate_contact(REFERENCE, DropScenario(altitude))
        ke0 = 0.5 * REFERENCE.mass * traj.impact_velocity ** 2
        lhs = (0.5 * REFERENCE.mass * traj.velocity ** 2
               + 0.5 * REFERENCE.stiffness * traj.compression ** 2
               + traj.damper_energy)
        rhs = ke0 + REFERENCE.mass * REFERENCE.gravity * traj.compression
        worst = max(worst, float(np.max(np.abs(lhs - rhs) / rhs)))
    elapsed = time.monotonic() - started
    ok = worst < 1e-6 and elapsed < 5.0
    assert report(6, ok, f"per-sample energy closure over the criterion-2 drops: "
                         f"max rel drift {worst:.2e} (< 1e-6), {elapsed:.2f} s")


def test_criterion_7_filter_correctness():
    started = time.monotonic()
    cutoff = 500.0

    constant = lowpass_filter(SignalTrace(20000.0, np.full(8000, 2.34)), cutoff)
    dc_error = float(np.max(np.abs(constant.values - 2.34)) / 2.34)

    t = np.arange(int(20000.0 * 0.1)) / 20000.0
    tone = lowpass_filter(SignalTrace(20000.0, np.sin(2.0 * math.pi * 500.0 * t)), cutoff)
    tail = tone.values[len(tone.values) // 2:]
    amplitude = float((np.max(tail) - np.min(tail)) / 2.0)
    attenuation_error = abs(amplitude * math.sqrt(2.0) - 1.0)

    elapsed = time.monotonic() - started
    ok = dc_error < 1e-13 and attenuation_error < 0.01 and elapsed < 1.0
    assert report(7, ok, f"DC gain error {dc_error:.1e} (machine precision), "
                         f"|gain(fc)*sqrt(2) - 1| = {attenuation_error:.4f} (< 0.01), "
                         f"{elapsed:.2f} s")


def test_criterion_8_identification_recovery(tmp_path):
    started = time.monotonic()

    def synth_fit(seed: int, noise: float) -> float:
        out = tmp_path / f"run_{seed}_{noise:g}"
        assert cli_main(["--out-dir", str(out), "--seed", str(seed), "synth",
                         "--altitudes-cm", "50,100,150", "--repeats", "5",
                         "--noise", str(noise), "--damping", "46"]) == 0
        assert cli_main(["--out-dir", str(out), "fit",
                         "--peaks", str(out / "peaks.csv"),
                         "--stiffness", "7040", "--mass", "0.241"]) == 0
        return json.loads((out / "fit.json").read_text())["damping"]

    noiseless = synth_fit(0, 0.0)
    noiseless_ok = abs(noiseless - 46.0) <= 0.5

    recovered = [synth_fit(seed, 0.05) for seed in range(1, 21)]
    hits = sum(1 for c in recovered if abs(c - 46.0) <= 0.15 * 46.0)

    elapsed = time.monotonic() - started
    ok = noiseless_ok and hits >= 18 and elapsed < 120.0
    assert report(8, ok, f"noiseless synth->fit c = {noiseless:.3f} (46 +/- 0.5); "
                         f"5% noise: {hits}/20 seeds within +/-15%, {elapsed:.1f} s")


def test_criterion_9_stiffness_regression():
    exact = estimate_stiffness(
        [StaticDeflectionSample(7040.0 * x, x) for x in (0.001, 0.005, 0.012)])
    exact_ok = abs(exact - 7040.0) <= 1e-9 * 7040.0

    rng = np.random.default_rng(2024)
    deflections = rng.uniform(0.001, 0.02, size=50)
    forces = 7040.0 * deflections * (1.0 + 0.01 * rng.standard_normal(50))
    noisy = estimate_stiffness(
        [StaticDeflectionSample(f, x) for f, x in zip(forces, deflections)])
    noisy_ok = abs(noisy - 7040.0) <= 0.02 * 7040.0

    ok = exact_ok and noisy_ok
    assert report(9, ok, f"exact line k = {exact:.10g} (machine precision); "
                         f"1% noise k = {noisy:.1f} (within 2%)")


def test_criterion_10_declared_not_desk_reproducible():
    # absolute experimental peak magnitudes and the measured five-fold
    # comparison need the physical drop rig and its recorded data; covered
    # instead by the model-level checks above (criteria 2-3, 5-9)
    assert report(10, True, "physical-rig data substituted by model-level checks")
