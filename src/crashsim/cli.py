"""Batch command-line front end.

Subcommands: ``simulate`` (one drop to trajectory CSV + summary JSON),
``fit`` (damping identification from a peaks CSV, stiffness measured from a
statics CSV or supplied), ``energy`` (energy-distribution curve CSV + JSON
with the collision-threshold altitude) and ``synth`` (seeded synthetic peaks
datasets for round-trip testing).

Altitudes are given in centimeters on the command line; files and JSON store
SI units with unit-suffixed names. Exit codes: 0 success, 2 configuration or
parse error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import io
from .dynamics import (
    MAX_RECORDS,
    MAX_TIME_S,
    STANDARD_GRAVITY,
    DropScenario,
    ImpactParams,
    drop_peaks,
    peak_acceleration,
    simulate_contact,
)
from .energy import (
    THRESHOLD_CAP_M,
    collision_threshold_altitude,
    energy_distribution_curve,
    stroke_margin,
)
from .errors import ConfigurationError, CrashSimError, NumericalError
from .identify import (
    DAMPING_TOLERANCE,
    FitSetup,
    PeakObservation,
    estimate_stiffness,
    fit_damping,
)
from .sensor import filtered_series

REFERENCE_MASS = 0.241
REFERENCE_DAMPING = 46.0
REFERENCE_STIFFNESS = 7040.0


def _add_scenario_args(parser: argparse.ArgumentParser) -> None:
    defaults = DropScenario(drop_altitude=0.0)
    parser.add_argument("--clearance-mm", type=float, default=defaults.clearance * 1000.0,
                        help="compression stroke before rigid collision [mm]")
    parser.add_argument("--cutoff-hz", type=float, default=defaults.sensor_cutoff,
                        help="sensor low-pass cutoff [Hz]")
    parser.add_argument("--sample-rate-hz", type=float, default=defaults.sample_rate,
                        help="trajectory sample rate [Hz]")


def _add_mass_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mass", type=float, default=REFERENCE_MASS,
                        help="payload mass [kg]")
    parser.add_argument("--gravity", type=float, default=STANDARD_GRAVITY,
                        help="gravitational acceleration [m/s²]")


def _add_frame_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--damping", type=float, default=REFERENCE_DAMPING,
                        help="damping coefficient [N·s/m]")
    parser.add_argument("--stiffness", type=float, default=REFERENCE_STIFFNESS,
                        help="frame stiffness [N/m]")


def _params(args) -> ImpactParams:
    return ImpactParams(mass=args.mass, damping=args.damping,
                        stiffness=args.stiffness, gravity=args.gravity)


def _parse_altitudes_cm(raw: str) -> list[float]:
    try:
        altitudes = [float(part) / 100.0 for part in raw.split(",") if part.strip()]
    except ValueError:
        raise ConfigurationError(f"bad altitude list {raw!r}") from None
    if not altitudes:
        raise ConfigurationError("altitude list is empty")
    return altitudes


def _scenario(args, drop_altitude: float) -> DropScenario:
    return DropScenario(
        drop_altitude=drop_altitude,
        clearance=args.clearance_mm / 1000.0,
        sensor_cutoff=args.cutoff_hz,
        sample_rate=args.sample_rate_hz,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crashsim",
        description="Crash-landing contact simulation, energy analysis and "
                    "damping identification for a lumped mass-spring-damper frame.",
    )
    parser.add_argument("--out-dir", type=Path, default=Path("."),
                        help="output directory (created if missing)")
    parser.add_argument("--seed", type=int, default=0,
                        help="random seed for synthetic noise")
    parser.add_argument("--unit", choices=("ms2", "g"), default="ms2",
                        help="peak unit for peaks CSV output (1 g = 9.80665 m/s²)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="simulate one drop")
    _add_mass_args(p_sim)
    _add_frame_args(p_sim)
    _add_scenario_args(p_sim)
    p_sim.add_argument("--altitude-cm", type=float, required=True)
    p_sim.add_argument("--max-time", type=float, default=MAX_TIME_S,
                       help="simulation horizon [s]")
    p_sim.set_defaults(func=cmd_simulate)

    p_fit = sub.add_parser("fit", help="fit the damping coefficient to peak data")
    p_fit.add_argument("--peaks", type=Path, required=True,
                       help="peaks CSV (altitude_cm,peak_ms2,label)")
    source = p_fit.add_mutually_exclusive_group(required=True)
    source.add_argument("--statics", type=Path,
                        help="statics CSV (force_n,deflection_m) to measure stiffness")
    source.add_argument("--stiffness", type=float,
                        help="frame stiffness [N/m] if no statics file")
    _add_mass_args(p_fit)
    _add_scenario_args(p_fit)
    p_fit.add_argument("--c-low", type=float, default=None,
                       help="damping bracket lower edge [N·s/m] (default 0)")
    p_fit.add_argument("--c-high", type=float, default=None,
                       help="damping bracket upper edge [N·s/m] (default 5*c_crit)")
    p_fit.add_argument("--tolerance", type=float, default=DAMPING_TOLERANCE,
                       help="absolute tolerance on the fitted damping [N·s/m]")
    p_fit.add_argument("--raw-peaks", action="store_true",
                       help="match raw |a| peaks instead of sensor-filtered peaks")
    p_fit.set_defaults(func=cmd_fit)

    p_energy = sub.add_parser("energy", help="energy distribution over altitudes")
    _add_mass_args(p_energy)
    _add_frame_args(p_energy)
    _add_scenario_args(p_energy)
    p_energy.add_argument("--altitudes-cm", type=str, required=True,
                          help="comma-separated drop altitudes [cm]")
    p_energy.add_argument("--threshold-cap-m", type=float, default=THRESHOLD_CAP_M,
                          help="altitude cap for the collision-threshold search [m]")
    p_energy.set_defaults(func=cmd_energy)

    p_synth = sub.add_parser("synth", help="generate a synthetic peaks dataset")
    _add_mass_args(p_synth)
    _add_frame_args(p_synth)
    _add_scenario_args(p_synth)
    p_synth.add_argument("--altitudes-cm", type=str, required=True)
    p_synth.add_argument("--repeats", type=int, default=3)
    p_synth.add_argument("--noise", type=float, default=0.0,
                         help="multiplicative Gaussian noise level (fraction)")
    p_synth.add_argument("--raw-peaks", action="store_true",
                         help="generate raw |a| peaks instead of filtered peaks")
    p_synth.add_argument("--write-traces", action="store_true",
                         help="also write one trajectory CSV per altitude")
    p_synth.set_defaults(func=cmd_synth)

    return parser


def _out_dir(args) -> Path:
    args.out_dir.mkdir(parents=True, exist_ok=True)
    return args.out_dir


def cmd_simulate(args) -> int:
    params = _params(args)
    scenario = _scenario(args, args.altitude_cm / 100.0)
    traj = simulate_contact(params, scenario, max_time=args.max_time)
    filtered = filtered_series(traj, scenario.sensor_cutoff)
    peaks = peak_acceleration(traj)

    out = _out_dir(args)
    io.write_trajectory_csv(out / "trajectory.csv", traj, filtered)
    summary = {
        "impact_velocity": traj.impact_velocity,
        "raw_peak": peaks.raw,
        "proper_peak": peaks.proper,
        "filtered_peak": float(np.max(np.abs(filtered))),
        "termination": traj.termination.value,
        "x_max": traj.max_compression,
    }
    io.write_json(out / "summary.json", summary)
    print(f"simulate: h={args.altitude_cm:g} cm -> {traj.termination.value}, "
          f"x_max={traj.max_compression * 1000:.3f} mm, "
          f"filtered_peak={summary['filtered_peak']:.2f} m/s²")
    return 0


def cmd_fit(args) -> int:
    observations = io.read_peaks_csv(args.peaks)
    if args.statics is not None:
        statics = io.read_statics_csv(args.statics)
        stiffness = estimate_stiffness(statics)
        stiffness_source = "measured"
    else:
        stiffness = args.stiffness
        stiffness_source = "supplied"

    setup = FitSetup(
        params=ImpactParams(mass=args.mass, damping=0.0, stiffness=stiffness,
                            gravity=args.gravity),
        scenario=_scenario(args, 0.0),
        use_raw_peak=args.raw_peaks,
    )
    result = fit_damping(setup, observations, bracket=(args.c_low, args.c_high),
                         tolerance=args.tolerance)

    fitted = replace(setup.params, damping=result.damping)
    drops = [replace(setup.scenario, drop_altitude=h)
             for h in sorted({o.drop_altitude for o in observations})]
    out = _out_dir(args)
    io.write_json(out / "fit.json", {
        "damping": result.damping,
        "loss": result.loss,
        "evaluations": result.evaluations,
        "bracket": list(result.bracket),
        "at_boundary": result.at_boundary,
        "stiffness": stiffness,
        "stiffness_source": stiffness_source,
        "peak_convention": "raw" if args.raw_peaks else "filtered",
        "n_observations": len(observations),
        "stroke_margins": [{"altitude_m": s.drop_altitude,
                            "stroke_margin_m": stroke_margin(fitted, s)} for s in drops],
    })
    print(f"fit: damping={result.damping:.4f} N·s/m "
          f"(loss={result.loss:.6g}, {result.evaluations} evaluations, "
          f"stiffness {stiffness_source}={stiffness:g} N/m)")
    return 0


def cmd_energy(args) -> int:
    params = _params(args)
    altitudes = _parse_altitudes_cm(args.altitudes_cm)
    template = _scenario(args, 0.0)
    curve = energy_distribution_curve(params, template, altitudes)
    threshold = collision_threshold_altitude(params, template,
                                             altitude_cap=args.threshold_cap_m)

    out = _out_dir(args)
    io.write_energy_csv(out / "energy.csv", curve)
    io.write_json(out / "energy.json", {
        "collision_threshold_altitude_m": None if math.isinf(threshold) else threshold,
        "threshold_search_cap_m": args.threshold_cap_m,
        "altitudes": [
            dict(altitude_m=h, **breakdown.as_json_dict()) for h, breakdown in curve
        ],
    })
    shown = "none below cap" if math.isinf(threshold) else f"{threshold:.3f} m"
    print(f"energy: {len(curve)} altitudes, collision threshold {shown}")
    return 0


def cmd_synth(args) -> int:
    if not 1 <= args.repeats <= MAX_RECORDS:
        raise ConfigurationError(f"repeats must be in [1, {MAX_RECORDS:g}], got {args.repeats}")
    if args.noise < 0.0 or args.seed < 0:
        raise ConfigurationError(f"noise level and seed must be >= 0, got {args.noise}, {args.seed}")
    params = _params(args)
    altitudes = _parse_altitudes_cm(args.altitudes_cm)
    no_drop = [h * 100.0 for h in altitudes if not h > 0.0]  # a peak needs a drop
    if no_drop:
        raise ConfigurationError(f"--altitudes-cm must be > 0 for synth, got {no_drop[0]:g} cm")
    rng = np.random.default_rng(args.seed)

    peaks, _ = drop_peaks(params, _scenario(args, 0.0), [params.damping], altitudes,
                          args.raw_peaks)

    observations = []
    for h, peak in zip(altitudes, peaks[0].tolist()):
        alt_cm = io.fmt(h * 100.0)  # the 12 digits of the peaks.csv column
        for rep in range(args.repeats):
            noisy = peak * (1.0 + args.noise * rng.standard_normal()) if args.noise else peak
            if not 0.0 < noisy < math.inf:  # a noiseless peak is > 0 and finite
                raise ConfigurationError(
                    f"--noise {args.noise:g} drew a peak of {noisy!r} m/s² at {alt_cm} cm, "
                    f"repeat {rep}; peaks must be > 0 and finite")
            observations.append(PeakObservation(
                drop_altitude=h, measured_peak=noisy,
                label=f"synth_h{alt_cm}cm_r{rep}",
            ))

    out = _out_dir(args)  # made once every draw is good
    if args.write_traces:
        for h in altitudes:
            traj = simulate_contact(params, _scenario(args, h))
            filtered = filtered_series(traj, args.cutoff_hz)
            io.write_trajectory_csv(out / f"trace_{io.fmt(h * 100.0)}cm.csv", traj, filtered)

    io.write_peaks_csv(out / "peaks.csv", observations, unit=args.unit)
    print(f"synth: wrote {len(observations)} observations "
          f"({len(altitudes)} altitudes x {args.repeats} repeats, noise={args.noise:g})")
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first `main` call, not at import."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"crashsim: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (CrashSimError, OSError) as exc:
        print(f"crashsim: error: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    sys.exit(main())
