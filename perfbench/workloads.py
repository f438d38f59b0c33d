"""The three workloads: seeded operation generators and per-operation checks.

Each workload is a closed loop with one client. Its operations come in
cycles; every cycle draws one operation from each stratum of the input
property that sets the operation's cost (the damping ratio, and for `drops`
the (damping ratio, sample rate) pair). A run executes whole cycles, so
every run holds the same mix of cheap and expensive operations.

Continuous inputs come from `Draws`: the d-th draw of cycle r is
frac(o_d + r * a_d), with a_d = frac(sqrt(p_d)) for the d-th prime and the
offsets o_d drawn from the seed. Across a run's cycles each draw sweeps
[0, 1) evenly (a rotated Kronecker sequence), so runs with different seeds
hold nearly the same spread of inputs, which keeps run-to-run spread small,
while every input still depends on the seed. Discrete choices come from
`default_rng([seed, r])`. Any prefix of cycles repeats exactly for a seed.

An operation is a list of crashsim CLI invocations plus the input files it
reads, which are written before its timed span starts. Checks run after the
timed span and compare the outputs with the closed forms in `oracle`.
"""

from __future__ import annotations

import csv
import json
import math
import pickle
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle

MASS, STIFFNESS, GRAVITY = 0.241, 7040.0, 9.81  # CLI defaults
CLEARANCE = 0.016
CUTOFF_HZ = 500.0
SAMPLE_RATE_HZ = 20000.0
MAX_TIME_S = 1.0
THRESHOLD_CAP_M = 100.0
THRESHOLD_TOLERANCE_M = 1e-3  # collision_threshold_altitude's default resolution

# criterion 5 (state vs closed form) and criterion 6 (energy closure)
STATE_RTOL = 1e-6
CLOSURE_RTOL = 1e-6
# criterion 8: a noiseless synth->fit recovers the damping within this
NOISELESS_FIT_ATOL = 0.5
# the integrator detects events on its RK4 substeps, which can miss a peak
# grazing a level by ~|a|*dt^2/8 (~1e-7 m at 20 kHz); closer calls are not
# held against it
STROKE_SLACK = 1e-5 * CLEARANCE

TRAJECTORY_HEADER = ["t_s", "x_m", "v_ms", "a_ms2", "a_filtered_ms2"]
ENERGY_HEADER = ["altitude_m", "e_spring_j", "e_damper_j", "e_collision_j",
                 "frac_spring", "frac_damper", "frac_collision"]


@dataclass
class Op:
    id: str
    params: dict
    commands: list  # CLI argument lists; "{dir}" stands for the op directory
    inputs: dict = field(default_factory=dict)  # file name -> text
    observed: dict = field(default_factory=dict)  # filled by the check


def _primes(count: int) -> list[int]:
    found = []
    n = 2
    while len(found) < count:
        if all(n % p for p in found if p * p <= n):
            found.append(n)
        n += 1
    return found


_DIMENSIONS = 512
_STEPS = np.sqrt(np.array(_primes(_DIMENSIONS), dtype=np.float64)) % 1.0


class Draws:
    """Uniform positions in [0, 1) for cycle `cycle` of a seed's run."""

    def __init__(self, seed: int, cycle: int):
        self.rng = np.random.default_rng([seed, cycle])
        offsets = np.random.default_rng(seed).random(_DIMENSIONS)
        self._points = ((offsets + cycle * _STEPS) % 1.0).tolist()
        self._next = 0

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        u = self._points[self._next]
        self._next += 1
        return lo + u * (hi - lo)

    def log_uniform(self, lo: float, hi: float) -> float:
        return lo * (hi / lo) ** self.uniform()

    def strata(self, n: int) -> list[tuple[int, float]]:
        """(stratum, position in [0, 1)) for each of n equal strata, in a
        seeded order."""
        draws = [(s + self.uniform()) / n for s in range(n)]
        return [(int(s), draws[s]) for s in self.rng.permutation(n)]


def _cm(value: float) -> str:
    return f"{value:.1f}"


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def _read_csv(path: Path, header: list[str]) -> np.ndarray:
    with open(path) as handle:
        first = handle.readline().rstrip("\n").split(",")
    if first != header:
        raise ValueError(f"{path.name}: header {first} != {header}")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != len(header) or not np.all(np.isfinite(data)):
        raise ValueError(f"{path.name}: malformed rows")
    return data


class Fit:
    """synth -> fit --statics on 3 altitudes x 5 repeats."""

    name = "fit"
    strata = 6  # operations per cycle, one per damping stratum
    trace_cycles = 1
    c_range = (15.0, 110.0)  # N*s/m, log-uniform: zeta ~0.18-1.3
    altitude_strata_cm = (30.0, 56.2, 105.5, 200.0)  # one altitude from each
    repeats = 5
    peak_noise = 0.05
    statics_noise = 0.01  # criterion 9's noise level, on the noisy operations

    def cycle(self, draws: Draws, index: int) -> list[Op]:
        rng = draws.rng
        noisy = rng.permutation([i % 2 for i in range(self.strata)])
        # a Latin hypercube: each altitude band is split into one slot per
        # damping stratum, so every cycle covers each band evenly
        edges = self.altitude_strata_cm
        columns = []
        for j in range(3):
            jitter = draws.uniform()
            slots = rng.permutation(self.strata)
            columns.append([_cm(edges[j] * (edges[j + 1] / edges[j])
                                ** ((slot + jitter) / self.strata)) for slot in slots])
        altitudes_by_stratum = [list(row) for row in zip(*columns)]
        ops = []
        for i, (stratum, u) in enumerate(draws.strata(self.strata)):
            lo, hi = self.c_range
            c = lo * (hi / lo) ** u
            altitudes = altitudes_by_stratum[stratum]
            deflections = rng.uniform(0.001, 0.02, size=6)
            jitter = self.statics_noise * noisy[i] * rng.standard_normal(6)
            forces = STIFFNESS * deflections * (1.0 + jitter)
            statics = "force_n,deflection_m\n" + "".join(
                f"{f!r},{x!r}\n" for f, x in zip(forces.tolist(), deflections.tolist()))
            noise = self.peak_noise if noisy[i] else 0.0
            ops.append(Op(
                id=f"fit-{index}-{i}",
                params={"damping": c, "zeta": c / (2.0 * math.sqrt(STIFFNESS * MASS)),
                        "altitudes_cm": altitudes, "noise": noise,
                        "statics": list(zip(forces.tolist(), deflections.tolist()))},
                inputs={"statics.csv": statics},
                commands=[
                    ["--out-dir", "{dir}", "--seed", str(int(rng.integers(2**31))),
                     "synth", "--altitudes-cm", ",".join(altitudes),
                     "--repeats", str(self.repeats), "--noise", repr(noise),
                     "--damping", repr(c)],
                    ["--out-dir", "{dir}", "fit", "--peaks", "{dir}/peaks.csv",
                     "--statics", "{dir}/statics.csv"],
                ],
            ))
        return ops

    def check(self, op: Op, out: Path) -> list[str]:
        p = op.params
        problems = []
        with open(out / "peaks.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        if rows[0] != ["altitude_cm", "peak_ms2", "label"] or len(rows) != 1 + 3 * self.repeats:
            problems.append(f"peaks.csv: header {rows[0]} with {len(rows) - 1} rows")
        elif {float(r[0]) for r in rows[1:]} != {float(a) for a in p["altitudes_cm"]}:
            problems.append("peaks.csv: altitudes differ from the requested ones")

        fit = json.loads((out / "fit.json").read_text())
        forces, deflections = np.array(p["statics"]).T
        k_ls = float(np.sum(forces * deflections) / np.sum(deflections ** 2))
        if not _close(fit["stiffness"], k_ls, 1e-9):
            problems.append(f"stiffness {fit['stiffness']} != least-squares {k_ls}")
        c_hat = fit["damping"]
        lo, hi = fit["bracket"]
        c_high = 5.0 * 2.0 * math.sqrt(k_ls * MASS)
        if lo != 0.0 or not _close(hi, c_high, 1e-9):
            problems.append(f"bracket {fit['bracket']} != [0, {c_high}]")
        if not lo <= c_hat <= hi:
            problems.append(f"damping {c_hat} outside its bracket {fit['bracket']}")
        if p["noise"] == 0.0 and abs(c_hat - p["damping"]) > NOISELESS_FIT_ATOL:
            problems.append(f"noiseless fit {c_hat:.4f} != true {p['damping']:.4f} "
                            f"+/- {NOISELESS_FIT_ATOL}")
        op.observed = {"damping_rel_err": abs(c_hat - p["damping"]) / p["damping"]}
        return problems

    def profile(self, ops: list[Op]) -> dict:
        return {
            "zeta_histogram": _histogram([o.params["zeta"] for o in ops],
                                         [0.0, 0.25, 0.5, 0.75, 1.0, 1.5]),
            "noise": _counts(o.params["noise"] for o in ops),
            "unique_altitudes_per_fit": _counts(
                len(set(o.params["altitudes_cm"])) for o in ops),
        }


class Energy:
    """energy over ~10 altitudes plus the collision-threshold bisection."""

    name = "energy"
    strata = 8
    trace_cycles = 3
    # log-uniform; above zeta ~0.5 low drops stop rebounding and run to the
    # horizon, so the expensive tail is the top ~20% of the range
    zeta_range = (0.05, 0.9)
    mass_range = (0.2, 0.3)  # kg, uniform
    stiffness_range = (5000.0, 9000.0)  # N/m, log-uniform
    altitudes = 10  # one from each log stratum of 5 cm - 20 m

    def cycle(self, draws: Draws, index: int) -> list[Op]:
        edges = np.geomspace(5.0, 2000.0, self.altitudes + 1).tolist()
        per_stratum = [(draws.uniform(*self.mass_range),
                        draws.log_uniform(*self.stiffness_range),
                        [_cm(draws.log_uniform(edges[j], edges[j + 1]))
                         for j in range(self.altitudes)])
                       for _ in range(self.strata)]
        ops = []
        for i, (stratum, u) in enumerate(draws.strata(self.strata)):
            lo, hi = self.zeta_range
            zeta = lo * (hi / lo) ** u
            m, k, altitudes = per_stratum[stratum]
            c = zeta * 2.0 * math.sqrt(k * m)
            ops.append(Op(
                id=f"energy-{index}-{i}",
                params={"mass": m, "stiffness": k, "damping": c, "zeta": zeta,
                        "altitudes_cm": altitudes},
                commands=[["--out-dir", "{dir}", "energy",
                           "--altitudes-cm", ",".join(altitudes), "--mass", repr(m),
                           "--stiffness", repr(k), "--damping", repr(c)]],
            ))
        return ops

    def check(self, op: Op, out: Path) -> list[str]:
        p = op.params
        m, c, k, g = p["mass"], p["damping"], p["stiffness"], GRAVITY
        problems = []
        data = json.loads((out / "energy.json").read_text())
        rows = data["altitudes"]
        table = _read_csv(out / "energy.csv", ENERGY_HEADER)
        altitudes = [float(a) / 100.0 for a in p["altitudes_cm"]]
        if len(rows) != len(altitudes) or len(table) != len(altitudes):
            return [f"{len(rows)} JSON rows and {len(table)} CSV rows for "
                    f"{len(altitudes)} altitudes"]
        from_json = np.array([[r["altitude_m"], r["spring_j"], r["damper_j"],
                               r["collision_j"], r["frac_spring"], r["frac_damper"],
                               r["frac_collision"]] for r in rows])
        if not np.allclose(table, from_json, rtol=1e-11, atol=0.0):
            problems.append("energy.csv disagrees with energy.json")

        threshold = data["collision_threshold_altitude_m"]
        if threshold is None:
            if oracle.peak_compression(m, c, k, g, THRESHOLD_CAP_M) >= CLEARANCE:
                problems.append(f"no threshold reported, but {THRESHOLD_CAP_M} m collides")
        else:
            at = oracle.peak_compression(m, c, k, g, threshold)
            below = oracle.peak_compression(m, c, k, g, threshold - THRESHOLD_TOLERANCE_M)
            if at < CLEARANCE - STROKE_SLACK or below >= CLEARANCE + STROKE_SLACK:
                problems.append(
                    f"threshold {threshold} m not bracketed by the closed-form peak: "
                    f"x_max(h*) = {at:.9g}, x_max(h* - tol) = {below:.9g}")

        fs = SAMPLE_RATE_HZ
        worst = 0.0
        terminations = []
        for h, row in zip(altitudes, rows):
            terminations.append(row["termination"])
            if not _close(row["altitude_m"], h, 1e-12):
                problems.append(f"row altitude {row['altitude_m']} != {h}")
                continue
            v0 = math.sqrt(2.0 * g * h)
            ke0 = 0.5 * m * v0 * v0
            expected, margin = oracle.outcome(m, c, k, g, v0, CLEARANCE, MAX_TIME_S)
            if margin > STROKE_SLACK and expected != row["termination"]:
                problems.append(f"h={h} m: {row['termination']}, closed form {expected}")
                continue
            if row["termination"] == "collision":
                t_c = oracle.stroke_crossing_time(m, c, k, g, v0, CLEARANCE)
                v_c = float(oracle.motion(m, c, k, g, v0, t_c)[1])
                residual = abs(row["collision_j"] - 0.5 * m * v_c * v_c)
                budget = ke0 + m * g * CLEARANCE
            else:
                # the breakdown is taken at the sampled peak; close the balance
                # there with the closed-form velocity at that sample
                t1 = oracle.first_peak_time(m, c, k, g, v0)
                times = np.array([math.floor(t1 * fs), math.ceil(t1 * fs)]) / fs
                xs, vs = oracle.motion(m, c, k, g, v0, times)
                x_eval, v_eval = float(xs[np.argmax(xs)]), float(vs[np.argmax(xs)])
                if not _close(row["compression_at_eval_m"], x_eval, STATE_RTOL):
                    problems.append(f"h={h} m: peak sample {row['compression_at_eval_m']} "
                                    f"!= closed form {x_eval}")
                x_eval = row["compression_at_eval_m"]
                budget = ke0 + m * g * x_eval
                residual = abs(0.5 * m * v_eval ** 2 + row["spring_j"]
                               + row["damper_j"] - budget)
            worst = max(worst, residual / budget)
        if worst > CLOSURE_RTOL:
            problems.append(f"energy balance residual {worst:.3g} > {CLOSURE_RTOL}")
        op.observed = {"terminations": terminations, "threshold_found": threshold is not None}
        return problems

    def profile(self, ops: list[Op]) -> dict:
        return {
            "zeta_histogram": _histogram([o.params["zeta"] for o in ops],
                                         [0.0, 0.25, 0.5, 0.75, 1.0]),
            "row_terminations": _counts(t for o in ops
                                        for t in o.observed.get("terminations", [])),
            "threshold_found": _counts(o.observed.get("threshold_found") for o in ops),
        }


class Drops:
    """simulate of one drop, writing trajectory.csv and summary.json."""

    name = "drops"
    zetas = (0.0, 0.3, 0.56, 1.0, 2.0)
    sample_rates = (5000.0, 20000.0, 100000.0)
    strata = len(zetas) * len(sample_rates)  # every (zeta, rate) pair once a cycle
    trace_cycles = 2
    altitude_range_cm = (5.0, 2000.0)

    def cycle(self, draws: Draws, index: int) -> list[Op]:
        pairs = [(z, fs) for z in self.zetas for fs in self.sample_rates]
        altitudes = [_cm(draws.log_uniform(*self.altitude_range_cm)) for _ in pairs]
        ops = []
        for i, pair in enumerate(draws.rng.permutation(len(pairs))):
            zeta, fs = pairs[pair]
            altitude = altitudes[pair]
            c = zeta * 2.0 * math.sqrt(STIFFNESS * MASS)
            ops.append(Op(
                id=f"drops-{index}-{i}",
                params={"zeta": zeta, "damping": c, "sample_rate": fs,
                        "altitude_cm": altitude},
                commands=[["--out-dir", "{dir}", "simulate", "--altitude-cm", altitude,
                           "--damping", repr(c), "--sample-rate-hz", repr(fs)]],
            ))
        return ops

    def check(self, op: Op, out: Path) -> list[str]:
        p = op.params
        fs, c = p["sample_rate"], p["damping"]
        m, k, g = MASS, STIFFNESS, GRAVITY
        problems = []
        summary = json.loads((out / "summary.json").read_text())
        t, x, v, a, a_f = _read_csv(out / "trajectory.csv", TRAJECTORY_HEADER).T
        v0 = math.sqrt(2.0 * g * float(p["altitude_cm"]) / 100.0)
        op.observed = {"termination": summary["termination"], "samples": len(t),
                       "bytes": (out / "trajectory.csv").stat().st_size}

        grid = np.arange(len(t) - 1) / fs
        if t[0] != 0.0 or not np.allclose(t[:-1], grid, rtol=0.0, atol=1e-9) \
                or not np.all(np.diff(t) > 0.0):
            problems.append("time column is not the 1/fs grid from 0")
        x_ref, v_ref = oracle.motion(m, c, k, g, v0, t)
        err_x = np.max(np.abs(x - x_ref)) / np.max(np.abs(x_ref))
        err_v = np.max(np.abs(v - v_ref)) / np.max(np.abs(v_ref))
        if max(err_x, err_v) > STATE_RTOL:
            problems.append(f"state vs closed form: rel error x {err_x:.3g}, v {err_v:.3g}")
        if np.max(np.abs(a - (g - (c * v + k * x) / m))) > 1e-9 * np.max(np.abs(a)):
            problems.append("acceleration column disagrees with the equation of motion")
        last_step = t[-1] - t[-2] if len(t) > 1 else 1.0 / fs
        a_ref = oracle.lowpass(np.abs(a - g), CUTOFF_HZ, fs, last_step)
        if np.max(np.abs(a_f - a_ref)) > 1e-9 * np.max(np.abs(a_ref)):
            problems.append("filtered column disagrees with the low-pass oracle")

        expected, margin = oracle.outcome(m, c, k, g, v0, CLEARANCE, MAX_TIME_S)
        if margin > STROKE_SLACK and expected != summary["termination"]:
            problems.append(f"termination {summary['termination']}, closed form {expected}")
        end = {"rebound": abs(x[-1]) <= 1e-9 * np.max(np.abs(x)),
               "collision": _close(x[-1], CLEARANCE, 1e-9),
               "max_time_reached": _close(t[-1], MAX_TIME_S, 1e-12)}
        if not end.get(summary["termination"], False):
            problems.append(f"last sample (t={t[-1]}, x={x[-1]}) does not match "
                            f"termination {summary['termination']!r}")
        expected = {"impact_velocity": v0, "x_max": float(np.max(x)),
                    "filtered_peak": float(np.max(np.abs(a_f)))}
        for key, value in expected.items():
            if not _close(summary[key], value, 1e-10):
                problems.append(f"summary {key} {summary[key]} != {value}")
        return problems

    def profile(self, ops: list[Op]) -> dict:
        return {
            "zeta": _counts(o.params["zeta"] for o in ops),
            "sample_rate_hz": _counts(o.params["sample_rate"] for o in ops),
            "terminations": _counts(o.observed.get("termination") for o in ops),
            "horizon_sample_share": _share(
                sum(o.observed.get("samples", 0) for o in ops
                    if o.observed.get("termination") == "max_time_reached"),
                sum(o.observed.get("samples", 0) for o in ops)),
            "trajectory_bytes_p50": float(np.median(
                [o.observed.get("bytes", 0) for o in ops])) if ops else 0.0,
        }


def _counts(values) -> dict:
    out: dict = {}
    for value in values:
        out[str(value)] = out.get(str(value), 0) + 1
    return dict(sorted(out.items()))


def _histogram(values, edges) -> dict:
    counts, _ = np.histogram(values, bins=edges)
    return {f"{lo:g}-{hi:g}": int(n) for lo, hi, n in zip(edges, edges[1:], counts)}


def _share(part, whole) -> float:
    return part / whole if whole else 0.0


WORKLOADS = {w.name: w for w in (Fit(), Energy(), Drops())}


def serve_checks() -> None:
    """Helper-process loop: report ready, then answer pickled (workload, op,
    output dir) requests on stdin with pickled (problems, observed) on stdout
    until stdin closes."""
    requests, replies = sys.stdin.buffer, sys.stdout.buffer
    sys.stdout = sys.stderr  # keep stray prints off the reply channel

    def reply(message) -> None:
        pickle.dump(message, replies)
        replies.flush()

    reply("ready")
    while True:
        try:
            name, op, out = pickle.load(requests)
        except EOFError:
            return
        try:
            problems = WORKLOADS[name].check(op, Path(out))
        except Exception as exc:  # malformed or missing output
            problems = [f"output check raised {type(exc).__name__}: {exc}"]
        reply((problems, op.observed))
