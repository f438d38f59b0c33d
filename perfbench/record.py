#!/usr/bin/env python3
"""Record a baseline: run the benchmark over several seeds per workload.

    python3 perfbench/record.py --out perfbench/baseline.json

For each workload this makes one `--trace 0` run per seed (seeds 1..10) and
two `--trace 1` runs of seed 1, then writes each end-to-end metric's values,
median, quartiles and spread (quartile distance over the median), the traced
per-layer metrics, whether the traced counts repeated exactly, and the first
run's report (environment and traffic profile). Run from the checkout root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# counts that must repeat exactly between traced runs of one seed
EXACT_COUNTS = ("identify.loss_evals", "dynamics.calls", "dynamics.samples",
                "energy.threshold_sims")
WORKLOADS = ("fit", "energy", "drops")
SEEDS = range(1, 11)


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed} trace {trace} failed:\n{done.stderr}")
    report, result = (json.loads(line) for line in done.stdout.strip().splitlines()[-2:])
    print(f"{workload} seed={seed} trace={trace} correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']} "
          + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
          flush=True)
    return report, result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    recorded = {}
    for workload in WORKLOADS:
        runs = [run(workload, seed, seconds, 0) for seed in SEEDS]
        traced = [run(workload, 1, seconds, 1) for _ in range(2)]
        names = runs[0][1]["metrics"]
        layers = [{k: v["value"] for k, v in result["metrics"].items()} for _, result in traced]
        recorded[workload] = {
            "end_to_end": {name: summarize([r["metrics"][name]["value"] for _, r in runs])
                           for name in names},
            "all_correct": all(r["correct"] for _, r in runs + traced),
            "attempted": [r["attempted"] for _, r in runs],
            "report": runs[0][0],
            "per_layer_seed_1": layers[0],
            "traced_report_seed_1": traced[0][0],
            "exact_counts_repeat": all(layers[0][k] == layers[1][k] for k in EXACT_COUNTS),
        }
    args.out.write_text(json.dumps(recorded, indent=1) + "\n")


if __name__ == "__main__":
    main()
