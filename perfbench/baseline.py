"""Run every workload in two sets of ten seeds and summarise their agreement.

    python3 perfbench/baseline.py --out perfbench/baseline.json

The workloads and the run length come from ``BENCHMARK.json``.  The first
set runs at seeds 1000-1009, the second at 1010-1019, each seed as one
``run.py`` call.  Per set, workload and end-to-end metric the summary gives
the median, the quartiles (``statistics.quantiles(values, n=4)``), the
spread (the distance between the quartiles as a share of the median) and the
largest deviation of a single run from the median, as a share of it; the
same for the unscaled medians and the slowdown each run prints.  Per
workload and metric it adds ``second_over_first``: the second set's median
over the first's, less one.  One traced run per workload adds the per-layer
values.  Any run whose gate fails, or that exits non-zero, stops the script.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).with_name("run.py")
RUNS = 10
FIRST_SEEDS = (1000, 1010)


def _run(workload: str, seed: int, seconds: int, trace: int):
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n"
                         f"{done.stdout}{done.stderr}")

    def stamped(tag):
        return next((json.loads(line[len(tag):]) for line in lines
                     if line.startswith(tag)), None)
    return stamped("env "), stamped("unscaled "), json.loads(lines[-1])


def _summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median,
            "max_deviation": max(abs(v - median) for v in values) / median,
            "values": values}


def _set(spec: dict, workload: str, first_seed: int) -> dict:
    seeds = list(range(first_seed, first_seed + RUNS))
    results, unscaled = [], []
    for seed in seeds:
        _, raw, result = _run(workload, seed, spec["run_seconds"], 0)
        results.append(result)
        unscaled.append(raw)
        print(f"{workload} seed {seed}: attempted {result['attempted']}, "
              f"failed {result['failed']}", file=sys.stderr)
    return {
        "seeds": seeds,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "end_to_end": {m["name"]: _summary(
            [r["metrics"][m["name"]]["value"] for r in results])
            for m in spec["end_to_end"]},
        "unscaled": {name: _summary([raw[name] for raw in unscaled])
                     for name in unscaled[0]},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="summary file (default stdout)")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    out = {"run_seconds": spec["run_seconds"], "runs": RUNS, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        sets = [_set(spec, workload, first) for first in FIRST_SEEDS]
        env, _, traced = _run(workload, FIRST_SEEDS[0], spec["run_seconds"], 1)
        out["env"] = {k: env[k] for k in ("python", "numpy", "nproc",
                                          "commit", "source_sha256")}
        out["workloads"][workload] = {
            "sets": sets,
            "second_over_first": {
                name: (sets[1]["end_to_end"][name]["median"]
                       / sets[0]["end_to_end"][name]["median"] - 1)
                for name in sets[0]["end_to_end"]},
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    text = json.dumps(out, indent=1, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
