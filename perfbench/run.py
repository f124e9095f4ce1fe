"""Run/replay benchmark for shadowspec.

    python3 perfbench/run.py --workload toral-long --seed 1 --seconds 30 --trace 0

The library is imported from ``src/`` beside this directory; nothing is
installed.  A run first makes one untimed pass over the workload at the
configs' default seeds and checks its JSONL against the pinned digests.  Then
``WORKERS`` fresh worker processes (``worker.py``), one after another, share
``--seconds`` of timed passes, each pass at a fresh seed drawn from
``--seed``.  Every pass goes through the correctness gate.

With ``--trace 0`` the end-to-end metrics are reported, with ``--trace 1``
the per-layer ones, taken from traced passes that alternate with untraced
passes on the same inputs.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines
before it give the environment stamp and how the tail percentile was chosen.

``python3 perfbench/run.py --digests`` prints the digests of every workload
at its default seeds, in the form ``digests.json`` pins them.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):  # run as a script
    sys.path.insert(0, str(ROOT))

from perfbench import gate  # noqa: E402
from perfbench.speed import Speedometer, slowdown_now  # noqa: E402
from perfbench.tracing import Tracer, instrument  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKER = Path(__file__).with_name("worker.py")
# A fresh process's memory layout alone moves its speed by up to about 5%,
# and that offset holds for the life of the process; spreading a run's passes
# over several processes averages it out.  Each worker's start-up is also one
# set-up sample.
WORKERS = 5
WORKER_TIMEOUT_S = 120
_TAIL_PERCENTILES = (99.9, 99, 95, 90, 75)

PER_LAYER_UNITS = {
    "config.parse_s": "s",
    "runner.self_s": "s",
    "pseudo_orbits.perturbed_orbit_s": "s",
    "pseudo_orbits.points": "count",
    "shadowing.shadow_s": "s",
    "shadowing.shadow_calls": "count",
    "shadowing.falsify_s": "s",
    "covers.build_cover_s": "s",
    "covers.cells": "count",
    "specification.transition_times_s": "s",
    "specification.specification_point_s": "s",
    "specification.verify_s": "s",
    "barycenter.barycenter_point_s": "s",
    "barycenter.verify_barycenter_s": "s",
    "barycenter.periodic_points_s": "s",
    "barycenter.extract_heteroclinic_s": "s",
    "codecs.encode_s": "s",
    "codecs.decode_s": "s",
    "reporting.to_jsonl_s": "s",
    "reporting.from_jsonl_s": "s",
    "reporting.jsonl_bytes": "bytes",
    "reporting.replay_self_s": "s",
    "scalars.quadratic_new": "count",
    "systems.apply_calls": "count",
    "systems.distance_calls": "count",
    "trace.overhead_ratio": "ratio",
    "raw.run_cpu_s": "s",
    "raw.replay_cpu_s": "s",
    "speed.slowdown": "ratio",
}

# Per-layer times taken from span totals (or self times) of these span names.
_SPAN_TOTALS = {
    "config.parse_s": ("config.parse_config",),
    "pseudo_orbits.perturbed_orbit_s": ("pseudo_orbits.perturbed_orbit",),
    "shadowing.shadow_s": ("shadowing.shadow",),
    "shadowing.falsify_s": ("shadowing.falsify_shadowing",),
    "covers.build_cover_s": ("covers.build_cover",),
    "specification.transition_times_s": ("specification.transition_times",),
    "specification.verify_s": ("specification.verify_specification",
                               "specification.check_specification"),
    "barycenter.barycenter_point_s": ("barycenter.barycenter_point",),
    "barycenter.verify_barycenter_s": ("barycenter.verify_barycenter",),
    "barycenter.periodic_points_s": ("barycenter.periodic_points",),
    "barycenter.extract_heteroclinic_s": ("barycenter.extract_heteroclinic",),
    "codecs.encode_s": ("codecs.encode_point", "codecs.encode_scalar"),
    "codecs.decode_s": ("codecs.decode_point", "codecs.decode_scalar"),
    "reporting.to_jsonl_s": ("reporting.records_to_jsonl",),
    "reporting.from_jsonl_s": ("reporting.jsonl_to_records",),
}
_SPAN_SELF = {
    "runner.self_s": "runner.run_check",
    "specification.specification_point_s": "specification.specification_point",
    "reporting.replay_self_s": "reporting.replay_verify_record",
}
_COUNTERS = ("pseudo_orbits.points", "covers.cells", "reporting.jsonl_bytes",
             "scalars.quadratic_new", "systems.apply_calls",
             "systems.distance_calls")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_library():
    """Import shadowspec from this checkout's ``src``, and nowhere else."""
    if not (SRC / "shadowspec" / "__init__.py").is_file():
        raise BenchError(f"no shadowspec sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import shadowspec
    if Path(shadowspec.__file__).resolve().parent != SRC / "shadowspec":
        raise BenchError(f"shadowspec imported from {shadowspec.__file__}, "
                         f"not from {SRC}")
    return shadowspec


@dataclass
class Pass:
    """One pass over a workload's configs: clock readings and gate tallies.

    ``run`` and ``replay`` are (wall start, wall end, CPU start, CPU end);
    ``records`` holds the (start, end) of each pass record's replay.
    """

    run: tuple = ()
    replay: tuple = ()
    records: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    digests: dict = field(default_factory=dict)


def _plain_call(_name, fn, *args):
    return fn(*args)


def one_pass(lib, workload, seed, *, pinned=None, tracer=None) -> Pass:
    """Run, encode, decode and replay every config of ``workload``.

    ``seed`` None means each config's default seed; then ``pinned`` holds
    the digests the JSONL must hash to.  Misses go to stderr and the tally.
    """
    call = tracer.call if tracer is not None else _plain_call
    replay = (tracer.spanned("reporting.replay_verify_record",
                             lib.replay_verify_record)
              if tracer is not None else lib.replay_verify_record)
    out = Pass()
    parsed = [(c, call("config.parse_config", lib.parse_config, c.text(seed)))
              for c in workload.configs]

    outputs = []
    gc.collect()
    wall, cpu = perf_counter(), process_time()
    for c, cfg in parsed:
        try:
            records = call("runner.run_check", lib.run_check, cfg)
            jsonl = call("reporting.records_to_jsonl", lib.records_to_jsonl,
                         records)
        except Exception as exc:  # a crash is a miss for the whole config
            print(f"{c.name}: run raised {exc!r}", file=sys.stderr)
            records, jsonl = None, None
        outputs.append((c, records, jsonl))
    out.run = (wall, perf_counter(), cpu, process_time())

    misses = {}
    gc.collect()
    wall, cpu = perf_counter(), process_time()
    for c, records, jsonl in outputs:
        if jsonl is None:
            continue
        try:
            decoded = call("reporting.jsonl_to_records", lib.jsonl_to_records,
                           jsonl)
        except Exception as exc:
            print(f"{c.name}: decode raised {exc!r}", file=sys.stderr)
            misses[c.name] = len(records)
            continue
        misses[c.name] = gate.replay_misses(replay, decoded, perf_counter,
                                            out.records)
    out.replay = (wall, perf_counter(), cpu, process_time())

    for c, records, jsonl in outputs:
        expected = sum(c.expect.values())
        if records is None:
            out.attempted += expected
            out.failed += expected
            continue
        out.attempted += max(len(records), expected)
        miss = misses[c.name] + gate.outcome_misses(c.expect, records)
        if seed is None:
            out.digests[c.name] = gate.sha256(jsonl)
        if pinned is not None:
            out.attempted += 1
            digest = gate.digest_miss(jsonl, pinned.get(c.name))
            if digest:
                print(f"{c.name}: JSONL digest {out.digests[c.name]} is not "
                      f"the pinned one", file=sys.stderr)
            miss += digest
        if miss:
            print(f"{c.name} (seed {seed}): {miss} gate misses",
                  file=sys.stderr)
        out.failed += miss
        if tracer is not None:
            tracer.counts["reporting.jsonl_bytes"] += len(jsonl.encode())
    return out


def tail_percentile(n: int) -> float:
    """The highest of _TAIL_PERCENTILES that, by nearest rank, has at least
    ten of ``n`` samples beyond it; 50 (the median) when none has."""
    for p in _TAIL_PERCENTILES:
        if n - math.ceil(p / 100 * n) >= 10:
            return p
    return 50


def percentile(samples, p: float) -> float:
    """Nearest-rank percentile ``p``; p50 is the plain median."""
    xs = sorted(samples)
    if p == 50:
        return statistics.median(xs)
    return xs[math.ceil(p / 100 * len(xs)) - 1]


def _timed_passes(deadline, next_pass):
    """Call ``next_pass`` once, then until another would end past ``deadline``.

    ``deadline`` is a ``perf_counter`` reading.
    """
    start = perf_counter()
    done = 0
    while True:
        next_pass()
        done += 1
        now = perf_counter()
        if now + (now - start) / done > deadline:
            return


def _scaled_phase(speed, phase):
    """[wall, CPU] seconds of a pass phase at reference speed."""
    wall0, wall1, cpu0, cpu1 = phase
    return [speed.scaled(wall0, wall1),
            speed.scaled(wall0, wall1, cpu1 - cpu0)]


def _layer_values(summary: dict, counts: dict) -> dict:
    values = {}
    for metric, names in _SPAN_TOTALS.items():
        values[metric] = sum(summary.get(n, {}).get("total_s", 0.0)
                             for n in names)
    for metric, name in _SPAN_SELF.items():
        values[metric] = summary.get(name, {}).get("self_s", 0.0)
    values["shadowing.shadow_calls"] = summary.get(
        "shadowing.shadow", {}).get("calls", 0)
    for key in _COUNTERS:
        values[key] = counts.get(key, 0)
    return values


def _raw(speed, passes) -> dict:
    """Unscaled wall and CPU seconds of each pass phase, and its slowdown."""
    return {
        "raw_run": [p.run[1] - p.run[0] for p in passes],
        "raw_replay": [p.replay[1] - p.replay[0] for p in passes],
        "raw_run_cpu": [p.run[3] - p.run[2] for p in passes],
        "raw_replay_cpu": [p.replay[3] - p.replay[2] for p in passes],
        "slowdown": [speed.slowdown(p.run[0], p.replay[1]) for p in passes],
    }


def work(lib, job: dict) -> dict:
    """A worker's share of a run: timed passes until ``job["deadline"]``.

    Returns its gate tallies and, per pass, scaled times (end-to-end) or
    per-layer values (traced); traced spans are appended to ``job["spans"]``.
    """
    workload = WORKLOADS[job["workload"]]
    out = {"setup_slowdown": slowdown_now(), "attempted": 0, "failed": 0}
    rng = random.Random(job["seed"])
    passes, traced, marks = [], [], []
    tracer = Tracer(job["run_id"])

    def plain():
        passes.append(one_pass(lib, workload, rng.getrandbits(32)))

    def pair():
        seed = rng.getrandbits(32)
        passes.append(one_pass(lib, workload, seed))
        first, before = len(tracer.spans), dict(tracer.counts)
        with instrument(tracer, lib):
            traced.append(one_pass(lib, workload, seed, tracer=tracer))
        counts = {k: v - before.get(k, 0) for k, v in tracer.counts.items()}
        marks.append((first, len(tracer.spans), counts))

    speed = Speedometer()
    with speed.running():
        _timed_passes(job["deadline"], pair if job["trace"] else plain)
    for p in passes + traced:
        out["attempted"] += p.attempted
        out["failed"] += p.failed

    def wall(p):
        return speed.scaled(*p.run[:2]) + speed.scaled(*p.replay[:2])

    if job["trace"]:
        out["layers"] = [
            _layer_values(tracer.summary(first, last, speed.scaled), counts)
            for first, last, counts in marks]
        out["plain_wall"] = [wall(p) for p in passes]
        out.update(_raw(speed, passes))
        out["traced_wall"] = [wall(p) for p in traced]
        out["spans"] = len(tracer.spans)
        tracer.write(job["spans"], job["first_span"])
        return out
    out["run"] = [_scaled_phase(speed, p.run) for p in passes]
    out["replay"] = [_scaled_phase(speed, p.replay) for p in passes]
    out["latencies_ms"] = [speed.scaled(t0, t1) * 1000
                           for p in passes for t0, t1 in p.records]
    out.update(_raw(speed, passes))
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                          / 1024)
    return out


def run_workers(workload, args, spans_path: Path) -> list:
    """Start ``WORKERS`` worker processes in turn and collect their results.

    Worker k makes passes until a share (k + 1) / WORKERS of ``--seconds``
    has gone, so that time one leaves unused goes to the next.  Each result
    gains ``setup_s``: from this process starting the worker to the worker
    having imported shadowspec and parsed the configs, scaled by the
    worker's speed just after.  ``perf_counter`` is the system's
    monotonic clock, so the two processes' readings compare.
    """
    rng = random.Random(args.seed)
    job = {"src": str(SRC), "root": str(ROOT),
           "setup_texts": [c.text() for c in workload.configs],
           "workload": workload.name, "trace": args.trace,
           "run_id": uuid.uuid4().hex, "spans": str(spans_path),
           "first_span": 0}
    results = []
    begin = perf_counter()
    for k in range(WORKERS):
        job["seed"] = rng.getrandbits(32)
        job["deadline"] = begin + (k + 1) * args.seconds / WORKERS
        start = perf_counter()
        done = subprocess.run([sys.executable, str(WORKER)],
                              input=json.dumps(job), stdout=subprocess.PIPE,
                              text=True, timeout=WORKER_TIMEOUT_S)
        if done.returncode != 0 or not done.stdout.strip():
            raise BenchError(f"worker exited with {done.returncode}")
        result = json.loads(done.stdout.splitlines()[-1])
        result["setup_s"] = ((result.pop("ready") - start)
                             / result["setup_slowdown"])
        results.append(result)
        job["first_span"] += result.get("spans", 0)
    return results


def _med(results: list, key: str) -> float:
    return statistics.median(x for w in results for x in w[key])


def _print_raw(results: list) -> None:
    """One line: ``unscaled`` and the unscaled medians and slowdown as JSON."""
    print("unscaled " + json.dumps({
        "run_s": _med(results, "raw_run"),
        "replay_s": _med(results, "raw_replay"),
        "run_cpu_s": _med(results, "raw_run_cpu"),
        "replay_cpu_s": _med(results, "raw_replay_cpu"),
        "slowdown": _med(results, "slowdown")}))


def end_to_end(results: list) -> dict:
    """Medians over all timed passes; ``replay_ms.tail`` is the median of
    the workers' own tails, so that a burst within one worker moves it
    little."""
    runs = [r for w in results for r in w["run"]]
    replays = [r for w in results for r in w["replay"]]
    latencies = [x for w in results for x in w["latencies_ms"]]
    pct = tail_percentile(min(len(w["latencies_ms"]) for w in results))
    tail_ms = statistics.median(percentile(w["latencies_ms"], pct)
                                for w in results)

    print(f"{len(runs)} timed passes in {len(results)} workers; "
          f"replay_ms.tail is the median over workers of each one's p{pct:g}, "
          f"from {len(latencies)} per-record replay samples in all")
    _print_raw(results)
    values = {
        "setup_s": (statistics.median(w["setup_s"] for w in results), "s"),
        "run_s": (statistics.median(r[0] for r in runs), "s"),
        "replay_s": (statistics.median(r[0] for r in replays), "s"),
        "run_cpu_s": (statistics.median(r[1] for r in runs), "s"),
        "replay_cpu_s": (statistics.median(r[1] for r in replays), "s"),
        "replay_ms.p50": (statistics.median(latencies), "ms"),
        "replay_ms.tail": (tail_ms, "ms"),
        "peak_rss_mb": (max(w["peak_rss_mb"] for w in results), "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def per_layer(results: list, spans_path: Path) -> dict:
    layers = [layer for w in results for layer in w["layers"]]
    values = {k: statistics.median(layer[k] for layer in layers)
              for k in layers[0]}
    values["trace.overhead_ratio"] = (_med(results, "traced_wall")
                                      / _med(results, "plain_wall"))
    values["raw.run_cpu_s"] = _med(results, "raw_run_cpu")
    values["raw.replay_cpu_s"] = _med(results, "raw_replay_cpu")
    values["speed.slowdown"] = _med(results, "slowdown")
    _print_raw(results)
    print(f"{len(layers)} traced passes in {len(results)} workers, "
          f"{sum(w['spans'] for w in results)} spans written to "
          f"{spans_path.relative_to(ROOT)}")
    return {k: {"value": values[k], "unit": u}
            for k, u in PER_LAYER_UNITS.items()}


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "shadowspec").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def environment(args) -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "commit": _commit(),
            "source_sha256": _source_digest(), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "workers": WORKERS}


def print_digests(lib) -> None:
    pinned = {}
    for name, workload in WORKLOADS.items():
        pinned[name] = one_pass(lib, workload, None).digests
    print(json.dumps(pinned, indent=2, sort_keys=True))


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--digests", action="store_true",
                        help="print the default-seed digests and exit")
    args = parser.parse_args(argv)
    if args.workload is None and not args.digests:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        lib = load_library()
        pinned = gate.load_digests()
    except (BenchError, OSError, ValueError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    if args.digests:
        print_digests(lib)
        return 0
    workload = WORKLOADS[args.workload]
    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True))

    tally = one_pass(lib, workload, None, pinned=pinned.get(workload.name, {}))
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
    if args.trace:
        spans_path.unlink(missing_ok=True)
    try:
        results = run_workers(workload, args, spans_path)
    except (BenchError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    tally.attempted += sum(w["attempted"] for w in results)
    tally.failed += sum(w["failed"] for w in results)
    metrics = (per_layer(results, spans_path) if args.trace
               else end_to_end(results))
    print(f"failed_ratio {tally.failed / tally.attempted!r} "
          f"({tally.failed} of {tally.attempted})")
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    with open(OUT_DIR / "results.jsonl", "a") as fh:
        fh.write(json.dumps({"env": env, "result": result,
                             "time": time.time()}) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
