"""Acceptance runs over the shipped configs, one verdict line per criterion.

Each criterion re-derives what it can from the record payloads alone:
distances are walked again point by point, combinatorial gaps are recounted
from the stored switch times, and closed-form counts are recomputed from
scratch, so a regression in the library cannot hide behind its own reporting.
"""

import hashlib
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from shadowspec.codecs import decode_point, decode_scalar
from shadowspec.config import parse_config
from shadowspec.covers import CELL_BUDGET, build_cover
from shadowspec.pseudo_orbits import perturbed_orbit
from shadowspec.reporting import records_to_jsonl, replay_verify
from shadowspec.runner import run_check
from shadowspec.scalars import QuadraticNumber, SqrtVal
from shadowspec.shadowing import delta_for_epsilon
from shadowspec.specification import DEFAULT_HORIZON, transition_times

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

NAMES = (
    "c1_full_shift", "c1_golden_mean",
    "c2_cat",
    "c3_exhaustive",
    "c4_spec_shift", "c4_spec_cat",
    "c5_cat_fixed", "c5_cat_mixed", "c5_shift",
    "c6_cat_fixed", "c6_cat_mixed", "c6_shift",
    "c7_periodic",
    "c8_rotation", "c8_reducible",
)

# sha256 of each shipped config's canonical JSONL at its config seed.  A
# change that keeps these has changed no record; one that moves a digest on
# purpose updates it here and says why.
GOLDEN_SHA256 = {
    "c1_full_shift":
        "221d952ec1c67d729b11ba8105709755cbf7605da5bc3889a209db9c17f3aedd",
    "c1_golden_mean":
        "5e30e0f576cdacaef238e6b90f844bd91352c46248b490201084ea37e43c316a",
    "c2_cat":
        "35212a2f137dbdbb6494cd5803b9448d6eb1eccb2eb30e3fb08e3951beae22ca",
    "c3_exhaustive":
        "f03b43e57d812784720deece37d638bf8b5a807430e44e63dc51477367a910ab",
    "c4_spec_shift":
        "f61956c61333b2d9461a0a0ce112535b20af259d8266492033fbcda51eb6a3de",
    "c4_spec_cat":
        "84a24907f928bef832b4db75f7e812f7b279bbbb133ae6966ec2cb039754855b",
    "c5_cat_fixed":
        "034007994debb7ee64599018c2ccab7f21c0c892afd37893c983901fbef77321",
    "c5_cat_mixed":
        "2f3f290e42139d4e2872521a20ee1bab92ae3c0738b41007f955b5b965d4f06c",
    "c5_shift":
        "6c49119d6c947ae9d4ac6a566528568b8dcfd3cc12106cd49d877165337ce56b",
    "c6_cat_fixed":
        "7ce610999a0cfa05ad4420d2bf4cdf9c5ad65139404fec76dc585c3870ee1071",
    "c6_cat_mixed":
        "0034aa4a3e86a4139faf5e9ac52d51df6a5a7bf79ed7174e855c0a555d1e3fac",
    "c6_shift":
        "0b35767c8192140df071dd99f1dc23b662136b213984ccd68d80d388da3a680d",
    "c7_periodic":
        "19cda2bb195568f413d86369267de9d8c5cbf82459dd7fb09da1b831173cc094",
    "c8_rotation":
        "5138f099fff4ddc30a5f85faea11f484f7de7ff0629a111366bce42777db5e24",
    "c8_reducible":
        "dd3461c563fcfcc3b71f8d6e1a6523aece21ac164faf8557c033a756ed830749",
}


class Run:
    def __init__(self, config, records, seconds):
        self.config = config
        self.records = records
        self.jsonl = records_to_jsonl(records)
        self.seconds = seconds


def _execute(name: str) -> Run:
    config = parse_config((CONFIGS / f"{name}.cfg").read_text())
    t0 = time.perf_counter()
    records = run_check(config)
    return Run(config, records, time.perf_counter() - t0)


@pytest.fixture(scope="module")
def runs():
    return {name: _execute(name) for name in NAMES}


def _verdict(n: int, ok: bool, detail: str) -> None:
    print(f"\ncriterion {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {n} failed: {detail}"


def _walked_deviation(sys, payload):
    """Largest tracer distance, recomputed from the stored orbit pieces."""
    spec = payload["pseudoOrbit"]
    if spec["kind"] == "seeded":
        po = perturbed_orbit(sys, decode_point(sys, spec["x"]), spec["a"],
                             spec["b"], decode_scalar(spec["delta"]),
                             spec["seed"])
        points = [po.point(n) for n in range(spec["a"], spec["b"] + 1)]
        gap = po.gap
    else:
        points = [decode_point(sys, t) for t in spec["points"]]
        gap = max((sys.distance(sys.apply(points[i]), points[i + 1])
                   for i in range(len(points) - 1)), default=Fraction(0))
    cur = decode_point(sys, payload["tracer"])
    worst = None
    for y in points:
        d = sys.distance(cur, y)
        if worst is None or d > worst:
            worst = d
        cur = sys.apply(cur)
    return worst, gap


def test_criterion_1_random_shift_orbits(runs):
    total, sound = 0, True
    for name in ("c1_full_shift", "c1_golden_mean"):
        run = runs[name]
        sys = run.config.system
        for rec in run.records:
            total += 1
            pl = rec.witness_payload
            eps = decode_scalar(pl["epsilon"])
            delta = decode_scalar(pl["delta"])
            worst, gap = _walked_deviation(sys, pl)
            sound = (sound and rec.outcome == "pass"
                     and delta == delta_for_epsilon(sys, eps)
                     and gap <= delta and worst < eps
                     and worst == decode_scalar(pl["maxDeviation"]))
    secs = runs["c1_full_shift"].seconds + runs["c1_golden_mean"].seconds
    ok = total == 1000 and sound and secs < 10
    _verdict(1, ok, f"{total} orbits re-walked, run took {secs:.2f}s")


def test_criterion_2_long_exact_toral_orbits(runs):
    run = runs["c2_cat"]
    sys = run.config.system
    delta = Fraction(1, 10 ** 6)
    eps = sys.scalar(delta * Fraction(1001, 1000)) \
        / delta_for_epsilon(sys, Fraction(1))
    sound = len(run.records) == 200
    for rec in run.records:
        pl = rec.witness_payload
        dev = decode_scalar(pl["maxDeviation"], D=sys.D)
        sound = (sound and rec.outcome == "pass"
                 and decode_scalar(pl["epsilon"], D=sys.D) == eps
                 and isinstance(dev, SqrtVal)
                 and dev < eps)
    # spot-check the one-step law on whole tracer orbits, written out here
    # instead of through the library's matrix power path
    for rec in run.records[:2]:
        pl = rec.witness_payload
        worst, gap = _walked_deviation(sys, pl)
        sound = sound and gap <= delta \
            and worst == decode_scalar(pl["maxDeviation"], D=sys.D)
        z = decode_point(sys, pl["tracer"])
        for _ in range(50):
            a, b = z.coords
            stepped = sys.apply(z)
            sound = sound and stepped.coords == ((a + a + b).mod1(),
                                                 (a + b).mod1())
            z = stepped
    ok = sound and run.seconds < 30
    _verdict(2, ok, f"200 exact orbits of length 1000 in {run.seconds:.2f}s")


def test_criterion_3_exhaustive_window_enumeration(runs):
    run = runs["c3_exhaustive"]
    sys = run.config.system
    eps, delta = Fraction(1, 8), Fraction(1, 16)
    seen = set()
    sound = len(run.records) == 8192
    for rec in run.records:
        pl = rec.witness_payload
        seen.add(tuple(pl["pseudoOrbit"]["points"]))
        worst, gap = _walked_deviation(sys, pl)
        sound = (sound and rec.outcome == "pass"
                 and gap <= delta and worst < eps
                 and worst <= Fraction(1, 8))
    ok = sound and len(seen) == 8192 and run.seconds < 60
    _verdict(3, ok, f"{len(seen)} distinct cases, zero counterexamples, "
             f"run took {run.seconds:.2f}s")


def _walked_segment_deviations(sys, payload):
    """Largest tracer distance on each segment, walked again from the
    stored tracer, switch times and segments."""
    tracer = decode_point(sys, payload["tracer"])
    worst = []
    for (text, n), start in zip(payload["segments"], payload["switchTimes"]):
        x = decode_point(sys, text)
        cur = sys.apply(tracer, start)
        top = sys.distance(cur, x)
        for _ in range(n):
            cur, x = sys.apply(cur), sys.apply(x)
            top = max(top, sys.distance(cur, x))
        worst.append(top)
    return worst


def _spec_record_sound(sys, rec):
    """Criterion 4's per-record claims: the schedule bracket, every gap in
    it, and a tracer that stays within epsilon on every segment, by the
    stored maximum deviations."""
    pl = rec.witness_payload
    t = pl["thresholds"]
    level = pl["level"]
    sound = (rec.outcome == "pass"
             and t[0] == 0 and t[1] > 0
             and all(t[i] <= t[i + 1] for i in range(1, len(t) - 1))
             and pl["lo"] == t[level - 1] and pl["hi"] == t[level])
    switch, period = pl["switchTimes"], pl["period"]
    k = len(pl["segments"])
    for j in range(k):
        nxt = switch[j + 1] if j + 1 < k else period
        gap = nxt - switch[j] - pl["segments"][j][1]
        sound = sound and pl["lo"] <= gap <= pl["hi"]
    eps = decode_scalar(pl["epsilon"])
    walked = _walked_segment_deviations(sys, pl)
    return (sound and all(d < eps for d in walked)
            and walked == [decode_scalar(d) for d in pl["maxDeviations"]])


def test_criterion_4_scheduled_segment_tracing(runs):
    sound = True
    notes = []
    for name in ("c4_spec_shift", "c4_spec_cat"):
        run = runs[name]
        sys = run.config.system
        sound = sound and len(run.records) == 100
        for rec in run.records:
            sound = sound and _spec_record_sound(sys, rec)
        thresholds = run.records[-1].witness_payload["thresholds"]
        # rebuild the schedule and demand strictly later transitions at the
        # deeper level, cell pair by cell pair
        eps = run.config.check["epsilon"]
        target = min(delta_for_epsilon(sys, eps / 2), eps / 2)
        schedule = transition_times(sys, build_cover(sys, target, CELL_BUDGET),
                                     2, DEFAULT_HORIZON)
        idx = range(len(schedule.cover))
        if len(idx) > 64:
            idx = list(idx)[::len(idx) // 64][:64]
        sound = (sound and list(schedule.thresholds) == thresholds
                 and all(schedule.entry(2, i, j) > schedule.entry(1, i, j)
                         for i in idx for j in idx))
        notes.append(f"{name.rsplit('_', 1)[1]} thresholds {thresholds}")
    secs = runs["c4_spec_shift"].seconds + runs["c4_spec_cat"].seconds
    ok = sound and secs < 60
    _verdict(4, ok, f"{'; '.join(notes)}; runs took {secs:.2f}s")


def test_criterion_4_rejects_swapped_tracers(runs):
    # every other field of a record stays valid, so only the re-walk of
    # the tracer can notice that it traces another record's segments
    for name in ("c4_spec_shift", "c4_spec_cat"):
        run = runs[name]
        sys = run.config.system
        a, b = run.records[0], run.records[1]
        assert a.witness_payload["tracer"] != b.witness_payload["tracer"]
        assert _spec_record_sound(sys, a) and _spec_record_sound(sys, b)
        for rec, other in ((a, b), (b, a)):
            payload = dict(rec.witness_payload,
                           tracer=other.witness_payload["tracer"])
            assert not _spec_record_sound(
                sys, replace(rec, witness_payload=payload))


def test_criterion_5_two_sided_tracking(runs):
    sound = True
    for name in ("c5_cat_fixed", "c5_cat_mixed", "c5_shift"):
        for rec in runs[name].records:
            pl = rec.witness_payload
            half = pl["N1"]
            sound = (sound and rec.outcome == "pass"
                     and pl["X"] == 2 * half and pl["X"] == pl["N"]
                     and half % pl["pPeriod"] == 0
                     and half % pl["qPeriod"] == 0
                     and pl["inequalities"] == 102)
    shift = runs["c5_shift"].records[0].witness_payload
    sound = sound and shift["N1"] == 4 and shift["X"] == 8
    secs = sum(runs[n].seconds
               for n in ("c5_cat_fixed", "c5_cat_mixed", "c5_shift"))
    ok = sound and secs < 5
    _verdict(5, ok, f"102 inequalities each, shift halfway point 4, "
             f"runs took {secs:.2f}s")


def test_criterion_6_intersection_points(runs):
    lam_inv = QuadraticNumber(5, 3, -1, 2)  # reciprocal of the expanding rate
    sound = True
    for name in ("c6_cat_fixed", "c6_cat_mixed"):
        run = runs[name]
        sys = run.config.system
        by_eps = {}
        for rec in run.records:
            pl = rec.witness_payload
            sound = sound and rec.outcome == "pass"
            eps = decode_scalar(pl["epsilon"])
            by_eps.setdefault(str(eps), []).append(pl)
            bound = decode_scalar(pl["bound"], D=sys.D)
            sound = (sound and bound == 2 * eps * lam_inv ** pl["depth"]
                     and decode_scalar(pl["distance"], D=sys.D) <= bound)
        sound = sound and all(
            [pl["depth"] for pl in group] == list(range(1, 31))
            for group in by_eps.values())
    shift_run = runs["c6_shift"]
    sys = shift_run.config.system
    sound = sound and len(shift_run.records) == 30
    for rec in shift_run.records:
        pl = rec.witness_payload
        sound = sound and rec.outcome == "pass"
        # the recovered point must be a single splice: all zeros, one
        # switch, then all ones
        z = decode_point(sys, pl["z"])
        word = [z.symbol(i) for i in range(-64, 65)]
        sound = (sound and word[0] == 0 and word[-1] == 1
                 and all(a <= b for a, b in zip(word, word[1:])))
    failures = sum(r.outcome != "pass"
                   for n in ("c6_cat_fixed", "c6_cat_mixed", "c6_shift")
                   for r in runs[n].records)
    ok = sound and failures == 0
    _verdict(6, ok, f"150 cuts at depths 1..30, {failures} failures")


def _lattice_count(k: int) -> int:
    a = ((2, 1), (1, 1))
    m = a
    for _ in range(k - 1):
        m = ((m[0][0] * a[0][0] + m[0][1] * a[1][0],
              m[0][0] * a[0][1] + m[0][1] * a[1][1]),
             (m[1][0] * a[0][0] + m[1][1] * a[1][0],
              m[1][0] * a[0][1] + m[1][1] * a[1][1]))
    return abs((m[0][0] - 1) * (m[1][1] - 1) - m[0][1] * m[1][0])


def test_criterion_7_periodic_point_counts(runs):
    run = runs["c7_periodic"]
    counts = [rec.witness_payload["count"] for rec in run.records]
    sound = all(rec.outcome == "pass" for rec in run.records)
    for rec in run.records:
        pl = rec.witness_payload
        k = pl["k"]
        sound = (sound and pl["count"] == pl["expectedCount"] == _lattice_count(k)
                 and len(set(pl["points"])) == pl["count"]
                 and all(p <= k for p in pl["periods"]))
    ok = sound and counts == [1, 5, 16, 45, 121, 320]
    _verdict(7, ok, f"counts {counts}")


def test_criterion_8_falsification_and_refusal(runs):
    run = runs["c8_rotation"]
    sys = run.config.system
    rec = run.records[0]
    pl = rec.witness_payload
    cert = pl.get("certificate", {})
    eps = Fraction(1, 10)
    sound = (rec.outcome == "pass" and pl["status"] == "certified"
             and cert.get("gridSize") == 40)
    if sound:
        threshold = decode_scalar(cert["threshold"])
        spacing_margin = threshold - Fraction(1, 2 * cert["gridSize"])
        sound = threshold == Fraction(9, 80) and spacing_margin >= eps
        # replay the whole grid certificate against the drifted orbit
        spec = pl["pseudoOrbit"]
        y0, step = decode_scalar(spec["y0"]), decode_scalar(spec["delta"])
        points = [y0]
        for _ in range(spec["length"]):
            points.append((points[-1] + sys.angle + step) % 1)
        for g, stored in enumerate(cert["gridMaxDeviations"]):
            x = Fraction(g, cert["gridSize"])
            dev = max(sys.distance(sys.apply(x, n), y)
                      for n, y in enumerate(points))
            sound = sound and dev == decode_scalar(stored) and dev >= threshold
    refusal = runs["c8_reducible"].records[0]
    sound = (sound and refusal.outcome == "error"
             and refusal.witness_payload["error"] == "not-transitive")
    secs = runs["c8_rotation"].seconds + runs["c8_reducible"].seconds
    ok = sound and secs < 60
    _verdict(8, ok, f"grid certificate of 40 cells re-walked, reducible "
             f"input refused, runs took {secs:.2f}s")


def test_criterion_9_determinism_and_replay(runs):
    stable = all(_execute(name).jsonl == runs[name].jsonl for name in NAMES)
    everything = [rec for name in NAMES for rec in runs[name].records]
    verified = replay_verify(everything)
    ok = stable and verified
    _verdict(9, ok, f"{len(everything)} records byte-stable across reruns "
             f"and re-verified from payloads")


def test_shipped_config_digests(runs):
    moved = [name for name in NAMES
             if hashlib.sha256(runs[name].jsonl.encode()).hexdigest()
             != GOLDEN_SHA256[name]]
    assert not moved, f"canonical JSONL digests moved: {moved}"
