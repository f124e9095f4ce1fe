"""Acceptance runs over the shipped configs, one verdict line per criterion.

Each criterion re-derives what it can from the record payloads alone:
distances are walked again point by point, combinatorial gaps are recounted
from the stored switch times, and closed-form counts and periodic points
are recomputed from scratch, so a regression in the library cannot hide
behind its own reporting.
"""

import hashlib
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from shadowspec.codecs import decode_point, decode_scalar, encode_scalar
from shadowspec.config import parse_config
from shadowspec.covers import CELL_BUDGET, build_cover
from shadowspec.pseudo_orbits import perturbed_orbit
from shadowspec.reporting import (
    records_to_jsonl,
    replay_verify,
    replay_verify_record,
)
from shadowspec.runner import run_check
from shadowspec.scalars import QuadraticNumber, SqrtVal
from shadowspec.shadowing import delta_for_epsilon
from shadowspec.specification import (
    DEFAULT_HORIZON,
    check_specification,
    transition_times,
)
from shadowspec.systems import ToralAutomorphism

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


def _shadow_record_sound(sys, rec) -> bool:
    """One c1 record re-walked: its delta is the calibrated one, its
    pseudo-orbit's gap stays within it, and its tracer stays within epsilon
    at the stored maximal deviation."""
    pl = rec.witness_payload
    eps = decode_scalar(pl["epsilon"])
    delta = decode_scalar(pl["delta"])
    worst, gap = _walked_deviation(sys, pl)
    return (rec.outcome == "pass"
            and delta == delta_for_epsilon(sys, eps)
            and gap <= delta and worst < eps
            and worst == decode_scalar(pl["maxDeviation"]))


def test_criterion_1_random_shift_orbits(runs):
    total, sound = 0, True
    for name in ("c1_full_shift", "c1_golden_mean"):
        run = runs[name]
        sys = run.config.system
        for rec in run.records:
            total += 1
            sound = _shadow_record_sound(sys, rec) and sound
    secs = runs["c1_full_shift"].seconds + runs["c1_golden_mean"].seconds
    ok = total == 1000 and sound and secs < 10
    _verdict(1, ok, f"{total} orbits re-walked, run took {secs:.2f}s")


def test_criterion_1_rejects_swapped_tracer(runs):
    # every other field of record 0 stays valid, so only the re-walk of
    # the tracer can notice that it traces record 1's pseudo-orbit
    run = runs["c1_full_shift"]
    sys = run.config.system
    a, b = run.records[0], run.records[1]
    assert a.witness_payload["tracer"] != b.witness_payload["tracer"]
    assert _shadow_record_sound(sys, a) and _shadow_record_sound(sys, b)
    swapped = replace(a, witness_payload=dict(
        a.witness_payload, tracer=b.witness_payload["tracer"]))
    assert not _shadow_record_sound(sys, swapped)
    assert replay_verify_record(swapped) is False


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


def test_spec_check_measures_each_segment_as_one_form(runs, monkeypatch):
    # check_specification reads segment j as the form of one true orbit:
    # one apply (the tracer to its switch time) per segment, and no
    # distance walk
    run = runs["c4_spec_cat"]
    sys = run.config.system
    a, b = run.records[0].witness_payload, run.records[1].witness_payload
    segments = [(decode_point(sys, t), n) for t, n in a["segments"]]

    def check(payload):
        return check_specification(
            sys, decode_point(sys, payload["tracer"]), a["switchTimes"],
            a["period"], segments, decode_scalar(a["epsilon"]), a["lo"],
            a["hi"])

    calls = {"apply": 0, "distance": 0}
    with monkeypatch.context() as m:
        for name in calls:
            def counted(self, *args, _name=name,
                        _method=getattr(ToralAutomorphism, name)):
                calls[_name] += 1
                return _method(self, *args)
            m.setattr(ToralAutomorphism, name, counted)
        ok, checks, devs = check(a)
    assert calls == {"apply": len(segments), "distance": 0}
    k = len(segments)
    assert ok and [label for label, _ in checks] == \
        [f"gap[{j}] in [{a['lo']}, {a['hi']}]" for j in range(k)] + \
        [f"dev[{j}] < epsilon" for j in range(k)]
    assert [encode_scalar(d) for d in devs] == a["maxDeviations"]
    # another record's tracer misses the first segment
    ok, checks, _ = check(b)
    assert not ok
    assert next(label for label, good in checks if not good) == \
        "dev[0] < epsilon"


def _barycenter_record_sound(sys, rec):
    """Criterion 5's per-record claims: N = X = 2 N1 with N1 a multiple of
    both periods, and the n1 + n2 + 2 tracking inequalities, walked again
    from the stored x: d(f^i(x), f^i(p)) < epsilon for -n1 <= i <= 0 and
    d(f^(X+i)(x), f^i(q)) < epsilon for 0 <= i <= n2."""
    pl = rec.witness_payload
    half, n_1, n_2 = pl["N1"], pl["n1"], pl["n2"]
    sound = (rec.outcome == "pass"
             and pl["X"] == 2 * half and pl["X"] == pl["N"]
             and half % pl["pPeriod"] == 0
             and half % pl["qPeriod"] == 0
             and pl["inequalities"] == n_1 + n_2 + 2)
    eps = decode_scalar(pl["epsilon"])
    x = decode_point(sys, pl["x"])
    p, q = decode_point(sys, pl["p"]), decode_point(sys, pl["q"])
    walked = 0
    for cur, ref, n in ((sys.apply(x, -n_1), sys.apply(p, -n_1), n_1),
                        (sys.apply(x, pl["X"]), q, n_2)):
        for i in range(n + 1):
            sound = sound and sys.distance(cur, ref) < eps
            walked += 1
            cur, ref = sys.apply(cur), sys.apply(ref)
    return sound and walked == pl["inequalities"]


def test_criterion_5_two_sided_tracking(runs):
    sound = True
    for name in ("c5_cat_fixed", "c5_cat_mixed", "c5_shift"):
        sys = runs[name].config.system
        for rec in runs[name].records:
            sound = (sound and _barycenter_record_sound(sys, rec)
                     and rec.witness_payload["inequalities"] == 102)
    shift = runs["c5_shift"].records[0].witness_payload
    sound = sound and shift["N1"] == 4 and shift["X"] == 8
    secs = sum(runs[n].seconds
               for n in ("c5_cat_fixed", "c5_cat_mixed", "c5_shift"))
    ok = sound and secs < 5
    _verdict(5, ok, f"102 inequalities each, re-walked, shift halfway "
             f"point 4, runs took {secs:.2f}s")


@pytest.mark.parametrize("name, x", [("c5_shift", "1~-~0@0"),
                                     ("c5_cat_fixed", "1/3,1/3")])
def test_criterion_5_rejects_moved_x(runs, name, x):
    # every other field stays valid, so only the re-walk from x can notice
    sys = runs[name].config.system
    rec = runs[name].records[0]
    assert _barycenter_record_sound(sys, rec)
    bad = replace(rec, witness_payload=dict(rec.witness_payload, x=x))
    assert not replay_verify_record(bad)
    assert not _barycenter_record_sound(sys, bad)


def _distance_sound(sys, pl):
    """d(z, zHet), recomputed from the decoded points, is the stored
    distance.  Every shipped witness is cut from z_het itself, so the
    distance is 0 on shipped data."""
    d = sys.distance(decode_point(sys, pl["z"]), decode_point(sys, pl["zHet"]))
    return d == decode_scalar(pl["distance"], D=getattr(sys, "D", 0))


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
                     and _distance_sound(sys, pl)
                     and decode_scalar(pl["distance"], D=sys.D) <= bound)
        sound = sound and all(
            [pl["depth"] for pl in group] == list(range(1, 31))
            for group in by_eps.values())
    shift_run = runs["c6_shift"]
    sys = shift_run.config.system
    sound = sound and len(shift_run.records) == 30
    for rec in shift_run.records:
        pl = rec.witness_payload
        sound = sound and rec.outcome == "pass" and _distance_sound(sys, pl)
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


def test_criterion_6_rejects_moved_z(runs):
    sys = runs["c6_cat_fixed"].config.system
    rec = runs["c6_cat_fixed"].records[0]
    assert _distance_sound(sys, rec.witness_payload)
    bad = replace(rec, witness_payload=dict(rec.witness_payload, z="1/3,1/3"))
    assert bad.witness_payload["distance"] == "sqrt(0)"
    assert not replay_verify_record(bad)
    assert not _distance_sound(sys, bad.witness_payload)


def _cat_power(k: int):
    """A^k for the cat map A = [[2, 1], [1, 1]], multiplied out here."""
    a = ((2, 1), (1, 1))
    m = a
    for _ in range(k - 1):
        m = ((m[0][0] * a[0][0] + m[0][1] * a[1][0],
              m[0][0] * a[0][1] + m[0][1] * a[1][1]),
             (m[1][0] * a[0][0] + m[1][1] * a[1][0],
              m[1][0] * a[0][1] + m[1][1] * a[1][1]))
    return m


def _lattice_count(k: int) -> int:
    m = _cat_power(k)
    return abs((m[0][0] - 1) * (m[1][1] - 1) - m[0][1] * m[1][0])


def _periodic_record_sound(sys, rec):
    """Criterion 7's per-record claims: the lattice count, points fixed by
    A^k (applied here with ``_cat_power``) and distinct by value, and
    periods at most k."""
    pl = rec.witness_payload
    k = pl["k"]
    m = _cat_power(k)
    points = [decode_point(sys, text) for text in pl["points"]]
    fixed = all(tuple((r0 * x + r1 * y).mod1() for r0, r1 in m) == (x, y)
                for x, y in (pt.coords for pt in points))
    return (rec.outcome == "pass" and fixed
            and pl["count"] == pl["expectedCount"] == _lattice_count(k)
            and len(set(points)) == pl["count"]
            and all(p <= k for p in pl["periods"]))


def test_criterion_7_periodic_point_counts(runs):
    run = runs["c7_periodic"]
    sys = run.config.system
    counts = [rec.witness_payload["count"] for rec in run.records]
    sound = all(_periodic_record_sound(sys, rec) for rec in run.records)
    ok = sound and counts == [1, 5, 16, 45, 121, 320]
    _verdict(7, ok, f"counts {counts}")


def test_criterion_7_rejects_unfixed_points(runs):
    sys = runs["c7_periodic"].config.system
    rec = runs["c7_periodic"].records[1]
    assert rec.witness_payload["k"] == 2 and _periodic_record_sound(sys, rec)
    points = [f"{i}/7,0" for i in range(1, 6)]
    bad = replace(rec, witness_payload=dict(rec.witness_payload,
                                            points=points))
    assert not replay_verify_record(bad)
    assert not _periodic_record_sound(sys, bad)


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
