"""Report records: serialization, digests, counters, and replay."""

import csv
import dataclasses
import hashlib
import io
import itertools
import json
import random
from collections import Counter
from fractions import Fraction
from math import isqrt
from pathlib import Path

import pytest

from shadowspec import codecs
from shadowspec.codecs import decode_point, decode_scalar, encode_point, encode_scalar
from shadowspec.config import parse_config
from shadowspec.errors import SchemaMismatchError
from shadowspec.pseudo_orbits import (
    PseudoOrbit,
    from_true_orbit,
    orbit,
    perturbed_orbit,
)
from shadowspec.reporting import (
    SCHEMA_VERSION,
    ReportRecord,
    _rebuild_pseudo_orbit,
    _system_and_digest,
    expected_periodic_count,
    jsonl_to_records,
    plot_csv,
    records_to_csv,
    records_to_jsonl,
    replay_verdicts,
    replay_verify,
    replay_verify_record,
    system_digest,
    system_from_description,
)
from shadowspec.runner import run_check
from shadowspec.scalars import QuadraticNumber, SqrtVal
from shadowspec.shadowing import shadow
from shadowspec.systems import (
    CircleRotation,
    PermutationSystem,
    ShiftSpace,
    SymbolicPoint,
    ToralAutomorphism,
    _sq_dist_to_int,
    cat_map,
    full_shift,
    golden_mean_shift,
)

SHADOW_CFG = (
    "system.kind = sft\n"
    "system.transition = 11;11\n"
    "check.kind = check-shadowing\n"
    "check.epsilon = 1/4\n"
    "check.count = 3\n"
    "check.maxLength = 16\n"
    "check.seed = 11\n"
)


@pytest.fixture(scope="module")
def shadow_records():
    return run_check(parse_config(SHADOW_CFG))


def test_digest_is_sha256_of_description():
    sys = cat_map()
    want = hashlib.sha256(sys.describe().encode()).hexdigest()
    assert system_digest(sys) == want
    assert len(want) == 64


@pytest.mark.parametrize("sys", [
    full_shift(2),
    golden_mean_shift(),
    cat_map(),
    CircleRotation("377/610"),
], ids=lambda s: s.kind)
def test_description_round_trip(sys):
    rebuilt = system_from_description(sys.describe())
    assert rebuilt.describe() == sys.describe()
    assert system_digest(rebuilt) == system_digest(sys)


def test_description_rejects_garbage():
    with pytest.raises(SchemaMismatchError):
        system_from_description("anosov flow on a solenoid")
    # no check takes a permutation, so no record describes one
    with pytest.raises(SchemaMismatchError, match="unknown system kind"):
        system_from_description(PermutationSystem((1, 2, 0)).describe())


@pytest.mark.parametrize("text", [
    "toral d=2 mode=float A=2 1;1 1",
    "toral d=3 mode=exact A=0 1 0;0 0 1;1 0 0",
], ids=["float", "d3"])
def test_description_rejects_non_exact_2x2_torus(text):
    with pytest.raises(SchemaMismatchError):
        system_from_description(text)


def test_record_dict_round_trip(shadow_records):
    rec = shadow_records[0]
    back = ReportRecord.from_dict(rec.to_dict())
    assert back == rec
    assert back.to_dict() == rec.to_dict()


def test_record_rejects_bad_outcome():
    with pytest.raises(ValueError):
        ReportRecord("spec", "0" * 64, {}, "maybe", {}, 0)


def test_from_dict_rejects_field_drift(shadow_records):
    good = shadow_records[0].to_dict()
    missing = dict(good)
    del missing["seed"]
    with pytest.raises(SchemaMismatchError):
        ReportRecord.from_dict(missing)
    extra = dict(good)
    extra["comment"] = "tampered"
    with pytest.raises(SchemaMismatchError):
        ReportRecord.from_dict(extra)
    stale = dict(good)
    stale["schemaVersion"] = SCHEMA_VERSION + 1
    with pytest.raises(SchemaMismatchError):
        ReportRecord.from_dict(stale)


def test_jsonl_round_trip_and_determinism(shadow_records):
    text = records_to_jsonl(shadow_records)
    again = run_check(parse_config(SHADOW_CFG))
    assert records_to_jsonl(again) == text
    assert jsonl_to_records(text) == list(shadow_records)


def test_jsonl_keys_are_sorted(shadow_records):
    line = records_to_jsonl(shadow_records).splitlines()[0]
    keys = list(json.loads(line))
    assert keys == sorted(keys)
    assert '"timingMillis":0' in line


def test_jsonl_rejects_garbage_line(shadow_records):
    text = records_to_jsonl(shadow_records) + "\nnot json"
    with pytest.raises(SchemaMismatchError):
        jsonl_to_records(text)
    with pytest.raises(SchemaMismatchError, match="line 2: not a record"):
        jsonl_to_records(records_to_jsonl(shadow_records[:1]) + "[1]\n")


def test_csv_agrees_with_jsonl_field_for_field(shadow_records):
    rows = list(csv.DictReader(io.StringIO(records_to_csv(shadow_records))))
    dicts = [json.loads(line)
             for line in records_to_jsonl(shadow_records).splitlines()]
    assert len(rows) == len(dicts)
    for row, rec in zip(rows, dicts):
        assert set(row) == set(rec)
        for field, value in rec.items():
            if isinstance(value, (dict, list)):
                assert json.loads(row[field]) == value
            else:
                assert row[field] == str(value)


def test_plot_csv_lists_per_index_deviations():
    cfg = parse_config(SHADOW_CFG + "output.plot = dev.csv\n")
    records = run_check(cfg)
    assert all("perIndexDeviations" in r.witness_payload for r in records)
    lines = plot_csv(records).splitlines()
    assert lines[0] == "record,index,deviation"
    expected = sum(len(r.witness_payload["perIndexDeviations"]) for r in records)
    assert len(lines) == 1 + expected
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0"
    float(first[2])


def test_plot_fields_absent_without_plot_output(shadow_records):
    assert all("perIndexDeviations" not in r.witness_payload
               for r in shadow_records)


def test_expected_periodic_counts_cat():
    sys = cat_map()
    assert [expected_periodic_count(sys, k) for k in range(1, 7)] == \
        [1, 5, 16, 45, 121, 320]


def test_expected_periodic_counts_shifts():
    assert [expected_periodic_count(full_shift(2), k) for k in (1, 2, 3, 4)] \
        == [2, 4, 8, 16]
    assert [expected_periodic_count(golden_mean_shift(), k)
            for k in (1, 2, 3, 4, 5, 6)] == [1, 3, 4, 7, 11, 18]


def test_replay_verifies_genuine_records(shadow_records):
    assert all(replay_verify_record(r) for r in shadow_records)
    assert replay_verify(shadow_records)


def test_replay_rejects_tampered_payload(shadow_records):
    rec = shadow_records[0]
    forged = dataclasses.replace(
        rec, witness_payload={**rec.witness_payload, "maxDeviation": "1"})
    assert not replay_verify_record(forged)
    assert not replay_verify([forged])


def test_replay_verify_stops_at_the_first_mismatch(shadow_records):
    rec = shadow_records[0]
    forged = dataclasses.replace(
        rec, witness_payload={**rec.witness_payload, "maxDeviation": "1"})
    unreadable = dataclasses.replace(rec, system_digest="0" * 64)
    assert not replay_verify([forged, unreadable])
    with pytest.raises(SchemaMismatchError):
        replay_verify([unreadable, forged])
    failed = dataclasses.replace(rec, outcome="fail")
    assert list(replay_verdicts([rec, forged, failed])) == \
        ["verified", "mismatch", "skipped"]


def test_replay_rejects_foreign_digest(shadow_records):
    forged = dataclasses.replace(shadow_records[0], system_digest="0" * 64)
    with pytest.raises(SchemaMismatchError):
        replay_verify_record(forged)


EXHAUSTIVE_CFG = (
    "system.kind = sft\n"
    "system.transition = 11;11\n"
    "check.kind = check-shadowing\n"
    "check.mode = exhaustive\n"
    "check.width = 5\n"
    "check.length = 3\n"
    "check.delta = 1/4\n"
    "check.epsilon = 1/2\n"
)


def test_replay_builds_each_system_once(monkeypatch):
    # an exhaustive run writes one system description on every record
    records = run_check(parse_config(EXHAUSTIVE_CFG))
    assert len(records) > 100
    built = []
    real = ShiftSpace.__init__
    monkeypatch.setattr(ShiftSpace, "__init__",
                        lambda *args: built.append(1) or real(*args))
    _system_and_digest.cache_clear()
    assert replay_verify(records)
    assert len(built) == 1
    # the digest is still compared on every record, built or not
    forged = dataclasses.replace(records[-1], system_digest="0" * 64)
    with pytest.raises(SchemaMismatchError, match="digest"):
        replay_verify_record(forged)
    assert len(built) == 1


def test_exhaustive_replay_builds_each_point_window_once(monkeypatch):
    # small-checks' c3 shape: 2048 records share 512 window points through
    # the decode memo; each point's symbols are built once and then sliced
    # from the window it keeps.  A tracer is no point of an explicit form:
    # it keeps nothing, so the one-shot tracers of seeded records pay
    # nothing for the cache
    cfg = EXHAUSTIVE_CFG.replace("width = 5", "width = 9").replace(
        "length = 3", "length = 2").replace("delta = 1/4", "delta = 1/16")
    records = run_check(parse_config(cfg.replace("epsilon = 1/2",
                                                 "epsilon = 1/8")))
    assert len(records) == 2048
    sys, _ = _system_and_digest(records[0].parameters["system"])  # replay's
    points = {t for r in records
              for t in r.witness_payload["pseudoOrbit"]["points"]}
    tracers = {r.witness_payload["tracer"] for r in records} - points
    assert (len(points), len(tracers)) == (512, 512)
    built = Counter()
    real = SymbolicPoint._symbols
    monkeypatch.setattr(SymbolicPoint, "_symbols", lambda p, a, b: (
        built.update([encode_point(sys, p)]) or real(p, a, b)))
    codecs._decode_symbolic.cache_clear()
    assert replay_verify(records)
    assert [built[t] for t in points] == [1] * len(points)
    assert all(built[t] and decode_point(sys, t)._kept is None
               for t in tracers)


def test_explicit_replay_checks_gap_against_delta():
    # an explicit orbit carries no delta of its own to compare
    records = run_check(parse_config(EXHAUSTIVE_CFG))
    rec = next(r for r in records
               if _rebuild_pseudo_orbit(full_shift(2),
                                        r.witness_payload["pseudoOrbit"]).gap)
    assert replay_verify_record(rec)
    assert not replay_verify_record(_forge(rec, delta="1/1024"))


def test_seeded_shift_run_and_replay_measure_no_distance(monkeypatch):
    calls = []
    real = ShiftSpace.distance
    monkeypatch.setattr(ShiftSpace, "distance",
                        lambda *args: calls.append(1) or real(*args))
    records = run_check(parse_config(SHADOW_CFG))
    assert replay_verify(records)
    assert [r.outcome for r in records] == ["pass"] * 3
    assert not calls


def test_replay_rejects_a_seeded_delta_not_the_records(shadow_records):
    # the true orbit from x (delta 0) is traced by x itself at deviation 0,
    # which would pass every other check of a record that claims delta
    for rec in shadow_records:
        pl = rec.witness_payload
        spec = {**pl["pseudoOrbit"], "delta": "0"}
        assert replay_verify_record(rec)
        assert not replay_verify_record(_forge(
            rec, pseudoOrbit=spec, tracer=spec["x"], start=0,
            maxDeviation="0"))
        # the same delta in other text is the same delta
        d = decode_scalar(pl["delta"])
        same = {**pl["pseudoOrbit"],
                "delta": f"{2 * d.numerator}/{2 * d.denominator}"}
        assert replay_verify_record(_forge(rec, pseudoOrbit=same))


def test_replay_rejects_unknown_pseudo_orbit_form(shadow_records):
    # a replayer's own SchemaMismatchError is not a claim found false
    rec = shadow_records[0]
    spec = {**rec.witness_payload["pseudoOrbit"], "kind": "bogus"}
    forged = dataclasses.replace(
        rec, witness_payload={**rec.witness_payload, "pseudoOrbit": spec})
    with pytest.raises(SchemaMismatchError, match="unknown pseudo-orbit form"):
        replay_verify_record(forged)


def test_replay_rejects_future_schema(shadow_records):
    forged = dataclasses.replace(shadow_records[0],
                                 schema_version=SCHEMA_VERSION + 1)
    with pytest.raises(SchemaMismatchError):
        replay_verify_record(forged)


def test_replay_reports_missing_field_as_unreadable(shadow_records):
    rec = shadow_records[0]
    payload = {k: v for k, v in rec.witness_payload.items() if k != "tracer"}
    with pytest.raises(SchemaMismatchError, match="tracer"):
        replay_verify_record(dataclasses.replace(rec, witness_payload=payload))


def test_replay_reports_wrong_field_type_as_unreadable(shadow_records):
    rec = shadow_records[0]
    forged = dataclasses.replace(
        rec, witness_payload={**rec.witness_payload, "start": "zero"})
    with pytest.raises(SchemaMismatchError):
        replay_verify_record(forged)


def test_replay_refuses_uninterpretable_records(shadow_records):
    rec = shadow_records[0]
    with pytest.raises(SchemaMismatchError, match="no system description"):
        replay_verify_record(dataclasses.replace(rec, parameters={}))
    with pytest.raises(SchemaMismatchError, match="unknown check kind"):
        replay_verify_record(dataclasses.replace(rec, check_kind="audit"))
    with pytest.raises(SchemaMismatchError, match="pseudo-orbit form"):
        _rebuild_pseudo_orbit(full_shift(2), {"kind": "bogus"})


def test_replay_skips_non_pass_records(shadow_records):
    rec = shadow_records[0]
    failed = dataclasses.replace(rec, outcome="fail",
                                 witness_payload={"junk": True})
    assert replay_verify([failed, *shadow_records])


# -- exact toral replay: the integer lane against the generic walk ------------

TORAL_SHADOW_CFG = (
    "system.kind = toral\n"
    "system.matrix = 2 1 ; 1 1\n"
    "check.kind = check-shadowing\n"
    "check.delta = 1e-6\n"
    "check.epsilonFactor = 1001/1000\n"
    "check.count = 2\n"
    "check.length = 60\n"
    "check.seed = 5\n"
)

TORAL_MATRICES = {
    "cat": ((2, 1), (1, 1)),
    "D12": ((3, 1), (2, 1)),
    "det-1": ((1, 1), (1, 0)),
}


def _generic_gap(sys, points):
    return max((sys.distance(sys.apply(y), z)
                for y, z in zip(points, points[1:])), default=Fraction(0))


def _tracer_deviations(sys, po, tracer, start):
    """d(f^(n - start)(tracer), y_n) for every index n of ``po``, walked
    through ``apply`` and ``distance``: the oracle for the integer lane."""
    a, b = po.index_range
    cur = sys.apply(tracer, a - start)
    devs = []
    for n in range(a, b + 1):
        devs.append(sys.distance(cur, po.point(n)))
        if n < b:
            cur = sys.apply(cur)
    return devs


def _generic_max_deviation(sys, po, tracer, start):
    return max(_tracer_deviations(sys, po, tracer, start))


def _lane_max_deviation(sys, po, tracer, start):
    return PseudoOrbit(sys, 0, po.points).max_deviation(
        sys.apply(tracer, po.start - start))


def _toral_cases(name):
    """(system, pseudo-orbit points, tracer) for each kind of orbit."""
    sys = ToralAutomorphism(TORAL_MATRICES[name])
    x = sys.point(Fraction(3, 17), Fraction(5, 11))
    po = perturbed_orbit(sys, x, 0, 40, Fraction(1, 10**6), 7)
    tracer = shadow(sys, po, Fraction(1, 100)).tracer  # irrational
    true_orbit = from_true_orbit(sys, tracer, 0, 40)
    # jitter on an irrational orbit keeps irrational points
    irr = perturbed_orbit(sys, tracer, 0, 40, Fraction(1, 10**6), 3)
    other = sys.point(tracer.coords[0] + Fraction(1, 10**5), tracer.coords[1])
    return sys, {
        "perturbed": (po.points, tracer),
        "true-irrational": (true_orbit.points, tracer),
        "true-irrational-off": (true_orbit.points, other),
        "perturbed-irrational": (irr.points, other),
    }


@pytest.mark.parametrize("name", sorted(TORAL_MATRICES))
def test_integer_lane_matches_generic_walk(name):
    sys, cases = _toral_cases(name)
    for label, (points, tracer) in cases.items():
        assert encode_scalar(sys.max_jump(sys.tracking_form(points))) == \
            encode_scalar(_generic_gap(sys, points)), label
        walk = _tracer_deviations(sys, PseudoOrbit(sys, 0, points), tracer, 0)
        assert [encode_scalar(d) for d in sys.orbit_deviations(tracer, sys.tracking_form(points))] \
            == [encode_scalar(d) for d in walk], label
        for a, start in itertools.product((0, -3, 4), repeat=2):
            po = PseudoOrbit(sys, a, points)
            lane = _lane_max_deviation(sys, po, tracer, start)
            generic = _generic_max_deviation(sys, po, tracer, start)
            assert encode_scalar(lane) == encode_scalar(generic), (label, a, start)


def test_integer_lane_orders_a_pell_near_tie():
    # a^2 - 5b^2 = 1 with a + b*sqrt5 = (9 + 4*sqrt5)^21, so omega = a - b*sqrt5
    # is about 2^-88: below the walk's 64-bit window, index 3's shift
    # 1/1000 + omega ties index 1's 1/1000 on their bounds, and only the
    # exact comparison puts index 3 first
    a, b = 1, 0
    for _ in range(21):
        a, b = 9 * a + 20 * b, 4 * a + 9 * b
    assert a * a - 5 * b * b == 1 and b.bit_length() == 86
    omega = QuadraticNumber(5, a, -b)
    near, far = Fraction(1, 1000), Fraction(1, 5000)
    shifts = (far, near, far, near + omega, far, far)
    sys = cat_map()
    for j in range(8):
        x = sys.point(QuadraticNumber(5, 1 + j, 1, 7), Fraction(j, 11))
        points = [sys.point(fx + s, fy)
                  for (fx, fy), s in zip((y.coords for y in orbit(sys, x, 5)),
                                         shifts)]
        want = _generic_max_deviation(sys, PseudoOrbit(sys, 0, points), x, 0)
        assert want == near + omega > near
        assert encode_scalar(sys.max_orbit_deviation(x, sys.tracking_form(points))) == \
            encode_scalar(want), j


def test_integer_lane_bounds_carry_the_sqrt_parts():
    # a + b*sqrt5 = (2 + sqrt5)^47 has norm -1, so a - b*sqrt5 is about
    # -2^-98.  With b = |V_A| + |V_B|, the offsets V_A*sqrt5 and
    # a + V_B*sqrt5 (mod 1) lie at theta and theta + 1/(a + b*sqrt5) from
    # the lattice, and their 95-bit sqrt5 parts move the fixed-point residues
    # up to a bound's unit apart in opposite directions: bounds without the
    # |V| slack put the nearer point first for some splits
    a, b = 2, 1
    for _ in range(46):
        a, b = 2 * a + 5 * b, a + 2 * b
    assert a * a - 5 * b * b == -1 and b.bit_length() == 96
    sys = cat_map()
    origin = sys.point(0, 0)
    for j in range(-40, 40):
        va = b // 2 + j
        ua = isqrt(5 * va * va) + 1  # V_A * sqrt5 + ua = theta in (0, 1)
        points = [sys.point(QuadraticNumber(5, -ua, va), 0),
                  sys.point(QuadraticNumber(5, ua - a, b - va), 0)]
        po = PseudoOrbit(sys, 0, points)
        near, far = _tracer_deviations(sys, po, origin, 0)
        if far > near:  # theta < 1/2
            assert encode_scalar(sys.max_orbit_deviation(origin, sys.tracking_form(points))) \
                == encode_scalar(far), j


def test_integer_lane_rounds_offsets_next_to_one_half():
    # a + b*sqrt5 = (2 + sqrt5)^35 has norm -1, so the offsets
    # 1/2 +- (a - b*sqrt5)/2 lie about 2^-74 from 1/2, closer than the
    # fixed-point bracket of their 71-bit sqrt5 parts can round: their
    # nearest integers come from the exact floor
    a, b = 2, 1
    for _ in range(34):
        a, b = 2 * a + 5 * b, a + 2 * b
    assert a * a - 5 * b * b == -1 and b.bit_length() == 71
    sys = cat_map()
    origin = sys.point(0, 0)
    points = [sys.point(QuadraticNumber(5, -1 - s * a, s * b, 2), 0)
              for s in (1, -1)]
    walk = _tracer_deviations(sys, PseudoOrbit(sys, 0, points), origin, 0)
    assert [encode_scalar(d) for d in sys.orbit_deviations(origin, sys.tracking_form(points))] \
        == [encode_scalar(d) for d in walk]
    assert encode_scalar(sys.max_orbit_deviation(origin, sys.tracking_form(points))) == \
        encode_scalar(max(walk))


@pytest.mark.parametrize("name", sorted(TORAL_MATRICES))
def test_integer_lane_half_ties_and_one_point(name):
    sys = ToralAutomorphism(TORAL_MATRICES[name])
    origin = sys.point(0, 0)
    half = Fraction(1, 2)
    # differences of +1/2 and -1/2 in each coordinate: rational ties
    for points in ([origin, sys.point(half, 0)],
                   [sys.point(half, half), origin],
                   [origin, sys.point(0, half), sys.point(half, Fraction(1, 3))]):
        assert encode_scalar(sys.max_jump(sys.tracking_form(points))) == \
            encode_scalar(_generic_gap(sys, points))
        po = PseudoOrbit(sys, 0, points)
        for tracer in (origin, sys.point(half, half)):
            assert encode_scalar(_lane_max_deviation(sys, po, tracer, 0)) == \
                encode_scalar(_generic_max_deviation(sys, po, tracer, 0))
    lone = sys.point(Fraction(1, 3), Fraction(2, 5))
    assert sys.max_jump(sys.tracking_form([lone])) == 0
    assert encode_scalar(sys.max_jump(sys.tracking_form([lone]))) == \
        encode_scalar(_generic_gap(sys, [lone]))
    po = PseudoOrbit(sys, 0, [lone])
    assert encode_scalar(po.gap) == "0"
    assert encode_scalar(_lane_max_deviation(sys, po, origin, 0)) == \
        encode_scalar(_generic_max_deviation(sys, po, origin, 0))


def test_nearest_integer_kernel_matches_field_arithmetic():
    rng = random.Random(12)
    for D in (5, 12, 13):
        for _ in range(300):
            den = rng.randrange(1, 50)
            u = rng.randrange(-200, 200)
            v = rng.choice((0, rng.randrange(-9, 10)))
            x = QuadraticNumber(D, u, v, den)
            t = x.mod1()
            w = min(t, 1 - t)
            p, q = _sq_dist_to_int(D, u, v, den)
            assert QuadraticNumber(D, p, q, den * den) == w * w, (D, u, v, den)


@pytest.fixture(scope="module")
def toral_shadow_records():
    records = run_check(parse_config(TORAL_SHADOW_CFG))
    assert [r.outcome for r in records] == ["pass", "pass"]
    return records


def _forge(rec, **fields):
    return dataclasses.replace(
        rec, witness_payload={**rec.witness_payload, **fields})


def _rejected(rec) -> bool:
    try:
        return not replay_verify_record(rec)
    except SchemaMismatchError:
        return True


def test_toral_replay_verifies_genuine_records(toral_shadow_records):
    assert replay_verify(toral_shadow_records)


def test_toral_replay_rejects_every_tampered_field(toral_shadow_records):
    sys = cat_map()
    for rec in toral_shadow_records:
        pl = rec.witness_payload
        po = _rebuild_pseudo_orbit(sys, pl["pseudoOrbit"])
        gap = po.gap
        tracer = decode_point(sys, pl["tracer"])
        nudged = sys.point(tracer.coords[0] + Fraction(1, 10**9),
                           tracer.coords[1])
        below_gap = SqrtVal(gap.radicand - Fraction(1, 10**40))
        forged = [
            _forge(rec, tracer=encode_point(sys, nudged)),
            _forge(rec, maxDeviation=encode_scalar(
                decode_scalar(pl["maxDeviation"]) * Fraction(1001, 1000))),
            _forge(rec, epsilon=pl["maxDeviation"]),
            _forge(rec, delta=encode_scalar(below_gap)),
            _forge(rec, start=pl["start"] + 1),
            _forge(rec, start=pl["start"] - 3),
            _forge(rec, pseudoOrbit={**pl["pseudoOrbit"],
                                     "seed": pl["pseudoOrbit"]["seed"] + 1}),
        ]
        assert replay_verify_record(rec)
        assert all(_rejected(f) for f in forged)


BARYCENTER_CFG = (
    "system.kind = sft\n"
    "system.transition = 11;11\n"
    "check.kind = barycenter\n"
    "check.p = 0~-~0@0\n"
    "check.q = 1~-~1@0\n"
    "check.epsilon = 1/8\n"
    "check.n1 = 20\n"
    "check.n2 = 20\n"
)


def test_barycenter_replay_checks_times_agree():
    (rec,) = run_check(parse_config(BARYCENTER_CFG))
    pl = rec.witness_payload
    assert rec.outcome == "pass" and replay_verify_record(rec)
    assert pl["X"] == pl["N"] == 2 * pl["N1"]
    assert _rejected(_forge(rec, X=pl["X"] + 2))
    assert _rejected(_forge(rec, N=pl["N"] + 2))
    assert _rejected(_forge(rec, N1=pl["N1"] + 1))
    assert _rejected(_forge(rec, pPeriod=2))


def test_barycenter_replay_checks_inequality_count():
    (rec,) = run_check(parse_config(BARYCENTER_CFG))
    pl = rec.witness_payload
    assert pl["inequalities"] == pl["n1"] + pl["n2"] + 2
    assert _rejected(_forge(rec, inequalities=3))


def test_barycenter_replay_checks_period_divisibility():
    # p of period 2, q fixed: the half-time must be a multiple of 2
    cfg = BARYCENTER_CFG.replace("check.p = 0~-~0@0", "check.p = 01~-~01@0")
    (rec,) = run_check(parse_config(cfg))
    pl = rec.witness_payload
    assert rec.outcome == "pass" and replay_verify_record(rec)
    assert pl["N1"] % 2 == 0
    odd = pl["N1"] + 1
    assert _rejected(_forge(rec, X=2 * odd, N=2 * odd, N1=odd))


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.mark.parametrize("name", ["c6_shift", "c6_cat_mixed"])
def test_heteroclinic_replay_rederives_bound_and_distance(name):
    # the first record of the shipped config; depth 1 needs no deeper ones
    text = (CONFIGS / f"{name}.cfg").read_text()
    rec = run_check(parse_config(
        text.replace("check.maxDepth = 30", "check.maxDepth = 1")))[0]
    pl = rec.witness_payload
    assert rec.outcome == "pass" and pl["depth"] == 1
    assert replay_verify_record(rec)
    assert _rejected(_forge(rec, distance="5"))
    assert _rejected(_forge(rec, bound="7"))
    assert _rejected(_forge(rec, depth=2))
    assert _rejected(_forge(rec, epsilon="3"))
    assert _rejected(_forge(rec, z=pl["p"]))


SPEC_CFG = (
    "system.kind = sft\n"
    "system.transition = 11;11\n"
    "check.kind = spec\n"
    "check.epsilon = 1/8\n"
    "check.count = 3\n"
    "check.maxSegments = 3\n"
    "check.maxLength = 8\n"
    "check.levels = 1 2\n"
    "check.seed = 404\n"
)


def test_spec_replay_checks_bracket_against_thresholds():
    records = run_check(parse_config(SPEC_CFG))
    assert all(r.outcome == "pass" for r in records)
    for rec in records:
        pl = rec.witness_payload
        assert replay_verify_record(rec)
        assert pl["lo"] == pl["thresholds"][pl["level"] - 1]
        assert pl["hi"] == pl["thresholds"][pl["level"]]
        assert _rejected(_forge(rec, lo=pl["lo"] - 1))
        assert _rejected(_forge(rec, hi=pl["hi"] + 1))
        assert _rejected(_forge(rec, level=0))
        assert _rejected(_forge(rec, level=len(pl["thresholds"])))


def test_spec_replay_checks_max_deviations():
    for rec in run_check(parse_config(SPEC_CFG)):
        pl = rec.witness_payload
        zeroed = ["0"] * len(pl["maxDeviations"])
        assert zeroed != pl["maxDeviations"]
        assert _rejected(_forge(rec, maxDeviations=zeroed))


def test_spec_replay_needs_one_switch_time_per_segment():
    one = SPEC_CFG.replace("check.maxSegments = 3", "check.maxSegments = 1")
    records = run_check(parse_config(SPEC_CFG)) + run_check(parse_config(one))
    assert {len(r.witness_payload["segments"]) for r in records} == {1, 3}
    for rec in records:
        switch = rec.witness_payload["switchTimes"]
        assert replay_verify_record(rec)
        assert _rejected(_forge(rec, switchTimes=switch + [switch[-1]]))
        assert _rejected(_forge(rec, switchTimes=switch[:-1]))


PERIODIC_CFG = (
    "system.kind = toral\n"
    "system.matrix = 2 1 ; 1 1\n"
    "check.kind = periodic-points\n"
    "check.maxPeriod = 3\n"
)


def test_periodic_replay_checks_minimal_periods():
    records = run_check(parse_config(PERIODIC_CFG))
    assert replay_verify(records)
    for rec in records[1:]:
        pl = rec.witness_payload
        assert set(pl["periods"]) == {1, pl["k"]}
        assert _rejected(_forge(rec, periods=[1] * len(pl["periods"])))
        assert _rejected(_forge(rec, periods=pl["periods"][1:]))
        # each forgery below passes every check but the one it targets
        points, periods, count = pl["points"], pl["periods"], pl["count"]
        short = {"points": points[1:], "periods": periods[1:]}
        assert _rejected(_forge(rec, points=[points[0]] * count,
                                periods=[periods[0]] * count))
        assert _rejected(_forge(rec, **short))
        assert _rejected(_forge(rec, **short, count=count - 1,
                                expectedCount=count - 1))
        assert _rejected(_forge(rec, **short, count=count - 1))


def test_periodic_replay_counts_distinct_points_by_value():
    records = run_check(parse_config(PERIODIC_CFG))
    rec = records[1]
    pl = rec.witness_payload
    assert pl["k"] == 2 and "2/5,4/5" in pl["points"]
    points = [p.replace("2/5,4/5", "2/10,4/10") for p in pl["points"]]
    assert replay_verify_record(rec)
    assert _rejected(_forge(rec, points=points))


def test_periodic_replay_counts_distinct_shift_points_by_value():
    # the 2-cycle 01 and 10 of the full 2-shift: 01~-~01@2 is 01~-~01@0
    (_, rec) = run_check(parse_config(
        "system.kind = sft\nsystem.transition = 11;11\n"
        "check.kind = periodic-points\ncheck.maxPeriod = 2\n"))
    pl = rec.witness_payload
    assert pl["points"][1:3] == ["01~-~01@0", "10~-~10@0"]
    assert replay_verify_record(rec)
    points = [pl["points"][0], "01~-~01@0", "01~-~01@2", pl["points"][3]]
    assert _rejected(_forge(rec, points=points))
    # a point of no period k at all is not counted either
    points = [*pl["points"][:3], "0~1~0@0"]
    assert _rejected(_forge(rec, points=points, periods=[1, 2, 2, None]))


def test_replay_rejects_square_radicand(shadow_records):
    # "m-2+1√4" equals m, so an epsilon of that text would sit exactly on
    # the max deviation; a square radicand is refused before any sign
    for rec in shadow_records:
        m = decode_scalar(rec.witness_payload["maxDeviation"])
        assert replay_verify_record(rec)
        assert _rejected(_forge(rec, epsilon=f"{encode_scalar(m - 2)}+1√4"))


ROTATION_FALSIFY_CFG = (
    "system.kind = rotation\n"
    "system.angle = 377/610\n"
    "check.kind = falsify-shadowing\n"
    "check.epsilon = 1/10\n"
    "check.delta = 1/1000\n"
    "check.horizon = 1000\n"
    "check.seed = 808\n"
)


def test_falsify_replay_ties_threshold_to_epsilon():
    # the shipped c8_rotation shape: 9/80 = 1/10 + 1/(2*40) sits exactly on
    # the bound a grid of 40 points needs
    (rec,) = run_check(parse_config(ROTATION_FALSIFY_CFG))
    pl = rec.witness_payload
    assert rec.outcome == "pass"
    assert (pl["certificate"]["gridSize"], pl["certificate"]["threshold"]) == \
        (40, "9/80")
    assert replay_verify_record(rec)
    assert _rejected(_forge(rec, epsilon="1"))
    # a threshold of epsilon itself leaves no margin for the grid pitch:
    # every grid orbit still misses by 9/80 >= 1/10, so only the margin
    # check refuses it
    for threshold in ("0", "1/10"):
        assert _rejected(_forge(rec, certificate={**pl["certificate"],
                                                  "threshold": threshold}))


def test_falsify_replay_rebuilds_rotation_certificate():
    (rec,) = run_check(parse_config(ROTATION_FALSIFY_CFG))
    pl = rec.witness_payload
    cert, drift = pl["certificate"], pl["pseudoOrbit"]
    assert drift["kind"] == "drift" and replay_verify_record(rec)
    devs = cert["gridMaxDeviations"]
    nudged = [*devs[:7],
              encode_scalar(decode_scalar(devs[7]) + Fraction(1, 10**6)),
              *devs[8:]]
    y0 = decode_scalar(drift["y0"])
    forged = [
        _forge(rec, certificate={**cert, "gridMaxDeviations": nudged}),
        _forge(rec, pseudoOrbit={**drift, "y0": encode_scalar(
            (y0 + Fraction(1, 1 << 16)) % 1)}),
        _forge(rec, pseudoOrbit={**drift, "y0": "1"}),
    ]
    assert [replay_verify_record(f) for f in forged] == [False] * 3


def test_falsify_replay_checks_status_and_delta():
    (rec,) = run_check(parse_config(ROTATION_FALSIFY_CFG))
    assert replay_verify_record(rec)
    forged = [
        _forge(rec, delta="0"),
        # the drift steps by 1/1000, so the gap exceeds this delta
        _forge(rec, delta="1/2000"),
        _forge(rec, status="not-found"),
        _forge(rec, status="x"),
        _forge(rec, certificate={}),
    ]
    assert all(_rejected(f) for f in forged)
