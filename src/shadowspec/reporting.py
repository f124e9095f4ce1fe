"""Typed run records with canonical serialization and replay.

A record freezes everything a later reader needs to re-verify the claim
without repeating the search: the system (as its description string plus a
digest), the parameters, and a witness payload.  Serialization is canonical
(sorted keys, no whitespace), so identical runs produce byte-identical
report files; timings are recorded as zero for the same reason.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .barycenter import (BarycenterWitness, _heteroclinic_bound, as_periodic,
                         extract_heteroclinic, verify_barycenter)
from .codecs import decode_point, decode_scalar, encode_point, encode_scalar
from .errors import SchemaMismatchError, ShadowspecError
from .pseudo_orbits import PseudoOrbit, drift_orbit, perturbed_orbit
from .scalars import parse_exact
from .specification import check_specification
from .systems import (CircleRotation, ShiftSpace, SymbolicPoint,
                      ToralAutomorphism)

SCHEMA_VERSION = 1

_FIELDS = ("schemaVersion", "checkKind", "systemDigest", "parameters",
           "outcome", "witnessPayload", "timingMillis", "seed")
_FIELD_SET = frozenset(_FIELDS)
_OUTCOMES = ("pass", "fail", "error")


def system_digest(sys) -> str:
    """Hash of the canonical system description."""
    return hashlib.sha256(sys.describe().encode()).hexdigest()


_TORAL_RE = re.compile(r"^d=2 mode=exact A=(.+)$")


def system_from_description(text: str):
    """Rebuild a system object from its describe() string."""
    kind, _, rest = text.strip().partition(" ")
    try:
        if kind == "sft":
            fields = dict(f.split("=", 1) for f in rest.split())
            rows = [[int(ch) for ch in row] for row in fields["T"].split(";")]
            return ShiftSpace(rows)
        if kind == "toral":
            m = _TORAL_RE.match(rest)
            rows = [[int(v) for v in row.split()]
                    for row in m.group(1).split(";")]
            return ToralAutomorphism(rows)
        if kind == "rotation":
            return CircleRotation(parse_exact(rest.partition("=")[2]))
    except (AttributeError, KeyError, ValueError) as exc:
        raise SchemaMismatchError(f"bad system description {text!r}: {exc}")
    raise SchemaMismatchError(f"unknown system kind in {text!r}")


@dataclass(frozen=True)
class ReportRecord:
    """One check outcome with enough payload to re-verify it."""

    check_kind: str
    system_digest: str
    parameters: dict
    outcome: str
    witness_payload: dict
    seed: int
    timing_millis: int = 0
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        if self.outcome not in _OUTCOMES:
            raise ValueError(f"outcome must be one of {_OUTCOMES}")

    def to_dict(self) -> dict:
        return {
            "schemaVersion": self.schema_version,
            "checkKind": self.check_kind,
            "systemDigest": self.system_digest,
            "parameters": self.parameters,
            "outcome": self.outcome,
            "witnessPayload": self.witness_payload,
            "timingMillis": self.timing_millis,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ReportRecord":
        if d.keys() != _FIELD_SET:
            missing = _FIELD_SET - d.keys()
            extra = d.keys() - _FIELD_SET
            raise SchemaMismatchError(
                f"record fields off: missing {sorted(missing)}, extra {sorted(extra)}")
        if d["schemaVersion"] != SCHEMA_VERSION:
            raise SchemaMismatchError(
                f"schema version {d['schemaVersion']} (expected {SCHEMA_VERSION})")
        return cls(check_kind=d["checkKind"], system_digest=d["systemDigest"],
                   parameters=d["parameters"], outcome=d["outcome"],
                   witness_payload=d["witnessPayload"],
                   seed=d["seed"], timing_millis=d["timingMillis"],
                   schema_version=d["schemaVersion"])


# json.dumps with these options would build a new encoder on every call.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _canonical(d: dict) -> str:
    return _ENCODER.encode(d)


def records_to_jsonl(records) -> str:
    return "".join(_canonical(r.to_dict()) + "\n" for r in records)


def jsonl_to_records(text: str) -> list:
    records = []
    for ln, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            d = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SchemaMismatchError(f"line {ln}: not JSON: {exc}")
        if not isinstance(d, dict):
            raise SchemaMismatchError(f"line {ln}: not a record object")
        records.append(ReportRecord.from_dict(d))
    return records


def records_to_csv(records) -> str:
    """The same fields as the JSONL form, one column per field.

    Mapping-valued fields are embedded as canonical JSON, so a cell here
    always equals the corresponding JSONL value verbatim.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_FIELDS)
    for r in records:
        d = r.to_dict()
        writer.writerow([_canonical(d[k]) if isinstance(d[k], dict) else d[k]
                         for k in _FIELDS])
    return buf.getvalue()


def plot_csv(records) -> str:
    """Deviation-versus-index rows for records that carry the full profile."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["record", "index", "deviation"])
    for num, r in enumerate(records):
        for idx, dev in enumerate(r.witness_payload.get("perIndexDeviations", ())):
            writer.writerow([num, idx, repr(float(decode_scalar(dev)))])
    return buf.getvalue()


def expected_periodic_count(sys, k: int) -> int:
    """Fixed points of f^k counted by linear algebra, not enumeration.

    Toral automorphisms have |det(A^k - I)| of them; for a shift space the
    count is the trace of the k-th power of the transition matrix.
    """
    if isinstance(sys, ToralAutomorphism):
        m = sys.matrix_power(k)
        a, b = m[0][0] - 1, m[0][1]
        c, d = m[1][0], m[1][1] - 1
        return abs(a * d - b * c)
    if isinstance(sys, ShiftSpace):
        r = sys.alphabet_size
        power = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
        for _ in range(k):
            power = [[sum(power[i][t] * sys.transition[t][j] for t in range(r))
                      for j in range(r)] for i in range(r)]
        return sum(power[i][i] for i in range(r))
    raise ValueError(f"no periodic count for {type(sys).__name__}")


def _rebuild_pseudo_orbit(sys, spec: dict) -> PseudoOrbit:
    kind = spec["kind"]
    if kind == "explicit":
        pts = [decode_point(sys, t) for t in spec["points"]]
        return PseudoOrbit(sys, spec["start"], pts)
    if kind == "seeded":
        return perturbed_orbit(sys, decode_point(sys, spec["x"]),
                               spec["a"], spec["b"],
                               decode_scalar(spec["delta"]), spec["seed"])
    if kind == "drift":
        if not isinstance(sys, CircleRotation):
            raise SchemaMismatchError(
                f"a drift pseudo-orbit needs a rotation, not {sys.describe()!r}")
        return drift_orbit(sys, decode_scalar(spec["y0"]),
                           decode_scalar(spec["delta"]), spec["length"])
    raise SchemaMismatchError(f"unknown pseudo-orbit form {kind!r}")


def _replay_shadowing(sys, payload: dict) -> bool:
    spec = payload["pseudoOrbit"]
    eps = decode_scalar(payload["epsilon"])
    delta = decode_scalar(payload["delta"])
    # a seeded orbit is drawn at the record's delta, not at one of its own
    if spec["kind"] == "seeded" and decode_scalar(spec["delta"]) != delta:
        return False
    po = _rebuild_pseudo_orbit(sys, spec)
    if not po.gap <= delta:
        return False
    tracer = decode_point(sys, payload["tracer"])
    mx = po.max_deviation(sys.apply(tracer, po.start - payload["start"]))
    if not mx < eps:
        return False
    return encode_scalar(mx) == payload["maxDeviation"]


def _replay_spec(sys, payload: dict) -> bool:
    level, thresholds = payload["level"], payload["thresholds"]
    if not 1 <= level < len(thresholds):
        return False
    if (payload["lo"], payload["hi"]) != \
            (thresholds[level - 1], thresholds[level]):
        return False
    segments = [(decode_point(sys, t), int(n))
                for t, n in payload["segments"]]
    if len(payload["switchTimes"]) != len(segments):  # one per segment
        return False
    ok, _, devs = check_specification(
        sys, decode_point(sys, payload["tracer"]),
        tuple(payload["switchTimes"]), payload["period"], segments,
        decode_scalar(payload["epsilon"]), payload["lo"], payload["hi"])
    return ok and [encode_scalar(d) for d in devs] == payload["maxDeviations"]


def _replay_barycenter(sys, payload: dict) -> bool:
    p = as_periodic(sys, decode_point(sys, payload["p"]))
    q = as_periodic(sys, decode_point(sys, payload["q"]))
    if p.period != payload["pPeriod"] or q.period != payload["qPeriod"]:
        return False
    X, half = payload["X"], payload["N1"]
    n_1, n_2 = payload["n1"], payload["n2"]
    if not (X == payload["N"] == 2 * half
            and half % lcm(p.period, q.period) == 0
            and payload["inequalities"] == n_1 + n_2 + 2):
        return False
    return verify_barycenter(sys, decode_point(sys, payload["x"]),
                             X, p, q,
                             decode_scalar(payload["epsilon"]), n_1, n_2)


def _replay_heteroclinic(sys, payload: dict) -> bool:
    p = as_periodic(sys, decode_point(sys, payload["p"]))
    q = as_periodic(sys, decode_point(sys, payload["q"]))
    x = decode_point(sys, payload["x"])
    eps = decode_scalar(payload["epsilon"])
    depth = payload["depth"]
    pairs = tuple((x, payload["X"]) for _ in range(depth))
    w = BarycenterWitness(pairs, eps, p, q, payload["N"])
    z, X = extract_heteroclinic(sys, w)
    if X != payload["X"] or encode_point(sys, z) != payload["z"]:
        return False
    bound = _heteroclinic_bound(sys, eps, depth)
    if encode_scalar(bound) != payload["bound"]:
        return False
    distance = sys.distance(z, decode_point(sys, payload["zHet"]))
    return encode_scalar(distance) == payload["distance"] and distance <= bound


def _periodic_key(pt, k: int):
    """A hashable value, equal for equal points, of a point x with
    f^k(x) = x: a shift point's symbols at 0..k-1 fix it, and the other
    families' points hash by value."""
    return pt.window(0, k - 1) if isinstance(pt, SymbolicPoint) else pt


def _replay_periodic(sys, payload: dict) -> bool:
    k = payload["k"]
    encodings = payload["points"]
    if len(encodings) != payload["count"]:
        return False
    if payload["expectedCount"] != expected_periodic_count(sys, k):
        return False
    if payload["count"] != payload["expectedCount"]:
        return False
    periods = payload["periods"]
    if len(periods) != len(encodings):
        return False
    points = [decode_point(sys, text) for text in encodings]
    for pt, period in zip(points, periods):
        # the least divisor d of k with f^d(x) = x; None unless f^k(x) = x
        least = next((d for d in range(1, k + 1)
                      if k % d == 0 and sys.apply(pt, d) == pt), None)
        if least is None or least != period:
            return False
    # distinct as points, not as texts: "2/10,4/10" is "1/5,2/5" again
    return len({_periodic_key(pt, k) for pt in points}) == len(points)


def _replay_falsify(sys, payload: dict) -> bool:
    eps = decode_scalar(payload["epsilon"])
    delta = decode_scalar(payload["delta"])
    po = _rebuild_pseudo_orbit(sys, payload["pseudoOrbit"])
    if payload["status"] != "certified" or not po.gap <= delta:
        return False
    cert = payload["certificate"]
    if "gridSize" not in cert:
        return False
    grid = cert["gridSize"]
    threshold = decode_scalar(cert["threshold"])
    stored = [decode_scalar(t) for t in cert["gridMaxDeviations"]]
    # every point lies within 1/(2*grid) of a grid point, and rotation is an
    # isometry, so the grid orbits must miss by that much more
    if len(stored) != grid or grid < 1 or \
            not threshold >= eps + Fraction(1, 2 * grid):
        return False
    devs = [po.max_deviation(Fraction(g, grid)) for g in range(grid)]
    return devs == stored and min(devs) >= threshold


_REPLAYERS = {
    "check-shadowing": _replay_shadowing,
    "spec": _replay_spec,
    "barycenter": _replay_barycenter,
    "heteroclinic": _replay_heteroclinic,
    "periodic-points": _replay_periodic,
    "falsify-shadowing": _replay_falsify,
}


@lru_cache(maxsize=16)
def _system_and_digest(description: str):
    """The system a description names, with its digest: built once per
    description, not once per record of a replay."""
    sys = system_from_description(description)
    return sys, system_digest(sys)


def replay_verify_record(record: ReportRecord) -> bool:
    """Re-verify one record's claim from its own payload.

    Only the verification half of the check is repeated; nothing is
    searched for again.  A record whose digest does not match its own
    system description, whose schema version is foreign, or whose payload
    lacks a field or holds one of the wrong type raises SchemaMismatchError
    instead of returning False: it cannot be interpreted at all.
    """
    if record.schema_version != SCHEMA_VERSION:
        raise SchemaMismatchError(
            f"schema version {record.schema_version} (expected {SCHEMA_VERSION})")
    description = record.parameters.get("system")
    if not isinstance(description, str):
        raise SchemaMismatchError("record parameters carry no system description")
    sys, digest = _system_and_digest(description)
    if digest != record.system_digest:
        raise SchemaMismatchError("system digest does not match description")
    replayer = _REPLAYERS.get(record.check_kind)
    if replayer is None:
        raise SchemaMismatchError(f"unknown check kind {record.check_kind!r}")
    try:
        return replayer(sys, record.witness_payload)
    except (KeyError, TypeError) as exc:
        raise SchemaMismatchError(f"unreadable payload: {exc!r}") from None
    except SchemaMismatchError:
        raise
    except (ShadowspecError, ValueError):
        return False


def replay_verdicts(records):
    """Yield each record's replay verdict in turn: "verified" or "mismatch"
    as a pass record re-verifies from its payload or not, and "skipped" for
    fail and error records, which carry no positive claim."""
    for r in records:
        yield ("skipped" if r.outcome != "pass" else
               "verified" if replay_verify_record(r) else "mismatch")


def replay_verify(records) -> bool:
    """True iff every pass record re-verifies; stops at the first miss."""
    return "mismatch" not in replay_verdicts(records)
