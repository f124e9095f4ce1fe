"""Run configured checks and freeze every outcome into report records.

Each record is self-contained: the payload carries the inputs (seeded
descriptors or explicit points) and the witness, so a later reader can
re-verify the claim without repeating any search.  All randomness flows
from one master generator per run; timings are recorded as zero so that
identical (config, seed) runs serialize byte-identically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .barycenter import (
    _heteroclinic_bound,
    as_periodic,
    barycenter_point,
    cut_witness,
    extract_heteroclinic,
    periodic_points,
)
from .codecs import encode_point, encode_scalar
from .config import RunConfig
from .covers import CELL_BUDGET, build_cover
from .errors import ConfigError, ShadowspecError
from .pseudo_orbits import PseudoOrbit, perturbed_orbit
from .reporting import ReportRecord, expected_periodic_count, system_digest
from .shadowing import delta_for_epsilon, falsify_shadowing, shadow
from .specification import (
    DEFAULT_HORIZON,
    cover_tolerance,
    specification_point,
    transition_times,
)
from .systems import (
    CircleRotation,
    PermutationSystem,
    ShiftSpace,
    ToralAutomorphism,
)


@dataclass
class _Ctx:
    sys: object
    kind: str
    digest: str
    params: dict
    rng: random.Random
    base_seed: int
    plot: bool

    def record(self, outcome: str, payload: dict, seed: int) -> ReportRecord:
        return ReportRecord(check_kind=self.kind, system_digest=self.digest,
                            parameters=self.params, outcome=outcome,
                            witness_payload=payload, seed=seed)

    def error(self, exc: ShadowspecError, seed: int) -> ReportRecord:
        return self.record("error", {"error": exc.code, "message": str(exc)},
                           seed)


def _parameters(sys, check: dict) -> dict:
    out = {"system": sys.describe()}
    for key in sorted(check):
        value = check[key]
        if key in ("start", "p", "q"):
            out[key] = encode_point(sys, value)
        elif isinstance(value, (int, str)) and not isinstance(value, bool):
            out[key] = value
        elif isinstance(value, tuple):
            out[key] = [v if isinstance(v, int) else encode_scalar(v)
                        for v in value]
        else:
            out[key] = encode_scalar(value)
    return out


def _random_point(sys, rng: random.Random):
    if isinstance(sys, ShiftSpace):
        word = [rng.randrange(sys.alphabet_size)]
        while len(word) < 24:
            succ = sys.successors(word[-1])
            word.append(succ[rng.randrange(len(succ))])
        return sys.point_through(tuple(word), at=-12)
    if isinstance(sys, ToralAutomorphism):
        den = 1 << 12
        return sys.point(Fraction(rng.randrange(den), den),
                         Fraction(rng.randrange(den), den))
    if isinstance(sys, CircleRotation):
        return Fraction(rng.randrange(1 << 16), 1 << 16)
    if isinstance(sys, PermutationSystem):
        return rng.randrange(sys.size)
    raise ConfigError("config-invariant", 0,
                      f"no point sampler for {type(sys).__name__}")


def _epsilon_list(check: dict):
    if "epsilons" in check:
        return list(check["epsilons"])
    if "epsilon" in check:
        return [check["epsilon"]]
    raise ConfigError("config-invariant", 0, "check needs epsilon or epsilons")


def _epsilon_pairs(sys, check: dict):
    """(epsilon, delta) combinations a shadowing run iterates over.

    epsilonFactor scales epsilon off the calibration line: epsilon =
    factor * delta / delta_for_epsilon(1), so factor 1 sits exactly on it.
    """
    if "epsilonFactor" in check:
        if "delta" not in check:
            raise ConfigError("config-invariant", 0, "epsilonFactor needs delta")
        if not isinstance(sys, ToralAutomorphism):
            raise ConfigError("config-invariant", 0,
                              "epsilonFactor calibration needs a toral system")
        delta = check["delta"]
        eps = sys.scalar(delta * check["epsilonFactor"]) \
            / delta_for_epsilon(sys, Fraction(1))
        return [(eps, delta)]
    pairs = []
    for eps in _epsilon_list(check):
        delta = check["delta"] if "delta" in check else delta_for_epsilon(sys, eps)
        pairs.append((eps, delta))
    return pairs


def _shadow_payload(ctx: _Ctx, po_spec, eps, delta, result) -> dict:
    payload = {
        "pseudoOrbit": po_spec,
        "epsilon": encode_scalar(eps),
        "delta": encode_scalar(delta),
        "tracer": encode_point(ctx.sys, result.tracer),
        "start": result.start,
        "maxDeviation": encode_scalar(result.max_deviation),
    }
    if ctx.plot:
        payload["perIndexDeviations"] = [encode_scalar(d)
                                         for d in result.per_index_deviations]
    return payload


def _run_shadowing(sys, check: dict, ctx: _Ctx):
    if check.get("mode") == "exhaustive":
        return _run_exhaustive(sys, check, ctx)
    records = []
    for eps, delta in _epsilon_pairs(sys, check):
        for _ in range(check.get("count", 1)):
            seed_i = ctx.rng.getrandbits(32)
            sub = random.Random(seed_i)
            if "maxLength" in check:
                npts = sub.randrange(2, check["maxLength"] + 1)
            else:
                npts = check.get("length", 64)
            x0 = check["start"] if "start" in check else _random_point(sys, sub)
            orbit_seed = sub.getrandbits(32)
            try:
                po = perturbed_orbit(sys, x0, 0, npts - 1, delta, orbit_seed)
                result = shadow(sys, po, eps)
                ok = po.gap <= delta and result.max_deviation < eps
            except ShadowspecError as exc:
                records.append(ctx.error(exc, seed_i))
                continue
            po_spec = {"kind": "seeded", "x": encode_point(sys, x0),
                       "a": 0, "b": npts - 1,
                       "delta": encode_scalar(delta), "seed": orbit_seed}
            payload = _shadow_payload(ctx, po_spec, eps, delta, result)
            records.append(ctx.record("pass" if ok else "fail", payload, seed_i))
    return records


def _window_chains(sys: ShiftSpace, width: int, count: int):
    """All sequences of ``count`` width-words linked by one-step overlap.

    Consecutive windows share width-2 interior symbols shifted by one, so
    the induced pseudo-orbit gap never exceeds 2^-(width//2).
    """
    chains = [(w,) for w in sys.words(width)]
    for _ in range(count - 1):
        extended = []
        for chain in chains:
            mid = chain[-1][2:]
            for s0 in range(sys.alphabet_size):
                if not sys.transition[s0][mid[0]]:
                    continue
                for s_end in range(sys.alphabet_size):
                    if sys.transition[mid[-1]][s_end]:
                        extended.append(chain + ((s0,) + mid + (s_end,),))
        chains = extended
    return chains


def _run_exhaustive(sys, check: dict, ctx: _Ctx):
    if not isinstance(sys, ShiftSpace):
        raise ConfigError("config-invariant", 0, "exhaustive mode needs an sft")
    width = check.get("width", 9)
    if width < 3 or width % 2 == 0:
        raise ConfigError("config-invariant", 0, "width must be odd, at least 3")
    npts = check.get("length", 3)
    if "epsilon" not in check:
        raise ConfigError("config-invariant", 0, "exhaustive mode needs epsilon")
    eps = check["epsilon"]
    delta = check["delta"] if "delta" in check else delta_for_epsilon(sys, eps)
    at = -(width // 2)
    records = []
    for chain in _window_chains(sys, width, npts):
        points = [sys.point_through(w, at) for w in chain]
        po = PseudoOrbit(sys, 0, points)
        try:
            result = shadow(sys, po, eps)
            ok = po.gap <= delta and result.max_deviation < eps
        except ShadowspecError as exc:
            records.append(ctx.error(exc, ctx.base_seed))
            continue
        po_spec = {"kind": "explicit", "start": 0,
                   "points": [encode_point(sys, y) for y in points]}
        payload = _shadow_payload(ctx, po_spec, eps, delta, result)
        records.append(ctx.record("pass" if ok else "fail", payload,
                                  ctx.base_seed))
    return records


def _spec_schedule(sys, eps, n_max: int, check: dict, cache: dict):
    key = str(eps)
    if key in cache:
        hit = cache[key]
        if isinstance(hit, ShadowspecError):
            raise hit
        return hit
    try:
        cover = build_cover(sys, cover_tolerance(sys, eps),
                            check.get("budget", CELL_BUDGET))
        schedule = transition_times(sys, cover, n_max,
                                    check.get("horizon", DEFAULT_HORIZON))
    except ShadowspecError as exc:
        cache[key] = exc
        raise
    cache[key] = schedule
    return schedule


def _run_spec(sys, check: dict, ctx: _Ctx):
    levels = check.get("levels") or (check.get("level", 1),)
    max_seg = check.get("maxSegments", 4)
    max_len = check.get("maxLength", 16)
    records = []
    cache = {}
    for eps in _epsilon_list(check):
        for _ in range(check.get("count", 1)):
            seed_i = ctx.rng.getrandbits(32)
            sub = random.Random(seed_i)
            k = sub.randrange(1, max_seg + 1)
            segments = [(_random_point(sys, sub), sub.randrange(0, max_len + 1))
                        for _ in range(k)]
            level = levels[sub.randrange(len(levels))]
            try:
                schedule = _spec_schedule(sys, eps, max(levels), check, cache)
                result = specification_point(sys, segments, eps, level,
                                             schedule=schedule)
            except ShadowspecError as exc:
                records.append(ctx.error(exc, seed_i))
                continue
            payload = {
                "tracer": encode_point(sys, result.tracer),
                "switchTimes": list(result.switch_times),
                "period": result.period,
                "segments": [[encode_point(sys, x), n] for x, n in segments],
                "epsilon": encode_scalar(eps),
                "level": level,
                "lo": schedule.threshold(level - 1),
                "hi": schedule.threshold(level),
                "thresholds": [schedule.threshold(n)
                               for n in range(schedule.n_levels + 1)],
                "maxDeviations": [encode_scalar(d)
                                  for d in result.per_segment_max_deviation],
            }
            records.append(ctx.record("pass", payload, seed_i))
    return records


def _run_barycenter(sys, check: dict, ctx: _Ctx):
    records = []
    n_1 = check.get("n1", 50)
    n_2 = check.get("n2", 50)
    for eps in _epsilon_list(check):
        seed_i = ctx.rng.getrandbits(32)
        try:
            p = as_periodic(sys, check["p"])
            q = as_periodic(sys, check["q"])
            result = barycenter_point(sys, p, q, eps, n_1, n_2)
        except KeyError:
            raise ConfigError("config-invariant", 0,
                              "barycenter checks need points p and q")
        except ValueError as exc:
            raise ConfigError("config-invariant", 0, str(exc))
        except ShadowspecError as exc:
            records.append(ctx.error(exc, seed_i))
            continue
        payload = {
            "x": encode_point(sys, result.x),
            "X": result.X, "N": result.N, "N1": result.X // 2,
            "n1": n_1, "n2": n_2,
            "epsilon": encode_scalar(eps),
            "p": encode_point(sys, p.point), "pPeriod": p.period,
            "q": encode_point(sys, q.point), "qPeriod": q.period,
            "inequalities": (n_1 + 1) + (n_2 + 1),
        }
        records.append(ctx.record("pass", payload, seed_i))
    return records


def _run_heteroclinic(sys, check: dict, ctx: _Ctx):
    records = []
    n_1 = check.get("n1", 50)
    n_2 = check.get("n2", 50)
    max_depth = check.get("maxDepth", 30)
    for eps in _epsilon_list(check):
        try:
            p = as_periodic(sys, check["p"])
            q = as_periodic(sys, check["q"])
            result = barycenter_point(sys, p, q, eps, n_1, n_2)
        except KeyError:
            raise ConfigError("config-invariant", 0,
                              "heteroclinic checks need points p and q")
        except ValueError as exc:
            raise ConfigError("config-invariant", 0, str(exc))
        except ShadowspecError as exc:
            records.append(ctx.error(exc, ctx.rng.getrandbits(32)))
            continue
        for depth in range(1, max_depth + 1):
            seed_i = ctx.rng.getrandbits(32)
            bound = _heteroclinic_bound(sys, eps, depth)
            try:
                witness = cut_witness(result, depth)
                z, X = extract_heteroclinic(sys, witness)
                distance = sys.distance(z, result.x)
                ok = X == result.X and distance <= bound
            except ShadowspecError as exc:
                records.append(ctx.error(exc, seed_i))
                continue
            payload = {
                "p": encode_point(sys, p.point),
                "q": encode_point(sys, q.point),
                "x": encode_point(sys, result.x),
                "X": result.X, "N": result.N, "depth": depth,
                "epsilon": encode_scalar(eps),
                "z": encode_point(sys, z),
                "zHet": encode_point(sys, result.x),
                "bound": encode_scalar(bound),
                "distance": encode_scalar(distance),
            }
            records.append(ctx.record("pass" if ok else "fail", payload,
                                      seed_i))
    return records


def _run_periodic(sys, check: dict, ctx: _Ctx):
    records = []
    max_period = check.get("maxPeriod", 6)
    for k in range(1, max_period + 1):
        seed_i = ctx.rng.getrandbits(32)
        try:
            found = periodic_points(sys, k, bound=max(max_period, 8))
            expected = expected_periodic_count(sys, k)
            ok = (len(found) == expected
                  and all(sys.apply(hp.point, k) == hp.point for hp in found))
        except ShadowspecError as exc:
            records.append(ctx.error(exc, seed_i))
            continue
        payload = {
            "k": k, "count": len(found), "expectedCount": expected,
            "points": [encode_point(sys, hp.point) for hp in found],
            "periods": [hp.period for hp in found],
        }
        records.append(ctx.record("pass" if ok else "fail", payload, seed_i))
    return records


def _falsify_po_spec(sys, result, horizon: int) -> dict:
    if isinstance(sys, CircleRotation):
        return {"kind": "drift",
                "y0": encode_scalar(result.pseudo_orbit.points[0]),
                "delta": encode_scalar(result.delta),
                "length": horizon}
    start = result.pseudo_orbit.index_range[0]
    return {"kind": "explicit", "start": start,
            "points": [encode_point(sys, y)
                       for y in result.pseudo_orbit.points]}


def _run_falsify(sys, check: dict, ctx: _Ctx):
    if "epsilon" not in check:
        raise ConfigError("config-invariant", 0, "falsification needs epsilon")
    horizon = check.get("horizon", 1000)
    records = []
    for _ in range(check.get("count", 1)):
        seed_i = ctx.rng.getrandbits(32)
        try:
            result = falsify_shadowing(sys, check["epsilon"], horizon, seed_i,
                                       check.get("delta"))
        except ShadowspecError as exc:
            records.append(ctx.error(exc, seed_i))
            continue
        payload = {
            "status": result.status,
            "epsilon": encode_scalar(result.epsilon),
            "delta": encode_scalar(result.delta),
            "pseudoOrbit": _falsify_po_spec(sys, result, horizon),
        }
        if result.certificate is not None:
            cert = dict(result.certificate)
            if "threshold" in cert:
                cert["threshold"] = encode_scalar(cert["threshold"])
            if "gridMaxDeviations" in cert:
                cert["gridMaxDeviations"] = [encode_scalar(d)
                                             for d in cert["gridMaxDeviations"]]
            if "minMaxDeviation" in cert:
                cert["minMaxDeviation"] = encode_scalar(cert["minMaxDeviation"])
            payload["certificate"] = cert
        if result.tracer is not None:
            payload["tracer"] = encode_point(sys, result.tracer)
        outcome = "pass" if result.status == "certified" else "fail"
        records.append(ctx.record(outcome, payload, seed_i))
    return records


_RUNNERS = {
    "check-shadowing": _run_shadowing,
    "spec": _run_spec,
    "barycenter": _run_barycenter,
    "heteroclinic": _run_heteroclinic,
    "periodic-points": _run_periodic,
    "falsify-shadowing": _run_falsify,
}


def run_check(cfg: RunConfig) -> list:
    """All records for one configured run, in deterministic order."""
    kind = cfg.check.get("kind")
    if kind not in _RUNNERS:
        raise ConfigError("config-invariant", 0,
                          f"check.kind missing or unknown: {kind!r}")
    seed = cfg.check.get("seed", 0)
    ctx = _Ctx(cfg.system, kind, system_digest(cfg.system),
               _parameters(cfg.system, cfg.check), random.Random(seed), seed,
               bool(cfg.output.get("plot")))
    return _RUNNERS[kind](cfg.system, cfg.check, ctx)
