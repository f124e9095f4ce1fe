"""Run configured checks and freeze every outcome into report records.

Each record is self-contained: the payload carries the inputs (seeded
descriptors or explicit points) and the witness, so a later reader can
re-verify the claim without repeating any search.  All randomness flows
from one master generator per run; timings are recorded as zero so that
identical (config, seed) runs serialize byte-identically.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
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
from .covers import build_cover
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
from .systems import ShiftSpace, ToralAutomorphism


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

    @contextmanager
    def attempt(self, records: list, seed: int | None = None):
        """Turn a ShadowspecError raised in the block into an error record.

        This is the one place where a failed construction becomes a record;
        a config error still stops the run.  With no ``seed``, the record's
        seed is drawn from the run generator after the failure.
        """
        try:
            yield
        except ConfigError:
            raise
        except ShadowspecError as exc:
            if seed is None:
                seed = self.rng.getrandbits(32)
            records.append(self.record(
                "error", {"error": exc.code, "message": str(exc)}, seed))


def _parameters(sys, check: dict) -> dict:
    out = {"system": sys.describe()}
    for key in sorted(check):
        value = check[key]
        if key in ("p", "q"):
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
    # a rotation, the last family
    return Fraction(rng.randrange(1 << 16), 1 << 16)


def _epsilon_list(check: dict):
    if "epsilons" in check:
        return list(check["epsilons"])
    if "epsilon" in check:
        return [check["epsilon"]]
    raise ConfigError("config-invariant", 0, "check needs epsilon or epsilons")


def _epsilon_pairs(sys, check: dict):
    """(epsilon, delta) combinations a shadowing run iterates over.

    delta is None where the config leaves it to the calibration, which the
    run then takes inside its error arm.

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
    return [(eps, check.get("delta")) for eps in _epsilon_list(check)]


def _shadow_record(ctx: _Ctx, po, po_spec: dict, eps, delta,
                   seed: int) -> ReportRecord:
    """The pass or fail record of tracing ``po`` at (eps, delta)."""
    result = shadow(ctx.sys, po, eps)
    ok = po.gap <= delta and result.max_deviation < eps
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
    return ctx.record("pass" if ok else "fail", payload, seed)


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
            x0 = _random_point(sys, sub)
            orbit_seed = sub.getrandbits(32)
            with ctx.attempt(records, seed_i):
                if delta is None:  # calibrated once per epsilon, if at all
                    delta = delta_for_epsilon(sys, eps)
                po = perturbed_orbit(sys, x0, 0, npts - 1, delta, orbit_seed)
                po_spec = {"kind": "seeded", "x": encode_point(sys, x0),
                           "a": 0, "b": npts - 1,
                           "delta": encode_scalar(delta), "seed": orbit_seed}
                records.append(_shadow_record(ctx, po, po_spec, eps, delta,
                                              seed_i))
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
        with ctx.attempt(records, ctx.base_seed):
            po_spec = {"kind": "explicit", "start": 0,
                       "points": [encode_point(sys, y) for y in points]}
            records.append(_shadow_record(ctx, PseudoOrbit(sys, 0, points),
                                          po_spec, eps, delta, ctx.base_seed))
    return records


def _spec_schedule(sys, eps, n_max: int, check: dict, cache: dict):
    key = str(eps)
    if key in cache:
        hit = cache[key]
        if isinstance(hit, ShadowspecError):
            raise hit
        return hit
    try:
        cover = build_cover(sys, cover_tolerance(sys, eps))
        schedule = transition_times(sys, cover, n_max,
                                    check.get("horizon", DEFAULT_HORIZON))
    except ShadowspecError as exc:
        cache[key] = exc
        raise
    cache[key] = schedule
    return schedule


def _run_spec(sys, check: dict, ctx: _Ctx):
    levels = check.get("levels") or (1,)
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
            with ctx.attempt(records, seed_i):
                schedule = _spec_schedule(sys, eps, max(levels), check, cache)
                result = specification_point(sys, segments, eps, level,
                                             schedule=schedule)
                payload = {
                    "tracer": encode_point(sys, result.tracer),
                    "switchTimes": list(result.switch_times),
                    "period": result.period,
                    "segments": [[encode_point(sys, x), n]
                                 for x, n in segments],
                    "epsilon": encode_scalar(eps),
                    "level": level,
                    "lo": schedule.threshold(level - 1),
                    "hi": schedule.threshold(level),
                    "thresholds": [schedule.threshold(n)
                                   for n in range(schedule.n_levels + 1)],
                    "maxDeviations": [encode_scalar(d) for d
                                      in result.per_segment_max_deviation],
                }
                records.append(ctx.record("pass", payload, seed_i))
    return records


def _barycenter(sys, check: dict, eps, kind: str):
    """The barycenter result for the configured p and q at ``eps``.

    A missing or aperiodic p or q, or a negative depth, is a config error.
    """
    try:
        p = as_periodic(sys, check["p"])
        q = as_periodic(sys, check["q"])
        return barycenter_point(sys, p, q, eps, check.get("n1", 50),
                                check.get("n2", 50))
    except KeyError:
        raise ConfigError("config-invariant", 0,
                          f"{kind} checks need points p and q")
    except ValueError as exc:
        raise ConfigError("config-invariant", 0, str(exc))


def _run_barycenter(sys, check: dict, ctx: _Ctx):
    records = []
    for eps in _epsilon_list(check):
        seed_i = ctx.rng.getrandbits(32)
        with ctx.attempt(records, seed_i):
            result = _barycenter(sys, check, eps, ctx.kind)
            p, q, n_1, n_2 = result.p, result.q, result.n_1, result.n_2
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
    max_depth = check.get("maxDepth", 30)
    for eps in _epsilon_list(check):
        with ctx.attempt(records):
            result = _barycenter(sys, check, eps, ctx.kind)
            for depth in range(1, max_depth + 1):
                seed_i = ctx.rng.getrandbits(32)
                with ctx.attempt(records, seed_i):
                    bound = _heteroclinic_bound(sys, eps, depth)
                    witness = cut_witness(result, depth)
                    z, X = extract_heteroclinic(sys, witness)
                    distance = sys.distance(z, result.x)
                    ok = X == result.X and distance <= bound
                    payload = {
                        "p": encode_point(sys, result.p.point),
                        "q": encode_point(sys, result.q.point),
                        "x": encode_point(sys, result.x),
                        "X": result.X, "N": result.N, "depth": depth,
                        "epsilon": encode_scalar(eps),
                        "z": encode_point(sys, z),
                        "zHet": encode_point(sys, result.x),
                        "bound": encode_scalar(bound),
                        "distance": encode_scalar(distance),
                    }
                    records.append(ctx.record("pass" if ok else "fail",
                                              payload, seed_i))
    return records


def _run_periodic(sys, check: dict, ctx: _Ctx):
    records = []
    max_period = check.get("maxPeriod", 6)
    for k in range(1, max_period + 1):
        seed_i = ctx.rng.getrandbits(32)
        with ctx.attempt(records, seed_i):
            found = periodic_points(sys, k, bound=max(max_period, 8))
            expected = expected_periodic_count(sys, k)
            ok = (len(found) == expected
                  and all(sys.apply(hp.point, k) == hp.point for hp in found))
            payload = {
                "k": k, "count": len(found), "expectedCount": expected,
                "points": [encode_point(sys, hp.point) for hp in found],
                "periods": [hp.period for hp in found],
            }
            records.append(ctx.record("pass" if ok else "fail", payload,
                                      seed_i))
    return records


def _run_falsify(sys, check: dict, ctx: _Ctx):
    if "epsilon" not in check:
        raise ConfigError("config-invariant", 0, "falsification needs epsilon")
    horizon = check.get("horizon", 1000)
    records = []
    for _ in range(check.get("count", 1)):
        seed_i = ctx.rng.getrandbits(32)
        with ctx.attempt(records, seed_i):
            result = falsify_shadowing(sys, check["epsilon"], horizon, seed_i,
                                       check.get("delta"))
            payload = {
                "status": result.status,
                "epsilon": encode_scalar(result.epsilon),
                "delta": encode_scalar(result.delta),
                "pseudoOrbit": {
                    "kind": "drift",
                    "y0": encode_scalar(result.pseudo_orbit.points[0]),
                    "delta": encode_scalar(result.delta), "length": horizon},
            }
            if result.certificate is not None:
                payload["certificate"] = {
                    key: value if isinstance(value, int)
                    else [encode_scalar(d) for d in value]
                    if isinstance(value, tuple) else encode_scalar(value)
                    for key, value in result.certificate.items()}
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
