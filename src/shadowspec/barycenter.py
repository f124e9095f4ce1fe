"""Periodic points, heteroclinic intersections, and barycenter witnesses.

Everything here is exact: periodic points are enumerated from integer
linear algebra or admissible words and carry only their minimal period,
heteroclinic points are solved in the eigenline coordinates of Q(sqrt(D))
or spliced symbolically, and every "for all j beyond the window" condition
is certified by a one-step contraction inequality at the window edge.
``barycenter_point`` ends with ``verify_barycenter`` on the requested
ranges, so its result needs no second check.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import floor, gcd, lcm, log

from .errors import (
    BudgetExceededError,
    EmptyInputError,
    CalibrationError,
    HorizonError,
    InternalInvariantError,
    NotRelatedError,
    UnsupportedSystemError,
)
from .pseudo_orbits import deviations, from_true_orbit, orbit
from .scalars import QuadraticNumber, SqrtVal, _floor_quad
from .systems import ShiftSpace, SymbolicPoint, ToralAutomorphism, _primitive

PERIOD_BOUND = 8
_BRIDGE_HORIZON = 24


@dataclass(frozen=True)
class HyperbolicPeriodicPoint:
    """A periodic point with its minimal period."""

    point: object
    period: int


def periodic_points(sys, k: int, bound: int = PERIOD_BOUND):
    """All points with f^k(x) = x, each with its minimal period."""
    if k < 1:
        raise ValueError("period must be at least 1")
    if k > bound:
        raise BudgetExceededError(f"period {k} exceeds the bound {bound}")
    if isinstance(sys, ShiftSpace):
        return [HyperbolicPeriodicPoint(SymbolicPoint.periodic(word),
                                        len(_primitive(word)))
                for word in sys.words(k)
                if sys.transition[word[-1]][word[0]]]
    if isinstance(sys, ToralAutomorphism):
        M = sys.matrix_power(k)
        b00, b01 = M[0][0] - 1, M[0][1]
        b10, b11 = M[1][0], M[1][1] - 1
        # B = A^k - I is invertible (A has no eigenvalue on the unit
        # circle), and the points are B^-1 Z^2 mod 1.  B's column Hermite
        # form is [[g, 0], [c, n/g]] with g the gcd of its first row, so
        # (i, j) in [0, g) x [0, n/g) meet each of the n = |det B| cosets of
        # Z^2 / B Z^2 once (Cohen, 2.4.3).
        det = b00 * b11 - b01 * b10
        n = abs(det)
        g = gcd(b00, b01)
        seen = {(Fraction(b11 * i - b01 * j, det) % 1,
                 Fraction(b00 * j - b10 * i, det) % 1)
                for i in range(g) for j in range(n // g)}
        out = []
        for fx, fy in sorted(seen):
            pt = sys.point(fx, fy)
            period = next(d for d in range(1, k + 1)
                          if k % d == 0 and (d == k or sys.apply(pt, d) == pt))
            out.append(HyperbolicPeriodicPoint(pt, period))
        return out
    raise UnsupportedSystemError(
        f"no periodic-point enumeration for {type(sys).__name__}")


def as_periodic(sys, point, bound: int = 64) -> HyperbolicPeriodicPoint:
    """A point with its minimal period, found by direct iteration."""
    cur = point
    for d in range(1, bound + 1):
        cur = sys.apply(cur)
        if cur == point:
            return HyperbolicPeriodicPoint(point, d)
    raise ValueError(f"point is not periodic within {bound} steps")


# -- heteroclinic intersections ----------------------------------------------


def _shells():
    for r in count():
        for mx in range(-r, r + 1):
            for my in range(-r, r + 1):
                if max(abs(mx), abs(my)) == r:
                    yield mx, my


def _heteroclinic_toral(sys, p: HyperbolicPeriodicPoint,
                        q: HyperbolicPeriodicPoint):
    """First genuine solution of p + t*v_u = q + s*v_s + m over the shells.

    Returns (z, t, s); |t| controls the backward approach to the orbit of
    p along the unstable line and |s| the forward approach to the orbit
    of q along the stable line.  The unstable line winds densely, so
    distinct m give distinct z, and only the finitely many points common
    to both orbits are skipped: the search ends.
    """
    sp = sys.hyperbolic_splitting()
    su, ss = sp.v_u[1], sp.v_s[1]
    dv = su - ss
    exclude = [pt for pt in orbit(sys, p.point, p.period - 1)
               if pt in orbit(sys, q.point, q.period - 1)]
    px, py = p.point.coords
    qx, qy = q.point.coords
    for mx, my in _shells():
        wx = qx - px + mx
        wy = qy - py + my
        t = (wy - ss * wx) / dv
        s = (wy - su * wx) / dv
        z = sys.point(px + t, py + t * su)
        if not any(z == e for e in exclude):
            return z, t, s


def _heteroclinic_sft(sys, p: HyperbolicPeriodicPoint,
                      q: HyperbolicPeriodicPoint):
    """Least splice past-of-p | bridge | future-of-q, lex-first bridge.

    Returns (z, L) where z agrees with p strictly below index 0 and with
    q's own sequence from index L on.
    """
    pp, qq = p.point, q.point
    a = pp.symbol(-1)
    exclude = [pt for pt in orbit(sys, pp, p.period - 1)
               if pt in orbit(sys, qq, q.period - 1)]
    left = pp.window(0, p.period - 1)
    reachable_any = False
    for L in range(_BRIDGE_HORIZON + 1):
        b = qq.symbol(L)
        if not sys.reachable_in(L + 1, a, b):
            continue
        reachable_any = True
        right = qq.window(L, L + q.period - 1)
        for word in sys.words(L + 2):
            if word[0] != a or word[-1] != b:
                continue
            z = SymbolicPoint(left, word[1:-1], right, 0)
            if any(z == e for e in exclude):
                continue
            sys.validate_point(z)
            return z, L
    if not reachable_any:
        raise NotRelatedError(
            f"symbol {b} of the target word is unreachable from {a}")
    raise HorizonError(
        f"no genuine splice with bridge length <= {_BRIDGE_HORIZON}")


def heteroclinic_point(sys, p: HyperbolicPeriodicPoint,
                       q: HyperbolicPeriodicPoint):
    """A point of W^u(orbit of p) intersected with W^s(orbit of q)."""
    if isinstance(sys, ToralAutomorphism):
        return _heteroclinic_toral(sys, p, q)[0]
    if isinstance(sys, ShiftSpace):
        return _heteroclinic_sft(sys, p, q)[0]
    raise UnsupportedSystemError(
        f"no heteroclinic construction for {type(sys).__name__}")


# -- barycenter construction ---------------------------------------------------


@dataclass(frozen=True)
class BarycenterResult:
    """x whose backward orbit tracks p and, after X steps, forward tracks q."""

    x: object
    X: int
    N: int
    epsilon: object
    n_1: int
    n_2: int
    p: HyperbolicPeriodicPoint
    q: HyperbolicPeriodicPoint


@dataclass(frozen=True)
class BarycenterWitness:
    """Pairs (z_m, X_m) for depths m = 1..n with shared parameters."""

    pairs: tuple
    epsilon: object
    p: HyperbolicPeriodicPoint
    q: HyperbolicPeriodicPoint
    N: int

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(self.pairs))
        for _, X in self.pairs:
            if not 0 <= X <= self.N:
                raise ValueError(f"X = {X} outside [0, {self.N}]")


def _tail_window(sys, t, eps, backward: bool) -> int:
    """Least n >= 0 with SqrtVal(bound2 * c2^n) < eps on a toral system.

    bound2 is the squared planar distance at n = 0 of two points t != 0
    apart on the eigenline (unstable backward, stable forward), and c2 the
    squared contraction of one step.  ln(bound2 / eps^2) / ln(1/c2) misses
    the crossing by far less than a step, so the walk up to the least n
    starts one step below its floor.
    """
    sp = sys.hyperbolic_splitting()
    slope = sp.v_u[1] if backward else sp.v_s[1]
    contract = (1 / sp.lam_u) if backward else sp.lam_s
    bound2 = t * t * (1 + slope * slope)
    c2 = contract * contract
    n = max(0, floor(_ln(bound2 / (eps * eps)) / -_ln(c2)) - 1)
    bound = bound2 * c2 ** n
    while not SqrtVal(bound) < eps:
        n, bound = n + 1, bound * c2
    return n


def _ln(x: QuadraticNumber) -> float:
    """ln x for x > 0, taken on integers so that no float underflows."""
    # |p + q sqrt(D)| >= 1 / |p - q sqrt(D)| (the norm is a nonzero
    # integer), so scaling by 2^k leaves at least 63 bits in the floor
    k = 64 + max(abs(x.p), abs(x.q) * x.D).bit_length()
    return log(_floor_quad(x.D, x.p << k, x.q << k, 1)) - log(x.r << k)


def _violation_threshold(sys, z, anchor, eps, backward: bool, tail_data):
    """Least n0 with d(f^(+-n)(z), f^(+-n)(anchor)) < eps for ALL n >= n0.

    A contraction bound (planar eigenline norm, or symbolic agreement
    spreading one index per step) certifies the tail beyond a finite
    window; inside the window every distance is checked exactly.
    """
    if isinstance(sys, ShiftSpace):
        # bound(n) = 2^(shift - n), monotone decreasing in n
        shift = int(tail_data)
        window = max(shift, 0)
        while not Fraction(1, 2 ** (window - shift)) < eps:
            window += 1
    else:
        window = _tail_window(sys, tail_data, eps, backward)
    sign = -1 if backward else 1
    devs = deviations(sys, z, orbit(sys, anchor, window, sign), sign)
    return 1 + max((n for n, d in enumerate(devs) if not d < eps), default=-1)


def barycenter_point(sys, p: HyperbolicPeriodicPoint,
                     q: HyperbolicPeriodicPoint, epsilon,
                     n_1: int, n_2: int) -> BarycenterResult:
    """x = f^(-N_1)(z) for the least certified common multiple N_1.

    N_1 is the least positive common multiple of the two periods such
    that the heteroclinic point z stays epsilon-close to the orbit of p
    at all times <= -N_1 and to the orbit of q at all times >= N_1; the
    result is then re-verified directly on the requested index ranges
    with ``verify_barycenter``.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if n_1 < 0 or n_2 < 0:
        raise ValueError("check depths must be nonnegative")
    if isinstance(sys, ToralAutomorphism):
        z, t, s = _heteroclinic_toral(sys, p, q)
        nb = _violation_threshold(sys, z, p.point, epsilon, True, t)
        nf = _violation_threshold(sys, z, q.point, epsilon, False, s)
    elif isinstance(sys, ShiftSpace):
        z, L = _heteroclinic_sft(sys, p, q)
        nb = _violation_threshold(sys, z, p.point, epsilon, True, 0)
        nf = _violation_threshold(sys, z, q.point, epsilon, False, L - 1)
    else:
        raise UnsupportedSystemError(
            f"no barycenter construction for {type(sys).__name__}")
    step = lcm(p.period, q.period)
    need = max(nb, nf, 1)
    n1 = step * -(-need // step)
    x = sys.apply(z, -n1)
    X = 2 * n1
    if not verify_barycenter(sys, x, X, p, q, epsilon, n_1, n_2):
        raise InternalInvariantError(
            "barycenter point deviates by epsilon on the checked ranges")
    return BarycenterResult(x, X, X, epsilon, n_1, n_2, p, q)


def verify_barycenter(sys, x, X: int, p: HyperbolicPeriodicPoint,
                      q: HyperbolicPeriodicPoint, epsilon,
                      n_1: int, n_2: int) -> bool:
    """Re-check the two tracking inequality ranges of a barycenter result.

    d(f^i(x), f^i(p)) < epsilon for -n_1 <= i <= 0, and
    d(f^(X+i)(x), f^i(q)) < epsilon for 0 <= i <= n_2.
    """
    back = from_true_orbit(sys, p.point, -n_1, 0)
    fwd = from_true_orbit(sys, q.point, 0, n_2)
    return (back.max_deviation(sys.apply(x, -n_1)) < epsilon
            and fwd.max_deviation(sys.apply(x, X)) < epsilon)


def cut_witness(result: BarycenterResult, depth: int) -> BarycenterWitness:
    """Witness pairs at depths 1..depth read off a barycenter result.

    The barycenter point satisfies the tracking inequalities at every
    depth up to its construction range, so each pair reuses (x, X).
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    pairs = tuple((result.x, result.X) for _ in range(depth))
    return BarycenterWitness(pairs, result.epsilon, result.p, result.q,
                             result.N)


def _heteroclinic_bound(sys, epsilon, depth: int):
    """2 * epsilon * rate^depth, the most a depth-m witness may miss z_het by.

    The rate is |lambda_s| on a torus and 1/2 on a shift.
    """
    if isinstance(sys, ToralAutomorphism):
        lam = sys.hyperbolic_splitting().lam_s
        rate = lam if lam.sign() > 0 else -lam
    else:
        rate = Fraction(1, 2)
    return 2 * epsilon * rate**depth


def extract_heteroclinic(sys, w: BarycenterWitness):
    """(z, X) from the most frequent X value at its deepest occurrence.

    The selected pair is re-certified against the witness inequalities;
    the certificate is the finite stand-in for membership of z in the
    unstable set of p and of f^X(z) in the stable set of q.
    """
    if not w.pairs:
        raise EmptyInputError("witness has no pairs")
    counts = Counter(X for _, X in w.pairs)
    top = max(counts.values())
    X = min(x for x, c in counts.items() if c == top)
    m = max(i + 1 for i, (_, xm) in enumerate(w.pairs) if xm == X)
    z = w.pairs[m - 1][0]

    back = from_true_orbit(sys, w.p.point, -m, 0)
    if not back.max_deviation(sys.apply(z, -m)) <= w.epsilon:
        raise CalibrationError(f"witness {m} violates the backward inequality")
    fwd = from_true_orbit(sys, w.q.point, 0, m)
    if not fwd.max_deviation(sys.apply(z, X)) <= w.epsilon:
        raise CalibrationError(f"witness {m} violates the forward inequality")
    return z, X
