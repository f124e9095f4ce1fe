"""Explicit tracing of pseudo-orbits in expansive systems.

Both constructions are exact: the returned tracer is a point whose true
orbit stays strictly within epsilon of every pseudo-orbit point, and the
reported deviations are exact scalars recomputed from the definition, not
byproducts of the construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from math import isqrt, lcm

from .errors import (
    CalibrationError,
    InternalInvariantError,
    UnsupportedSystemError,
)
from .scalars import QuadraticNumber, SqrtVal, rational_below_sqrt
from .systems import (
    CircleRotation,
    PermutationSystem,
    ShiftSpace,
    SymbolicPoint,
    ToralAutomorphism,
    TorusPoint,
)
from .pseudo_orbits import PseudoOrbit, from_true_orbit, max_metric, perturb


def _expansion_constant(sys: ToralAutomorphism):
    """C with delta = eps / C calibrating toral shadowing.

    C = 1/(1 - |lam_s|) + |lam_u| / (|lam_u| - 1), padded by a rational
    conditioning factor kappa >= 1 / sin(angle between eigendirections).
    For a symmetric matrix the eigendirections are orthogonal, kappa is
    exactly 1, and C reduces to the two-term formula.
    """
    sp = sys.hyperbolic_splitting()
    one = QuadraticNumber.from_rational(sys.D, 1)
    au, as_ = abs(sp.lam_u), abs(sp.lam_s)
    c = one / (one - as_) + au / (au - one)
    su, ss = sp.v_u[1], sp.v_s[1]  # slopes; first coordinates are 1
    dot = one + su * ss
    if dot.sign() == 0:
        return c
    sin2 = one - dot * dot / ((one + su * su) * (one + ss * ss))
    bits = 40
    while True:
        lo = Fraction((sin2 * 2**bits).floor(), 2**bits)
        if lo > 0:
            break
        bits += 20
        if bits > 400:
            raise InternalInvariantError("eigendirections nearly collinear")
    kappa = 1 / rational_below_sqrt(lo)
    return c * kappa


def delta_for_epsilon(sys, epsilon):
    """The jump tolerance under which every pseudo-orbit is epsilon-traced."""
    if isinstance(sys, ShiftSpace):
        eps = Fraction(epsilon)
        if eps <= 0:
            raise ValueError("epsilon must be positive")
        k = 0
        while Fraction(1, 2**k) > eps:
            k += 1
        return Fraction(1, 2 ** (k + 1))
    if isinstance(sys, ToralAutomorphism):
        eps = sys.scalar(epsilon) if not isinstance(epsilon, QuadraticNumber) \
            else epsilon
        if eps.sign() <= 0:
            raise ValueError("epsilon must be positive")
        return eps / _expansion_constant(sys)
    raise UnsupportedSystemError(
        f"no shadowing calibration for {type(sys).__name__}")


@dataclass(frozen=True)
class ShadowingResult:
    """A tracer point together with its exact per-index deviations.

    ``deviations`` is either the tuple of deviations or a function of no
    arguments that computes it; ``per_index_deviations`` computes the tuple
    on first read and keeps it, so a caller that only needs the maximum
    never pays for the per-index values.
    """

    tracer: object
    max_deviation: object
    deviations: object = field(repr=False, compare=False)
    epsilon_used: object
    delta_used: object
    start: int

    @cached_property
    def per_index_deviations(self) -> tuple:
        devs = self.deviations
        return tuple(devs() if callable(devs) else devs)


def _check_gap(po: PseudoOrbit, delta):
    if not po.gap <= delta:
        raise CalibrationError(
            f"pseudo-orbit gap {po.gap} exceeds the calibrated delta {delta}")


def shadow_sft(sys: ShiftSpace, po: PseudoOrbit, epsilon) -> ShadowingResult:
    """Trace a shift pseudo-orbit by splicing its central symbols.

    The tracer reads symbol (y_m)_0 at index m and continues with y_a's
    left tail and y_b's right tail.  A gap of 2^-(k+1) forces agreement of
    consecutive points on a width 2k+1 window, which makes the splice
    admissible and keeps every deviation at most 2^-(k+1) < epsilon.
    """
    if not isinstance(sys, ShiftSpace):
        raise UnsupportedSystemError("shadow_sft needs a shift space")
    delta = delta_for_epsilon(sys, epsilon)
    _check_gap(po, delta)
    a, b = po.index_range
    ya, yb = po.points[0], po.points[-1]
    sa, _ = ya.core_span()
    _, eb = yb.core_span()
    lo = min(sa, 0)
    hi = max(eb, 1)
    core = (ya.window(lo, -1) + tuple(p.symbol(0) for p in po.points)
            + yb.window(1, hi - 1))
    left, _ = ya.tails_at(lo, hi)
    _, right = yb.tails_at(lo, hi)
    tracer = SymbolicPoint(left, core, right, -(a + lo))
    try:
        sys.validate_point(tracer)
    except Exception as exc:
        raise InternalInvariantError(f"splice tracer inadmissible: {exc}")
    devs = tuple(sys.distance(sys.apply(tracer, m), po.points[m - a])
                 for m in range(a, b + 1))
    mx = max_metric(devs)
    if not mx < epsilon:
        raise InternalInvariantError(
            f"splice deviation {mx} reached epsilon {epsilon}")
    return ShadowingResult(tracer, mx, devs, Fraction(epsilon), delta, a)


def _nearest_int(t: QuadraticNumber) -> int:
    # round half toward the smaller integer: ceil(t - 1/2)
    half = QuadraticNumber(t.D, 1, 0, 2)
    return -((half - t).floor())


def shadow_toral(sys: ToralAutomorphism, po: PseudoOrbit,
                 epsilon) -> ShadowingResult:
    """Trace a toral pseudo-orbit by cancelling lifted jump errors.

    Lift the points so consecutive jumps are nearest-translate errors,
    split each error into eigencomponents, sum the stable components
    forward and the unstable ones backward, and add the resulting
    correction to each lifted point.  The corrections telescope exactly,
    so the output is a true orbit; hyperbolicity bounds every correction
    by delta * C < epsilon.
    """
    if not isinstance(sys, ToralAutomorphism):
        raise UnsupportedSystemError("shadow_toral needs a toral automorphism")
    eps = sys.scalar(epsilon) if not isinstance(epsilon, QuadraticNumber) \
        else epsilon
    delta = delta_for_epsilon(sys, eps)
    if _lattice_applicable(sys, po):
        result = _shadow_toral_lattice(sys, po, eps, delta)
        if result is not None:
            return result
    _check_gap(po, delta)
    return _shadow_toral_generic(sys, po, eps, delta)


def _shadow_toral_generic(sys, po, eps, delta) -> ShadowingResult:
    sp = sys.hyperbolic_splitting()
    vs, vu = sp.v_s, sp.v_u
    det = vs[0] * vu[1] - vs[1] * vu[0]
    A = sys.matrix
    a, _ = po.index_range
    m = len(po.points)

    lifts = [tuple(po.points[0].coords)]
    errors = []
    for n in range(m - 1):
        img = (A[0][0] * lifts[n][0] + A[0][1] * lifts[n][1],
               A[1][0] * lifts[n][0] + A[1][1] * lifts[n][1])
        nxt = []
        for i in range(2):
            t = img[i] - po.points[n + 1].coords[i]
            nxt.append(po.points[n + 1].coords[i] + _nearest_int(t))
        lifts.append(tuple(nxt))
        errors.append((nxt[0] - img[0], nxt[1] - img[1]))

    alphas, betas = [], []
    for ex, ey in errors:
        alphas.append((ex * vu[1] - ey * vu[0]) / det)
        betas.append((vs[0] * ey - vs[1] * ex) / det)

    zero = sys.scalar(0)
    s = [zero]
    for n in range(m - 1):
        s.append(sp.lam_s * s[n] - alphas[n])
    u = [zero] * m
    for n in range(m - 2, -1, -1):
        u[n] = (u[n + 1] + betas[n]) / sp.lam_u

    zs = [(lifts[n][0] + s[n] * vs[0] + u[n] * vu[0],
           lifts[n][1] + s[n] * vs[1] + u[n] * vu[1]) for n in range(m)]
    for n in range(m - 1):
        img = (A[0][0] * zs[n][0] + A[0][1] * zs[n][1],
               A[1][0] * zs[n][0] + A[1][1] * zs[n][1])
        if img[0] != zs[n + 1][0] or img[1] != zs[n + 1][1]:
            raise InternalInvariantError("corrected points are not an orbit")

    tracer = sys.point(*zs[0])
    devs = tuple(sys.distance(sys.point(*zs[n]), po.points[n])
                 for n in range(m))
    if sys.apply(tracer, m - 1) != sys.point(*zs[m - 1]):
        raise InternalInvariantError("tracer orbit drifts from construction")
    mx = max_metric(devs)
    if not mx < eps:
        raise InternalInvariantError(
            f"deviation {mx} reached epsilon {eps}")
    return ShadowingResult(tracer, mx, devs, eps, delta, a)


# -- integer lattice lane for long exact orbits ------------------------------
#
# When every coordinate is rational the whole correction pipeline lives in
# the ring of integers of Q(sqrt(D)) over a handful of fixed denominators,
# as integer pairs (a, b) ~ a + b*omega, omega = (1+sqrt(D))/2.  In this
# basis the coefficients of lam_s^k grow like lam_u^k, so a correction of
# size 1e-6 on a thousand-step orbit carries coefficients of ~1400 bits.
# Sign decisions are therefore filtered: an integer fixed-point image of
# each pair, rigorously within |b| of 2^(k+1) * (a + b*omega), gives an
# interval that proves most corrections below 1/2 and rules out all but
# the largest deviations; the exact pair comparison runs only where the
# intervals do not settle the question.  Values and tie-breaking match the
# generic lane exactly; only the representation differs.


def _lattice_applicable(sys, po) -> bool:
    return (sys.D % 4 == 1 and len(po.points) >= 2
            and all(c.is_rational() for p in po.points for c in p.coords))


def _pair_sign(D: int, pair) -> int:
    # sign of a + b*omega = (2a + b + b*sqrt(D)) / 2
    a, b = pair
    p = 2 * a + b
    if p >= 0 and b >= 0:
        return 1 if (p or b) else 0
    if p <= 0 and b <= 0:
        return -1 if (p or b) else 0
    if p >= 0:
        return 1 if p * p > D * b * b else -1
    return 1 if D * b * b > p * p else -1


def _pmul(w: int, x, y):
    # (a + b*omega) * (e + f*omega) with omega^2 = omega + w
    a, b = x
    e, f = y
    bf = b * f
    return (a * e + bf * w, a * f + b * e + bf)


def _pair_to_quad(D: int, pair, den: int = 1) -> QuadraticNumber:
    a, b = pair
    return QuadraticNumber(D, 2 * a + b, b, 2 * den)


def _quad_to_pair(x: QuadraticNumber):
    # (p + q*sqrt(D)) / r = ((p - q) + 2q*omega) / r
    return (x.p - x.q, 2 * x.q), x.r


def _quad_to_int_pair(x: QuadraticNumber):
    pair, den = _quad_to_pair(x)
    if pair[0] % den or pair[1] % den:
        raise InternalInvariantError(f"{x} is not an algebraic integer")
    return pair[0] // den, pair[1] // den


def _norm2(w: int, cx, cy):
    # cx^2 + cy^2 as a pair, omega^2 = omega + w
    x2 = _pmul(w, cx, cx)
    y2 = _pmul(w, cy, cy)
    return x2[0] + y2[0], x2[1] + y2[1]


def _pair_deviations(D: int, cxs, cys, scale_den: int) -> tuple:
    # dev_n = sqrt((cx_n^2 + cy_n^2) / scale_den), as exact SqrtVals
    w = (D - 1) // 4
    return tuple(SqrtVal(_pair_to_quad(D, _norm2(w, cx, cy), scale_den))
                 for cx, cy in zip(cxs, cys))


def _shadow_toral_lattice(sys, po, eps, delta) -> ShadowingResult | None:
    D = sys.D
    w = (D - 1) // 4  # omega^2 = omega + w
    pmul = partial(_pmul, w)

    sp = sys.hyperbolic_splitting()
    try:
        ls = _quad_to_int_pair(sp.lam_s)
    except InternalInvariantError:
        return None
    lu_inv = ls if sys.det == 1 else (-ls[0], -ls[1])

    (ssp, ssd) = _quad_to_pair(sp.v_s[1])
    (sup, sud) = _quad_to_pair(sp.v_u[1])
    vden = lcm(ssd, sud)
    ss = (ssp[0] * (vden // ssd), ssp[1] * (vden // ssd))
    su = (sup[0] * (vden // sud), sup[1] * (vden // sud))
    dv = (su[0] - ss[0], su[1] - ss[1])  # (sigma_u - sigma_s) * vden

    # rational coordinates are stored reduced: p / r with r > 0
    Q = 1
    for p in po.points:
        Q = lcm(Q, *(c.r for c in p.coords))
    pts = [tuple(c.p * (Q // c.r) for c in p.coords) for p in po.points]

    A = sys.matrix
    m = len(pts)
    lifts = [pts[0]]
    errs = []
    max_e2 = 0
    for n in range(m - 1):
        ix = A[0][0] * lifts[n][0] + A[0][1] * lifts[n][1]
        iy = A[1][0] * lifts[n][0] + A[1][1] * lifts[n][1]
        # nearest integer translate, ties toward the smaller integer
        tx = ix - pts[n + 1][0]
        ty = iy - pts[n + 1][1]
        mx_ = -((Q - 2 * tx) // (2 * Q))
        my_ = -((Q - 2 * ty) // (2 * Q))
        nxt = (pts[n + 1][0] + mx_ * Q, pts[n + 1][1] + my_ * Q)
        lifts.append(nxt)
        ex, ey = nxt[0] - ix, nxt[1] - iy
        errs.append((ex, ey))
        e2 = ex * ex + ey * ey
        if e2 > max_e2:
            max_e2 = e2
    gap = SqrtVal(Fraction(max_e2, Q * Q))
    if po._gap is None:
        po._gap = gap
    if not gap <= delta:
        raise CalibrationError(
            f"pseudo-orbit gap {gap} exceeds the calibrated delta {delta}")

    # scaled eigencomponents: shat = s * (sigma_u - sigma_s), denominator R
    R = Q * vden
    shat = [(0, 0)]
    for ex, ey in errs:
        # alpha * Delta = e_x * sigma_u - e_y, over R
        av = (ex * su[0] - ey * vden, ex * su[1])
        prev = shat[-1]
        ms_ = pmul(ls, prev)
        shat.append((ms_[0] - av[0], ms_[1] - av[1]))
    uhat = [(0, 0)] * m
    for n in range(m - 2, -1, -1):
        ex, ey = errs[n]
        bv = (ey * vden - ex * ss[0], -ex * ss[1])
        nxt = uhat[n + 1]
        uhat[n] = pmul(lu_inv, (nxt[0] + bv[0], nxt[1] + bv[1]))

    # corr * Delta over common denominator R * vden, per coordinate
    cxs, cys = [], []
    for n in range(m):
        sx, ux = shat[n], uhat[n]
        cxs.append(((sx[0] + ux[0]) * vden, (sx[1] + ux[1]) * vden))
        cy_ = pmul(sx, ss)
        cu_ = pmul(ux, su)
        cys.append((cy_[0] + cu_[0], cy_[1] + cu_[1]))

    # filter: mag(pair) = [lo, hi] around 2^(k+1-shift) * |a + b*omega|.
    # (a << k+1) + b*W is within |b| of 2^(k+1) * (a + b*omega), so k puts
    # that error ~128 bits below R, the scale of the 1/2 threshold, and the
    # shift keeps every bound near 160 bits.
    rdv = (R * dv[0], R * dv[1])
    bits = max(abs(c[1]).bit_length() for c in (*cxs, *cys, rdv))
    k = max(bits + 128 - R.bit_length(), 0)
    W = (1 << k) + isqrt(D << 2 * k)  # 2^(k+1) * omega - W is in [0, 1)
    shift = max(bits - 32, 0)

    def mag(pair):
        a, b = pair
        t = abs((a << k + 1) + b * W)
        e = abs(b)
        return max(t - e, 0) >> shift, -(-(t + e) >> shift)

    # |corr| < 1/2 iff 2|c| < R|dv|: settled by the filter when 2|c|'s
    # upper bound is below R|dv|'s lower one, else by the exact sign of
    # 4c^2 - R^2 dv^2
    dv2 = pmul(dv, dv)
    half_bound = (R * R * dv2[0], R * R * dv2[1])
    tlo = mag(rdv)[0]
    mags = []
    for n in range(m):
        bx, by = mag(cxs[n]), mag(cys[n])
        for comp, (_, hi) in ((cxs[n], bx), (cys[n], by)):
            if 2 * hi < tlo:
                continue
            c2 = pmul(comp, comp)
            if _pair_sign(D, (4 * c2[0] - half_bound[0],
                              4 * c2[1] - half_bound[1])) >= 0:
                return None  # correction not provably below 1/2: generic lane
        mags.append((bx, by))

    # true-orbit identity A*corr_n - corr_{n+1} = e_n at denominator R*vden
    for n in range(m - 1):
        ex, ey = errs[n]
        lhs0 = (A[0][0] * cxs[n][0] + A[0][1] * cys[n][0] - cxs[n + 1][0],
                A[0][0] * cxs[n][1] + A[0][1] * cys[n][1] - cxs[n + 1][1])
        lhs1 = (A[1][0] * cxs[n][0] + A[1][1] * cys[n][0] - cys[n + 1][0],
                A[1][0] * cxs[n][1] + A[1][1] * cys[n][1] - cys[n + 1][1])
        if lhs0 != (ex * dv[0] * vden, ex * dv[1] * vden) or \
           lhs1 != (ey * dv[0] * vden, ey * dv[1] * vden):
            raise InternalInvariantError("corrected points are not an orbit")

    # deviations: dev_n^2 = N_n / (R^2 * dv^2); dv^2 is rational because
    # sigma_u - sigma_s is a pure sqrt(D) multiple, so its pair squares to
    # an integer and the scale factor collapses to one denominator.
    if dv2[1] != 0:
        raise InternalInvariantError("eigenslope difference squared not rational")
    scale_den = R * R * dv2[0]

    # largest N_n: only indices whose upper bound reaches the best lower
    # bound can attain it, and those are compared exactly
    floor_ = max(xl * xl + yl * yl for (xl, _), (yl, _) in mags)
    best = None
    for n, ((_, xh), (_, yh)) in enumerate(mags):
        if xh * xh + yh * yh < floor_:
            continue
        n2 = _norm2(w, cxs[n], cys[n])
        if best is None or _pair_sign(D, (n2[0] - best[0],
                                          n2[1] - best[1])) > 0:
            best = n2
    mxdev = SqrtVal(_pair_to_quad(D, best, scale_den))
    if not mxdev < eps:
        raise InternalInvariantError(
            f"deviation {mxdev} reached epsilon {eps}")

    delta_q = _pair_to_quad(D, dv, vden)

    def corr_quad(n):
        return (_pair_to_quad(D, cxs[n], R * vden) / delta_q,
                _pair_to_quad(D, cys[n], R * vden) / delta_q)

    c0 = corr_quad(0)
    tracer = sys.point(Fraction(lifts[0][0], Q) + c0[0],
                       Fraction(lifts[0][1], Q) + c0[1])
    cl = corr_quad(m - 1)
    z_last = sys.point(Fraction(lifts[m - 1][0], Q) + cl[0],
                       Fraction(lifts[m - 1][1], Q) + cl[1])
    if sys.apply(tracer, m - 1) != z_last:
        raise InternalInvariantError("tracer orbit drifts from construction")
    devs = partial(_pair_deviations, D, cxs, cys, scale_den)
    return ShadowingResult(tracer, mxdev, devs, eps, delta, po.index_range[0])


def shadow(sys, po: PseudoOrbit, epsilon) -> ShadowingResult:
    """Dispatch to the tracer construction matching the system."""
    if isinstance(sys, ShiftSpace):
        return shadow_sft(sys, po, epsilon)
    if isinstance(sys, ToralAutomorphism):
        return shadow_toral(sys, po, epsilon)
    raise UnsupportedSystemError(
        f"no tracer construction for {type(sys).__name__}")


@dataclass(frozen=True)
class FalsificationResult:
    """Outcome of a falsification attempt.

    status is "certified" when no point epsilon-traces the produced
    pseudo-orbit (with a finite certificate), else "not-found" with the
    tracer that defeated the attempt.
    """

    status: str
    pseudo_orbit: PseudoOrbit
    epsilon: object
    delta: object
    certificate: dict | None
    tracer: object | None


def _falsify_rotation(sys: CircleRotation, epsilon, horizon, rng, delta):
    eps = Fraction(epsilon)
    delta = Fraction(delta) if delta is not None else Fraction(1, horizon)
    y0 = Fraction(rng.randrange(1 << 16), 1 << 16)
    pts = [y0]
    for _ in range(horizon):
        pts.append((pts[-1] + sys.angle + delta) % 1)
    po = PseudoOrbit(sys, 0, pts)
    # Candidate tracers on a grid of pitch <= eps/4: any point sits within
    # eps/8 of a grid point and rotation is an isometry, so if every grid
    # orbit deviates by at least 9*eps/8 somewhere, no point stays below eps.
    grid = max(-((-4 * eps.denominator) // eps.numerator), 1)  # ceil(4/eps)
    threshold = eps * Fraction(9, 8)
    maxdevs = []
    for g in range(grid):
        x = Fraction(g, grid)
        dev = Fraction(0)
        for n, y in enumerate(pts):
            d = sys.distance(sys.apply(x, n), y)
            if d > dev:
                dev = d
        maxdevs.append(dev)
    if min(maxdevs) >= threshold:
        cert = {"gridSize": grid, "threshold": threshold,
                "gridMaxDeviations": tuple(maxdevs)}
        return FalsificationResult("certified", po, eps, delta, cert, None)
    return FalsificationResult("not-found", po, eps, delta, None, None)


def _falsify_permutation(sys: PermutationSystem, epsilon, horizon, rng, delta):
    eps = Fraction(epsilon)
    delta = Fraction(delta) if delta is not None else min(eps, Fraction(1)) / 2
    length = min(horizon, 4 * sys.size + 8)
    if delta < 1:
        po = from_true_orbit(sys, rng.randrange(sys.size), 0, length)
    else:
        po = PseudoOrbit(sys, 0,
                         [rng.randrange(sys.size) for _ in range(length + 1)])
    best = None
    for x in range(sys.size):
        dev = max_metric(sys.distance(sys.apply(x, n), y)
                         for n, y in enumerate(po.points))
        if dev < eps:
            return FalsificationResult("not-found", po, eps, delta, None, x)
        if best is None or dev < best:
            best = dev
    cert = {"exhaustive": True, "candidates": sys.size,
            "minMaxDeviation": best}
    return FalsificationResult("certified", po, eps, delta, cert, None)


def _rational_below(value, bits: int = 40) -> Fraction:
    if isinstance(value, Fraction):
        return value
    return Fraction((value * 2**bits).floor(), 2**bits)


def _falsify_hyperbolic(sys, epsilon, horizon, rng, delta):
    # Expansive systems with the tracing property: any honest attempt is
    # defeated by the tracer itself, which is the certificate of failure.
    calib = delta_for_epsilon(sys, epsilon)
    delta = delta if delta is not None else _rational_below(calib)
    length = min(horizon, 128)
    if isinstance(sys, ShiftSpace):
        word = [rng.randrange(sys.alphabet_size)]
        for _ in range(16):
            succ = sys.successors(word[-1])
            word.append(succ[rng.randrange(len(succ))])
        base = sys.point_through(tuple(word), at=-8)
    else:
        den = 1 << 12
        base = sys.point(Fraction(rng.randrange(den), den),
                         Fraction(rng.randrange(den), den))
    po = perturb(sys, from_true_orbit(sys, base, 0, length), delta,
                 rng.getrandbits(32))
    result = shadow(sys, po, epsilon)
    return FalsificationResult("not-found", po, result.epsilon_used,
                               delta, None, result.tracer)


def falsify_shadowing(sys, epsilon, horizon: int, seed: int,
                      delta=None) -> FalsificationResult:
    """Search for a pseudo-orbit no point can epsilon-trace.

    Rotations defeat tracing outright: a constant drift accumulates while
    every true orbit is rigid, and a grid certificate verifies that no
    starting point keeps up.  The expansive systems always trace, and the
    discrete system traces trivially below metric resolution, so there the
    search reports not-found with the defeating tracer.
    """
    if horizon < 1:
        raise ValueError("horizon must be positive")
    rng = random.Random(seed)
    if isinstance(sys, CircleRotation):
        return _falsify_rotation(sys, epsilon, horizon, rng, delta)
    if isinstance(sys, PermutationSystem):
        return _falsify_permutation(sys, epsilon, horizon, rng, delta)
    if isinstance(sys, (ShiftSpace, ToralAutomorphism)):
        return _falsify_hyperbolic(sys, epsilon, horizon, rng, delta)
    raise UnsupportedSystemError(
        f"falsification is not defined for {type(sys).__name__}")
