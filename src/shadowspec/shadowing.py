"""Explicit tracing of pseudo-orbits in expansive systems.

``shadow_sft`` splices shift symbols; ``shadow_toral`` cancels the lifted
jump errors of a hyperbolic toral automorphism in one integer lane, for
every discriminant and for rational and irrational points alike.  Both
constructions are exact: the returned tracer is a point whose true orbit
stays strictly within epsilon of every pseudo-orbit point, and the reported
deviations are exact torus distances, not byproducts of the construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import isqrt

from .errors import (
    CalibrationError,
    InternalInvariantError,
    UnsupportedSystemError,
)
from .scalars import QuadraticNumber, SqrtVal, _floor_quad, rational_below_sqrt
from .systems import (
    CircleRotation,
    PermutationSystem,
    ShiftSpace,
    SymbolicPoint,
    ToralAutomorphism,
    _bracket,
    _max_filtered,
    _max_pair,
    _pair_mul,
    _sq_dist_to_int,
)
from .pseudo_orbits import (PseudoOrbit, deviations, drift_orbit,
                           from_true_orbit, max_deviation, max_metric,
                           perturbed_orbit)


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
    if not po.gap <= delta:
        raise CalibrationError(
            f"pseudo-orbit gap {po.gap} exceeds the calibrated delta {delta}")
    a = po.start
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
    devs = tuple(deviations(sys, sys.apply(tracer, a), po.points))
    mx = max_metric(devs)
    if not mx < epsilon:
        raise InternalInvariantError(
            f"splice deviation {mx} reached epsilon {epsilon}")
    return ShadowingResult(tracer, mx, devs, Fraction(epsilon), delta, a)


def shadow_toral(sys: ToralAutomorphism, po: PseudoOrbit,
                 epsilon) -> ShadowingResult:
    """Trace a toral pseudo-orbit by cancelling lifted jump errors.

    Lift the points so consecutive jumps are nearest-translate errors,
    split each error into eigencomponents, sum the stable components
    forward and the unstable ones backward, and add the resulting
    correction to each lifted point.  The corrections telescope exactly,
    so the output is a true orbit; hyperbolicity bounds every correction
    by delta * C < epsilon.

    Everything runs on integer pairs (see the integer lane in
    ``systems``): coordinates over one common denominator Q, and errors
    and corrections as elements (a + b*sqrt(D)) / 2 of the order, for any
    discriminant and for rational or irrational points alike.
    """
    if not isinstance(sys, ToralAutomorphism):
        raise UnsupportedSystemError("shadow_toral needs a toral automorphism")
    eps = sys.scalar(epsilon) if not isinstance(epsilon, QuadraticNumber) \
        else epsilon
    delta = delta_for_epsilon(sys, eps)
    D = sys.D
    (a, b), (c, d) = sys.matrix
    Q, us, vs = sys._integer_vectors(po.points)
    m = len(us)

    # Lifts keep each point's sqrt(D) parts and move its rational parts by
    # the integer translate nearest to A * lift_n, ties toward the smaller
    # integer: ceil(t - 1/2) = -floor((1 - 2t) / 2).  Coordinate i of the
    # error e_n = lift_{n+1} - A * lift_n is (eu_i + ev_i*sqrt(D)) / Q.
    lift = us[0]
    errs = []
    for n in range(m - 1):
        (x0, x1), (y0, y1) = lift, vs[n]
        (p0, p1), (q0, q1) = us[n + 1], vs[n + 1]
        t0, t1 = a * x0 + b * x1 - p0, c * x0 + d * x1 - p1
        w0, w1 = a * y0 + b * y1 - q0, c * y0 + d * y1 - q1
        k0 = -_floor_quad(D, Q - 2 * t0, -2 * w0, 2 * Q)
        k1 = -_floor_quad(D, Q - 2 * t1, -2 * w1, 2 * Q)
        lift = (p0 + k0 * Q, p1 + k1 * Q)
        errs.append((k0 * Q - t0, -w0, k1 * Q - t1, -w1))

    if errs:
        sq = [(eu * eu + fu * fu + (ev * ev + fv * fv) * D,
               2 * (eu * ev + fu * fv)) for eu, ev, fu, fv in errs]
        gap = SqrtVal(QuadraticNumber(D, *_max_pair(D, sq), Q * Q))
    else:
        gap = Fraction(0)
    if po._gap is None:
        po._gap = gap
    if not gap <= delta:
        raise CalibrationError(
            f"pseudo-orbit gap {gap} exceeds the calibrated delta {delta}")

    # Eigendata as pairs of the order, with h = d - a:
    #   lam_s = (tr + g*sqrt(D)) / 2, lam_u - lam_s = -g*sqrt(D),
    #   1 / lam_u = det * lam_s, and the eigenvector of lam is
    #   (1, (lam - a) / b) with lam - a = (h, g) for lam_s, (h, -g) for lam_u.
    # e_n = alpha_n v_s + beta_n v_u; scaled by Q * (lam_u - lam_s),
    #   alpha = e_x * (lam_u - a) - b * e_y, beta = b * e_y - e_x * (lam_s - a),
    # and s_{n+1} = lam_s s_n - alpha_n runs forward from s_0 = 0,
    # u_n = (u_{n+1} + beta_n) / lam_u backward from u_{m-1} = 0.
    g = -1 if a + d > 0 else 1
    h, gD, b2 = d - a, g * D, 2 * b
    lam_s, lu_inv = (a + d, g), (sys.det * (a + d), sys.det * g)
    shat = [(0, 0)]
    for eu, ev, fu, fv in errs:
        s0, s1 = _pair_mul(D, lam_s, shat[-1])
        shat.append((s0 - h * eu + gD * ev + b2 * fu,
                     s1 - h * ev + g * eu + b2 * fv))
    uhat = [(0, 0)] * m
    for n in range(m - 2, -1, -1):
        eu, ev, fu, fv = errs[n]
        u0, u1 = uhat[n + 1]
        uhat[n] = _pair_mul(D, lu_inv, (u0 + b2 * fu - h * eu - gD * ev,
                                        u1 + b2 * fv - h * ev - g * eu))

    # corr_n = s_n * v_s + u_n * v_u, times b * Q * (lam_u - lam_s), is the
    # pair (X, Y) per coordinate, so the coordinate itself is
    # (G*Y*D + G*X*sqrt(D)) / den with G = -g * sign(b)
    cxs, cys = [], []
    for (s0, s1), (u0, u1) in zip(shat, uhat):
        cxs.append((b * (s0 + u0), b * (s1 + u1)))
        cys.append(((h * (s0 + u0) + gD * (s1 - u1)) >> 1,
                    (h * (s1 + u1) + g * (s0 - u0)) >> 1))
    R = abs(b) * Q
    G = -g if b > 0 else g
    den = 2 * D * R

    # true-orbit identity A*corr_n - corr_{n+1} = e_n, at that scale
    bg = 2 * b * g
    for n in range(m - 1):
        eu, ev, fu, fv = errs[n]
        (x0, x1), (y0, y1) = cxs[n], cys[n]
        (X0, X1), (Y0, Y1) = cxs[n + 1], cys[n + 1]
        if (a * x0 + b * y0 - X0 + bg * D * ev, a * x1 + b * y1 - X1 + bg * eu,
                c * x0 + d * y0 - Y0 + bg * D * fv,
                c * x1 + d * y1 - Y1 + bg * fu) != (0, 0, 0, 0):
            raise InternalInvariantError("corrected points are not an orbit")

    # Deviations.  |corr| < 1/2 iff |X + Y*sqrt(D)| < R*sqrt(D).  k puts the
    # bracket error |Y| about 128 bits below R*sqrt(D)*2^k, and the shift
    # keeps every bound near 160 bits.  A component proved below 1/2 is its
    # own distance to the torus lattice; any other is at most 1/2 away.
    bits = max(abs(y).bit_length() for _, y in (*cxs, *cys, (0, R)))
    k = max(bits + 128 - R.bit_length(), 0)
    S = isqrt(D << 2 * k)
    shift = max(bits - 32, 0)
    half_lo, half_hi = R * S >> shift, -(-R * (S + 1) >> shift)

    def mag(pair):
        lo, hi = _bracket(*pair, k, S)
        if hi < 0:
            lo, hi = -hi, -lo
        elif lo < 0:
            lo, hi = 0, max(-lo, hi)
        hi = -(-hi >> shift)
        return (lo >> shift, hi) if hi < half_lo else (0, half_hi)

    bounds = []
    for cx, cy in zip(cxs, cys):
        (xl, xh), (yl, yh) = mag(cx), mag(cy)
        bounds.append((xl * xl + yl * yl, xh * xh + yh * yh))

    def sq_dev(n):
        # dev_n^2 = (p + q*sqrt(D)) / den^2, wrapping each coordinate
        (x0, y0), (x1, y1) = cxs[n], cys[n]
        p0, q0 = _sq_dist_to_int(D, G * y0 * D, G * x0, den)
        p1, q1 = _sq_dist_to_int(D, G * y1 * D, G * x1, den)
        return p0 + p1, q0 + q1

    mxdev = SqrtVal(QuadraticNumber(D, *_max_filtered(D, bounds, sq_dev),
                                    den * den))
    if not mxdev < eps:
        raise InternalInvariantError(
            f"deviation {mxdev} reached epsilon {eps}")

    def point(n, lifted):
        return sys.point(*(QuadraticNumber(D, u, v, Q)
                           + QuadraticNumber(D, G * y * D, G * x, den)
                           for u, v, (x, y) in
                           zip(lifted, vs[n], (cxs[n], cys[n]))))

    tracer = point(0, us[0])
    if sys.apply(tracer, m - 1) != point(m - 1, lift):
        raise InternalInvariantError("tracer orbit drifts from construction")

    def devs():
        return (SqrtVal(QuadraticNumber(D, *sq_dev(n), den * den))
                for n in range(m))

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
    po = drift_orbit(sys, y0, delta, horizon)
    # Candidate tracers on a grid of pitch <= eps/4: any point sits within
    # eps/8 of a grid point and rotation is an isometry, so if every grid
    # orbit deviates by at least 9*eps/8 somewhere, no point stays below eps.
    grid = max(-((-4 * eps.denominator) // eps.numerator), 1)  # ceil(4/eps)
    threshold = eps * Fraction(9, 8)
    maxdevs = [max_deviation(sys, Fraction(g, grid), po.points)
               for g in range(grid)]
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
        dev = max_deviation(sys, x, po.points)
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
    po = perturbed_orbit(sys, base, 0, length, delta, rng.getrandbits(32))
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
