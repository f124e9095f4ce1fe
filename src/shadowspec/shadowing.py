"""Explicit tracing of pseudo-orbits in expansive systems.

``shadow_sft`` splices shift symbols; ``shadow_toral`` sums the unstable
components of the lifted jump errors of a hyperbolic toral automorphism
backward, in one integer lane, for every discriminant and for rational and
irrational points alike.  Both constructions are exact: the returned tracer
is a point whose true orbit stays strictly within epsilon of every
pseudo-orbit point, and the reported deviations are exact torus distances
of that orbit, measured by the walk replay takes, not byproducts of the
construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

from .errors import (
    CalibrationError,
    InternalInvariantError,
    UnsupportedSystemError,
)
from .scalars import QuadraticNumber, SqrtVal, _floor_quad, rational_below_sqrt
from .systems import (
    CircleRotation,
    ShiftSpace,
    SymbolicPoint,
    ToralAutomorphism,
    _depth,
    _max_pair,
    _pair_mul,
)
from .pseudo_orbits import PseudoOrbit, deviations, drift_orbit


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


@lru_cache(maxsize=64)
def _shift_delta(epsilon) -> Fraction:
    """The shift calibration 2^-(k+1), k the flip depth of epsilon: the
    same for every shift, and computed once per epsilon, not per record."""
    eps = Fraction(epsilon)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    return Fraction(1, 2 ** (_depth(eps) + 1))


def delta_for_epsilon(sys, epsilon):
    """The jump tolerance under which every pseudo-orbit is epsilon-traced."""
    if isinstance(sys, ShiftSpace):
        return _shift_delta(epsilon)
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

    ``deviations`` is a function of no arguments that yields them;
    ``per_index_deviations`` computes the tuple on first read and keeps it,
    so a caller that only needs the maximum never pays for the per-index
    values.
    """

    tracer: object
    max_deviation: object
    deviations: object = field(repr=False, compare=False)
    epsilon_used: object
    delta_used: object
    start: int

    @cached_property
    def per_index_deviations(self) -> tuple:
        return tuple(self.deviations())


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
    # the centre symbol of each y_m, read off the edit form
    centre = tuple(e[0] if 0 in e else read(s) for _, read, s, e in po.form)
    core = ya.window(lo, -1) + centre + yb.window(1, hi - 1)
    left, _ = ya.tails_at(lo, hi)
    _, right = yb.tails_at(lo, hi)
    tracer = SymbolicPoint(left, core, right, -(a + lo))
    sys.validate_point(tracer)
    x = sys.apply(tracer, a)
    mx = po.max_deviation(x)
    if not mx < epsilon:
        raise InternalInvariantError(
            f"splice deviation {mx} reached epsilon {epsilon}")
    return ShadowingResult(tracer, mx, lambda: deviations(sys, x, po.points),
                           Fraction(epsilon), delta, a)


def shadow_toral(sys: ToralAutomorphism, po: PseudoOrbit,
                 epsilon) -> ShadowingResult:
    """Trace a toral pseudo-orbit by cancelling lifted jump errors.

    Take each jump as its nearest-translate error, split the errors into
    eigencomponents and sum the unstable ones backward to u_0.  The tracer
    is y_0 + u_0 * v_u: its orbit differs from the lifted points by the
    forward sums of the stable components plus the backward sums of the
    unstable ones, and hyperbolicity bounds both by delta * C < epsilon.
    The deviations are then measured on the tracer's own orbit by
    ``ToralAutomorphism.max_orbit_deviation``, the kernel replay uses.

    Everything runs on integer pairs (see the integer lane in
    ``systems``): the pseudo-orbit's integer form, coordinates over one
    common denominator Q, and errors as elements (a + b*sqrt(D)) / 2 of the
    order, for any discriminant and for rational or irrational points
    alike.  The pseudo-orbit's points are never read.
    """
    if not isinstance(sys, ToralAutomorphism):
        raise UnsupportedSystemError("shadow_toral needs a toral automorphism")
    eps = sys.scalar(epsilon) if not isinstance(epsilon, QuadraticNumber) \
        else epsilon
    delta = delta_for_epsilon(sys, eps)
    D = sys.D
    (a, b), (c, d) = sys.matrix
    Q, us, vs = form = po.form

    # The jump error e_n = y_{n+1} + k_n - A * y_n takes the integer vector
    # k_n nearest to t = A * y_n - y_{n+1}, ties toward the smaller integer:
    # ceil(t - 1/2) = -floor((1 - 2t) / 2).  It is the same for every lift
    # of y_n.  Coordinate i of e_n is (eu_i + ev_i*sqrt(D)) / Q.
    errs = []
    for (x0, x1), (y0, y1), (p0, p1), (q0, q1) in zip(us, vs, us[1:], vs[1:]):
        t0, t1 = a * x0 + b * x1 - p0, c * x0 + d * x1 - p1
        w0, w1 = a * y0 + b * y1 - q0, c * y0 + d * y1 - q1
        k0 = -_floor_quad(D, Q - 2 * t0, -2 * w0, 2 * Q)
        k1 = -_floor_quad(D, Q - 2 * t1, -2 * w1, 2 * Q)
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
    #   beta = b * e_y - e_x * (lam_s - a),
    # and u_n = (u_{n+1} + beta_n) / lam_u runs backward from u_{m-1} = 0.
    g = -1 if a + d > 0 else 1
    h, gD, b2 = d - a, g * D, 2 * b
    lu_inv = (sys.det * (a + d), sys.det * g)
    u0 = u1 = 0
    for eu, ev, fu, fv in reversed(errs):
        u0, u1 = _pair_mul(D, lu_inv, (u0 + b2 * fu - h * eu - gD * ev,
                                       u1 + b2 * fv - h * ev - g * eu))

    # The tracer is y_0 + u_0 * v_u.  Times b * Q * (lam_u - lam_s), each
    # coordinate of u_0 * v_u is a pair (X, Y), and the coordinate itself is
    # (G*Y*D + G*X*sqrt(D)) / den with G = -g * sign(b).
    G = -g if b > 0 else g
    den = 2 * D * abs(b) * Q
    corr = ((b * u0, b * u1), ((h * u0 - gD * u1) >> 1, (h * u1 - g * u0) >> 1))
    tracer = sys.point(*(QuadraticNumber(D, u, v, Q)
                         + QuadraticNumber(D, G * Y * D, G * X, den)
                         for u, v, (X, Y) in zip(us[0], vs[0], corr)))
    mxdev = sys.max_orbit_deviation(tracer, form)
    if not mxdev < eps:
        raise InternalInvariantError(
            f"deviation {mxdev} reached epsilon {eps}")
    return ShadowingResult(
        tracer, mxdev, lambda: sys.orbit_deviations(tracer, form),
        eps, delta, po.index_range[0])


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
    pseudo-orbit (with a finite certificate), else "not-found".
    """

    status: str
    pseudo_orbit: PseudoOrbit
    epsilon: object
    delta: object
    certificate: dict | None


def falsify_shadowing(sys, epsilon, horizon: int, seed: int,
                      delta=None) -> FalsificationResult:
    """Search for a pseudo-orbit no point can epsilon-trace.

    Only rotations are searched: a constant drift accumulates while every
    true orbit is rigid, and a grid certificate verifies that no starting
    point keeps up.  The hyperbolic shifts and tori have the shadowing
    property, so no search there can succeed, and they are refused.
    """
    if not isinstance(sys, CircleRotation):
        raise UnsupportedSystemError(
            f"falsification is not defined for {type(sys).__name__}")
    if horizon < 1:
        raise ValueError("horizon must be positive")
    eps = Fraction(epsilon)
    delta = Fraction(delta) if delta is not None else Fraction(1, horizon)
    y0 = Fraction(random.Random(seed).randrange(1 << 16), 1 << 16)
    po = drift_orbit(sys, y0, delta, horizon)
    # Candidate tracers on a grid of pitch <= eps/4: any point sits within
    # eps/8 of a grid point and rotation is an isometry, so if every grid
    # orbit deviates by at least 9*eps/8 somewhere, no point stays below eps.
    grid = max(-((-4 * eps.denominator) // eps.numerator), 1)  # ceil(4/eps)
    threshold = eps * Fraction(9, 8)
    maxdevs = [po.max_deviation(Fraction(g, grid)) for g in range(grid)]
    if min(maxdevs) >= threshold:
        cert = {"gridSize": grid, "threshold": threshold,
                "gridMaxDeviations": tuple(maxdevs)}
        return FalsificationResult("certified", po, eps, delta, cert)
    return FalsificationResult("not-found", po, eps, delta, None)
