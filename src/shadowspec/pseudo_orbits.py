"""Finite pseudo-orbits: true orbits, perturbation, gluing, orbit deviations.

A pseudo-orbit is a finite indexed sequence y_a..y_b whose jump errors
d(f(y_n), y_{n+1}) stay below some delta.  ``perturbed_orbit`` is the one
perturbation entry point: it jitters a true orbit within delta, one lane per
system family, and never measures a gap; the code that uses a pseudo-orbit
checks its gap.  Every tracking inequality d(f^n x, y_n) < epsilon in the
package (shadowing, specification, barycenter, heteroclinic extraction and
their replay) goes through ``orbit``, ``deviations`` and ``max_deviation``.
Everything here is exact: the gap is an exact scalar and recomputing it
reproduces the cached value bit for bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import CalibrationError, UnsupportedSystemError
from .scalars import QuadraticNumber, _floor_quad
from .systems import (
    CircleRotation,
    PermutationSystem,
    ShiftSpace,
    SymbolicPoint,
    ToralAutomorphism,
    TorusPoint,
)

# Perturbation offsets are drawn from a lattice of this resolution inside the
# allowed magnitude; a fixed denominator keeps all orbit points on one common
# denominator so downstream exact arithmetic stays cheap.
_JITTER_STEPS = 1 << 16

# A shift perturbation flips symbols on two runs of indices, each
# _FLIP_SPAN + 1 long, just outside the window the gap budget protects.
_FLIP_SPAN = 8


# Systems with ``max_jump`` and ``max_orbit_deviation`` on integers.
_INTEGER_LANE = (ToralAutomorphism, CircleRotation)


def orbit(sys, x, n: int, step: int = 1) -> list:
    """The points x, f^step(x), ..., f^(n*step)(x)."""
    pts = [x]
    for _ in range(n):
        pts.append(sys.apply(pts[-1], step))
    return pts


def deviations(sys, x, points, step: int = 1):
    """d(f^(n*step)(x), y_n) for each point y_n in turn."""
    cur = x
    for n, y in enumerate(points):
        if n:
            cur = sys.apply(cur, step)
        yield sys.distance(cur, y)


def max_deviation(sys, x, points):
    """The exact max_n d(f^n(x), y_n) over a nonempty list of points.

    Tori and rotations take their integer lane, ``max_orbit_deviation``,
    and every other system the maximum of ``deviations``; both are exact.
    """
    if isinstance(sys, _INTEGER_LANE):
        return sys.max_orbit_deviation(x, points)
    return max(deviations(sys, x, points))


@dataclass
class PseudoOrbit:
    """Points y_a..y_b of one system with their cached maximum jump error.

    The gap is computed from the points on first access, and
    ``recompute_gap`` re-derives the same value from the definition.
    """

    system: object
    start: int
    points: tuple

    def __post_init__(self):
        self.points = tuple(self.points)
        if not self.points:
            raise ValueError("a pseudo-orbit needs at least one point")
        self._gap = None

    @property
    def gap(self):
        if self._gap is None:
            self._gap = self.recompute_gap()
        return self._gap

    @property
    def index_range(self) -> tuple[int, int]:
        return self.start, self.start + len(self.points) - 1

    def __len__(self):
        return len(self.points)

    def point(self, n: int):
        a, b = self.index_range
        if not a <= n <= b:
            raise IndexError(f"index {n} outside [{a}, {b}]")
        return self.points[n - a]

    def recompute_gap(self):
        """max_i d(f(y_i), y_{i+1}), re-derived from the points.

        Tori and rotations take their integer lane (``max_jump``); every
        other system takes the maximum of ``distance`` over ``apply``.  Both
        give the same exact value.
        """
        sys = self.system
        if isinstance(sys, _INTEGER_LANE):
            return sys.max_jump(self.points)
        jumps = [sys.distance(sys.apply(self.points[i]), self.points[i + 1])
                 for i in range(len(self.points) - 1)]
        return max(jumps, default=Fraction(0))


def from_true_orbit(sys, x, a: int, b: int) -> PseudoOrbit:
    """The genuine orbit segment f^a(x)..f^b(x); its gap is 0."""
    if a > b:
        raise ValueError(f"empty index range [{a}, {b}]")
    return PseudoOrbit(sys, a, orbit(sys, sys.apply(x, a), b - a))


def drift_orbit(sys: CircleRotation, y0, step, length: int) -> PseudoOrbit:
    """y_0 = y0 and y_(n+1) = y_n + angle + step (mod 1), for n < length.

    Each jump misses the rotation by ``step``, so the drift accumulates.
    """
    pts = [y0]
    for _ in range(length):
        pts.append((pts[-1] + sys.angle + step) % 1)
    return PseudoOrbit(sys, 0, pts)


def _jitter(rng: random.Random, h: Fraction) -> Fraction:
    return Fraction(rng.randrange(-_JITTER_STEPS, _JITTER_STEPS + 1),
                    _JITTER_STEPS) * h


def _perturb_rotation(sys: CircleRotation, po: PseudoOrbit, delta, rng):
    h = delta / 2
    return PseudoOrbit(sys, po.start,
                       [sys.point(p + _jitter(rng, h)) for p in po.points])


def _perturb_sft(sys: ShiftSpace, po: PseudoOrbit, delta, rng):
    # Flipping symbols at index <= -k or >= k+1 keeps every flip at distance
    # >= k from index 0 even after the one-step shift inside the gap
    # computation, so the gap stays <= 2^-k <= delta.
    k = 0
    while Fraction(1, 2**k) > delta:
        k += 1
        if k > 64:
            return po  # delta below representable flip depth; nothing to do
    flips = [*range(-k - _FLIP_SPAN, -k + 1),
             *range(k + 1, k + _FLIP_SPAN + 2)]
    T = sys.transition
    alphabet = range(sys.alphabet_size)
    out = []
    for p in po.points:
        # All flips go to one window list w, w[0] at index `base`.  A
        # neighbour flipped earlier is read with its new symbol, as if each
        # flip built its own point.  [start, end) follows the core span such
        # a flip-by-flip rebuild would canonicalize to, so the one point
        # built at the end is that rebuild's point, offset included.
        s0, e0 = start, end = p.core_span()
        base = min(start, flips[0] - 1)
        w = list(p.window(base, max(end, flips[-1] + 2) - 1))
        P, Q = len(p.left), len(p.right)
        flipped = False
        for j in flips:
            if not rng.getrandbits(1):
                continue
            i = j - base
            old, before, after = w[i], w[i - 1], w[i + 1]
            allowed = [s for s in alphabet
                       if s != old and T[before][s] and T[s][after]]
            if not allowed:
                continue
            w[i] = allowed[rng.randrange(len(allowed))]
            flipped = True
            # Strip the widened core where it agrees with a tail, as
            # SymbolicPoint's canonical form does.
            lo, end = min(start, j), max(end, j + 1)
            while end > lo and w[end - 1 - base] == p.right[(end - 1 - e0) % Q]:
                end -= 1
            start = lo
            while start < end and w[start - base] == p.left[(start - s0) % P]:
                start += 1
        q = p
        if flipped:
            left, right = p.tails_at(start, end)
            q = SymbolicPoint(left, w[start - base:end - base], right, -start)
        sys.validate_point(q)
        out.append(q)
    return PseudoOrbit(sys, po.start, out)


def _perturb_permutation(sys: PermutationSystem, po: PseudoOrbit, delta, rng):
    # Below the discrete metric's resolution no point can move at all.
    if delta < 1:
        return po
    pts = [rng.randrange(sys.size) for _ in po.points]
    return PseudoOrbit(sys, po.start, pts)


def _perturbed_toral(sys: ToralAutomorphism, x, a: int, b: int, delta, rng):
    # Each point moves by at most h per coordinate; a jump then grows by at
    # most sqrt(2) * h * (|A|_inf + 1) < delta.  Point n of the true orbit is
    # (u + v*sqrt(D)) / Q with u reduced mod Q, an integer translate that
    # leaves the point on the torus unchanged, and each jittered coordinate
    # c + j*h/2^16 is one pair over L = lcm(Q, 2^16 * denominator(h)),
    # reduced to [0, 1) by one floor.
    Q, ((x0, x1),), ((y0, y1),) = sys._integer_vectors([x])
    (m00, m01), (m10, m11) = sys.matrix_power(a)
    u0, u1 = (m00 * x0 + m01 * x1) % Q, (m10 * x0 + m11 * x1) % Q
    v0, v1 = m00 * y0 + m01 * y1, m10 * y0 + m11 * y1
    (a00, a01), (a10, a11) = A = sys.matrix
    norm = max(sum(abs(e) for e in row) for row in A)
    h = sys.scalar(delta) / (2 * (norm + 1))
    L = lcm(Q, _JITTER_STEPS * h.r)
    c_scale = L // Q
    j_scale = L // (_JITTER_STEPS * h.r)
    jp, jq = h.p * j_scale, h.q * j_scale
    D = sys.D
    draw = rng.randrange

    def jittered(cu, cv):
        j = draw(-_JITTER_STEPS, _JITTER_STEPS + 1)
        p, q = cu * c_scale + jp * j, cv * c_scale + jq * j
        return QuadraticNumber(D, p - _floor_quad(D, p, q, L) * L, q, L)

    pts = []
    for _ in range(a, b + 1):
        pts.append(TorusPoint((jittered(u0, v0), jittered(u1, v1))))
        u0, u1 = (a00 * u0 + a01 * u1) % Q, (a10 * u0 + a11 * u1) % Q
        v0, v1 = a00 * v0 + a01 * v1, a10 * v0 + a11 * v1
    return PseudoOrbit(sys, a, pts)


def perturbed_orbit(sys, x, a: int, b: int, delta, seed: int) -> PseudoOrbit:
    """A seeded perturbation of the true orbit f^a(x)..f^b(x) with gap <= delta.

    The true orbit's gap is 0, so the whole of delta is the jitter budget.
    Tori perturb on integer pairs over one denominator, for rational and
    irrational x and delta alike; the other families perturb the
    ``from_true_orbit`` points.  A negative delta raises CalibrationError,
    and delta = 0 gives the true orbit.
    """
    if a > b:
        raise ValueError(f"empty index range [{a}, {b}]")
    if delta < 0:
        raise CalibrationError(f"negative delta {delta}")
    if delta == 0:
        return from_true_orbit(sys, x, a, b)
    rng = random.Random(seed)
    if isinstance(sys, ToralAutomorphism):
        return _perturbed_toral(sys, x, a, b, delta, rng)
    if isinstance(sys, CircleRotation):
        perturb = _perturb_rotation
    elif isinstance(sys, ShiftSpace):
        perturb = _perturb_sft
    elif isinstance(sys, PermutationSystem):
        perturb = _perturb_permutation
    else:
        raise UnsupportedSystemError(
            f"perturbation is not defined for {type(sys).__name__}")
    return perturb(sys, from_true_orbit(sys, x, a, b), delta, rng)


def concatenate(sys, segments: Sequence[tuple], connectors: Sequence[tuple]):
    """Glue orbit segments with connecting orbit pieces.

    ``segments`` is a list of (x_j, n_j), ``connectors`` a list of
    (y_j, X_j) of equal length.  Segment j contributes f^t(x_j) for
    t = 0..n_j - 1 and connector j contributes f^t(y_j) for t = 0..X_j - 1;
    the point f^{n_j}(x_j) the segment was heading toward is replaced by
    y_j, so the only jumps are the two seam jumps per block, each bounded by
    the diameter of the cell containing both endpoints.

    Returns (PseudoOrbit over [0, total - 1], switch times c_0..c_k) with
    c_0 = 0 and c_i the running sum of n_j + X_j.
    """
    if not segments:
        raise ValueError("segments must be nonempty")
    if len(connectors) != len(segments):
        raise ValueError("need exactly one connector per segment")
    pts = []
    c = [0]
    for (x, n), (y, X) in zip(segments, connectors):
        if n < 0:
            raise ValueError("segment lengths must be nonnegative")
        if X < 1:
            raise ValueError("connector times must be at least 1")
        pts += orbit(sys, x, n - 1)[:n]
        pts += orbit(sys, y, X - 1)
        c.append(c[-1] + n + X)
    return PseudoOrbit(sys, 0, pts), c
