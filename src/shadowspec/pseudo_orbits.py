"""Finite pseudo-orbits: construction, perturbation, concatenation.

A pseudo-orbit is a finite indexed sequence y_a..y_b whose jump errors
d(f(y_n), y_{n+1}) stay below some delta.  Everything here is exact: the gap
is an exact scalar and recomputing it reproduces the cached value bit for
bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import CalibrationError, UnsupportedSystemError
from .scalars import QuadraticNumber
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


def max_metric(values, zero=Fraction(0)):
    """Maximum of metric values, or ``zero`` when there are none."""
    return max(values, default=zero)


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

        Tori take the integer lane (``ToralAutomorphism.max_jump``); every
        other system takes the maximum of ``distance`` over ``apply``.  Both
        give the same exact value.
        """
        sys = self.system
        if isinstance(sys, ToralAutomorphism):
            return sys.max_jump(self.points)
        jumps = [sys.distance(sys.apply(self.points[i]), self.points[i + 1])
                 for i in range(len(self.points) - 1)]
        return max_metric(jumps)

    def is_valid(self, delta) -> bool:
        return self.gap <= delta

    def gap_rational(self) -> Fraction:
        """Rational upper bound on the gap, for perturbation budgets."""
        gap = self.gap
        if isinstance(gap, (Fraction, int)):
            return Fraction(gap)
        guess = Fraction(float(gap)).limit_denominator(10**15)
        step = Fraction(1, 10**12)
        while not gap <= guess:
            guess += step
            step *= 2
        return guess


def from_true_orbit(sys, x, a: int, b: int) -> PseudoOrbit:
    """The genuine orbit segment f^a(x)..f^b(x); its gap is 0."""
    if a > b:
        raise ValueError(f"empty index range [{a}, {b}]")
    pts = [sys.apply(x, a)]
    for _ in range(a, b):
        pts.append(sys.apply(pts[-1]))
    return PseudoOrbit(sys, a, pts)


def _jitter(rng: random.Random, h: Fraction) -> Fraction:
    return Fraction(rng.randrange(-_JITTER_STEPS, _JITTER_STEPS + 1),
                    _JITTER_STEPS) * h


def _perturb_toral(sys: ToralAutomorphism, po: PseudoOrbit, delta, rng):
    # Each point moves by at most h per coordinate; a jump then grows by at
    # most sqrt(2) * h * (|A|_inf + 1) < delta - gap.
    norm = max(sum(abs(v) for v in row) for row in sys.matrix)
    h = (delta - po.gap_rational()) / (2 * (norm + 1))
    pts = [sys.point(*[c + _jitter(rng, h) for c in p.coords])
           for p in po.points]
    return PseudoOrbit(sys, po.start, pts)


def _perturb_rotation(sys: CircleRotation, po: PseudoOrbit, delta, rng):
    h = (delta - po.gap) / 2
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


def perturb(sys, po: PseudoOrbit, delta, seed: int) -> PseudoOrbit:
    """A seeded perturbation of ``po`` whose gap stays at most ``delta``.

    The perturbation budget is delta minus the current gap; a pseudo-orbit
    already exceeding delta cannot be repaired by adding noise.
    """
    if delta == 0:
        return po
    if not po.gap <= delta:
        raise CalibrationError(f"gap {po.gap} already exceeds delta {delta}")
    rng = random.Random(seed)
    if isinstance(sys, ToralAutomorphism):
        return _perturb_toral(sys, po, delta, rng)
    if isinstance(sys, CircleRotation):
        return _perturb_rotation(sys, po, delta, rng)
    if isinstance(sys, ShiftSpace):
        return _perturb_sft(sys, po, delta, rng)
    if isinstance(sys, PermutationSystem):
        return _perturb_permutation(sys, po, delta, rng)
    raise UnsupportedSystemError(
        f"perturbation is not defined for {type(sys).__name__}")


def perturbed_orbit(sys, x, a: int, b: int, delta, seed: int) -> PseudoOrbit:
    """``from_true_orbit`` followed by ``perturb`` in one pass.

    For a toral system with rational data the whole orbit lives on
    one integer lattice, so the true orbit is iterated with plain integer
    matrix arithmetic instead of field operations.  Each jittered
    coordinate c/Q + j*h/2^16 is then built as one integer over the single
    denominator L = lcm(Q, 2^16 * denominator(h)) and reduced mod L, with
    no Fraction arithmetic.  The draws and the resulting points are
    identical to the two-step construction.
    """
    if isinstance(delta, (int, Fraction)):
        delta_f = Fraction(delta)
    elif hasattr(delta, "is_rational") and delta.is_rational():
        delta_f = delta.as_fraction()
    else:
        delta_f = None
    if not (isinstance(sys, ToralAutomorphism)
            and delta_f is not None and delta_f > 0 and a <= b
            and all(c.is_rational() for c in x.coords)):
        return perturb(sys, from_true_orbit(sys, x, a, b), delta, seed)
    fracs = [c.as_fraction() for c in x.coords]
    Q = lcm(*(f.denominator for f in fracs))
    vec = tuple(f.numerator * (Q // f.denominator) % Q for f in fracs)
    if a:
        (m00, m01), (m10, m11) = sys.matrix_power(a)
        vec = ((m00 * vec[0] + m01 * vec[1]) % Q,
               (m10 * vec[0] + m11 * vec[1]) % Q)
    A = sys.matrix
    (a00, a01), (a10, a11) = A
    lattice = [vec]
    for _ in range(b - a):
        v0, v1 = lattice[-1]
        lattice.append(((a00 * v0 + a01 * v1) % Q, (a10 * v0 + a11 * v1) % Q))
    norm = max(sum(abs(v) for v in row) for row in A)
    h = delta_f / (2 * (norm + 1))
    # c/Q + j*h/_JITTER_STEPS over the one denominator L, reduced mod 1
    L = lcm(Q, _JITTER_STEPS * h.denominator)
    q_scale = L // Q
    j_scale = h.numerator * (L // (_JITTER_STEPS * h.denominator))
    D = sys.D
    rng = random.Random(seed)
    draw = rng.randrange
    pts = [TorusPoint(tuple(
        QuadraticNumber(D, (c * q_scale + j_scale
                            * draw(-_JITTER_STEPS, _JITTER_STEPS + 1)) % L,
                        0, L)
        for c in v)) for v in lattice]
    return PseudoOrbit(sys, a, pts)


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
        cur = x
        for _ in range(n):
            pts.append(cur)
            cur = sys.apply(cur)
        cur = y
        for _ in range(X):
            pts.append(cur)
            cur = sys.apply(cur)
        c.append(c[-1] + n + X)
    return PseudoOrbit(sys, 0, pts), c
