"""Finite pseudo-orbits: true orbits, perturbation, gluing, orbit deviations.

A pseudo-orbit is a finite indexed sequence y_a..y_b whose jump errors
d(f(y_n), y_{n+1}) stay below some delta.  ``perturbed_orbit`` is the one
perturbation entry point: it jitters a true orbit within delta, one lane per
system family, and never measures a gap; the code that uses a pseudo-orbit
checks its gap.  A true orbit is a pseudo-orbit too, so every tracking
inequality d(f^n x, y_n) < epsilon in the package (shadowing, specification,
barycenter, heteroclinic extraction and their replay) is one
``PseudoOrbit.max_deviation``.  Everything here is exact: the gap is an
exact scalar and recomputing it reproduces the cached value bit for bit.

Gaps and maximal deviations are read off a pseudo-orbit's form by its
system's tracking kernels (see ``systems``): shifts carry an edit form, tori
and rotations an integer form over one denominator.  ``from_true_orbit``,
``perturbed_orbit`` and ``drift_orbit`` build that form directly on shifts,
tori and drifts, and make a point only when something reads it; explicit
point lists are converted once, on first use.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from fractions import Fraction
from math import lcm

from .errors import CalibrationError, UnsupportedSystemError
from .scalars import QuadraticNumber, _floor_quad
from .systems import (
    _NO_EDITS,
    CircleRotation,
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


class _FormPoints(Sequence):
    """The n points of a form, each made only when it is read.

    ``make(i)`` builds point i; ``len`` reads no point.  It equals any
    sequence of the same points.
    """

    def __init__(self, form, n: int, make):
        self.form = form
        self._n = n
        self._make = make
        self._all = None

    def __len__(self):
        return self._n

    def __getitem__(self, i):
        if self._all is not None or isinstance(i, slice):
            return self._points()[i]
        return self._make(range(self._n)[i])

    def _points(self) -> tuple:
        if self._all is None:
            self._all = tuple(map(self._make, range(self._n)))
        return self._all

    def __iter__(self):
        return iter(self._points())

    def __eq__(self, other):
        return isinstance(other, Sequence) and self._points() == tuple(other)


class PseudoOrbit:
    """Points y_a..y_b of one system with their cached maximum jump error.

    The gap is computed on first access, and ``recompute_gap`` re-derives
    the same value from the definition.  ``points`` is a tuple, or for the
    package's own shift, toral and drift constructions a sequence whose
    points are made on first read.
    """

    def __init__(self, system, start: int, points):
        self.system = system
        self.start = start
        if isinstance(points, _FormPoints):
            self._form = points.form
        else:
            points, self._form = tuple(points), None
        self.points = points
        if not self.points:
            raise ValueError("a pseudo-orbit needs at least one point")
        self._gap = None

    @property
    def form(self):
        """The form the system's tracking kernels read.

        A shift gives its edit form, a torus (den, us, vs) with y_(a+i) =
        (us[i] + vs[i]*sqrt(D)) / den coordinatewise, and a rotation
        (den, u) with y_(a+i) = u[i] / den.  Explicit points go through the
        system's ``tracking_form`` on first use.
        """
        if self._form is None:
            self._form = self.system.tracking_form(self.points)
        return self._form

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
        """max_i d(f(y_i), y_{i+1}), re-derived from the form by the
        system's ``max_jump``."""
        return self.system.max_jump(self.form)

    def max_deviation(self, x):
        """The exact max_n d(f^n(x), y_(a+n)) over the points, read off the
        form by the system's ``max_orbit_deviation``."""
        return self.system.max_orbit_deviation(x, self.form)


def from_true_orbit(sys, x, a: int, b: int) -> PseudoOrbit:
    """The genuine orbit segment f^a(x)..f^b(x); its gap is 0.

    x is validated once.  A shift's edit form is (x, read, s, no edits) for
    s = a..b.  A torus's integer form (Q, us, vs) starts at A^a x and steps
    by A, each u reduced mod Q; rotations keep the points of ``orbit``.
    """
    if a > b:
        raise ValueError(f"empty index range [{a}, {b}]")
    if isinstance(sys, ShiftSpace):
        sys.validate_point(x)
        read = x.symbol
        form = [(x, read, s, _NO_EDITS) for s in range(a, b + 1)]
        return PseudoOrbit(sys, a, _FormPoints(
            form, len(form), lambda n: x.shifted(a + n)))
    if not isinstance(sys, ToralAutomorphism):
        return PseudoOrbit(sys, a, orbit(sys, sys.apply(x, a), b - a))
    Q, ((u0, u1),), ((v0, v1),) = sys.tracking_form([x])
    M, us, vs = sys.matrix_power(a), [], []  # the first step is A^a
    for _ in range(a, b + 1):
        (a00, a01), (a10, a11) = M
        u0, u1 = (a00 * u0 + a01 * u1) % Q, (a10 * u0 + a11 * u1) % Q
        v0, v1 = a00 * v0 + a01 * v1, a10 * v0 + a11 * v1
        us.append((u0, u1))
        vs.append((v0, v1))
        M = sys.matrix
    return PseudoOrbit(sys, a, _toral_points(sys.D, Q, us, vs))


def _toral_points(D: int, den: int, us, vs) -> _FormPoints:
    """The points of the form (den, us, vs), each reduced when it is read."""
    def make(i):
        return TorusPoint(tuple(
            QuadraticNumber(D, u - _floor_quad(D, u, v, den) * den, v, den)
            for u, v in zip(us[i], vs[i])))

    return _FormPoints((den, us, vs), len(us), make)


def drift_orbit(sys: CircleRotation, y0, step, length: int) -> PseudoOrbit:
    """y_0 = y0 and y_(n+1) = y_n + angle + step (mod 1), for n < length.

    Each jump misses the rotation by ``step``, so the drift accumulates.
    The orbit is built as its integer form over the least common
    denominator; y0 is validated, and its points are made on first read.
    """
    sys.validate_point(y0)
    if not isinstance(step, (int, Fraction)):
        raise CalibrationError(f"drift step {step} is not rational")
    step = Fraction(step)
    den = lcm(sys.angle.denominator, y0.denominator, step.denominator)
    move = int((sys.angle + step) * den)
    u = [y0.numerator * (den // y0.denominator)]
    for _ in range(length):
        u.append((u[-1] + move) % den)
    return PseudoOrbit(sys, 0, _FormPoints((den, u), len(u),
                                           lambda i: Fraction(u[i], den)))


def _jitter(rng: random.Random, h: Fraction) -> Fraction:
    return Fraction(rng.randrange(-_JITTER_STEPS, _JITTER_STEPS + 1),
                    _JITTER_STEPS) * h


def _perturb_rotation(sys: CircleRotation, po: PseudoOrbit, delta, rng):
    h = delta / 2
    return PseudoOrbit(sys, po.start,
                       [sys.point(p + _jitter(rng, h)) for p in po.points])


def _perturbed_sft(sys: ShiftSpace, x, a: int, b: int, delta, rng):
    # Flipping symbols at index <= -k or >= k+1 keeps every flip at distance
    # >= k from index 0 even after the one-step shift inside the gap
    # computation, so the gap stays <= 2^-k <= delta.  Point n is
    # sigma^(a+n)(x) with its flips written over it: the flips are the
    # orbit's edit form, and no point is made here.
    sys.validate_point(x)
    k = 0
    while Fraction(1, 2**k) > delta:
        k += 1
        if k > 64:  # delta below representable flip depth; nothing to do
            return from_true_orbit(sys, x, a, b)
    flips = [*range(-k - _FLIP_SPAN, -k + 1),
             *range(k + 1, k + _FLIP_SPAN + 2)]
    # X holds x's symbols on [lo, hi), every index a flip or a neighbour
    # of one reads.
    lo, hi = a + flips[0] - 1, b + flips[-1] + 2
    X = x.window(lo, hi - 1)
    symbol = x.symbol

    def read(i):
        return X[i - lo] if lo <= i < hi else symbol(i)

    T = sys.transition
    alphabet = range(sys.alphabet_size)
    allowed = {}  # (before, old, after) -> the symbols a flip may write
    bits, pick = rng.getrandbits, rng.randrange
    form = []
    for s in range(a, b + 1):
        # A flip is admitted against both current neighbours: the one
        # before may already be flipped, the one after is not yet.
        edits = {}
        for j in flips:
            if not bits(1):
                continue
            i = s + j - lo
            key = edits.get(j - 1, X[i - 1]), X[i], X[i + 1]
            choices = allowed.get(key)
            if choices is None:
                before, old, after = key
                choices = allowed[key] = [c for c in alphabet if c != old
                                          and T[before][c] and T[c][after]]
            if choices:
                edits[j] = choices[pick(len(choices))]
        form.append((x, read, s, edits))
    return PseudoOrbit(sys, a, _FormPoints(
        form, len(form), lambda n: _edited_point(x, *form[n][2:])))


def _edited_point(x, s: int, edits):
    """The canonical point sigma^s(x) with ``edits`` written over it.

    The edits go to one window list w, w[0] at index ``base``, in the order
    they were drawn.  [start, end) follows the core span a rebuild per edit
    (``with_symbol``) would canonicalize to, so the one point built at the
    end is that rebuild's point, offset included.
    """
    p = x.shifted(s)
    if not edits:
        return p
    s0, e0 = start, end = p.core_span()
    base = min(start, *edits)
    w = list(p.window(base, max(end - 1, *edits)))
    P, Q = len(p.left), len(p.right)
    for j, c in edits.items():
        w[j - base] = c
        # Strip the widened core where it agrees with a tail, as
        # SymbolicPoint's canonical form does.
        lo, end = min(start, j), max(end, j + 1)
        while end > lo and w[end - 1 - base] == p.right[(end - 1 - e0) % Q]:
            end -= 1
        start = lo
        while start < end and w[start - base] == p.left[(start - s0) % P]:
            start += 1
    left, right = p.tails_at(start, end)
    return SymbolicPoint(left, w[start - base:end - base], right, -start)


def _perturbed_toral(sys: ToralAutomorphism, x, a: int, b: int, delta, rng):
    # Each point moves by at most h per coordinate; a jump then grows by at
    # most sqrt(2) * h * (|A|_inf + 1) < delta.  Each coordinate c of the
    # true orbit's integer form, jittered to c + j*h/2^16, is one pair over
    # L = lcm(Q, 2^16 * denominator(h)), reduced to [0, 1) by one floor.
    # The pairs are the orbit's integer form; no point is made here.
    Q, true_us, true_vs = from_true_orbit(sys, x, a, b).form
    norm = max(sum(abs(e) for e in row) for row in sys.matrix)
    h = sys.scalar(delta) / (2 * (norm + 1))
    L = lcm(Q, _JITTER_STEPS * h.r)
    c_scale = L // Q
    j_scale = L // (_JITTER_STEPS * h.r)
    jp, jq = h.p * j_scale, h.q * j_scale
    D = sys.D
    # j = randrange(-2^16, 2^16 + 1), drawn as CPython's randrange draws it:
    # 18 random bits, redrawn while they reach 2^17 + 1.
    bits, span = rng.getrandbits, 2 * _JITTER_STEPS + 1

    us, vs = [], []
    for (u0, u1), (v0, v1) in zip(true_us, true_vs):
        j0 = bits(18)
        while j0 >= span:
            j0 = bits(18)
        j1 = bits(18)
        while j1 >= span:
            j1 = bits(18)
        j0 -= _JITTER_STEPS
        j1 -= _JITTER_STEPS
        p0, q0 = u0 * c_scale + jp * j0, v0 * c_scale + jq * j0
        p1, q1 = u1 * c_scale + jp * j1, v1 * c_scale + jq * j1
        us.append((p0 - _floor_quad(D, p0, q0, L) * L,
                   p1 - _floor_quad(D, p1, q1, L) * L))
        vs.append((q0, q1))
    return PseudoOrbit(sys, a, _toral_points(D, L, us, vs))


def perturbed_orbit(sys, x, a: int, b: int, delta, seed: int) -> PseudoOrbit:
    """A seeded perturbation of the true orbit f^a(x)..f^b(x) with gap <= delta.

    The true orbit's gap is 0, so the whole of delta is the jitter budget.
    Tori perturb on integer pairs over one denominator, for rational and
    irrational x and delta alike, and shifts draw symbol flips on the
    shifts of x; both keep what they draw as the orbit's form, so no point
    is made until one is read.  Rotations perturb the ``from_true_orbit``
    points.  A negative delta raises CalibrationError, and delta = 0 gives
    the true orbit.
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
    if isinstance(sys, ShiftSpace):
        return _perturbed_sft(sys, x, a, b, delta, rng)
    if isinstance(sys, CircleRotation):
        return _perturb_rotation(sys, from_true_orbit(sys, x, a, b), delta,
                                 rng)
    raise UnsupportedSystemError(
        f"perturbation is not defined for {type(sys).__name__}")


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
