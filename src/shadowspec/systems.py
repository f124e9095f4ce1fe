"""The four concrete dynamical systems and their point types.

Each system exposes the same minimal surface: ``apply(x, k)`` iterates the
map (negative k uses the inverse), ``distance(x, y)`` evaluates the metric
exactly, and ``validate_point(x)`` rejects points that do not belong to the
space.

Every tracking inequality of the package, against a pseudo-orbit or a true
orbit (``pseudo_orbits.from_true_orbit``), goes through one more protocol,
behind ``PseudoOrbit.recompute_gap`` and ``PseudoOrbit.max_deviation``: each
family's ``max_jump(form)`` and ``max_orbit_deviation(x, form)`` give the
same maxima as ``distance`` over ``apply``, read off a pseudo-orbit's form
rather than its points.  Shifts, tori and rotations each have their own
form: shifts an edit form (each point a shift of a base point with a few
symbols written over it), tori and rotations integers over one denominator;
tori also give the per-index values as ``orbit_deviations``.  A
permutation's form is its points.  The package's constructions build a form
directly, and points from outside go through the family's one converter,
``tracking_form``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm
from types import MappingProxyType
from typing import Iterable, Sequence

from .errors import MalformedPointError, NotHyperbolicError
from .scalars import QuadraticNumber, SqrtVal, _floor_quad

Word = tuple[int, ...]


def _primitive(word: Word) -> Word:
    """Shortest word whose repetition generates ``word``."""
    n = len(word)
    for period in range(1, n):
        if n % period == 0 and word == word[:period] * (n // period):
            return word[:period]
    return word


def _cycle(word: Word, phase: int, n: int) -> Word:
    """n symbols of the periodic repetition of ``word``, from ``word[phase]``."""
    return (word * ((phase + n) // len(word) + 1))[phase:phase + n]


def _scan_bound(span_u, u, span_v, v) -> int:
    """Window radius that certifies two sequences equal if no mismatch
    appears within it.

    Sequence u reads the tails of the point u outside its span [lo, hi),
    and v those of v outside its own.  Beyond both spans the sequences are
    periodic, so agreement over one least common multiple of the tail
    periods on each side extends to agreement everywhere on that side.
    """
    (s1, e1), (s2, e2) = span_u, span_v
    right_edge = max(e1, e2) + lcm(len(u.right), len(v.right))
    left_edge = min(s1, s2) - lcm(len(u.left), len(v.left))
    return max(abs(right_edge), abs(left_edge)) + 1


def _edit_span(p, s: int, edited) -> tuple[int, int]:
    """[lo, hi) outside of which sigma^s(p), with symbols written over it at
    the indices ``edited``, reads p's tails."""
    start, end = p.core_span()
    start, end = start - s, end - s
    if edited:
        start, end = min(start, min(edited)), max(end, max(edited) + 1)
    return start, end


def _first_difference(u: Word, v: Word, limit: int):
    """The least k < limit with u(k) != v(k) or u(-k) != v(-k), else None.

    u and v hold the symbols at indices -(limit-1)..limit-1, index 0 at
    position limit - 1.
    """
    if u == v:
        return None
    c = limit - 1
    for k in range(limit):
        if u[c + k] != v[c + k] or u[c - k] != v[c - k]:
            return k


def _entry_window(p, s: int, edits, r: int) -> Word:
    """The symbols of sigma^s(p), with ``edits`` (index -> symbol) written
    over it, at indices -(r-1)..r-1."""
    w = p.window(s - r + 1, s + r - 1)
    if not edits:
        return w
    w = list(w)
    for j, c in edits.items():
        if -r < j < r:
            w[j + r - 1] = c
    return tuple(w)


# The edits of an unedited point in an edit form (see ShiftSpace).
_NO_EDITS = MappingProxyType({})


class SymbolicPoint:
    """An eventually periodic bi-infinite symbol sequence.

    The realized sequence repeats ``left`` infinitely to the left of the
    ``core`` block and ``right`` infinitely to the right of it.  ``offset``
    places index 0 at position ``offset`` relative to the start of the core,
    so the core occupies absolute indices [-offset, -offset + len(core)).
    Tails are kept primitive and the core minimal, which bounds the window
    any equality or distance scan has to look at.
    """

    __slots__ = ("left", "core", "right", "offset")

    def __init__(self, left: Sequence[int], core: Sequence[int],
                 right: Sequence[int], offset: int = 0):
        left, core, right = tuple(left), tuple(core), tuple(right)
        if not left or not right:
            raise MalformedPointError("tail words must be nonempty")
        left, core, right, offset = self._canonical(left, core, right, offset)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "core", core)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "offset", offset)

    def __setattr__(self, name, value):
        raise AttributeError("SymbolicPoint is immutable")

    @staticmethod
    def _canonical(left: Word, core: Word, right: Word,
                   offset: int) -> tuple[Word, Word, Word, int]:
        left, right = _primitive(left), _primitive(right)
        # Absorb core symbols that already agree with the adjacent tail;
        # each absorption rotates the tail so its phase stays aligned.
        # Dropping the first core symbol moves the core start right by one,
        # which shows up as an offset decrement.
        while core and core[-1] == right[-1]:
            core = core[:-1]
            right = right[-1:] + right[:-1]
        while core and core[0] == left[0]:
            core = core[1:]
            left = left[1:] + left[:1]
            offset -= 1
        if not core:
            # Fully periodic when both tails realize one periodic sequence.
            p, q = len(left), len(right)
            m = lcm(p, q)
            if all(left[i % p] == right[i % q] for i in range(m)):
                word = _primitive(tuple(right[i % q] for i in range(m)))
                return word, (), word, offset
        return left, core, right, offset

    @classmethod
    def periodic(cls, word: Sequence[int]) -> "SymbolicPoint":
        """The purely periodic point realizing word[n mod len] at index n."""
        w = tuple(word)
        if not w:
            raise MalformedPointError("empty period word")
        return cls(w, (), w, 0)

    def symbol(self, n: int) -> int:
        i = n + self.offset
        if i < 0:
            return self.left[i % len(self.left)]
        i -= len(self.core)
        if i < 0:
            return self.core[i]
        return self.right[i % len(self.right)]

    def window(self, a: int, b: int) -> Word:
        """Symbols at indices a..b inclusive, sliced from tails and core."""
        if b < a:
            return ()
        start, end = self.core_span()
        out = ()
        if a < start:
            out = _cycle(self.left, (a - start) % len(self.left),
                         min(b + 1, start) - a)
        out += self.core[max(a, start) - start:max(b + 1 - start, 0)]
        if b >= end:
            lo = max(a, end)
            out += _cycle(self.right, (lo - end) % len(self.right), b + 1 - lo)
        return out

    def shifted(self, k: int) -> "SymbolicPoint":
        return SymbolicPoint(self.left, self.core, self.right, self.offset + k)

    def core_span(self) -> tuple[int, int]:
        """Absolute index range [start, end) occupied by the core."""
        start = -self.offset
        return start, start + len(self.core)

    def with_symbol(self, n: int, symbol: int) -> "SymbolicPoint":
        """A copy whose sequence holds ``symbol`` at index ``n``.

        Widening the core changes where each tail picks up, so both tails are
        rotated to keep their phase against the new core span.
        """
        start, end = self.core_span()
        lo, hi = min(start, n), max(end, n + 1)
        symbols = list(self.window(lo, hi - 1))
        symbols[n - lo] = symbol
        left, right = self.tails_at(lo, hi)
        return SymbolicPoint(left, tuple(symbols), right, -lo)

    def tails_at(self, lo: int, hi: int) -> tuple[Word, Word]:
        """The tail words rotated to run left from ``lo`` and right from ``hi``.

        A point whose core spans [lo, hi), with lo at most and hi at least
        this point's core span, realizes this point's sequence outside
        [lo, hi) when it takes these tails.
        """
        start, end = self.core_span()
        ls = (lo - start) % len(self.left)
        rs = (hi - end) % len(self.right)
        return (self.left[ls:] + self.left[:ls],
                self.right[rs:] + self.right[:rs])

    def scan_bound(self, other: "SymbolicPoint") -> int:
        """Window radius that certifies equality if no mismatch appears."""
        return _scan_bound(self.core_span(), self, other.core_span(), other)

    def __eq__(self, other):
        if not isinstance(other, SymbolicPoint):
            return NotImplemented
        if (self.left, self.core, self.right, self.offset) == \
           (other.left, other.core, other.right, other.offset):
            return True
        bound = self.scan_bound(other)
        return all(self.symbol(n) == other.symbol(n)
                   for k in range(bound + 1)
                   for n in ((k, -k) if k else (0,)))

    __hash__ = None  # equality is semantic; structural hashing would split classes

    def __repr__(self):
        word = lambda w: "".join(map(str, w)) or "-"
        return (f"SymbolicPoint({word(self.left)}~{word(self.core)}~"
                f"{word(self.right)}@{self.offset})")


@dataclass(frozen=True)
class TorusPoint:
    """A point of the 2-torus with coordinates in Q(sqrt(D))."""

    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(self.coords))

    def __repr__(self):
        return f"TorusPoint({', '.join(str(c) for c in self.coords)})"


@dataclass(frozen=True)
class HyperbolicSplitting:
    """Eigendata of a 2x2 hyperbolic integer matrix over Q(sqrt(D)).

    Eigenvectors are normalized to first coordinate 1 (their slope is the
    canonical datum; a unit Euclidean normalization would leave the field).
    """

    D: int
    lam_u: QuadraticNumber
    lam_s: QuadraticNumber
    v_u: tuple[QuadraticNumber, QuadraticNumber]
    v_s: tuple[QuadraticNumber, QuadraticNumber]


class ShiftSpace:
    """A two-sided subshift of finite type over symbols 0..r-1.

    ``transition[a][b] == 1`` allows symbol b immediately after symbol a.
    The metric is 2^-k where k is the smallest |index| at which two
    sequences differ.
    """

    kind = "sft"

    def __init__(self, transition: Sequence[Sequence[int]]):
        T = tuple(tuple(int(v) for v in row) for row in transition)
        r = len(T)
        if r < 2 or any(len(row) != r for row in T):
            raise ValueError("transition matrix must be square with r >= 2")
        if r > 10:
            raise ValueError("alphabets beyond 10 symbols are not supported by the digit encoding")
        if any(v not in (0, 1) for row in T for v in row):
            raise ValueError("transition entries must be 0 or 1")
        if any(not any(row) for row in T):
            raise ValueError("every symbol needs at least one successor")
        if any(not any(T[a][b] for a in range(r)) for b in range(r)):
            raise ValueError("every symbol needs at least one predecessor")
        self.transition = T
        self.alphabet_size = r
        self._reach = [tuple((1 if a == b else 0) for b in range(r)) for a in range(r)]
        self._powers = [self._reach, T]  # boolean reachability at each step count
        self.irreducible = self._compute_irreducible()

    # -- structure -----------------------------------------------------------

    def _compute_irreducible(self) -> bool:
        r = self.alphabet_size
        reach = [[bool(self.transition[a][b]) for b in range(r)] for a in range(r)]
        for _ in range(r):
            for a in range(r):
                for b in range(r):
                    if not reach[a][b]:
                        reach[a][b] = any(reach[a][c] and self.transition[c][b]
                                          for c in range(r))
        return all(reach[a][b] for a in range(r) for b in range(r))

    def reachable_in(self, steps: int, a: int, b: int) -> bool:
        """Whether a path of exactly ``steps`` edges goes from a to b."""
        r = self.alphabet_size
        while len(self._powers) <= steps:
            prev = self._powers[-1]
            nxt = tuple(
                tuple(1 if any(prev[x][c] and self.transition[c][y] for c in range(r)) else 0
                      for y in range(r))
                for x in range(r)
            )
            self._powers.append(nxt)
        return bool(self._powers[steps][a][b])

    def successors(self, a: int) -> tuple[int, ...]:
        return tuple(b for b in range(self.alphabet_size) if self.transition[a][b])

    def predecessors(self, b: int) -> tuple[int, ...]:
        return tuple(a for a in range(self.alphabet_size) if self.transition[a][b])

    def word_admissible(self, word: Sequence[int]) -> bool:
        return all(self.transition[a][b] for a, b in zip(word, word[1:]))

    def words(self, length: int) -> Iterable[Word]:
        """All admissible words of the given length, lexicographic order."""
        r = self.alphabet_size
        stack = [()]
        while stack:
            w = stack.pop()
            if len(w) == length:
                yield w
                continue
            for s in range(r - 1, -1, -1):
                if not w or self.transition[w[-1]][s]:
                    stack.append(w + (s,))

    def path_between(self, a: int, b: int, steps: int) -> Word | None:
        """Lexicographically smallest path a -> b using exactly ``steps`` edges.

        Returns the ``steps - 1`` intermediate symbols, or None.
        """
        if steps < 1:
            return () if steps == 0 and a == b else None
        if not self.reachable_in(steps, a, b):
            return None
        # a path of `remaining` more edges to b exists at every step, so some
        # successor always continues it, and the last symbol links to b
        out = []
        cur = a
        for remaining in range(steps - 1, 0, -1):
            cur = next(s for s in self.successors(cur)
                       if self.reachable_in(remaining, s, b))
            out.append(cur)
        return tuple(out)

    def point_through(self, word: Sequence[int], at: int = 0) -> SymbolicPoint:
        """A canonical point whose sequence shows ``word`` starting at index ``at``.

        Both sides extend by always walking the smallest admissible symbol;
        each walk enters a cycle after at most r steps and that cycle becomes
        the periodic tail.
        """
        w = tuple(word)
        if not w:
            raise MalformedPointError("empty word")
        if not self.word_admissible(w):
            raise MalformedPointError(f"inadmissible word {w}")
        seen = {w[-1]: 0}
        walk = [w[-1]]
        while True:
            nxt = self.successors(walk[-1])[0]
            if nxt in seen:
                right = tuple(walk[seen[nxt]:])
                lead_r = tuple(walk[1:])
                break
            seen[nxt] = len(walk)
            walk.append(nxt)
        seen = {w[0]: 0}
        walk = [w[0]]
        while True:
            nxt = self.predecessors(walk[-1])[0]
            if nxt in seen:
                left = tuple(reversed(walk[seen[nxt]:]))
                lead_l = tuple(reversed(walk[1:]))
                break
            seen[nxt] = len(walk)
            walk.append(nxt)
        core = lead_l + w + lead_r
        return SymbolicPoint(left, core, right, len(lead_l) - at)

    # -- dynamics ------------------------------------------------------------

    def validate_point(self, x) -> None:
        if not isinstance(x, SymbolicPoint):
            raise MalformedPointError(f"expected SymbolicPoint, got {type(x).__name__}")
        r = self.alphabet_size
        for w in (x.left, x.core, x.right):
            if any(s < 0 or s >= r for s in w):
                raise MalformedPointError("symbol outside alphabet")
        T = self.transition
        p, q = len(x.left), len(x.right)
        for i in range(p):
            if not T[x.left[i]][x.left[(i + 1) % p]]:
                raise MalformedPointError("left tail not admissible")
        for i in range(q):
            if not T[x.right[i]][x.right[(i + 1) % q]]:
                raise MalformedPointError("right tail not admissible")
        # Pairs inside a tail are the cyclic pairs checked above, so only the
        # core and its two seams are left: index start - 1 holds left[-1]
        # and index end holds right[0].
        w = x.left[-1:] + x.core + x.right[:1]
        for n, (a, b) in enumerate(zip(w, w[1:]), x.core_span()[0] - 1):
            if not T[a][b]:
                raise MalformedPointError(f"inadmissible pair at index {n}")

    def apply(self, x: SymbolicPoint, k: int = 1) -> SymbolicPoint:
        return x.shifted(k)

    def distance(self, x: SymbolicPoint, y: SymbolicPoint) -> Fraction:
        bound = x.scan_bound(y)
        for k in range(bound + 1):
            if x.symbol(k) != y.symbol(k) or x.symbol(-k) != y.symbol(-k):
                return Fraction(1, 2**k)
        return Fraction(0)

    # -- tracking ------------------------------------------------------------
    #
    # The edit form holds one entry (base, read, s, edits) per point y_n:
    # y_n is sigma^s(base) with the symbols of the dict ``edits`` (index ->
    # symbol) written over it, and read(i) is base.symbol(i).  A seeded
    # pseudo-orbit's entries share one base and one ``read`` over a window of
    # its symbols, with s stepping by one; an explicit list gets one entry
    # per point, its own base, with no edits.  An edit always differs from
    # the base symbol it covers.  d(u, v) = 2^-k for the least
    # |index| k where u and v differ, so each maximum below is 2^-(least k),
    # and a scan stops at the least k found so far.  A scan builds both
    # symbol windows over -(limit-1)..limit-1 at once (``_entry_window``
    # writes an entry's edits over its slice of the base) and compares them
    # as tuples: equal windows cost one compare, and only unequal ones are
    # walked outward from index 0 (``_first_difference``).  Explicit points
    # decoded from a report may be shared objects: ``decode_point`` keeps a
    # bounded memo from (system, text) to the validated point.

    def tracking_form(self, points):
        """The edit form of explicit points: each its own base, unedited.

        The points are read as they are: their producers (``decode_point``,
        ``point_through``, ``apply``) already give admissible points.
        """
        return [(p, p.symbol, 0, _NO_EDITS) for p in points]

    def max_jump(self, form) -> Fraction:
        """max_n d(sigma(y_n), y_(n+1)) over the points of the edit form
        ``form``; 0 for one point."""
        best = None
        for (p, read, s, e), (q, read_q, t, g) in zip(form, form[1:]):
            if read is read_q and t == s + 1:
                # sigma(y_n) and y_(n+1) both read base symbol t + j at
                # index j, so they can differ only where either is edited
                # (and an edit differs from the base symbol it covers)
                k = min((abs(j) for j in {*(i - 1 for i in e), *g}
                         if e.get(j + 1) != g.get(j)), default=None)
            else:
                shifted = {i - 1: c for i, c in e.items()}
                limit = best if best is not None else 1 + _scan_bound(
                    _edit_span(p, s + 1, shifted), p, _edit_span(q, t, g), q)
                k = _first_difference(_entry_window(p, s + 1, shifted, limit),
                                      _entry_window(q, t, g, limit), limit)
            if k is not None and (best is None or k < best):
                best = k
                if not k:
                    break
        return Fraction(0) if best is None else Fraction(1, 2**best)

    def max_orbit_deviation(self, x: SymbolicPoint, form) -> Fraction:
        """max_n d(sigma^n(x), y_n) over the points y_0, y_1, ... of the form.

        Until a first difference is found each index scans as far as
        ``distance`` would, which certifies a deviation of 0; from then on
        the scan reads x's symbols from one window and stops below the least
        k found so far.
        """
        best = window = None
        for n, (p, read, s, e) in enumerate(form):
            if window is None:
                bound = _scan_bound(_edit_span(x, n, ()), x,
                                    _edit_span(p, s, e), p)
                # x from index n - bound on, far enough for every later scan
                lo = n - bound
                xs = x.window(lo, len(form) - 1 + bound)
                best = _first_difference(xs[:2 * bound + 1],
                                         _entry_window(p, s, e, bound + 1),
                                         bound + 1)
                if best is None:
                    continue
                window = xs
            else:
                i = n - lo
                for k in range(best):
                    if window[i + k] != (e[k] if k in e else read(s + k)) or \
                       window[i - k] != (e[-k] if -k in e else read(s - k)):
                        best = k
                        break
            if not best:
                break
        return Fraction(0) if best is None else Fraction(1, 2**best)

    def describe(self) -> str:
        rows = ";".join("".join(str(v) for v in row) for row in self.transition)
        return f"sft r={self.alphabet_size} T={rows}"


def _mat_mul(A, B):
    n, m, k = len(A), len(B[0]), len(B)
    return tuple(tuple(sum(A[i][t] * B[t][j] for t in range(k)) for j in range(m))
                 for i in range(n))


# -- integer lane -------------------------------------------------------------
#
# Exact toral arithmetic on integers.  A coordinate (p + q*sqrt(D)) / r is
# the integer pair (p, q) over r; over one common denominator the map acts
# on the rational and the sqrt(D) parts as two integer vectors, without
# reduction mod 1.  The shadowing construction also multiplies by
# eigenvalues and eigenslopes, which lie in the order Z[(D + sqrt(D))/2]:
# there an element is a pair (a, b) standing for (a + b*sqrt(D)) / 2 with
# a = b*D (mod 2), and the product of two such pairs halves exactly
# (``_pair_mul``).  Maxima go through a fixed-point filter first:
# 2^k * (p + q*sqrt(D)) lies within |q| of (p << k) + q*isqrt(D * 4^k)
# (``_bracket``), so most comparisons settle on those intervals and an
# exact square and sign run only where they overlap (``_max_filtered``).
# ``max_orbit_deviation`` steps such values with the map as it walks, and
# every toral tracer, built or replayed, is measured by that one walk.
# Pseudo-orbits reach these kernels as their integer form (den, us, vs):
# ``perturbed_orbit`` builds it from its jitter draws, and explicit or
# decoded points are converted once by ``tracking_form``.


def _sq_dist_to_int(D: int, u: int, v: int, den: int) -> tuple[int, int]:
    """Squared distance from (u + v*sqrt(D)) / den to the nearest integer.

    Returns (p, q) with the square equal to (p + q*sqrt(D)) / den^2, den > 0.
    The nearest integer is floor(x + 1/2); for v = 0 a tie at 1/2 gives the
    same |w| on either side.
    """
    n = _floor_quad(D, 2 * u + den, 2 * v, 2 * den)
    w = u - n * den
    return w * w + v * v * D, 2 * w * v


def _sq_norm(D: int, offset, den: int, k: int, S: int) -> tuple[int, int]:
    """Squared torus norm of the offset (u0, v0, u1, v1), as a pair over den^2.

    Coordinate i is (u + v*sqrt(D)) / den, and S = isqrt(D * 4^k).  Its
    nearest integer is read off both ends of the bracket v*S, v*S + v of
    2^k * v*sqrt(D) when they round alike, else from ``_floor_quad``.
    """
    p = q = 0
    for u, v in (offset[:2], offset[2:]):
        g = v * S + (den << k - 1)
        h = g >> k
        n = (u + h) // den if (g + v) >> k == h else \
            _floor_quad(D, 2 * u + den, 2 * v, 2 * den)
        w = u - n * den
        p, q = p + w * w + v * v * D, q + 2 * w * v
    return p, q


def _pair_mul(D: int, x, y) -> tuple[int, int]:
    """The product of two elements (a + b*sqrt(D)) / 2 of the order, as a pair."""
    a, b = x
    e, f = y
    return (a * e + b * f * D) >> 1, (a * f + b * e) >> 1


def _bracket(p: int, q: int, k: int, S: int) -> tuple[int, int]:
    """Integers lo <= 2^k * (p + q*sqrt(D)) <= hi, given S = isqrt(D * 4^k)."""
    t = (p << k) + q * S
    return (t, t + q) if q >= 0 else (t + q, t)


def _max_filtered(D: int, bounds, exact) -> tuple[int, int]:
    """The largest of some values p + q*sqrt(D), as its pair (p, q).

    ``bounds[i]`` brackets the image of value i under one increasing map,
    and ``exact(i)`` gives its pair.  Only the values whose upper bound
    reaches the largest lower bound are computed and compared exactly.
    """
    floor = max(lo for lo, _ in bounds)
    best = None
    for i, (_, hi) in enumerate(bounds):
        if hi < floor:
            continue
        p, q = exact(i)
        if best is None or \
           QuadraticNumber(D, p - best[0], q - best[1]).sign() > 0:
            best = p, q
    return best


def _max_pair(D: int, pairs) -> tuple[int, int]:
    """The largest p + q*sqrt(D) over a nonempty list of integer pairs."""
    if not any(q for _, q in pairs):
        return max(pairs)
    k = max(abs(q).bit_length() for _, q in pairs) + 64
    S = isqrt(D << 2 * k)
    return _max_filtered(D, [_bracket(p, q, k, S) for p, q in pairs],
                         pairs.__getitem__)


class ToralAutomorphism:
    """x -> A x (mod 1) on the 2-torus, for a 2x2 integer matrix with |det A| = 1.

    Construction rejects matrices with an eigenvalue on the unit circle.
    The check and all arithmetic are exact over Q(sqrt(D)) with
    D = trace^2 - 4 det.
    """

    kind = "toral"

    def __init__(self, matrix: Sequence[Sequence[int]]):
        A = tuple(tuple(int(v) for v in row) for row in matrix)
        if len(A) != 2 or any(len(row) != 2 for row in A):
            raise ValueError("matrix must be 2x2")
        (a, b), (c, d) = A
        det = a * d - b * c
        if det not in (1, -1):
            raise ValueError(f"|det| must be 1, got {det}")
        self.matrix = A
        self.det = det
        self.inverse_matrix = ((d * det, -b * det), (-c * det, a * det))
        self._pow_cache: dict[int, tuple] = {0: ((1, 0), (0, 1)), 1: A,
                                             -1: self.inverse_matrix}
        tr = a + d
        disc = tr * tr - 4 * det
        # Unit-circle eigenvalues happen exactly when the characteristic
        # polynomial has a root at +-1 or a complex pair (disc <= 0).
        p1 = 1 - tr + det
        pm1 = 1 + tr + det
        if disc <= 0 or p1 == 0 or pm1 == 0:
            raise NotHyperbolicError(f"matrix {A} has an eigenvalue of modulus 1")
        self.D = disc
        self.trace = tr
        self._splitting = self._exact_splitting()

    def _exact_splitting(self) -> HyperbolicSplitting:
        D, tr = self.D, self.trace
        half = Fraction(1, 2)
        root = QuadraticNumber.sqrt_d(D)
        lam_plus = (QuadraticNumber.from_rational(D, tr) + root) * half
        lam_minus = (QuadraticNumber.from_rational(D, tr) - root) * half
        if abs(lam_plus) > abs(lam_minus):
            lam_u, lam_s = lam_plus, lam_minus
        else:
            lam_u, lam_s = lam_minus, lam_plus
        a, b = self.matrix[0]
        one = QuadraticNumber.from_rational(D, 1)

        # b != 0: a triangular unimodular matrix has eigenvalues +-1, which
        # the constructor has already rejected
        def eigenvector(lam):
            return (one, (lam - a) / b)

        return HyperbolicSplitting(D, lam_u, lam_s, eigenvector(lam_u), eigenvector(lam_s))

    # -- scalar plumbing -------------------------------------------------------

    def scalar(self, value) -> QuadraticNumber:
        if isinstance(value, QuadraticNumber):
            if value.D != self.D and value.q != 0:
                raise MalformedPointError("coordinate from a different field")
            return QuadraticNumber(self.D, value.p, value.q, value.r)
        return QuadraticNumber.from_rational(self.D, value)

    def point(self, *coords) -> TorusPoint:
        if len(coords) == 1 and isinstance(coords[0], (tuple, list)):
            coords = tuple(coords[0])
        if len(coords) != 2:
            raise MalformedPointError("expected 2 coordinates")
        return TorusPoint(tuple(self.scalar(c).mod1() for c in coords))

    def validate_point(self, x) -> None:
        if not isinstance(x, TorusPoint) or len(x.coords) != 2:
            raise MalformedPointError("expected a 2-torus point")
        D = self.D
        for c in x.coords:
            if not isinstance(c, QuadraticNumber) or c.D != D:
                raise MalformedPointError(
                    f"toral coordinates must lie in Q(sqrt({D}))")
            if not (0 <= c.p < c.r if c.q == 0
                    else _floor_quad(D, c.p, c.q, c.r) == 0):
                raise MalformedPointError(f"coordinate {c} outside [0, 1)")

    def matrix_power(self, k: int) -> tuple:
        if k not in self._pow_cache:
            base = self.matrix if k > 0 else self.inverse_matrix
            acc = self._pow_cache[1 if k > 0 else -1]
            for i in range(2, abs(k) + 1):
                acc = _mat_mul(acc, base)
                self._pow_cache[i if k > 0 else -i] = acc
            return self._pow_cache[k]
        return self._pow_cache[k]

    def apply(self, x: TorusPoint, k: int = 1) -> TorusPoint:
        self.validate_point(x)
        x0, x1 = x.coords
        return TorusPoint(tuple((m0 * x0 + m1 * x1).mod1()
                                for m0, m1 in self.matrix_power(k)))

    def distance(self, x: TorusPoint, y: TorusPoint):
        """Euclidean distance between nearest lattice translates.

        The squared norm splits per coordinate, so each coordinate picks its
        own nearest wrap independently.
        """
        self.validate_point(x)
        self.validate_point(y)
        total = self.scalar(0)
        for cx, cy in zip(x.coords, y.coords):
            t = (cx - cy).mod1()
            w = min(t, 1 - t)
            total = total + w * w
        return SqrtVal(total)

    def tracking_form(self, points):
        """(den, us, vs) with point i equal to (us[i] + vs[i]*sqrt(D)) / den.

        This is the one conversion of points into the integer form the
        kernels below read, and each point is validated here, once.
        """
        for x in points:
            self.validate_point(x)
        coords = [x.coords for x in points]
        den = lcm(*(c.r for xy in coords for c in xy))
        u = [(x.p * (den // x.r), y.p * (den // y.r)) for x, y in coords]
        v = [(x.q * (den // x.r), y.q * (den // y.r)) for x, y in coords]
        return den, u, v

    def max_jump(self, form) -> SqrtVal | Fraction:
        """max_i d(f(y_i), y_{i+1}) over the points of the integer form
        ``form``; 0 for one point."""
        den, us, vs = form
        if len(us) < 2:
            return Fraction(0)
        D = self.D
        (a, b), (c, d) = self.matrix

        jumps = []
        for (u0, u1), (v0, v1), (x0, x1), (y0, y1) in \
                zip(us, vs, us[1:], vs[1:]):
            p0, q0 = _sq_dist_to_int(D, a * u0 + b * u1 - x0,
                                     a * v0 + b * v1 - y0, den)
            p1, q1 = _sq_dist_to_int(D, c * u0 + d * u1 - x1,
                                     c * v0 + d * v1 - y1, den)
            jumps.append((p0 + p1, q0 + q1))
        return SqrtVal(QuadraticNumber(D, *_max_pair(D, jumps), den * den))

    def _offsets(self, x: TorusPoint, form):
        """(den, k, S, xv, m, offsets): the orbit of x against the y_n.

        x is validated and put on den = lcm(its denominator, the form's);
        xv = (u0, u1, v0, v1) is x over den, and m = den // (the form's den)
        puts a point of the form on den inside the walk, so the points are
        neither validated nor rescaled again.  Coordinate i of f^n(x) - y_n
        is (U_i + V_i*sqrt(D)) / den, offsets[n] = (U_0, V_0, U_1, V_1),
        with U mod den (a lattice translate) and V exact.  k is the largest
        bit length of a V plus 64, and S = isqrt(D * 4^k).
        """
        qx, ((u0, u1),), ((v0, v1),) = self.tracking_form([x])
        q, us, vs = form
        den = lcm(qx, q)
        s, m = den // qx, den // q
        u0, u1, v0, v1 = u0 * s, u1 * s, v0 * s, v1 * s
        xv = u0, u1, v0, v1
        (a, b), (c, d) = self.matrix
        offsets = []
        for (x0, x1), (y0, y1) in zip(us, vs):
            offsets.append(((u0 - x0 * m) % den, v0 - y0 * m,
                            (u1 - x1 * m) % den, v1 - y1 * m))
            u0, u1 = (a * u0 + b * u1) % den, (c * u0 + d * u1) % den
            v0, v1 = a * v0 + b * v1, c * v0 + d * v1
        k = max(abs(V).bit_length() for o in offsets for V in o[1::2]) + 64
        return den, k, isqrt(self.D << 2 * k), xv, m, offsets

    def orbit_deviations(self, x: TorusPoint, form):
        """d(f^n(x), y_n) for each point y_n of the integer form, exactly."""
        D = self.D
        den, k, S, _, _, offsets = self._offsets(x, form)
        for offset in offsets:
            yield SqrtVal(QuadraticNumber(D, *_sq_norm(D, offset, den, k, S),
                                          den * den))

    def max_orbit_deviation(self, x: TorusPoint, form) -> SqrtVal:
        """max_n d(f^n(x), y_n) over the points y_0, y_1, ... of the form.

        With W = den * 2^k, 2^k * (U + V*sqrt(D)) lies within |V| < 2^s of
        t = (U << k) + V*S mod W, so min(t, W - t) is 2^k * den times the
        coordinate's distance to the lattice within 2^s.  x's t steps by A
        mod W, with no product by S after the first.  Only the indices whose
        bounds reach the largest lower bound are squared exactly.
        """
        D = self.D
        den, k, S, (x0, x1, y0, y1), m, offsets = self._offsets(x, form)
        _, us, vs = form
        (a, b), (c, d) = self.matrix
        s, W = k - 64, den << k
        mk, mS = m << k, m * S
        T0, T1 = (x0 << k) + y0 * S, (x1 << k) + y1 * S
        bounds = []
        for (x0, x1), (y0, y1) in zip(us, vs):
            lo = hi = 0
            for t in ((T0 - x0 * mk - y0 * mS) % W,
                      (T1 - x1 * mk - y1 * mS) % W):
                q = min(t, W - t) >> s  # the distance lies in (q-1, q+2) * 2^s
                lo += max(q - 1, 0) ** 2
                hi += (q + 2) ** 2
            bounds.append((lo, hi))
            T0, T1 = (a * T0 + b * T1) % W, (c * T0 + d * T1) % W
        best = _max_filtered(D, bounds,
                             lambda n: _sq_norm(D, offsets[n], den, k, S))
        return SqrtVal(QuadraticNumber(D, *best, den * den))

    def hyperbolic_splitting(self) -> HyperbolicSplitting:
        return self._splitting

    def describe(self) -> str:
        rows = ";".join(" ".join(str(v) for v in row) for row in self.matrix)
        return f"toral d=2 mode=exact A={rows}"


class CircleRotation:
    """x -> x + angle (mod 1) on the circle, with exact rational state."""

    kind = "rotation"

    def __init__(self, angle: Fraction):
        angle = Fraction(angle)
        if not 0 <= angle < 1:
            raise ValueError("angle must lie in [0, 1)")
        self.angle = angle

    def validate_point(self, x) -> None:
        if not isinstance(x, Fraction):
            raise MalformedPointError("rotation points are exact rationals")
        if not 0 <= x.numerator < x.denominator:
            raise MalformedPointError("point outside [0, 1)")

    def point(self, value) -> Fraction:
        f = Fraction(value)
        return f - (f // 1)

    def apply(self, x: Fraction, k: int = 1) -> Fraction:
        self.validate_point(x)
        v = x + k * self.angle
        return v - (v // 1)

    def distance(self, x: Fraction, y: Fraction) -> Fraction:
        self.validate_point(x)
        self.validate_point(y)
        t = abs(x - y)
        return min(t, 1 - t)

    def tracking_form(self, points):
        """(den, u) with point i equal to u[i] / den, den a multiple of the
        angle's denominator: the one conversion of points into the integer
        form the kernels below read, each point validated here, once."""
        for x in points:
            self.validate_point(x)
        den = lcm(self.angle.denominator, *(x.denominator for x in points))
        return den, [x.numerator * (den // x.denominator) for x in points]

    def _angle_over(self, den: int) -> int:
        return self.angle.numerator * (den // self.angle.denominator)

    def max_jump(self, form) -> Fraction:
        """max_i d(f(y_i), y_{i+1}) over the points of the integer form
        ``form``; 0 for one point."""
        den, u = form
        a = self._angle_over(den)
        steps = ((u1 - u0 - a) % den for u0, u1 in zip(u, u[1:]))
        return Fraction(max((min(t, den - t) for t in steps), default=0), den)

    def max_orbit_deviation(self, x: Fraction, form) -> Fraction:
        """max_n d(f^n(x), y_n) over the points y_0, y_1, ... of the form.

        Only x is validated and scaled; the points are put on the common
        denominator by one product each inside the walk.
        """
        self.validate_point(x)
        q, ys = form
        den = lcm(q, x.denominator)
        m, a = den // q, self._angle_over(den)
        u = x.numerator * (den // x.denominator)  # f^n(x) = u / den (mod 1)
        best = 0
        for y in ys:
            t = (y * m - u) % den
            t = den - t if 2 * t > den else t  # the distance to the lattice
            if t > best:
                best = t
            u += a
        return Fraction(best, den)

    def describe(self) -> str:
        return f"rotation angle={self.angle}"


class PermutationSystem:
    """A permutation of m >= 1 points with the discrete 0/1 metric.

    Every map of a finite discrete space shadows, so no check, config or
    point codec takes this family; it is a plain value type.
    """

    kind = "permutation"

    def __init__(self, images: Sequence[int]):
        perm = tuple(int(v) for v in images)
        m = len(perm)
        if sorted(perm) != list(range(m)):
            raise ValueError("not a permutation of 0..m-1")
        self.images = perm
        self.size = m
        self._cycle_of = {}
        seen = set()
        for start in range(m):
            if start in seen:
                continue
            cyc = [start]
            nxt = perm[start]
            while nxt != start:
                cyc.append(nxt)
                nxt = perm[nxt]
            for pos, v in enumerate(cyc):
                self._cycle_of[v] = (tuple(cyc), pos)
                seen.add(v)

    def validate_point(self, x) -> None:
        if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < self.size:
            raise MalformedPointError(f"point must be an integer in [0, {self.size})")

    def apply(self, x: int, k: int = 1) -> int:
        self.validate_point(x)
        cyc, pos = self._cycle_of[x]
        return cyc[(pos + k) % len(cyc)]

    def distance(self, x: int, y: int) -> Fraction:
        self.validate_point(x)
        self.validate_point(y)
        return Fraction(0) if x == y else Fraction(1)

    def tracking_form(self, points) -> tuple:
        """The points themselves, each validated here, once."""
        for x in points:
            self.validate_point(x)
        return tuple(points)

    def max_jump(self, form) -> Fraction:
        """1 if some f(y_i) is not y_(i+1), else 0."""
        return Fraction(any(self.images[y] != z for y, z in zip(form, form[1:])))

    def max_orbit_deviation(self, x: int, form) -> Fraction:
        """1 if some f^n(x) is not y_n, else 0."""
        self.validate_point(x)
        for y in form:
            if x != y:
                return Fraction(1)
            x = self.images[x]
        return Fraction(0)

    def describe(self) -> str:
        return f"permutation {' '.join(str(v) for v in self.images)}"


System = ShiftSpace | ToralAutomorphism | CircleRotation | PermutationSystem


def full_shift(r: int = 2) -> ShiftSpace:
    return ShiftSpace([[1] * r for _ in range(r)])


def golden_mean_shift() -> ShiftSpace:
    return ShiftSpace([[1, 1], [1, 0]])


def cat_map() -> ToralAutomorphism:
    return ToralAutomorphism([[2, 1], [1, 1]])
