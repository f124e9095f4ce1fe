"""Transition schedules, connectors, and verified specification tracers.

The pipeline turns "shadowing + transitivity" into a constructive gluing
device: a cover with cells finer than the shadowing tolerance, a schedule
of transition times X^(n)_{i,j} with replayable witnesses, and a tracer
whose orbit visits the requested segments with gaps confined to
[M_{n-1}, M_n].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm

from .covers import Cover, build_cover
from .errors import (
    BudgetExceededError,
    EmptyInputError,
    HorizonError,
    InternalInvariantError,
    NotTransitiveError,
    UnsupportedSystemError,
)
from .pseudo_orbits import concatenate, from_true_orbit
from .scalars import _floor_quad
from .shadowing import delta_for_epsilon, shadow
from .systems import ShiftSpace, ToralAutomorphism

DEFAULT_LEVELS = 4
DEFAULT_HORIZON = 100_000
_SWEEP_CAP = 1 << 24
_RASTER_BITS = 64  # K of _cell_raster's S = floor(2^K sqrt(D))


@dataclass(frozen=True)
class _SftLevel:
    # entries keyed by (exit symbol of the source word, entry symbol of the
    # target word); every cell pair of one type shares X and bridge
    entries: dict
    bridges: dict
    threshold: int


@dataclass(frozen=True)
class _ToralLevel:
    # one uniform X; witnesses map a target cell to the sample index k of a
    # verified point of the base box landing in that cell, whose strand
    # parameter is t = k * step
    x_value: int
    witnesses: dict
    base_y: Fraction
    step: Fraction
    threshold: int


class TransitionSchedule:
    """Levels of transition times with thresholds M_0 = 0 <= M_1 <= ...

    ``entry(n, i, j)`` is X^(n)_{i,j}: the scheduled number of steps after
    which a witness point of cell j lands in cell i.
    """

    def __init__(self, system, cover: Cover, levels):
        self.system = system
        self.cover = cover
        self.levels = tuple(levels)
        self.thresholds = (0,) + tuple(lv.threshold for lv in self.levels)

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    def threshold(self, n: int) -> int:
        return self.thresholds[n]

    def _level(self, n: int):
        if not 1 <= n <= len(self.levels):
            raise ValueError(f"level {n} outside 1..{len(self.levels)}")
        return self.levels[n - 1]

    def entry(self, n: int, i: int, j: int) -> int:
        lv = self._level(n)
        if isinstance(lv, _ToralLevel):
            return lv.x_value
        # every (exit, entry) type of the cover is scheduled (_sft_level)
        return lv.entries[self._type_key(i, j)]

    def _type_key(self, i: int, j: int):
        words = self.cover.words
        return (words[j][-1], words[i][0])

    def witness(self, n: int, i: int, j: int):
        """A point of cell ``j`` whose X-step image lies in cell ``i``."""
        lv = self._level(n)
        cover = self.cover
        if isinstance(lv, _SftLevel):
            words = cover.words
            word = words[j] + lv.bridges[self._type_key(i, j)] + words[i]
            return self.system.point_through(word, at=-cover.w)
        sys = self.system
        per = cover.per
        # A^X maps the grid (Z/per)^2 to itself, so the offset from the
        # image of corner j to corner i is a grid point too
        jx, jy = divmod(j, per)
        img = [(m0 * jx + m1 * jy) % per
               for m0, m1 in sys.matrix_power(lv.x_value)]
        flat = ((i // per - img[0]) % per) * per + (i % per - img[1]) % per
        t = lv.witnesses[flat] * lv.step
        sp = sys.hyperbolic_splitting()
        return sys.point(sys.scalar(t) + Fraction(jx, per),
                         lv.base_y + t * sp.v_u[1] + Fraction(jy, per))

    def verify_entry(self, n: int, i: int, j: int) -> bool:
        """Replay one schedule entry: membership at both ends."""
        y = self.witness(n, i, j)
        X = self.entry(n, i, j)
        locate = self.cover.locate
        return locate(y) == j and locate(self.system.apply(y, X)) == i


def _sft_type_counts(cover: Cover):
    """How many cells exit on / enter with each symbol, plus the diagonal."""
    first, last, both = {}, {}, {}
    for word in cover.words:
        a, b = word[-1], word[0]
        last[a] = last.get(a, 0) + 1
        first[b] = first.get(b, 0) + 1
        both[(a, b)] = both.get((a, b), 0) + 1
    return first, last, both


def _sft_pair_of_type(cover: Cover, a: int, b: int, off_diagonal: bool):
    """Lexicographically first (i, j) realizing an (exit, entry) type.

    Callers pass only types that such a pair realizes.
    """
    targets = [i for i, word in enumerate(cover.words) if word[0] == b]
    sources = [j for j, word in enumerate(cover.words) if word[-1] == a]
    for i in targets:
        for j in sources:
            if not off_diagonal or i != j:
                return i, j


def _sft_level(sys: ShiftSpace, cover: Cover, n: int, m_prev: int,
               prev: dict, horizon: int) -> _SftLevel:
    w = cover.w
    first, last, both = _sft_type_counts(cover)
    off_types, diag_types = [], []
    for a in last:
        for b in first:
            pairs = last[a] * first[b]
            diag = both.get((a, b), 0)
            if pairs - diag > 0:
                off_types.append((a, b))
            elif diag > 0:
                diag_types.append((a, b))

    def least_x(a, b, lo, hi):
        X = lo
        while X <= hi:
            if sys.reachable_in(X - 2 * w, a, b):
                return X
            X += 1
        return None

    entries, bridges = {}, {}
    floor = 2 * w + 1
    for a, b in sorted(off_types):
        lo = max(m_prev, prev.get((a, b), floor - 1) + 1, floor)
        X = least_x(a, b, lo, horizon)
        if X is None:
            i, j = _sft_pair_of_type(cover, a, b, off_diagonal=True)
            raise HorizonError(
                f"level {n}: no transition time for cells ({i}, {j}) "
                f"within horizon {horizon}")
        entries[(a, b)] = X
    # A cover has at least two cells (r >= 2), and for distinct cells c, c'
    # the type (exit of c, entry of c') is off-diagonal, so entries is
    # never empty here.
    threshold = max(entries.values())
    for a, b in sorted(diag_types):
        lo = max(m_prev, prev.get((a, b), floor - 1) + 1, floor)
        X = least_x(a, b, lo, threshold)
        if X is None:
            i, j = _sft_pair_of_type(cover, a, b, off_diagonal=False)
            raise HorizonError(
                f"level {n}: diagonal transition time for cell ({i}, {i}) "
                f"does not fit below M_{n} = {threshold}")
        entries[(a, b)] = X
    # least_x chose each X with reachable_in(X - 2w, a, b), X - 2w >= 1
    for (a, b), X in entries.items():
        bridges[(a, b)] = sys.path_between(a, b, X - 2 * w)
    return _SftLevel(entries, bridges, threshold)


def _cell_raster(D: int, per: int, base, slope):
    """Yield floor(per * frac(base + k*slope)) for k = 0, 1, 2, ...

    base and slope lie in Q(sqrt(D)), and per * (base + k*slope) is
    (u + k*du + (v + k*dv)*sqrt(D)) / R over one denominator R.  With
    S = floor(2^K sqrt(D)), N = 2^K (u + k*du) + (v + k*dv) S falls short of
    2^K R times that value by (v + k*dv) theta, 0 < theta < 1.  So the
    floor is N // (2^K R) unless N and the value lie on two sides of a
    multiple of 2^K R; there ``_floor_quad`` decides.  N steps by one
    constant per k and is kept mod per * 2^K R.
    """
    a, b = per * base, per * slope
    R = lcm(a.r, b.r)
    u, v = a.p * (R // a.r), a.q * (R // a.r)
    du, dv = b.p * (R // b.r), b.q * (R // b.r)
    K = _RASTER_BITS
    S = isqrt(D << 2 * K)
    unit = R << K
    span = per * unit
    n = ((u << K) + v * S) % span
    dn = ((du << K) + dv * S) % span
    while True:
        col, rem = divmod(n, unit)
        if not 0 <= rem + v <= unit:
            col = _floor_quad(D, u, v, R) % per
        yield col
        n += dn
        if n >= span:
            n -= span
        u += du
        v += dv


def _toral_sweep(sys: ToralAutomorphism, cover: Cover,
                 X: int) -> _ToralLevel | None:
    """The level of uniform time X, when the base box reaches every cell.

    Trial points sit on the unstable strand through the base box, at
    parameters t = k * step for k < k_count.  The image of trial point k is
    affine in k, so ``_cell_raster`` walks each coordinate's cell exactly
    on integers; the level keeps the first k landing in each cell, and
    stops once every cell has one.  Returns None when some cell stays
    unreached at this sampling density.
    """
    sp = sys.hyperbolic_splitting()
    sigma = sp.v_u[1]
    per = cover.per
    side = Fraction(1, per)
    sig_ub = Fraction((abs(sigma) * 2**20).floor() + 1, 2**20)
    t_max = side / (2 * (1 + sig_ub))
    y0 = Fraction(0) if sigma.sign() >= 0 else t_max * sig_ub

    M = sys.matrix_power(X)
    lam_x = sp.lam_u**X
    img_dx = lam_x                      # d(image)/dt, x coordinate
    img_dy = lam_x * sigma
    base_x = sys.scalar(M[0][1]) * y0   # image of (0, y0)
    base_y = sys.scalar(M[1][1]) * y0

    spread = 4 * t_max * abs(lam_x) * max(1, abs(sigma)) / side
    k_count = max(per * per, spread.floor() + 1)
    if k_count > _SWEEP_CAP:
        raise BudgetExceededError(
            f"strand sweep at X = {X} needs {k_count} samples")
    # The samples lie on a segment of the image strand, which meets at most
    # per * t_max * (|dx| + |dy|) + 3 cells; witnesses are keyed by the
    # cells of the samples, so below per^2 cells no density of samples can
    # reach them all.
    if (abs(img_dx) + abs(img_dy)) * t_max * per + 3 < per * per:
        return None
    step = t_max / k_count

    col_x = _cell_raster(sys.D, per, base_x, img_dx * step)
    col_y = _cell_raster(sys.D, per, base_y, img_dy * step)
    witnesses = {}
    for k, cx, cy in zip(range(k_count), col_x, col_y):
        witnesses.setdefault(cx * per + cy, k)
        if len(witnesses) == per * per:
            return _ToralLevel(X, witnesses, y0, step, X)
    return None


def _toral_level(sys: ToralAutomorphism, cover: Cover, n: int, m_prev: int,
                 prev_x: int, horizon: int) -> _ToralLevel:
    X = max(m_prev, prev_x + 1, 1)
    while X <= horizon:
        level = _toral_sweep(sys, cover, X)
        if level is not None:
            return level
        X += 1
    raise HorizonError(
        f"level {n}: no uniform transition time within horizon {horizon}")


def transition_times(sys, cover: Cover, n_max: int = DEFAULT_LEVELS,
                     horizon: int = DEFAULT_HORIZON) -> TransitionSchedule:
    """Schedule levels 1..n_max of witnessed transition times."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if isinstance(sys, ShiftSpace):
        if not sys.irreducible:
            raise NotTransitiveError(
                "transition matrix is reducible; no schedule exists")
        levels = []
        m_prev, prev = 0, {}
        for n in range(1, n_max + 1):
            lv = _sft_level(sys, cover, n, m_prev, prev, horizon)
            levels.append(lv)
            m_prev, prev = lv.threshold, lv.entries
        return TransitionSchedule(sys, cover, levels)
    if isinstance(sys, ToralAutomorphism):
        levels = []
        m_prev, prev_x = 0, 0
        for n in range(1, n_max + 1):
            lv = _toral_level(sys, cover, n, m_prev, prev_x, horizon)
            levels.append(lv)
            m_prev, prev_x = lv.threshold, lv.x_value
        return TransitionSchedule(sys, cover, levels)
    raise UnsupportedSystemError(
        f"no schedule construction for {type(sys).__name__}")


@dataclass(frozen=True)
class SpecificationResult:
    """A tracer visiting every segment with schedule-confined gaps."""

    tracer: object
    switch_times: tuple
    level: int
    epsilon: object
    per_segment_max_deviation: tuple
    period: int


def cover_tolerance(sys, epsilon):
    """The cover tolerance of a specification run at ``epsilon``.

    Shadowing is calibrated at epsilon/2, and cells stay below both
    delta_for_epsilon(epsilon/2) and epsilon/2, so the cell-diameter slack
    at the seams still lands the final deviations under the full epsilon.
    """
    half = Fraction(1, 2) * epsilon
    return min(delta_for_epsilon(sys, half), half)


def specification_point(sys, segments, epsilon, level: int,
                        schedule: TransitionSchedule | None = None, *,
                        horizon: int = DEFAULT_HORIZON) -> SpecificationResult:
    """A verified tracer whose orbit runs through all given segments.

    Shadowing is calibrated at epsilon/2 and the cover built at
    ``cover_tolerance(sys, epsilon)``.
    """
    segments = [(x, int(n)) for x, n in segments]
    if not segments:
        raise EmptyInputError("at least one segment is required")
    for x, n in segments:
        sys.validate_point(x)
        if n < 0:
            raise ValueError("segment lengths must be nonnegative")
    half = Fraction(1, 2) * epsilon
    # cover_tolerance refuses a nonpositive epsilon (delta_for_epsilon)
    target = cover_tolerance(sys, epsilon)
    if schedule is None:
        cover = build_cover(sys, target)
        schedule = transition_times(sys, cover, max(level, 1), horizon)
    else:
        cover = schedule.cover
        if not cover.target_delta == target:
            raise ValueError("schedule was built for a different tolerance")
    if not 1 <= level <= schedule.n_levels:
        raise ValueError(f"level {level} not scheduled")

    k = len(segments)
    starts = [cover.locate(x) for x, _ in segments]
    ends = [cover.locate(sys.apply(x, n)) for x, n in segments]
    connectors = []
    for j in range(k):
        to_cell = starts[(j + 1) % k]
        X = schedule.entry(level, to_cell, ends[j])
        connectors.append((schedule.witness(level, to_cell, ends[j]), X))

    po, c = concatenate(sys, segments, connectors)
    result = shadow(sys, po, half)
    z = result.tracer
    switch = tuple(c[:-1])
    period = c[-1]

    lo, hi = schedule.threshold(level - 1), schedule.threshold(level)
    ok, checks, devs = check_specification(sys, z, switch, period, segments,
                                           epsilon, lo, hi)
    if not ok:
        bad = next(label for label, good in checks if not good)
        raise InternalInvariantError(f"specification check failed: {bad}")
    return SpecificationResult(z, switch, level, epsilon, devs, period)


def check_specification(sys, tracer, switch_times, period, segments,
                        epsilon, lo, hi):
    """Recompute every inequality of a specification point from its pieces.

    The caller supplies the bracket [lo, hi] the gaps were required to land
    in.  Returns (passed, checks, devs): checks is a tuple of (label, bool)
    in evaluation order, whose first False entry names the failure, and devs
    the largest deviation on each segment.  The labels are
    ``gap[j] in [lo, hi]`` for each segment j, then ``dev[j] < epsilon``,
    the true orbit of x_j read against f^(c_j)(tracer) as one pseudo-orbit.
    """
    segments = [(x, int(n)) for x, n in segments]
    switch = tuple(switch_times)
    ends = switch[1:len(segments)] + (period,)
    checks = [(f"gap[{j}] in [{lo}, {hi}]", lo <= ends[j] - switch[j] - n <= hi)
              for j, (_, n) in enumerate(segments)]
    devs = tuple(from_true_orbit(sys, x, 0, n).max_deviation(
        sys.apply(tracer, switch[j])) for j, (x, n) in enumerate(segments))
    checks += [(f"dev[{j}] < epsilon", d < epsilon)
               for j, d in enumerate(devs)]
    return all(good for _, good in checks), tuple(checks), devs
