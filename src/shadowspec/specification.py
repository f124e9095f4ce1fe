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
from math import lcm

from .covers import Cover, build_cover
from .errors import (
    BudgetExceededError,
    EmptyInputError,
    HorizonError,
    InternalInvariantError,
    NotTransitiveError,
    UnsupportedSystemError,
)
from .pseudo_orbits import concatenate, deviations, orbit
from .scalars import _floor_quad
from .shadowing import delta_for_epsilon, shadow
from .systems import ShiftSpace, ToralAutomorphism

DEFAULT_LEVELS = 4
DEFAULT_HORIZON = 100_000
_SWEEP_CAP = 1 << 24


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
        cells = self.cover.cells
        return (cells[j].word[-1], cells[i].word[0])

    def witness(self, n: int, i: int, j: int):
        """A point of cell ``j`` whose X-step image lies in cell ``i``."""
        lv = self._level(n)
        cells = self.cover.cells
        if isinstance(lv, _SftLevel):
            X = self.entry(n, i, j)
            w = cells[i].w
            word = (cells[j].word + lv.bridges[self._type_key(i, j)]
                    + cells[i].word)
            return self.system.point_through(word, at=-w)
        sys = self.system
        X = lv.x_value
        lower_j = cells[j].lower
        img = tuple((m0 * lower_j[0] + m1 * lower_j[1]) % 1
                    for m0, m1 in sys.matrix_power(X))
        target = tuple((a - b) % 1 for a, b in zip(cells[i].lower, img))
        per = round(1 / cells[0].side)
        flat = 0
        for c in target:
            flat = flat * per + round(c * per)
        t = lv.witnesses[flat] * lv.step
        sp = sys.hyperbolic_splitting()
        base = (sys.scalar(t), lv.base_y + t * sp.v_u[1])
        return sys.point(base[0] + lower_j[0], base[1] + lower_j[1])

    def verify_entry(self, n: int, i: int, j: int) -> bool:
        """Replay one schedule entry: membership at both ends."""
        y = self.witness(n, i, j)
        X = self.entry(n, i, j)
        cells = self.cover.cells
        return (cells[j].contains(y)
                and cells[i].contains(self.system.apply(y, X)))


def _sft_type_counts(cover: Cover):
    """How many cells exit on / enter with each symbol, plus the diagonal."""
    first, last, both = {}, {}, {}
    for cell in cover.cells:
        a, b = cell.word[-1], cell.word[0]
        last[a] = last.get(a, 0) + 1
        first[b] = first.get(b, 0) + 1
        both[(a, b)] = both.get((a, b), 0) + 1
    return first, last, both


def _sft_pair_of_type(cover: Cover, a: int, b: int, off_diagonal: bool):
    """Lexicographically first (i, j) realizing an (exit, entry) type.

    Callers pass only types that such a pair realizes.
    """
    targets = [i for i, c in enumerate(cover.cells) if c.word[0] == b]
    sources = [j for j, c in enumerate(cover.cells) if c.word[-1] == a]
    for i in targets:
        for j in sources:
            if not off_diagonal or i != j:
                return i, j


def _sft_level(sys: ShiftSpace, cover: Cover, n: int, m_prev: int,
               prev: dict, horizon: int) -> _SftLevel:
    w = cover.cells[0].w
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


def _cell_lane(D: int, per: int, base, slope):
    """k -> floor(per * frac(base + k*slope)), for base and slope in Q(sqrt(D)).

    per * (base + k*slope) is (u + k*du + (v + k*dv)*sqrt(D)) / R over one
    denominator R, and floor(per * frac(x)) = floor(per * x) mod per.
    """
    a, b = per * base, per * slope
    R = lcm(a.r, b.r)
    u, v = a.p * (R // a.r), a.q * (R // a.r)
    du, dv = b.p * (R // b.r), b.q * (R // b.r)
    return lambda k: _floor_quad(D, u + k * du, v + k * dv, R) % per


def _toral_sweep(sys: ToralAutomorphism, cover: Cover,
                 X: int) -> _ToralLevel | None:
    """The level of uniform time X, when the base box reaches every cell.

    Trial points sit on the unstable strand through the base box, at
    parameters t = k * step; a float raster proposes the first k landing in
    each cell, and the candidates are verified in exact arithmetic, earliest
    first, before they count: the image of candidate k is affine in k, so
    ``_cell_lane`` gives its cell by one isqrt per coordinate.  The level
    keeps each witness as its k.  Returns None when some cell stays
    unreached at this sampling density.
    """
    sp = sys.hyperbolic_splitting()
    sigma = sp.v_u[1]
    side = cover.cells[0].side
    per = round(1 / side)
    sig_ub = Fraction((abs(sigma) * 2**20).floor() + 1, 2**20)
    t_max = side / (2 * (1 + sig_ub))
    y0 = Fraction(0) if sigma.sign() >= 0 else t_max * sig_ub

    M = sys.matrix_power(X)
    lam_x = sp.lam_u**X
    img_dx = lam_x                      # d(image)/dt, x coordinate
    img_dy = lam_x * sigma
    base_x = sys.scalar(M[0][1]) * y0   # image of (0, y0)
    base_y = sys.scalar(M[1][1]) * y0

    raw = 4 * float(t_max) * abs(float(lam_x)) * max(1.0, abs(float(sigma)))
    k_count = max(per * per, int(raw / float(side)) + 1)
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
    fdx, fdy = float(img_dx) * float(step), float(img_dy) * float(step)
    fbx, fby = float(base_x), float(base_y)

    cells, last = per * per, per - 1
    candidates = {}
    for k in range(k_count):
        cx = int((k * fdx + fbx) % 1.0 * per)
        cy = int((k * fdy + fby) % 1.0 * per)
        cell = (cx if cx < per else last) * per + (cy if cy < per else last)
        if cell not in candidates:
            candidates[cell] = k
            if len(candidates) == cells:
                break
    else:
        return None

    col_x = _cell_lane(sys.D, per, base_x, img_dx * step)
    col_y = _cell_lane(sys.D, per, base_y, img_dy * step)
    witnesses = {}
    for k in sorted(candidates.values()):
        exact = col_x(k) * per + col_y(k)
        witnesses.setdefault(exact, k)
    if len(witnesses) < per * per:
        return None
    return _ToralLevel(X, witnesses, y0, step, X)


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
    ok, checks, devs = _run_checks(sys, z, switch, period, segments,
                                   epsilon, lo, hi)
    if not ok:
        bad = next(label for label, good in checks if not good)
        raise InternalInvariantError(f"specification check failed: {bad}")
    return SpecificationResult(z, switch, level, epsilon, tuple(devs), period)


def _run_checks(sys, z, switch, period, segments, epsilon, lo, hi):
    checks = []
    devs = []
    k = len(segments)
    for j in range(k):
        c_next = switch[j + 1] if j + 1 < k else period
        gap = c_next - switch[j] - segments[j][1]
        checks.append((f"gap[{j}] in [{lo}, {hi}]", lo <= gap <= hi))
    for j, (x, n) in enumerate(segments):
        ds = list(deviations(sys, sys.apply(z, switch[j]), orbit(sys, x, n)))
        checks += [(f"dev[{j}][{i}] < epsilon", d < epsilon)
                   for i, d in enumerate(ds)]
        devs.append(max(ds))
    ok = all(good for _, good in checks)
    return ok, checks, devs


def check_specification(sys, tracer, switch_times, period, segments,
                        epsilon, lo, hi):
    """Recompute every inequality of a specification point from its pieces.

    The caller supplies the bracket [lo, hi] the gaps were required to land
    in.  Returns (passed, checks, devs): checks is a tuple of (label, bool)
    in evaluation order, whose first False entry names the failure, and devs
    the largest deviation on each segment.
    """
    segments = [(x, int(n)) for x, n in segments]
    ok, checks, devs = _run_checks(sys, tracer, tuple(switch_times), period,
                                   segments, epsilon, lo, hi)
    return ok, tuple(checks), tuple(devs)
