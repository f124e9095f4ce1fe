"""Finite covers by cylinders or grid boxes, with exact cell geometry.

A cover is the combinatorial backbone of the specification construction:
connectors only need to land in the right cell, so cells carry membership
tests, a canonical representative, and an exact diameter used in seam
accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetExceededError, UnsupportedSystemError
from .scalars import SqrtVal
from .systems import ShiftSpace, SymbolicPoint, ToralAutomorphism, TorusPoint

CELL_BUDGET = 65536


def _branch_distance(sys: ShiftSpace, start: int, forward: bool) -> int | None:
    """Least number of steps from ``start`` to a symbol with two links.

    None when every continuation is forced forever (pure cycle), in which
    case the cell cannot spread on that side at all.
    """
    degree = sys.successors if forward else sys.predecessors
    seen = {start}
    frontier = [start]
    dist = 0
    while frontier:
        for s in frontier:
            if len(degree(s)) >= 2:
                return dist
        nxt = []
        for s in frontier:
            for t in degree(s):
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
        frontier = nxt
        dist += 1
    return None


@dataclass(frozen=True)
class CylinderCell:
    """All sequences showing ``word`` on the window [-w, w]."""

    word: tuple
    w: int
    diameter: Fraction

    def contains(self, x: SymbolicPoint) -> bool:
        return x.window(-self.w, self.w) == self.word

    def representative(self, sys: ShiftSpace) -> SymbolicPoint:
        return sys.point_through(self.word, at=-self.w)


@dataclass(frozen=True)
class BoxCell:
    """Half-open axis box prod_i [lower_i, lower_i + side)."""

    lower: tuple
    side: Fraction
    diameter: SqrtVal

    def contains(self, x: TorusPoint) -> bool:
        return all(lo <= c and c < lo + self.side
                   for lo, c in zip(self.lower, x.coords))

    def representative(self, sys: ToralAutomorphism) -> TorusPoint:
        return sys.point(*self.lower)


class Cover:
    """An indexed list of disjoint cells covering the whole space."""

    def __init__(self, system, target_delta, cells):
        self.system = system
        self.target_delta = target_delta
        self.cells = tuple(cells)
        if isinstance(system, ShiftSpace):
            self._index = {c.word: i for i, c in enumerate(self.cells)}
        else:
            self._per_axis = round(1 / self.cells[0].side)

    def __len__(self):
        return len(self.cells)

    def locate(self, x) -> int:
        """Index of the unique cell containing ``x``."""
        if isinstance(self.system, ShiftSpace):
            w = self.cells[0].w
            return self._index[x.window(-w, w)]
        side = self.cells[0].side
        idx = 0
        for c in x.coords:
            idx = idx * self._per_axis + (c / side).floor()
        return idx


def build_cover(sys, delta, budget: int = CELL_BUDGET) -> Cover:
    """Cells of diameter below ``delta`` tiling the system's space.

    Shift spaces get one cylinder per admissible word on the window
    [-w, w] where 2^-w < delta; tori get a uniform dyadic grid of side s
    with s * sqrt(2) < delta.
    """
    if isinstance(sys, ShiftSpace):
        if not delta > 0:
            raise ValueError("delta must be positive")
        w = 0
        while not Fraction(1, 2**w) < delta:
            w += 1
        # count admissible window words before enumerating them
        count = _path_count(sys, 2 * w)
        if count > budget:
            raise BudgetExceededError(
                f"{count} cylinders of window {2 * w + 1} exceed the "
                f"budget of {budget} cells")
        cells = []
        for word in sys.words(2 * w + 1):
            fwd = _branch_distance(sys, word[-1], forward=True)
            bwd = _branch_distance(sys, word[0], forward=False)
            spread = [w + 1 + d for d in (fwd, bwd) if d is not None]
            diam = Fraction(1, 2 ** min(spread)) if spread else Fraction(0)
            cells.append(CylinderCell(word, w, diam))
        return Cover(sys, delta, cells)
    if isinstance(sys, ToralAutomorphism):
        j = 0
        while not SqrtVal(Fraction(2, 4**j)) < delta:
            j += 1
        per = 2**j
        if per * per > budget:
            raise BudgetExceededError(
                f"a grid of side 2^-{j} needs {per * per} cells, over "
                f"the budget of {budget}")
        side = Fraction(1, per)
        diam = SqrtVal(2 * side * side)
        cells = [BoxCell((Fraction(kx, per), Fraction(ky, per)), side, diam)
                 for kx in range(per) for ky in range(per)]
        return Cover(sys, delta, cells)
    raise UnsupportedSystemError(
        f"no cover construction for {type(sys).__name__}")


def _path_count(sys: ShiftSpace, edges: int) -> int:
    r = sys.alphabet_size
    row = [1] * r  # paths ending at each symbol
    for _ in range(edges):
        row = [sum(row[a] for a in sys.predecessors(b)) for b in range(r)]
    return sum(row)
