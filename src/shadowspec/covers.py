"""Finite covers by cylinders or grid boxes, indexed by arithmetic.

A cover is the combinatorial backbone of the specification construction:
connectors only need to land in the right cell, so a cover is no more than
the rule ``locate`` that numbers the cell containing a point.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import BudgetExceededError, UnsupportedSystemError
from .scalars import SqrtVal
from .systems import ShiftSpace, ToralAutomorphism

CELL_BUDGET = 65536


class Cover:
    """A numbering of disjoint cells covering the whole space.

    A shift cover's cell i is the cylinder of all sequences showing
    ``words[i]`` on the window [-w, w].  A toral cover's cell i is the
    half-open box of side 1/per with lower corner (i // per, i % per)/per.
    """

    def __init__(self, system, target_delta, *, w: int = 0, words=(),
                 per: int = 0):
        self.system = system
        self.target_delta = target_delta
        self.w = w
        self.words = tuple(words)
        self.per = per
        self._index = {word: i for i, word in enumerate(self.words)}

    def __len__(self):
        return len(self.words) or self.per * self.per

    def locate(self, x) -> int:
        """Index of the unique cell containing ``x``."""
        if self.words:
            return self._index[x.window(-self.w, self.w)]
        idx = 0
        for c in x.coords:
            idx = idx * self.per + (c * self.per).floor()
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
        return Cover(sys, delta, w=w, words=sys.words(2 * w + 1))
    if isinstance(sys, ToralAutomorphism):
        j = 0
        while not SqrtVal(Fraction(2, 4**j)) < delta:
            j += 1
        per = 2**j
        if per * per > budget:
            raise BudgetExceededError(
                f"a grid of side 2^-{j} needs {per * per} cells, over "
                f"the budget of {budget}")
        return Cover(sys, delta, per=per)
    raise UnsupportedSystemError(
        f"no cover construction for {type(sys).__name__}")


def _path_count(sys: ShiftSpace, edges: int) -> int:
    r = sys.alphabet_size
    row = [1] * r  # paths ending at each symbol
    for _ in range(edges):
        row = [sum(row[a] for a in sys.predecessors(b)) for b in range(r)]
    return sum(row)
