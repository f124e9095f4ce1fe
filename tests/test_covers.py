"""Covers: cell counts, the mesh a cover promises, and locate."""

from fractions import Fraction
from itertools import product

import pytest

from shadowspec.covers import build_cover
from shadowspec.errors import BudgetExceededError
from shadowspec.scalars import QuadraticNumber, SqrtVal
from shadowspec.systems import cat_map, full_shift, golden_mean_shift


def words_by_enumeration(transition, length):
    """Independent oracle: filter the full product by adjacent-pair checks."""
    r = len(transition)
    out = []
    for w in product(range(r), repeat=length):
        if all(transition[a][b] for a, b in zip(w, w[1:])):
            out.append(w)
    return out


def test_full_shift_cover_counts():
    fs = full_shift(2)
    cover = build_cover(fs, Fraction(3, 4))
    oracle = words_by_enumeration(fs.transition, 3)
    assert len(cover) == len(oracle) == 8
    assert list(cover.words) == sorted(oracle)
    assert cover.w == 1


def test_golden_mean_cover_is_admissible_words_only():
    gm = golden_mean_shift()
    cover = build_cover(gm, Fraction(3, 4))
    oracle = words_by_enumeration(gm.transition, 3)
    assert len(cover) == len(oracle) == 5
    assert list(cover.words) == sorted(oracle)


def test_golden_mean_cell_diameter_exact():
    # In the cell 101 the symbols at indices -2 and 2 are forced, so the
    # first free index is 3; check both facts by enumeration, then find
    # two points of the cell at distance 1/8.
    gm = golden_mean_shift()
    cover = build_cover(gm, Fraction(3, 4))
    idx = cover._index[(1, 0, 1)]
    five = [w for w in words_by_enumeration(gm.transition, 5)
            if w[1:4] == (1, 0, 1)]
    assert five and all(w[0] == 0 and w[4] == 0 for w in five)
    x = gm.point_through((0, 0, 1, 0, 1, 0, 0), at=-3)
    y = gm.point_through((0, 0, 1, 0, 1, 0, 1), at=-3)
    assert cover.locate(x) == cover.locate(y) == idx
    assert gm.distance(x, y) == Fraction(1, 8)


@pytest.mark.parametrize("sys", [full_shift(2), golden_mean_shift(),
                                 full_shift(3)], ids=["full2", "golden",
                                                      "full3"])
def test_cylinders_split_just_outside_the_window_below_delta(sys):
    """Two points showing the same window word on [-w, w] and differing
    at index w + 1 or -(w + 1) lie in one cell, 2^-(w+1) < delta apart."""
    delta = Fraction(1, 5)
    cover = build_cover(sys, delta)
    w = cover.w
    bound = Fraction(1, 2 ** (w + 1))
    assert bound < delta
    pairs = 0
    for i, word in enumerate(cover.words):
        ahead = [word + (s,) for s in sys.successors(word[-1])]
        behind = [(s,) + word for s in sys.predecessors(word[0])]
        for ext, at in ((ahead, -w), (behind, -w - 1)):
            points = [sys.point_through(e, at=at) for e in ext]
            for x, y in zip(points, points[1:]):
                assert cover.locate(x) == cover.locate(y) == i
                assert sys.distance(x, y) == bound
                pairs += 1
    assert pairs > 0


def test_cylinder_representative_and_locate_roundtrip():
    gm = golden_mean_shift()
    cover = build_cover(gm, Fraction(1, 4))  # w = 3
    assert cover.w == 3
    for i, word in enumerate(cover.words):
        rep = gm.point_through(word, at=-cover.w)
        assert rep.window(-3, 3) == word
        assert cover.locate(rep) == i


def _box_of(cover, x):
    """Row-major index of the box c <= x < c + 1/per, found by search."""
    per = cover.per
    idx = 0
    for c in x.coords:
        k = next(k for k in range(per)
                 if Fraction(k, per) <= c and c < Fraction(k + 1, per))
        idx = idx * per + k
    return idx


def test_toral_cover_grid():
    cm = cat_map()
    cover = build_cover(cm, Fraction(1, 2))
    assert len(cover) == 16 and cover.per == 4
    assert SqrtVal(Fraction(2, 4 * 4)) < Fraction(1, 2)
    # the lower corner of cell i is (i // 4, i % 4)/4, and it locates back
    for i in range(16):
        corner = cm.point(Fraction(i // 4, 4), Fraction(i % 4, 4))
        assert cover.locate(corner) == i
        inner = cm.point(Fraction(i // 4, 4) + Fraction(255, 1024),
                         Fraction(i % 4, 4) + Fraction(1, 1024))
        assert cover.locate(inner) == i
    # row-major order: (3/4, 1/8) lives in box (3, 0)
    x = cm.point(Fraction(3, 4), Fraction(1, 8))
    assert cover.locate(x) == 3 * 4 + 0
    for a, b in [(Fraction(1, 7), Fraction(2, 7)),
                 (Fraction(3, 11), Fraction(9, 11)),
                 (Fraction(1, 4), Fraction(3, 4) - Fraction(1, 10**9))]:
        x = cm.point(a, b)
        assert cover.locate(x) == _box_of(cover, x)


def test_toral_locate_irrational_point():
    cm = cat_map()
    cover = build_cover(cm, Fraction(1, 2))
    for x in [cm.point(QuadraticNumber(5, 1, 1, 4), Fraction(1, 3)),
              cm.point(QuadraticNumber(5, 0, 1, 3), QuadraticNumber(5, 2, -1))]:
        assert cover.locate(x) == _box_of(cover, x)
    big = build_cover(cm, Fraction(1, 50))
    assert big.per == 128
    x = cm.point(QuadraticNumber(5, 1, 1, 4), QuadraticNumber(5, 7, -3, 11))
    assert big.locate(x) == _box_of(big, x)


def test_toral_cover_accepts_field_delta():
    cm = cat_map()
    delta = QuadraticNumber(5, 1, 0, 3)  # 1/3 as a field element
    cover = build_cover(cm, delta)
    per = cover.per
    assert SqrtVal(Fraction(2, per * per)) < delta
    # the grid is the coarsest dyadic one below delta
    assert not SqrtVal(Fraction(2, (per // 2) ** 2)) < delta


def test_cover_budget_errors():
    with pytest.raises(BudgetExceededError):
        build_cover(full_shift(2), Fraction(1, 16), budget=8)
    with pytest.raises(BudgetExceededError):
        build_cover(cat_map(), Fraction(1, 2), budget=8)


def test_sft_cover_cells_partition_points():
    fs = full_shift(3)
    cover = build_cover(fs, Fraction(1, 2))  # w = 2, 3^5 cells
    assert len(cover) == 3**5
    x = fs.point_through((2, 1, 0, 1, 2, 0), at=-2)
    i = cover.locate(x)
    assert cover.words[i] == x.window(-2, 2) == (2, 1, 0, 1, 2)
