"""System models: shift spaces, toral automorphisms, rotation, permutation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from shadowspec.errors import MalformedPointError, NotHyperbolicError
from shadowspec.scalars import QuadraticNumber, SqrtVal
from shadowspec.systems import (
    CircleRotation,
    PermutationSystem,
    ShiftSpace,
    SymbolicPoint,
    ToralAutomorphism,
    TorusPoint,
    cat_map,
    full_shift,
    golden_mean_shift,
)


class TestSymbolicPoint:
    def test_canonical_primitive_tails(self):
        assert SymbolicPoint.periodic((0, 1, 0, 1)) == SymbolicPoint.periodic((0, 1))
        assert SymbolicPoint.periodic((0, 1)) != SymbolicPoint.periodic((1, 0))

    def test_symbol_and_window(self):
        x = SymbolicPoint((0,), (1, 1), (0, 1), 0)
        assert x.window(-2, 4) == (0, 0, 1, 1, 0, 1, 0)
        assert x.symbol(-100) == 0
        assert x.symbol(101) == 1 and x.symbol(102) == 0

    @pytest.mark.parametrize("x", [
        SymbolicPoint((0, 1, 1), (2, 0, 2, 2), (1, 2), 0),
        SymbolicPoint((0, 1, 1), (2, 0, 2, 2), (1, 2), 5),
        SymbolicPoint((0, 1, 1), (2, 0, 2, 2), (1, 2), -7),
        SymbolicPoint((0,), (), (1, 0, 1), 3),
        SymbolicPoint.periodic((0, 1, 2)),
    ])
    def test_window_matches_symbols(self, x):
        # ranges inside one tail, across the core into both tails, around
        # an empty core, at negative offsets, and empty ones with b < a
        for a in range(-17, 18):
            for b in range(a - 2, 18):
                assert x.window(a, b) == tuple(x.symbol(n) for n in range(a, b + 1))

    def test_shift_moves_the_origin(self):
        x = SymbolicPoint((0,), (1,), (0,), 0)
        y = x.shifted(2)
        assert y.symbol(-2) == 1
        assert x.shifted(3).shifted(-3) == x

    def test_with_symbol(self):
        x = SymbolicPoint.periodic((0,))
        y = x.with_symbol(5, 1)
        assert y.symbol(5) == 1
        assert y.symbol(4) == 0 and y.symbol(6) == 0
        assert x == SymbolicPoint.periodic((0,))  # original untouched

    def test_equality_is_certified(self):
        # same eventual behavior, different presentations
        a = SymbolicPoint((0,), (0, 0, 0), (0,), 0)
        assert a == SymbolicPoint.periodic((0,))
        b = SymbolicPoint((0, 1), (), (1, 0), 0)
        c = SymbolicPoint.periodic((0, 1))
        assert (b == c) == all(b.symbol(n) == c.symbol(n) for n in range(-20, 20))
        assert a != (0,) and a != 0

    def test_repr_and_malformed_construction(self):
        x = SymbolicPoint((0, 1), (2,), (1,), 3)
        assert repr(x) == "SymbolicPoint(01~2~1@3)"
        assert repr(SymbolicPoint.periodic((1,))) == "SymbolicPoint(1~-~1@0)"
        with pytest.raises(MalformedPointError, match="tail words"):
            SymbolicPoint((), (0,), (1,))
        with pytest.raises(MalformedPointError, match="empty period"):
            SymbolicPoint.periodic(())
        with pytest.raises(AttributeError, match="immutable"):
            x.offset = 0


class TestShiftSpace:
    def test_constructor_rejects_bad_matrices(self):
        with pytest.raises(ValueError):
            ShiftSpace([[1]])
        with pytest.raises(ValueError):
            ShiftSpace([[1, 2], [1, 1]])
        with pytest.raises(ValueError):
            ShiftSpace([[1, 1], [1]])

    @pytest.mark.parametrize("matrix, message", [
        ([[1] * 11] * 11, "beyond 10 symbols"),
        ([[1, 1], [0, 0]], "at least one successor"),
        ([[1, 0], [1, 0]], "at least one predecessor"),
    ], ids=["eleven-symbols", "no-successor", "no-predecessor"])
    def test_constructor_names_the_defect(self, matrix, message):
        with pytest.raises(ValueError, match=message):
            ShiftSpace(matrix)

    def test_words_and_admissibility(self):
        gm = golden_mean_shift()
        assert list(gm.words(3)) == [(0, 0, 0), (0, 0, 1), (0, 1, 0),
                                     (1, 0, 0), (1, 0, 1)]
        assert gm.word_admissible((0, 1, 0, 1))
        assert not gm.word_admissible((0, 1, 1))

    def test_validate_point(self):
        gm = golden_mean_shift()
        gm.validate_point(SymbolicPoint.periodic((0, 1)))
        with pytest.raises(MalformedPointError):
            gm.validate_point(SymbolicPoint.periodic((1, 1)))
        with pytest.raises(MalformedPointError):
            gm.validate_point(SymbolicPoint.periodic((2,)))
        with pytest.raises(MalformedPointError, match="right tail"):
            gm.validate_point(SymbolicPoint((0,), (), (1,)))
        with pytest.raises(MalformedPointError, match="expected SymbolicPoint"):
            gm.validate_point((0, 1))

    @pytest.mark.parametrize("point,index", [
        # ...0101|11|0... with the core at [-3, 0): the left seam
        (SymbolicPoint((0, 1), (1, 0, 1), (0,), 3), -4),
        (SymbolicPoint((0,), (1, 0, 1, 1, 0, 1), (0,), 0), 2),
        # the core ends at index 4 and the right tail opens with a 1
        (SymbolicPoint((0,), (1, 0, 1), (1, 0), -2), 4),
    ], ids=["left-seam", "core", "right-seam"])
    def test_validate_point_reports_first_bad_pair(self, point, index):
        with pytest.raises(MalformedPointError,
                           match=f"inadmissible pair at index {index}$"):
            golden_mean_shift().validate_point(point)

    def test_distance_frozen(self):
        sh = full_shift(2)
        z = SymbolicPoint.periodic((0,))
        assert sh.distance(z, z.with_symbol(3, 1)) == Fraction(1, 8)
        assert sh.distance(z, z.with_symbol(-3, 1)) == Fraction(1, 8)
        assert sh.distance(z, z.with_symbol(0, 1)) == Fraction(1)
        assert sh.distance(z, z) == Fraction(0)

    def test_apply_is_the_shift(self):
        sh = full_shift(2)
        x = SymbolicPoint.periodic((0,)).with_symbol(4, 1)
        assert sh.apply(x).symbol(3) == 1
        assert sh.apply(x, -4).symbol(8) == 1

    def test_reachability_and_paths(self):
        gm = golden_mean_shift()
        assert gm.irreducible
        assert gm.reachable_in(2, 1, 1)
        assert not gm.reachable_in(1, 1, 1)
        assert gm.path_between(1, 1, 2) == (0,)
        assert gm.path_between(0, 0, 3) == (0, 0)
        assert gm.path_between(0, 0, 0) == ()
        assert gm.path_between(0, 1, 0) is None
        assert gm.path_between(1, 1, 1) is None
        assert not ShiftSpace([[1, 0], [0, 1]]).irreducible

    def test_point_through(self):
        gm = golden_mean_shift()
        x = gm.point_through((1, 0, 1), at=-1)
        assert x.window(-1, 1) == (1, 0, 1)
        gm.validate_point(x)
        with pytest.raises(MalformedPointError, match="empty word"):
            gm.point_through(())
        with pytest.raises(MalformedPointError, match="inadmissible word"):
            gm.point_through((1, 1))

    def test_describe(self):
        assert golden_mean_shift().describe() == "sft r=2 T=11;10"


class TestToralAutomorphism:
    def test_cat_splitting_frozen(self):
        sys_ = cat_map()
        sp = sys_.hyperbolic_splitting()
        assert sys_.D == 5
        assert sp.lam_u == QuadraticNumber(5, 3, 1, 2)
        assert sp.lam_s == QuadraticNumber(5, 3, -1, 2)
        assert sp.lam_u * sp.lam_s == 1
        assert sp.lam_u + sp.lam_s == 3
        assert sp.v_u == (1, QuadraticNumber(5, -1, 1, 2))
        assert sp.v_s == (1, QuadraticNumber(5, -1, -1, 2))
        # eigenvector equation A v = lam v, second row
        for lam, v in ((sp.lam_u, sp.v_u), (sp.lam_s, sp.v_s)):
            assert v[0] + v[1] == lam * v[1]

    def test_apply_exact(self):
        sys_ = cat_map()
        x = sys_.point(Fraction(1, 2), Fraction(1, 2))
        y = sys_.apply(x)
        assert y == sys_.point(Fraction(1, 2), Fraction(0))
        assert sys_.apply(x, -1) == sys_.point(Fraction(0), Fraction(1, 2))
        assert sys_.apply(sys_.apply(x, 5), -5) == x

    def test_distance_wraps(self):
        sys_ = cat_map()
        d = sys_.distance(sys_.point(Fraction(0), Fraction(0)),
                          sys_.point(Fraction(9, 10), Fraction(0)))
        assert d == Fraction(1, 10)
        diag = sys_.distance(sys_.point(Fraction(0), Fraction(0)),
                             sys_.point(Fraction(1, 2), Fraction(1, 2)))
        assert diag == SqrtVal(Fraction(1, 2))

    def test_rejects_non_hyperbolic(self):
        for M in ([[1, 1], [0, 1]], [[0, 1], [1, 0]], [[0, -1], [1, 0]],
                  [[1, 0], [1, 1]], [[-1, 0], [3, 1]]):
            with pytest.raises(NotHyperbolicError):
                ToralAutomorphism(M)
        with pytest.raises(ValueError):
            ToralAutomorphism([[2, 1], [0, 1]])  # det 2

    def test_det_minus_one(self):
        sys_ = ToralAutomorphism([[1, 1], [1, 0]])
        assert sys_.det == -1 and sys_.D == 5
        x = sys_.point(Fraction(1, 3), Fraction(2, 3))
        assert sys_.apply(sys_.apply(x), -1) == x

    def test_matrix_must_be_2x2(self):
        M3 = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
        with pytest.raises(ValueError, match="2x2"):
            ToralAutomorphism(M3)

    def test_describe(self):
        assert cat_map().describe() == "toral d=2 mode=exact A=2 1;1 1"

    def test_validate_point(self):
        sys_ = cat_map()
        with pytest.raises(MalformedPointError):
            sys_.validate_point(sys_.point(Fraction(0), Fraction(0), Fraction(0)))
        with pytest.raises(MalformedPointError, match="2-torus point"):
            sys_.validate_point((Fraction(0), Fraction(0)))
        with pytest.raises(MalformedPointError, match="different field"):
            sys_.point(QuadraticNumber(13, 0, 1, 4), Fraction(0))
        x = sys_.point(Fraction(1, 2), QuadraticNumber(5, -1, 1, 2))
        assert repr(x) == "TorusPoint(1/2, -1/2+1/2√5)"

    @pytest.mark.parametrize("coords", [
        # a coordinate over Q(sqrt(13)) on a D = 5 map, and one equal to 7/2
        (QuadraticNumber(13, 0, 1, 4), QuadraticNumber(5, 7, 0, 2)),
        (QuadraticNumber(5, 1, 0, 1), QuadraticNumber(5, 1, 0, 3)),
        (QuadraticNumber(5, 1, 0, 3), QuadraticNumber(5, -1, 0, 3)),
        # sqrt5 - 1 and sqrt5: irrational and past 1
        (QuadraticNumber(5, -1, 1, 1), QuadraticNumber(5, 0, 1, 1)),
    ], ids=["foreign-field", "one", "minus-third", "sqrt5"])
    def test_validate_point_rejects_foreign_and_out_of_range(self, coords):
        sys_ = cat_map()
        x = TorusPoint(coords)
        with pytest.raises(MalformedPointError):
            sys_.validate_point(x)
        with pytest.raises(MalformedPointError):
            sys_.apply(x)


@settings(max_examples=60, derandomize=True)
@given(st.fractions(min_value=0, max_value=1), st.fractions(min_value=0, max_value=1),
       st.fractions(min_value=0, max_value=1), st.fractions(min_value=0, max_value=1))
def test_toral_distance_is_a_metric(ax, ay, bx, by):
    sys_ = cat_map()
    a = sys_.point(ax, ay)
    b = sys_.point(bx, by)
    d = sys_.distance(a, b)
    assert d == sys_.distance(b, a)
    assert (d == 0) == (a == b)
    assert d <= SqrtVal(Fraction(1, 2))  # half-diagonal bounds the torus metric


class TestRotation:
    def test_apply_and_distance(self):
        rot = CircleRotation(Fraction(1, 3))
        assert rot.apply(Fraction(5, 6)) == Fraction(1, 6)
        assert rot.apply(Fraction(0), 5) == Fraction(2, 3)
        assert rot.distance(Fraction(1, 10), Fraction(9, 10)) == Fraction(1, 5)
        assert rot.distance(Fraction(1, 4), Fraction(3, 4)) == Fraction(1, 2)

    def test_validate(self):
        rot = CircleRotation(Fraction(1, 3))
        with pytest.raises(MalformedPointError):
            rot.validate_point(Fraction(3, 2))
        with pytest.raises(ValueError, match="angle"):
            CircleRotation(Fraction(1))

    def test_describe(self):
        assert CircleRotation(Fraction(377, 610)).describe() == "rotation angle=377/610"


class TestPermutation:
    def test_cycles(self):
        perm = PermutationSystem([1, 2, 0, 4, 3])
        assert perm.apply(0) == 1
        assert perm.apply(0, 3) == 0
        assert perm.apply(3, -1) == 4
        assert perm.distance(0, 0) == 0
        assert perm.distance(0, 1) == 1

    def test_tracking_kernels_match_distance_walk(self):
        perm = PermutationSystem([1, 2, 0, 4, 3])
        for points in ([0, 1, 2, 0], [3, 4, 4], [2]):
            form = perm.tracking_form(points)
            assert perm.max_jump(form) == max(
                (perm.distance(perm.apply(y), z)
                 for y, z in zip(points, points[1:])), default=0)
            for x in range(5):
                assert perm.max_orbit_deviation(x, form) == max(
                    perm.distance(perm.apply(x, n), y)
                    for n, y in enumerate(points))
        with pytest.raises(MalformedPointError):
            perm.tracking_form([0, 5])

    def test_rejects_non_bijections(self):
        with pytest.raises(ValueError):
            PermutationSystem([0, 0, 1])

    def test_rejects_points_outside_the_space(self):
        for bad in (3, -1, True, "2"):
            with pytest.raises(MalformedPointError,
                               match=r"point must be an integer in \[0, 3\)"):
                PermutationSystem([2, 0, 1]).apply(bad)

    def test_describe(self):
        assert PermutationSystem([1, 0]).describe() == "permutation 1 0"
