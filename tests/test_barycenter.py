"""Tests for periodic points, heteroclinic splices, and barycenter output."""

from collections import Counter
from fractions import Fraction

import pytest

from shadowspec import barycenter
from shadowspec.barycenter import (
    BarycenterWitness,
    _anchor,
    as_periodic,
    barycenter_point,
    cut_witness,
    extract_heteroclinic,
    heteroclinic_point,
    periodic_points,
    verify_barycenter,
)
from shadowspec.errors import (
    BudgetExceededError,
    CalibrationError,
    EmptyInputError,
    HorizonError,
    InternalInvariantError,
    NotRelatedError,
)
from shadowspec.pseudo_orbits import orbit
from shadowspec.scalars import QuadraticNumber, SqrtVal
from shadowspec.systems import (
    ShiftSpace,
    SymbolicPoint,
    ToralAutomorphism,
    cat_map,
    full_shift,
    golden_mean_shift,
)


def _mat_mul2(A, B):
    return ((A[0][0] * B[0][0] + A[0][1] * B[1][0],
             A[0][0] * B[0][1] + A[0][1] * B[1][1]),
            (A[1][0] * B[0][0] + A[1][1] * B[1][0],
             A[1][0] * B[0][1] + A[1][1] * B[1][1]))


def count_oracle_toral(matrix, k):
    """|det(A^k - I)| by integer arithmetic, nothing shared with the library."""
    M = ((1, 0), (0, 1))
    for _ in range(k):
        M = _mat_mul2(M, matrix)
    return abs((M[0][0] - 1) * (M[1][1] - 1) - M[0][1] * M[1][0])


def count_oracle_sft(transition, k):
    """trace(T^k) counts admissible words that close up."""
    M = tuple(tuple(row) for row in transition)
    P = M
    for _ in range(k - 1):
        P = tuple(tuple(sum(P[i][c] * M[c][j] for c in range(len(M)))
                        for j in range(len(M))) for i in range(len(M)))
    return sum(P[i][i] for i in range(len(M)))


class TestPeriodicPoints:
    def test_cat_counts_match_determinant_oracle(self):
        sys_ = cat_map()
        frozen = [1, 5, 16, 45, 121, 320]
        for k in range(1, 7):
            pts = periodic_points(sys_, k)
            assert len(pts) == count_oracle_toral(((2, 1), (1, 1)), k)
            assert len(pts) == frozen[k - 1]
            for hp in pts:
                assert sys_.apply(hp.point, k) == hp.point
                assert sys_.apply(hp.point, hp.period) == hp.point
                assert k % hp.period == 0

    def test_cat_minimal_period_partition(self):
        sys_ = cat_map()
        by_min = Counter(hp.period for hp in periodic_points(sys_, 6))
        # fixed points + minimal 2, 3, 6 must add up to the full count
        assert by_min == {1: 1, 2: 4, 3: 15, 6: 300}

    @pytest.mark.parametrize("matrix", [((2, 1), (1, 1)), ((3, 1), (2, 1)),
                                        ((1, 1), (1, 0)), ((0, 1), (1, 3)),
                                        ((-2, 1), (1, -1))])
    def test_toral_points_match_full_lattice_scan(self, matrix):
        # oracle: every m in [0, n)^2 gives B^-1 m mod 1, B = A^k - I
        sys_ = ToralAutomorphism(matrix)
        for k in range(1, 5):
            M = ((1, 0), (0, 1))
            for _ in range(k):
                M = _mat_mul2(M, matrix)
            b00, b01, b10, b11 = M[0][0] - 1, M[0][1], M[1][0], M[1][1] - 1
            det = b00 * b11 - b01 * b10
            scan = {(Fraction(b11 * mx - b01 * my, det) % 1,
                     Fraction(b00 * my - b10 * mx, det) % 1)
                    for mx in range(abs(det)) for my in range(abs(det))}
            pts = periodic_points(sys_, k)
            assert [hp.point for hp in pts] == \
                [sys_.point(x, y) for x, y in sorted(scan)]

    def test_full_shift_period_two(self):
        sh = full_shift(2)
        pts = periodic_points(sh, 2)
        assert len(pts) == count_oracle_sft(((1, 1), (1, 1)), 2) == 4
        assert sorted(hp.period for hp in pts) == [1, 1, 2, 2]
        words = {hp.point.window(0, 1) for hp in pts}
        assert words == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_golden_mean_period_three(self):
        sh = golden_mean_shift()
        pts = periodic_points(sh, 3)
        assert len(pts) == count_oracle_sft(((1, 1), (1, 0)), 3) == 4
        assert sorted(hp.period for hp in pts) == [1, 3, 3, 3]

    def test_period_bound_and_bad_input(self):
        sys_ = cat_map()
        with pytest.raises(BudgetExceededError):
            periodic_points(sys_, 9)
        with pytest.raises(ValueError):
            periodic_points(sys_, 0)

    def test_as_periodic(self):
        sys_ = cat_map()
        hp = as_periodic(sys_, sys_.point(Fraction(1, 3), Fraction(0)))
        assert hp.period == 4
        sh = full_shift(2)
        hq = as_periodic(sh, SymbolicPoint.periodic((0, 1)))
        assert hq.period == 2
        with pytest.raises(ValueError):
            as_periodic(sys_, sys_.point(Fraction(1, 3), Fraction(0)), bound=2)


class TestHeteroclinic:
    def test_cat_homoclinic_frozen(self):
        # Solving t*v_u = s*v_s + m by hand for the first accepted shell
        # member m = (-1, -1) gives t = -(5 + 3*sqrt5)/10, so the point is
        # ((15 - 3*sqrt5)/10, (5 - sqrt5)/10).
        sys_ = cat_map()
        p = periodic_points(sys_, 1)[0]
        z = heteroclinic_point(sys_, p, p)
        assert z.coords == (QuadraticNumber(5, 15, -3, 10),
                            QuadraticNumber(5, 5, -1, 10))

    def test_cat_homoclinic_attracts_both_ways(self):
        sys_ = cat_map()
        p = periodic_points(sys_, 1)[0]
        z = heteroclinic_point(sys_, p, p)
        back = [sys_.distance(sys_.apply(z, -n), p.point) for n in range(3, 9)]
        fwd = [sys_.distance(sys_.apply(z, n), p.point) for n in range(3, 9)]
        for seq in (back, fwd):
            for a, b in zip(seq, seq[1:]):
                assert b < a

    def test_two_shift_splice_frozen(self):
        sh = full_shift(2)
        p = as_periodic(sh, SymbolicPoint.periodic((0,)))
        q = as_periodic(sh, SymbolicPoint.periodic((1,)))
        z = heteroclinic_point(sh, p, q)
        assert z.window(-4, 4) == (0, 0, 0, 0, 1, 1, 1, 1, 1)

    def test_two_shift_homoclinic_skips_the_orbit(self):
        sh = full_shift(2)
        p = as_periodic(sh, SymbolicPoint.periodic((0,)))
        z = heteroclinic_point(sh, p, p)
        assert z.window(-2, 2) == (0, 0, 1, 0, 0)

    def test_golden_mean_splice(self):
        sh = golden_mean_shift()
        p = as_periodic(sh, SymbolicPoint.periodic((0,)))
        q = as_periodic(sh, SymbolicPoint.periodic((0, 1)))
        z = heteroclinic_point(sh, p, q)
        sh.validate_point(z)
        assert z.window(-3, 5) == (0, 0, 0, 0, 1, 0, 1, 0, 1)

    def test_not_related(self):
        sh = ShiftSpace([[1, 1], [0, 1]])
        p = as_periodic(sh, SymbolicPoint.periodic((1,)))
        q = as_periodic(sh, SymbolicPoint.periodic((0,)))
        with pytest.raises(NotRelatedError):
            heteroclinic_point(sh, p, q)
        # the other direction is fine: 0 reaches 1
        z = heteroclinic_point(sh, q, p)
        assert z.window(-2, 2) == (0, 0, 1, 1, 1)

    def test_golden_mean_homoclinic_bridge(self):
        # the bridge from p's past must end on the symbol q's future starts
        # with; the least such splice of (001)^inf with itself needs L = 3
        sh = golden_mean_shift()
        p = as_periodic(sh, SymbolicPoint.periodic((0, 0, 1)))
        z = heteroclinic_point(sh, p, p)
        sh.validate_point(z)
        assert z == SymbolicPoint((1, 0, 0), (0,), (0, 0, 1), -2)

    def test_forced_cycle_has_no_genuine_splice(self):
        # on the 2-cycle every bridge closes the orbit of p up again
        sh = ShiftSpace([[0, 1], [1, 0]])
        p = as_periodic(sh, SymbolicPoint.periodic((0, 1)))
        with pytest.raises(HorizonError, match="bridge length <= 24"):
            heteroclinic_point(sh, p, p)


class TestBarycenter:
    def test_construction_ends_with_its_own_check(self, monkeypatch):
        sh = full_shift(2)
        p = as_periodic(sh, SymbolicPoint.periodic((0,)))
        q = as_periodic(sh, SymbolicPoint.periodic((1,)))
        monkeypatch.setattr(barycenter, "verify_barycenter",
                            lambda *args: False)
        with pytest.raises(InternalInvariantError, match="deviates"):
            barycenter_point(sh, p, q, Fraction(1, 8), 10, 10)

    def test_two_shift_frozen_depth(self):
        sh = full_shift(2)
        p = as_periodic(sh, SymbolicPoint.periodic((0,)))
        q = as_periodic(sh, SymbolicPoint.periodic((1,)))
        res = barycenter_point(sh, p, q, Fraction(1, 8), 10, 10)
        assert res.X == 8 and res.N == 8
        assert res.x.window(-1, 8) == (0, 0, 0, 0, 0, 1, 1, 1, 1, 1)

    def test_invariant_rewalk_counts_inequalities(self):
        sys_ = cat_map()
        p = periodic_points(sys_, 1)[0]
        for eps in (Fraction(1, 10), Fraction(1, 20)):
            res = barycenter_point(sys_, p, p, eps, 50, 50)
            assert res.X == res.N and res.X % 2 == 0
            n1 = res.X // 2
            assert n1 % 1 == 0  # common multiple of the two periods (both 1)
            checked = 0
            for i in range(-50, 1):
                d = sys_.distance(sys_.apply(res.x, i), sys_.apply(p.point, i))
                assert d < eps
                checked += 1
            for i in range(0, 51):
                d = sys_.distance(sys_.apply(res.x, i + res.X),
                                  sys_.apply(p.point, i))
                assert d < eps
                checked += 1
            assert checked == 102

    def test_mixed_period_pair_uses_common_multiple(self):
        sys_ = cat_map()
        p = periodic_points(sys_, 1)[0]
        q = next(hp for hp in periodic_points(sys_, 2) if hp.period == 2)
        res = barycenter_point(sys_, p, q, Fraction(1, 20), 20, 20)
        assert res.X % (2 * 2) == 0  # X = 2*N_1 with N_1 a multiple of 2
        for i in range(-20, 1):
            assert sys_.distance(sys_.apply(res.x, i),
                                 sys_.apply(p.point, i)) < Fraction(1, 20)
        for i in range(0, 21):
            assert sys_.distance(sys_.apply(res.x, i + res.X),
                                 sys_.apply(q.point, i)) < Fraction(1, 20)

    def test_distances_strictly_decrease_in_certified_window(self):
        sys_ = cat_map()
        p = periodic_points(sys_, 1)[0]
        res = barycenter_point(sys_, p, p, Fraction(1, 10), 50, 50)
        n1 = res.X // 2
        z = sys_.apply(res.x, n1)
        back = [sys_.distance(sys_.apply(z, -n), p.point)
                for n in range(n1, n1 + 10)]
        for a, b in zip(back, back[1:]):
            assert b < a


def _ranges_hold(sys_, x, X, p, q, eps, n_1, n_2):
    """(backward, forward) tracking ranges of a barycenter result, each
    checked point by point through ``apply`` and ``distance``."""
    back = all(sys_.distance(sys_.apply(x, i), sys_.apply(p.point, i)) < eps
               for i in range(-n_1, 1))
    fwd = all(sys_.distance(sys_.apply(x, X + i), sys_.apply(q.point, i)) < eps
              for i in range(n_2 + 1))
    return back, fwd


def _anchor_cases():
    cat = cat_map()
    sh = full_shift(2)
    # c5_cat_mixed's p (period 1) and q (period 2), 0^inf and 1^inf on the
    # full shift, and period 3 on both, where i and -i differ mod the period
    return [(cat, as_periodic(cat, cat.point(0, 0))),
            (cat, as_periodic(cat, cat.point(Fraction(1, 5), Fraction(2, 5)))),
            (cat, next(hp for hp in periodic_points(cat, 3) if hp.period == 3)),
            (sh, as_periodic(sh, SymbolicPoint.periodic((0,)))),
            (sh, as_periodic(sh, SymbolicPoint.periodic((1,)))),
            (sh, as_periodic(sh, SymbolicPoint.periodic((0, 0, 1))))]


@pytest.mark.parametrize("case", range(6))
def test_anchor_reads_orbit_off_one_period(case):
    sys_, p = _anchor_cases()[case]
    for lo, n in ((0, 0), (0, 7), (-1, 4), (-7, 7), (-50, 50), (3, 5)):
        oracle = orbit(sys_, sys_.apply(p.point, lo), n)
        assert _anchor(sys_, p, lo, n) == oracle, (lo, n)


class TestVerifyBarycenter:
    """Each tracking range of ``verify_barycenter`` can fail on its own."""

    def _check(self, sys_, res, cases):
        eps = res.epsilon
        for (X, p, q), expected in cases:
            assert _ranges_hold(sys_, res.x, X, p, q, eps, 50, 50) == expected
            assert verify_barycenter(sys_, res.x, X, p, q, eps, 50, 50) == \
                all(expected), (X, expected)

    def test_cat_map_mixed_pair(self):
        # the c5_cat_mixed pair: the fixed point and the period-2 (1/5, 2/5)
        sys_ = cat_map()
        p = as_periodic(sys_, sys_.point(0, 0))
        q = as_periodic(sys_, sys_.point(Fraction(1, 5), Fraction(2, 5)))
        res = barycenter_point(sys_, p, q, Fraction(1, 10), 50, 50)
        self._check(sys_, res, [((res.X, p, q), (True, True)),
                                ((res.X + 1, p, q), (True, False)),
                                ((res.X, q, q), (False, True))])

    def test_two_shift_fixed_points(self):
        sh = full_shift(2)
        p = as_periodic(sh, SymbolicPoint.periodic((0,)))
        q = as_periodic(sh, SymbolicPoint.periodic((1,)))
        res = barycenter_point(sh, p, q, Fraction(1, 8), 50, 50)
        self._check(sh, res, [((res.X, p, q), (True, True)),
                              ((res.X - 1, p, q), (True, True)),
                              ((res.X + 1, p, q), (True, True)),
                              ((res.X, q, q), (False, True)),
                              ((res.X, p, p), (True, False))])


class TestWitness:
    def _two_shift_setup(self):
        sh = full_shift(2)
        p = as_periodic(sh, SymbolicPoint.periodic((0,)))
        q = as_periodic(sh, SymbolicPoint.periodic((1,)))
        return sh, p, q

    def test_cut_and_extract_round_trip_exact(self):
        sys_ = cat_map()
        p = periodic_points(sys_, 1)[0]
        res = barycenter_point(sys_, p, p, Fraction(1, 10), 50, 50)
        z_het = heteroclinic_point(sys_, p, p)
        sp = sys_.hyperbolic_splitting()
        for depth in (1, 7, 30):
            z, X = extract_heteroclinic(sys_, cut_witness(res, depth))
            assert X == res.X
            assert z == sys_.apply(z_het, -res.X // 2)
            bound = 2 * Fraction(1, 10) * (1 / sp.lam_u) ** depth
            assert sys_.distance(z, sys_.apply(z_het, -res.X // 2)) <= bound

    def test_extract_lands_on_splice_family(self):
        sh, p, q = self._two_shift_setup()
        res = barycenter_point(sh, p, q, Fraction(1, 8), 10, 10)
        z, X = extract_heteroclinic(sh, cut_witness(res, 30))
        assert X == res.X
        cut = min(n for n in range(-64, 64) if z.symbol(n) == 1)
        assert all(z.symbol(n) == 0 for n in range(cut - 64, cut))
        assert all(z.symbol(n) == 1 for n in range(cut, cut + 64))

    def test_most_frequent_then_smaller_then_deepest(self):
        sh, p, q = self._two_shift_setup()
        base = SymbolicPoint.periodic((0,))
        za = base.with_symbol(10, 1)
        zb = base.with_symbol(12, 1)
        pairs = ((za, 3), (zb, 3), (za, 5), (zb, 5))
        w = BarycenterWitness(pairs, Fraction(1, 4), p, p, 10)
        z, X = extract_heteroclinic(sh, w)
        assert X == 3
        assert z == zb  # depth 2 is the deepest occurrence of X = 3

    def test_certificate_failure(self):
        sh, p, q = self._two_shift_setup()
        w = BarycenterWitness(((q.point, 0),), Fraction(1, 4), p, p, 4)
        with pytest.raises(CalibrationError, match="backward inequality"):
            extract_heteroclinic(sh, w)

    def test_certificate_failure_forward(self):
        # x tracks p backward, but f^X(x) sits near q, not near p
        sh, p, q = self._two_shift_setup()
        res = barycenter_point(sh, p, q, Fraction(1, 8), 50, 50)
        w = BarycenterWitness(((res.x, res.X),), res.epsilon, p, p, res.N)
        with pytest.raises(CalibrationError, match="forward inequality"):
            extract_heteroclinic(sh, w)

    def test_empty_and_range_validation(self):
        sh, p, q = self._two_shift_setup()
        with pytest.raises(EmptyInputError):
            extract_heteroclinic(sh, BarycenterWitness((), Fraction(1, 4),
                                                       p, q, 4))
        with pytest.raises(ValueError):
            BarycenterWitness(((p.point, 9),), Fraction(1, 4), p, q, 4)
        with pytest.raises(ValueError):
            cut_witness(barycenter_point(sh, p, q, Fraction(1, 8), 2, 2), 0)
