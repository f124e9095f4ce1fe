"""Exact scalar arithmetic: quadratic field elements and roots."""

from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from shadowspec.scalars import (
    QuadraticNumber,
    SqrtVal,
    _floor_quad,
    format_exact,
    parse_exact,
    parse_quadratic,
    rational_below_sqrt,
)

PHI = QuadraticNumber(5, 1, 1, 2)  # (1 + sqrt5)/2


class TestParseFormat:
    @pytest.mark.parametrize("text,value", [
        ("7", Fraction(7)),
        ("-3", Fraction(-3)),
        ("3/4", Fraction(3, 4)),
        ("-9/6", Fraction(-3, 2)),
        ("0.25", Fraction(1, 4)),
        ("-0.1", Fraction(-1, 10)),
        ("1e-6", Fraction(1, 10**6)),
        ("2.5e2", Fraction(250)),
        ("1.001", Fraction(1001, 1000)),
    ])
    def test_parse_exact(self, text, value):
        assert parse_exact(text) == value

    @pytest.mark.parametrize("text", ["abc", "1.2.3", "", "0x10"])
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            parse_exact(text)

    def test_format_round_trip(self):
        for v in (Fraction(250), Fraction(-3, 4), Fraction(0), Fraction(1, 10**6)):
            assert parse_exact(format_exact(v)) == v

    def test_parse_quadratic_round_trip(self):
        for x in (PHI, QuadraticNumber(5, 15, -3, 10),
                  QuadraticNumber.from_rational(5, Fraction(-7, 3))):
            assert parse_quadratic(str(x), 5) == x
        # a foreign radicand, then square ones, whose sqrt is rational
        for text, D in (("1+1√8", 5), ("-15/8+1√4", 4), ("1√9", 9),
                        ("2-3√1", 1), ("1+1√0", 0)):
            with pytest.raises(ValueError):
                parse_quadratic(text, D)


class TestQuadraticNumber:
    def test_reduction(self):
        assert QuadraticNumber(5, 2, 2, 4) == PHI
        assert QuadraticNumber(5, -3, 0, -6) == Fraction(1, 2)
        with pytest.raises(ZeroDivisionError):
            QuadraticNumber(5, 1, 1, 0)
        with pytest.raises(ZeroDivisionError):
            QuadraticNumber(5, 0, 0, 3).inverse()
        with pytest.raises(AttributeError, match="immutable"):
            PHI.p = 2
        assert repr(PHI) == "QuadraticNumber(5, 1, 1, 2)"

    def test_golden_ratio_algebra(self):
        assert PHI * PHI == PHI + 1
        assert PHI ** 3 == 2 * PHI + 1
        assert PHI ** 20 == 6765 * PHI + 4181  # F(20) phi + F(19)
        assert PHI ** 0 == 1 and PHI ** -2 == 2 - PHI
        assert PHI.inverse() == PHI - 1
        assert (PHI / PHI) == 1
        assert 1 / PHI == PHI - 1

    def test_conjugate_and_norm(self):
        conj = QuadraticNumber(5, 1, -1, 2)
        assert PHI * conj == -1
        assert PHI + conj == 1

    def test_sign_floor_mod1(self):
        assert PHI.sign() == 1
        assert QuadraticNumber(5, 1, -1, 2).sign() == -1
        assert PHI.floor() == 1
        assert QuadraticNumber(5, -1, -1, 2).floor() == -2
        assert PHI.mod1() == PHI - 1
        m = QuadraticNumber(5, -1, -1, 2).mod1()
        assert 0 <= m < 1

    def test_comparisons_against_fractions(self):
        assert Fraction(8, 5) < PHI < Fraction(13, 8)
        assert PHI <= Fraction(13, 8) and not PHI <= Fraction(8, 5)
        assert PHI >= Fraction(8, 5) and not PHI >= Fraction(13, 8)
        assert PHI <= PHI and PHI >= PHI
        assert PHI != Fraction(8, 5)
        assert QuadraticNumber.from_rational(5, Fraction(2, 3)) == Fraction(2, 3)

    def test_mixed_radicands(self):
        other = QuadraticNumber.sqrt_d(8)
        with pytest.raises(ValueError):
            PHI + other
        # rational-valued elements coerce into any radicand
        assert PHI + QuadraticNumber.from_rational(8, Fraction(1, 2)) == PHI + Fraction(1, 2)
        # an irrational right operand from another field is refused even
        # when the left one is rational, and compares unequal
        with pytest.raises(ValueError):
            QuadraticNumber.from_rational(8, Fraction(1, 2)) + PHI
        assert PHI != other and not PHI == other
        assert QuadraticNumber.from_rational(8, Fraction(1, 2)) != PHI

    @pytest.mark.parametrize("op", [
        lambda x: PHI + x, lambda x: PHI - x, lambda x: PHI * x,
        lambda x: PHI / x, lambda x: x / PHI, lambda x: PHI ** x,
        lambda x: PHI < x, lambda x: SqrtVal(PHI) < x,
    ], ids=["add", "sub", "mul", "div", "rdiv", "pow", "lt", "sqrt-lt"])
    def test_foreign_operands_raise_type_error(self, op):
        with pytest.raises(TypeError):
            op(0.5)

    def test_hash_agrees_with_eq(self):
        assert hash(QuadraticNumber(5, 2, 2, 4)) == hash(PHI)
        assert len({PHI, QuadraticNumber(5, 2, 2, 4)}) == 1
        # a rational element equals, so hashes like, its Fraction
        assert hash(QuadraticNumber(5, 3, 0, 2)) == hash(Fraction(3, 2))
        assert PHI != "phi"

    def test_float_value(self):
        assert abs(float(PHI) - 1.618033988749895) < 1e-12


@settings(max_examples=100, derandomize=True)
@given(st.integers(-30, 30), st.integers(-30, 30), st.integers(1, 20),
       st.integers(-30, 30), st.integers(-30, 30), st.integers(1, 20))
def test_field_axioms(p1, q1, r1, p2, q2, r2):
    x = QuadraticNumber(5, p1, q1, r1)
    y = QuadraticNumber(5, p2, q2, r2)
    assert (x + y) - y == x
    assert x * y == y * x
    if y.sign() != 0:
        assert (x * y) / y == x
    f = x.floor()
    assert f <= x < f + 1
    assert 0 <= x.mod1() < 1


@settings(max_examples=300, derandomize=True)
@given(st.sampled_from([5, 8, 12, 13]), st.integers(-2**200, 2**200),
       st.integers(-2**200, 2**200), st.integers(1, 2**200),
       st.integers(-2, 2))
def test_floor_brackets_value(D, p, q, r, nudge):
    # a nonzero nudge puts p next to -q*sqrt(D), so x lies within about
    # 2/r of 0, where a floor off by one shows first
    if nudge:
        s = isqrt(q * q * D)
        p = (-s if q > 0 else s) + nudge
    x = QuadraticNumber(D, p, q, r)
    for f in (_floor_quad(D, p, q, r), x.floor()):
        # comparisons decide by sign(), which never calls floor
        assert f <= x < f + 1


@settings(max_examples=100, derandomize=True)
@given(st.integers(-30, 30), st.integers(-30, 30), st.integers(1, 20))
def test_sign_matches_float(p, q, r):
    x = QuadraticNumber(5, p, q, r)
    fx = float(x)
    if abs(fx) > 1e-9:
        assert x.sign() == (1 if fx > 0 else -1)


class TestSqrtVal:
    def test_ordering(self):
        root2 = SqrtVal(Fraction(2))
        assert Fraction(7, 5) < root2 < Fraction(3, 2)
        assert root2 < SqrtVal(Fraction(3))
        assert SqrtVal(Fraction(4)) == 2
        assert root2 > 0
        assert root2 >= Fraction(7, 5) and not root2 >= Fraction(3, 2)
        assert SqrtVal(Fraction(4)) >= 2
        # a length exceeds every negative number, even one of larger size
        assert SqrtVal(Fraction(0)) > -5
        assert root2 != "root2"
        assert hash(root2) == hash(SqrtVal(Fraction(2)))
        assert hash(root2) != hash(SqrtVal(Fraction(3)))

    def test_mul(self):
        root2 = SqrtVal(Fraction(2))
        assert root2 * root2 == 2
        assert root2 * Fraction(3) == SqrtVal(Fraction(18))
        with pytest.raises(ValueError):
            root2 * Fraction(-1)

    def test_zero_and_negative(self):
        assert SqrtVal(Fraction(0)) == 0
        with pytest.raises(ValueError):
            SqrtVal(Fraction(-1))

    def test_str(self):
        assert str(SqrtVal(Fraction(1, 8))) == "sqrt(1/8)"
        assert repr(SqrtVal(Fraction(1, 8))) == "SqrtVal(Fraction(1, 8))"
        assert float(SqrtVal(Fraction(1, 4))) == 0.5
        with pytest.raises(AttributeError, match="immutable"):
            SqrtVal(Fraction(1, 8)).radicand = 2

    def test_quadratic_radicand(self):
        v = SqrtVal(PHI)  # sqrt(golden ratio)
        assert v < Fraction(13, 10)
        assert v > Fraction(12, 10)


@settings(max_examples=100, derandomize=True)
@given(st.fractions(min_value=0, max_value=100), st.fractions(min_value=0, max_value=100))
def test_sqrtval_order_matches_squares(a, b):
    assert (SqrtVal(a) < SqrtVal(b)) == (a < b)
    assert (SqrtVal(a) == SqrtVal(b)) == (a == b)


def test_rational_below_sqrt():
    for target in (Fraction(2), Fraction(1, 8), Fraction(5)):
        r = rational_below_sqrt(target)
        assert r * r <= target
        # within one part in 2^50 of the true root
        assert (r * (1 + Fraction(1, 2**50))) ** 2 > target
