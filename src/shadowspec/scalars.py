"""Exact scalar arithmetic.

Two scalar families cover every metric computation in the package:

* ``Fraction`` (stdlib) for anything rational: shift-space distances,
  rotation angles, tolerances from config files.
* ``QuadraticNumber`` for elements of the real quadratic field Q(sqrt(D)).
  Eigenvalues of an integer 2x2 unimodular matrix live here, and so do all
  toral coordinates.

Euclidean distances on the torus are square roots of field elements and
generally leave the field, so they are kept as ``SqrtVal`` wrappers whose
comparisons square both sides and stay exact.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from math import gcd, isqrt
from typing import Union

Rational = Union[int, Fraction]

_DECIMAL_RE = re.compile(r"^[+-]?(\d+)(\.(\d+))?([eE]([+-]?\d+))?$")


def parse_exact(text: str) -> Fraction:
    """Parse an integer, ``p/q`` ratio, or decimal literal into a Fraction.

    Decimal and scientific notation are converted exactly: ``1e-6`` becomes
    1/1000000, never a float.
    """
    text = text.strip()
    if "/" in text:
        num, _, den = text.partition("/")
        return Fraction(int(num.strip()), int(den.strip()))
    m = _DECIMAL_RE.match(text)
    if not m:
        raise ValueError(f"not an exact number: {text!r}")
    whole, frac_digits, exp = m.group(1), m.group(3) or "", int(m.group(5) or 0)
    sign = -1 if text.lstrip().startswith("-") else 1
    mantissa = int(whole + frac_digits)
    exp -= len(frac_digits)
    if exp >= 0:
        return Fraction(sign * mantissa * 10**exp)
    return Fraction(sign * mantissa, 10**-exp)


def format_exact(value: Rational) -> str:
    """Render a rational as ``n`` or ``p/q``."""
    f = Fraction(value)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _floor_quad(D: int, u: int, v: int, den: int) -> int:
    """floor((u + v*sqrt(D)) / den) for den > 0 and non-square D, by one isqrt.

    For v != 0, v*sqrt(D) is irrational and lies strictly between the
    integers s and s + 1 with s = floor(v*sqrt(D)), so the floor of the
    quotient is that of (u + s) / den.
    """
    if v == 0:
        return u // den
    s = isqrt(v * v * D)
    return (u + s) // den if v > 0 else (u - s - 1) // den


class QuadraticNumber:
    """An element (p + q*sqrt(D)) / r of Q(sqrt(D)) with integer p, q, r.

    D must be a positive non-square integer; that makes sqrt(D) irrational,
    so representation is unique once gcd(p, q, r) = 1 and r > 0, and the sign
    of any nonzero element is decidable from integer comparisons alone.
    """

    __slots__ = ("D", "p", "q", "r")

    def __init__(self, D: int, p: int, q: int, r: int = 1):
        if r == 0:
            raise ZeroDivisionError("zero denominator")
        if r < 0:
            p, q, r = -p, -q, -r
        if r > 1:  # r == 1 is already reduced
            g = gcd(gcd(r, abs(p)), abs(q))  # r first: often far shorter
            if g > 1:
                p, q, r = p // g, q // g, r // g
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "r", r)

    def __setattr__(self, name, value):
        raise AttributeError("QuadraticNumber is immutable")

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_rational(cls, D: int, value: Rational) -> "QuadraticNumber":
        f = Fraction(value)
        return cls(D, f.numerator, 0, f.denominator)

    @classmethod
    def sqrt_d(cls, D: int) -> "QuadraticNumber":
        return cls(D, 0, 1, 1)

    def _coerce(self, other) -> "QuadraticNumber | None":
        if isinstance(other, QuadraticNumber):
            if other.D == self.D or other.q == 0:
                return QuadraticNumber(self.D, other.p, other.q, other.r)
            raise ValueError(f"mixed radicands: sqrt({self.D}) vs sqrt({other.D})")
        if isinstance(other, int):
            return QuadraticNumber(self.D, other, 0, 1)
        if isinstance(other, Fraction):
            return QuadraticNumber(self.D, other.numerator, 0, other.denominator)
        return None

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadraticNumber(self.D, self.p * o.r + o.p * self.r,
                               self.q * o.r + o.q * self.r, self.r * o.r)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadraticNumber(self.D, self.p * o.r - o.p * self.r,
                               self.q * o.r - o.q * self.r, self.r * o.r)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return QuadraticNumber(self.D, -self.p, -self.q, self.r)

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadraticNumber(self.D,
                               self.p * o.p + self.q * o.q * self.D,
                               self.p * o.q + self.q * o.p,
                               self.r * o.r)

    __rmul__ = __mul__

    def inverse(self) -> "QuadraticNumber":
        # the norm n is 0 only for zero, and a zero denominator raises
        n = self.p * self.p - self.q * self.q * self.D
        return QuadraticNumber(self.D, self.r * self.p, -self.r * self.q, n)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        base = self if exponent >= 0 else self.inverse()
        result = QuadraticNumber(self.D, 1, 0, 1)
        for bit in bin(abs(exponent))[2:]:  # square and multiply
            result = result * result
            if bit == "1":
                result = result * base
        return result

    # -- order and equality ----------------------------------------------------

    def sign(self) -> int:
        p, q = self.p, self.q
        if q == 0:
            return (p > 0) - (p < 0)
        if p == 0:
            return (q > 0) - (q < 0)
        if p > 0 and q > 0:
            return 1
        if p < 0 and q < 0:
            return -1
        # p and q disagree: the sign follows whichever square dominates.
        lhs, rhs = p * p, q * q * self.D
        if p > 0:
            return 1 if lhs > rhs else -1
        return -1 if lhs > rhs else 1

    def _cmp(self, other) -> int:
        diff = self - other
        return diff.sign()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, QuadraticNumber)):
            try:
                return self._cmp(other) == 0
            except ValueError:
                return False
        return NotImplemented

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __hash__(self):
        if self.q == 0:
            return hash(Fraction(self.p, self.r))
        return hash((self.D, self.p, self.q, self.r))

    # -- structure -------------------------------------------------------------

    def floor(self) -> int:
        return _floor_quad(self.D, self.p, self.q, self.r)

    def mod1(self) -> "QuadraticNumber":
        return self - self.floor()

    def __float__(self):
        if self.q == 0:
            return self.p / self.r
        scale = 1 << 64
        s = isqrt(self.q * self.q * self.D * scale * scale)
        if self.q < 0:
            s = -s
        return float(Fraction(self.p * scale + s, self.r * scale))

    def __repr__(self):
        return f"QuadraticNumber({self.D}, {self.p}, {self.q}, {self.r})"

    def __str__(self):
        a = Fraction(self.p, self.r)
        b = Fraction(self.q, self.r)
        if b == 0:
            return format_exact(a)
        sign = "-" if b < 0 else "+"
        return f"{format_exact(a)}{sign}{format_exact(abs(b))}√{self.D}"


_QUAD_RE = re.compile(r"^(?P<a>[^√]*?)(?:(?P<sign>[+-])(?P<b>[^+-]*)√(?P<d>\d+))?$")


def parse_quadratic(text: str, D: int) -> QuadraticNumber:
    """Parse ``a``, ``a+b√D`` or ``a-b√D`` with rational a, b."""
    m = _QUAD_RE.match(text.strip().replace(" ", ""))
    if not m:
        raise ValueError(f"not a quadratic number: {text!r}")
    a = parse_exact(m.group("a")) if m.group("a") else Fraction(0)
    if m.group("d") is None:
        return QuadraticNumber.from_rational(D, a)
    if int(m.group("d")) != D:
        raise ValueError(f"radicand mismatch: expected √{D}, got √{m.group('d')}")
    if isqrt(D) ** 2 == D:
        raise ValueError(f"√{D} is rational")
    b = parse_exact(m.group("b")) if m.group("b") else Fraction(1)
    if m.group("sign") == "-":
        b = -b
    num = QuadraticNumber.from_rational(D, a) + QuadraticNumber(D, 0, 1, 1) * QuadraticNumber.from_rational(D, b)
    return num


ExactScalar = Union[int, Fraction, QuadraticNumber]


def scalar_sign(x) -> int:
    if isinstance(x, QuadraticNumber):
        return x.sign()
    return (x > 0) - (x < 0)


class SqrtVal:
    """The exact square root of a nonnegative field element.

    Only the radicand is stored; every comparison squares both sides, which
    keeps all decisions inside Q(sqrt(D)).
    """

    __slots__ = ("radicand",)

    def __init__(self, radicand: ExactScalar):
        if scalar_sign(radicand) < 0:
            raise ValueError("negative radicand")
        object.__setattr__(self, "radicand", radicand)

    def __setattr__(self, name, value):
        raise AttributeError("SqrtVal is immutable")

    def _cmp(self, other) -> int:
        if isinstance(other, SqrtVal):
            return scalar_sign(self.radicand - other.radicand)
        if isinstance(other, (int, Fraction, QuadraticNumber)):
            if scalar_sign(other) < 0:
                return 1
            return scalar_sign(self.radicand - other * other)
        raise TypeError(f"cannot compare SqrtVal with {type(other).__name__}")

    def __eq__(self, other):
        try:
            return self._cmp(other) == 0
        except TypeError:
            return NotImplemented

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __hash__(self):
        return hash(("sqrt", self.radicand))

    def __mul__(self, other):
        if isinstance(other, SqrtVal):
            return SqrtVal(self.radicand * other.radicand)
        if scalar_sign(other) < 0:
            raise ValueError("scaling a length by a negative factor")
        return SqrtVal(self.radicand * other * other)

    __rmul__ = __mul__

    def __float__(self):
        rad = self.radicand
        if isinstance(rad, QuadraticNumber):
            return math.sqrt(float(rad))
        return math.sqrt(rad)

    def __repr__(self):
        return f"SqrtVal({self.radicand!r})"

    def __str__(self):
        return f"sqrt({self.radicand})"


def rational_below_sqrt(x: Fraction, bits: int = 64) -> Fraction:
    """A rational lower bound for sqrt(x), within a relative 2^-bits.

    ``isqrt`` gives 0 for x = 0 and raises ValueError for x < 0.
    """
    scale = 1 << bits
    n = x.numerator * scale * scale
    return Fraction(isqrt(n // x.denominator), scale)
