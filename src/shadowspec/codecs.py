"""Lossless text encodings for points and scalars.

Formats (one per system family):
  sft point      left~core~right@offset, each part a digit string, "-" empty
  toral          one a+b√D literal per coordinate, comma separated
  rotation       p/q

Scalars round-trip through a small tagged grammar: rationals as p/q or
decimals, field elements as a+b√D, and square roots as sqrt(<radicand>).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import MalformedPointError
from .scalars import (
    QuadraticNumber,
    SqrtVal,
    format_exact,
    parse_exact,
    parse_quadratic,
)
from .systems import (
    CircleRotation,
    ShiftSpace,
    SymbolicPoint,
    ToralAutomorphism,
)


def encode_scalar(x) -> str:
    if isinstance(x, SqrtVal):
        return f"sqrt({encode_scalar(x.radicand)})"
    if isinstance(x, QuadraticNumber):
        return str(x)
    if isinstance(x, (int, Fraction)):
        return format_exact(x)
    raise TypeError(f"no scalar encoding for {type(x).__name__}")


def decode_scalar(text: str, D: int = 0):
    text = text.strip()
    if text.startswith("sqrt(") and text.endswith(")"):
        return SqrtVal(decode_scalar(text[5:-1], D))
    if "√" in text:
        radicand = int(text.rpartition("√")[2])
        return parse_quadratic(text, radicand if D == 0 else D)
    return parse_exact(text)


def _word(symbols) -> str:
    return "".join(str(s) for s in symbols) or "-"


def _parse_word(text: str) -> tuple:
    if text == "-":
        return ()
    if not text.isdigit():
        raise MalformedPointError(f"not a symbol word: {text!r}")
    return tuple(int(ch) for ch in text)


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise MalformedPointError(f"not an integer: {text!r}") from None


def encode_point(sys, point) -> str:
    if isinstance(sys, ShiftSpace):
        return (f"{_word(point.left)}~{_word(point.core)}~"
                f"{_word(point.right)}@{point.offset}")
    if isinstance(sys, ToralAutomorphism):
        return ",".join(encode_scalar(c) for c in point.coords)
    if isinstance(sys, CircleRotation):
        return format_exact(point)
    raise TypeError(f"no point encoding for {type(sys).__name__}")


def decode_point(sys, text: str):
    text = text.strip()
    if isinstance(sys, ShiftSpace):
        body, at, offset = text.rpartition("@")
        parts = body.split("~")
        if at != "@" or len(parts) != 3:
            raise MalformedPointError(f"not a symbolic point: {text!r}")
        x = SymbolicPoint(_parse_word(parts[0]), _parse_word(parts[1]),
                          _parse_word(parts[2]), _int(offset))
        sys.validate_point(x)
        return x
    if isinstance(sys, ToralAutomorphism):
        try:
            coords = [decode_scalar(part, sys.D) for part in text.split(",")]
        except ValueError as exc:
            raise MalformedPointError(str(exc)) from None
        x = sys.point(*coords)
        sys.validate_point(x)
        return x
    if isinstance(sys, CircleRotation):
        try:
            x = parse_exact(text) % 1
        except ValueError as exc:
            raise MalformedPointError(str(exc)) from None
        sys.validate_point(x)
        return x
    raise TypeError(f"no point decoding for {type(sys).__name__}")

