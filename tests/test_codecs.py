"""Round trips and rejection cases for the text encodings."""

from fractions import Fraction

import pytest

from shadowspec import codecs
from shadowspec.codecs import (
    decode_point,
    decode_scalar,
    encode_point,
    encode_scalar,
)
from shadowspec.errors import MalformedPointError
from shadowspec.scalars import QuadraticNumber, SqrtVal
from shadowspec.systems import (
    CircleRotation,
    PermutationSystem,
    cat_map,
    full_shift,
    golden_mean_shift,
)


# --- scalars ---------------------------------------------------------------

SCALARS = [
    Fraction(0),
    Fraction(3, 8),
    Fraction(-7, 12),
    17,
    QuadraticNumber(5, 1, 1, 2),
    QuadraticNumber(5, -6, 11, 2),
    SqrtVal(Fraction(5, 9)),
    SqrtVal(QuadraticNumber(5, -1, 1, 3)),
]


@pytest.mark.parametrize("value", SCALARS, ids=[str(v) for v in SCALARS])
def test_scalar_round_trip(value):
    text = encode_scalar(value)
    back = decode_scalar(text)
    assert back == value
    assert encode_scalar(back) == text


def test_scalar_decode_with_known_radicand():
    lam = QuadraticNumber(5, 3, 1, 2)
    assert decode_scalar(encode_scalar(lam), D=5) == lam


def test_scalar_decode_exact_forms():
    assert decode_scalar("1e-6") == Fraction(1, 10 ** 6)
    assert decode_scalar("0.25") == Fraction(1, 4)
    assert decode_scalar("-3/7") == Fraction(-3, 7)
    assert decode_scalar("sqrt(4/9)") == SqrtVal(Fraction(4, 9))


def test_scalar_decode_float_tol():
    with pytest.raises(ValueError):
        decode_scalar("0.5±1e-09")


def test_quadratic_encoding_keeps_radicand_last():
    text = encode_scalar(QuadraticNumber(5, 123, -55, 10))
    assert text == "123/10-11/2√5"
    assert text.rpartition("√")[2] == "5"


# --- points ----------------------------------------------------------------

def test_sft_point_round_trip():
    sys = golden_mean_shift()
    x = sys.point_through((0, 1, 0, 0, 1), at=-2)
    text = encode_point(sys, x)
    assert "~" in text and "@" in text
    assert decode_point(sys, text) == x
    assert encode_point(sys, decode_point(sys, text)) == text


def test_sft_fixed_point_encoding():
    sys = full_shift(2)
    zero = decode_point(sys, "0~-~0@0")
    one = decode_point(sys, "1~-~1@0")
    assert sys.apply(zero) == zero
    assert sys.apply(one) == one
    assert sys.distance(zero, one) == Fraction(1)


def test_sft_nonzero_offset_round_trip():
    sys = full_shift(2)
    x = decode_point(sys, "10~011~1@-4")
    assert decode_point(sys, encode_point(sys, x)) == x
    assert encode_point(sys, sys.apply(x)).endswith("@-3")
    assert encode_point(sys, sys.apply(x, -1)).endswith("@-5")


def test_sft_rejects_inadmissible_word():
    sys = golden_mean_shift()
    with pytest.raises(MalformedPointError):
        decode_point(sys, "0~11~0@0")


def test_sft_rejects_bad_symbol():
    sys = full_shift(2)
    with pytest.raises(MalformedPointError):
        decode_point(sys, "0~2~0@0")


@pytest.mark.parametrize("text", ["0~0", "0~0~0", "a~b~c@x", "0~0~0@", ""])
def test_sft_rejects_malformed_text(text):
    sys = full_shift(2)
    with pytest.raises(MalformedPointError):
        decode_point(sys, text)


# The shift decode memo: (system, stripped text) -> validated point.

def test_memo_validates_each_text_per_system():
    # 11 is admissible on the full shift and forbidden on the golden mean
    text = "0~11~0@0"
    full, golden = full_shift(2), golden_mean_shift()
    for order in ((full, golden), (golden, full)):
        codecs._decode_symbolic.cache_clear()
        for sys in order + order:
            if sys is full:
                assert decode_point(sys, text).core == (1, 1)
            else:
                with pytest.raises(MalformedPointError):
                    decode_point(sys, text)


@pytest.mark.parametrize("text", ["0~2~0@0", "a~b~c@x"])
def test_memo_keeps_no_errors(text):
    sys = full_shift(2)
    before = codecs._decode_symbolic.cache_info().currsize
    for _ in range(2):
        with pytest.raises(MalformedPointError):
            decode_point(sys, text)
    assert codecs._decode_symbolic.cache_info().currsize == before


def test_memo_keys_the_stripped_text():
    sys = full_shift(2)
    x = decode_point(sys, "10~011~1@-4")
    assert decode_point(sys, "  10~011~1@-4\n") == x
    assert decode_point(sys, "\t10~011~1@-4 ") is x


def test_memo_size_is_the_module_constant():
    info = codecs._decode_symbolic.cache_info()
    assert info.maxsize == codecs._POINT_MEMO_SIZE


def test_toral_rational_point_round_trip():
    sys = cat_map()
    x = sys.point((Fraction(1, 5), Fraction(2, 5)))
    assert encode_point(sys, x) == "1/5,2/5"
    assert decode_point(sys, "1/5,2/5") == x


def test_toral_quadratic_point_round_trip():
    sys = cat_map()
    coord = QuadraticNumber(5, 1, 1, 4)
    x = sys.point((coord, Fraction(0)))
    text = encode_point(sys, x)
    assert "√5" in text
    assert decode_point(sys, text) == x


def test_toral_rejects_wrong_arity():
    sys = cat_map()
    with pytest.raises(MalformedPointError):
        decode_point(sys, "1/5")
    with pytest.raises(MalformedPointError):
        decode_point(sys, "1/5,2/5,3/5")


def test_rotation_point_round_trip():
    sys = CircleRotation(Fraction(377, 610))
    x = decode_point(sys, "3/2")
    assert x == Fraction(1, 2)
    assert decode_point(sys, encode_point(sys, x)) == x


def test_permutation_points_have_no_codec():
    # no check takes a permutation, so no record holds one of its points
    sys = PermutationSystem((2, 0, 1))
    with pytest.raises(TypeError,
                       match="no point encoding for PermutationSystem"):
        encode_point(sys, 1)
    with pytest.raises(TypeError,
                       match="no point decoding for PermutationSystem"):
        decode_point(sys, "2")


@pytest.mark.parametrize("sys, text", [
    (cat_map(), "1/5,abc"),
    (CircleRotation(Fraction(1, 3)), "abc"),
], ids=["toral", "rotation"])
def test_unparsable_numbers_are_malformed_points(sys, text):
    with pytest.raises(MalformedPointError, match="not an exact number"):
        decode_point(sys, text)


def test_unknown_types_have_no_encoding():
    with pytest.raises(TypeError, match="no scalar encoding for float"):
        encode_scalar(0.5)
    with pytest.raises(TypeError, match="no point encoding for object"):
        encode_point(object(), 0)
    with pytest.raises(TypeError, match="no point decoding for object"):
        decode_point(object(), "0")
