"""Config parsing: grammar, validation, and error line numbers."""

from fractions import Fraction

import pytest

from shadowspec.config import parse_config
from shadowspec.errors import ConfigError
from shadowspec.systems import (
    CircleRotation,
    PermutationSystem,
    ShiftSpace,
    ToralAutomorphism,
)


def err(text):
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    return info.value


def test_toral_system_block():
    cfg = parse_config(
        "system.kind = toral\n"
        "system.matrix = 2 1 ; 1 1\n"
        "check.kind = periodic-points\n")
    assert isinstance(cfg.system, ToralAutomorphism)
    assert cfg.system.describe() == "toral d=2 mode=exact A=2 1;1 1"
    assert cfg.check["kind"] == "periodic-points"


def test_sft_system_block():
    cfg = parse_config(
        "system.kind = sft\n"
        "system.transition = 11;10\n"
        "check.kind = spec\n")
    assert isinstance(cfg.system, ShiftSpace)
    assert cfg.system.describe() == "sft r=2 T=11;10"


def test_rotation_and_permutation_blocks():
    rot = parse_config("system.kind = rotation\nsystem.angle = 377/610\n")
    assert isinstance(rot.system, CircleRotation)
    assert rot.system.angle == Fraction(377, 610)
    perm = parse_config("system.kind = permutation\nsystem.images = 2 0 1\n")
    assert isinstance(perm.system, PermutationSystem)
    assert perm.system.images == (2, 0, 1)


def test_comments_and_blank_lines_ignored():
    cfg = parse_config(
        "# full shift on two symbols\n"
        "\n"
        "system.kind = sft   # trailing comment\n"
        "system.transition = 11;11\n")
    assert cfg.system.describe() == "sft r=2 T=11;11"


def test_check_values_parse_exactly():
    cfg = parse_config(
        "system.kind = toral\n"
        "system.matrix = 2 1 ; 1 1\n"
        "check.kind = check-shadowing\n"
        "check.delta = 1e-6\n"
        "check.epsilon = 0.25\n"
        "check.count = 200\n"
        "check.epsilons = 1/4 1/16\n"
        "check.levels = 1 2\n")
    assert cfg.check["delta"] == Fraction(1, 10 ** 6)
    assert cfg.check["epsilon"] == Fraction(1, 4)
    assert cfg.check["count"] == 200
    assert cfg.check["epsilons"] == (Fraction(1, 4), Fraction(1, 16))
    assert cfg.check["levels"] == (1, 2)


def test_points_decoded_at_parse_time():
    cfg = parse_config(
        "system.kind = toral\n"
        "system.matrix = 2 1 ; 1 1\n"
        "check.kind = barycenter\n"
        "check.p = 0,0\n"
        "check.q = 1/5,2/5\n")
    assert cfg.check["p"] == cfg.system.point(0, 0)
    assert cfg.check["q"].coords[1] == Fraction(2, 5)


def test_output_defaults_and_format():
    cfg = parse_config("system.kind = sft\nsystem.transition = 11;11\n")
    assert cfg.output["format"] == "jsonl"
    cfg = parse_config(
        "system.kind = sft\nsystem.transition = 11;11\n"
        "output.format = csv\noutput.path = out.csv\n")
    assert cfg.output["format"] == "csv"
    assert cfg.output["path"] == "out.csv"


def test_zero_delta_allowed():
    cfg = parse_config(
        "system.kind = sft\nsystem.transition = 11;11\n"
        "check.kind = check-shadowing\ncheck.delta = 0\n")
    assert cfg.check["delta"] == 0


# --- failures, each with its line number ------------------------------------

def test_syntax_error_missing_equals():
    e = err("system.kind = sft\nsystem.transition 11;11\n")
    assert e.code == "config-syntax" and e.line == 2
    assert str(e).startswith("line 2:")


def test_syntax_error_bad_head():
    e = err("kind = sft\n")
    assert e.code == "config-syntax" and e.line == 1


def test_duplicate_key_rejected():
    e = err("system.kind = sft\nsystem.kind = toral\n")
    assert e.code == "config-syntax" and e.line == 2


def test_unknown_section():
    e = err("system.kind = sft\nsystem.transition = 11;11\nrun.seed = 1\n")
    assert e.code == "config-unknown-key" and e.line == 3


def test_unknown_key():
    e = err("system.kind = sft\nsystem.transition = 11;11\ncheck.gamma = 1\n")
    assert e.code == "config-unknown-key" and e.line == 3


@pytest.mark.parametrize("line", ["check.level = 2", "check.budget = 64",
                                  "check.start = 0~-~0@0"])
def test_retired_check_keys_rejected(line):
    e = err(f"system.kind = sft\nsystem.transition = 11;11\n{line}\n")
    assert e.code == "config-unknown-key" and e.line == 3


def test_system_mode_key_rejected():
    e = err("system.kind = toral\nsystem.matrix = 2 1 ; 1 1\nsystem.mode = float\n")
    assert e.code == "config-unknown-key" and e.line == 3


def test_non_2x2_matrix_rejected():
    e = err("system.kind = toral\nsystem.matrix = 0 1 0 ; 0 0 1 ; 1 0 0\n")
    assert e.code == "config-invariant" and e.line == 1


def test_invalid_matrix_entries():
    e = err("system.kind = toral\nsystem.matrix = 2 x ; 1 1\n")
    assert e.code == "config-invalid-value" and e.line == 2


def test_non_hyperbolic_matrix_rejected():
    e = err("system.kind = toral\nsystem.matrix = 1 1 ; 0 1\n")
    assert e.code == "config-invariant"
    assert e.line == 1


def test_non_invertible_matrix_rejected():
    e = err("system.kind = toral\nsystem.matrix = 2 0 ; 0 0\n")
    assert e.code == "config-invariant"


def test_missing_system_kind():
    e = err("check.kind = spec\n")
    assert e.code == "config-invariant"


def test_unknown_system_kind():
    e = err("system.kind = horocycle\n")
    assert e.code == "config-invalid-value"


def test_missing_transition():
    e = err("system.kind = sft\n")
    assert e.code == "config-invariant" and e.line == 1


@pytest.mark.parametrize("kind, message", [
    ("toral", "toral systems need system.matrix"),
    ("rotation", "rotations need system.angle"),
    ("permutation", "permutations need system.images"),
])
def test_missing_system_parameter(kind, message):
    e = err(f"# {kind}\nsystem.kind = {kind}\n")
    assert e.code == "config-invariant" and e.line == 2
    assert str(e) == f"line 2: {message}"


@pytest.mark.parametrize("key, value, message", [
    ("levels", "1 x", "levels must be integers: '1 x'"),
    ("epsilons", "1/4 x", "epsilons must be exact numbers: '1/4 x'"),
])
def test_bad_list_value(key, value, message):
    e = err(f"system.kind = sft\nsystem.transition = 11;11\ncheck.{key} = {value}\n")
    assert e.code == "config-invalid-value" and e.line == 3
    assert str(e) == f"line 3: {message}"


def test_bad_int_value():
    e = err("system.kind = sft\nsystem.transition = 11;11\ncheck.count = ten\n")
    assert e.code == "config-invalid-value" and e.line == 3


def test_bad_exact_value():
    e = err("system.kind = sft\nsystem.transition = 11;11\ncheck.epsilon = 0x1\n")
    assert e.code == "config-invalid-value" and e.line == 3


def test_unknown_check_kind():
    e = err("system.kind = sft\nsystem.transition = 11;11\ncheck.kind = audit\n")
    assert e.code == "config-invalid-value" and e.line == 3


def test_nonpositive_epsilon():
    e = err("system.kind = sft\nsystem.transition = 11;11\ncheck.epsilon = 0\n")
    assert e.code == "config-invariant" and e.line == 3
    e = err("system.kind = sft\nsystem.transition = 11;11\ncheck.epsilons = 1/4 0\n")
    assert e.code == "config-invariant" and e.line == 3


def test_negative_delta():
    e = err("system.kind = sft\nsystem.transition = 11;11\ncheck.delta = -1/4\n")
    assert e.code == "config-invariant" and e.line == 3


def test_bad_point_value():
    e = err("system.kind = sft\nsystem.transition = 11;10\n"
            "check.kind = barycenter\ncheck.p = 0~11~0@0\n")
    assert e.code == "config-invalid-value" and e.line == 4


def test_unknown_output_format():
    e = err("system.kind = sft\nsystem.transition = 11;11\noutput.format = xml\n")
    assert e.code == "config-invalid-value" and e.line == 3
