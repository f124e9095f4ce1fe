"""The runner: error records, config refusals, seeds and sampled points."""

import random
from fractions import Fraction

import pytest

from shadowspec import runner
from shadowspec.config import parse_config
from shadowspec.errors import ConfigError, HorizonError
from shadowspec.runner import run_check
from shadowspec.systems import (
    CircleRotation,
    cat_map,
    full_shift,
)

SHIFT = "system.kind = sft\nsystem.transition = 11;11\ncheck.seed = 7\n"
TORUS = "system.kind = toral\nsystem.matrix = 2 1 ; 1 1\n"
ROTATION = "system.kind = rotation\nsystem.angle = 377/610\ncheck.seed = 7\n"
PAIR = "check.p = 0~-~0@0\ncheck.q = 1~-~1@0\n"


def run(text):
    return run_check(parse_config(text))


def draws(seed, n):
    rng = random.Random(seed)
    return [rng.getrandbits(32) for _ in range(n)]


# Each case makes the named construction raise on its first call only, so the
# run holds one error record and then the records of the calls that follow.
INJECTIONS = {
    "check-shadowing": (
        SHIFT + "check.kind = check-shadowing\ncheck.epsilon = 1/4\n"
        "check.length = 4\ncheck.count = 2\n", "shadow"),
    "exhaustive": (
        SHIFT + "check.kind = check-shadowing\ncheck.mode = exhaustive\n"
        "check.width = 3\ncheck.length = 2\ncheck.epsilon = 1\n", "shadow"),
    "spec": (
        SHIFT + "check.kind = spec\ncheck.epsilon = 1/2\ncheck.count = 2\n",
        "specification_point"),
    "barycenter": (
        SHIFT + "check.kind = barycenter\ncheck.epsilons = 1/8 1/4\n" + PAIR,
        "barycenter_point"),
    "heteroclinic": (
        SHIFT + "check.kind = heteroclinic\ncheck.epsilon = 1/8\n"
        "check.maxDepth = 2\n" + PAIR, "extract_heteroclinic"),
    "heteroclinic-barycenter": (
        SHIFT + "check.kind = heteroclinic\ncheck.epsilons = 1/8 1/4\n"
        "check.maxDepth = 2\n" + PAIR, "barycenter_point"),
    "periodic-points": (
        SHIFT + "check.kind = periodic-points\ncheck.maxPeriod = 2\n",
        "periodic_points"),
    "falsify-shadowing": (
        ROTATION + "check.kind = falsify-shadowing\ncheck.epsilon = 1/4\n"
        "check.horizon = 10\ncheck.count = 2\n", "falsify_shadowing"),
}


@pytest.mark.parametrize("case", sorted(INJECTIONS))
def test_construction_errors_become_error_records(case, monkeypatch):
    text, target = INJECTIONS[case]
    real = getattr(runner, target)
    calls = []

    def fail_first(*args, **kwargs):
        calls.append(args)
        if len(calls) == 1:
            raise HorizonError(f"injected into {target}")
        return real(*args, **kwargs)

    monkeypatch.setattr(runner, target, fail_first)
    first, second, *_ = run(text)
    assert first.outcome == "error" and second.outcome != "error"
    assert first.witness_payload == {
        "error": "horizon-exceeded", "message": f"injected into {target}"}
    # a failed barycenter step draws its seed after the failure, so the
    # depth records of the next epsilon take the seeds that follow
    want = [7, 7] if case == "exhaustive" else draws(7, 2)
    assert [first.seed, second.seed] == want


@pytest.mark.parametrize("text, message", [
    (SHIFT + "check.kind = spec\n", "check needs epsilon or epsilons"),
    (TORUS + "check.kind = check-shadowing\ncheck.epsilonFactor = 1\n",
     "epsilonFactor needs delta"),
    (SHIFT + "check.kind = check-shadowing\ncheck.epsilonFactor = 1\n"
     "check.delta = 1/8\n", "epsilonFactor calibration needs a toral system"),
    (TORUS + "check.kind = check-shadowing\ncheck.mode = exhaustive\n"
     "check.epsilon = 1/4\n", "exhaustive mode needs an sft"),
    (SHIFT + "check.kind = check-shadowing\ncheck.mode = exhaustive\n"
     "check.width = 4\ncheck.epsilon = 1/4\n", "width must be odd, at least 3"),
    (SHIFT + "check.kind = check-shadowing\ncheck.mode = exhaustive\n",
     "exhaustive mode needs epsilon"),
    (SHIFT + "check.kind = barycenter\ncheck.epsilon = 1/8\n"
     "check.q = 1~-~1@0\n", "barycenter checks need points p and q"),
    (SHIFT + "check.kind = heteroclinic\ncheck.epsilon = 1/8\n"
     "check.p = 0~-~0@0\n", "heteroclinic checks need points p and q"),
    (SHIFT + "check.kind = barycenter\ncheck.epsilon = 1/8\n"
     "check.p = 0~1~0@0\ncheck.q = 1~-~1@0\n",
     "point is not periodic within 64 steps"),
    (SHIFT + "check.kind = heteroclinic\ncheck.epsilon = 1/8\n"
     "check.n1 = -1\n" + PAIR, "check depths must be nonnegative"),
    (ROTATION + "check.kind = falsify-shadowing\n",
     "falsification needs epsilon"),
    (SHIFT + "check.epsilon = 1/8\n", "check.kind missing or unknown: None"),
], ids=["epsilon", "factor-delta", "factor-torus", "exhaustive-sft",
        "exhaustive-width", "exhaustive-epsilon", "barycenter-p",
        "heteroclinic-q", "aperiodic-p", "negative-depth", "falsify-epsilon",
        "kind"])
def test_config_problems_stop_the_run(text, message):
    with pytest.raises(ConfigError) as info:
        run(text)
    assert info.value.code == "config-invariant"
    assert str(info.value) == message


def test_diagonal_transition_time_must_fit_below_the_threshold():
    # the 2-cycle has two cells of window 13, each exiting on the symbol it
    # enters with; the off-diagonal times are 13, but a cell returns to
    # itself only after an even number of bridge steps, at 14 > M_1 = 13
    records = run("system.kind = sft\nsystem.transition = 01;10\n"
                  "check.kind = spec\ncheck.epsilon = 1/8\n")
    assert [(r.outcome, r.witness_payload) for r in records] == [
        ("error", {"error": "horizon-exceeded",
                   "message": "level 1: diagonal transition time for cell "
                              "(0, 0) does not fit below M_1 = 13"})]


@pytest.mark.parametrize("levels", ["", "check.levels =\n"])
def test_spec_levels_default_to_one(levels):
    records = run(SHIFT + "check.kind = spec\ncheck.epsilon = 1/2\n"
                  "check.count = 3\n" + levels)
    assert [(r.outcome, r.witness_payload["level"]) for r in records] == \
        [("pass", 1)] * 3


def test_failed_schedule_is_built_once(monkeypatch):
    calls = []
    real = runner.build_cover

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(runner, "build_cover", counted)
    records = run("system.kind = sft\nsystem.transition = 10;01\n"
                  "check.kind = spec\ncheck.epsilon = 1/8\ncheck.count = 2\n")
    assert [r.witness_payload["error"] for r in records] == \
        ["not-transitive"] * 2
    assert [r.seed for r in records] == draws(0, 2)
    assert len(calls) == 1


def test_rotation_has_no_tracer_to_check():
    records = run(ROTATION + "check.kind = check-shadowing\n"
                  "check.epsilon = 1/4\ncheck.delta = 1/8\ncheck.count = 2\n")
    assert [r.witness_payload for r in records] == [
        {"error": "unsupported-system",
         "message": "no tracer construction for CircleRotation"}] * 2
    assert [r.seed for r in records] == draws(7, 2)


def test_rotation_without_delta_has_no_calibration():
    # the calibration fails inside the error arm, one record per attempt,
    # with the same seeds as the run that is given its delta
    records = run("system.kind = rotation\nsystem.angle = 1/3\n"
                  "check.seed = 7\ncheck.kind = check-shadowing\n"
                  "check.epsilons = 1/4 1/8\ncheck.count = 2\n")
    assert [r.witness_payload for r in records] == [
        {"error": "unsupported-system",
         "message": "no shadowing calibration for CircleRotation"}] * 4
    assert [r.seed for r in records] == draws(7, 4)


@pytest.mark.parametrize("sys", [
    full_shift(2), cat_map(), CircleRotation(Fraction(1, 3)),
], ids=["shift", "torus", "rotation"])
def test_sampled_points_lie_in_the_space(sys):
    rng = random.Random(5)
    points = [runner._random_point(sys, rng) for _ in range(20)]
    for x in points:
        sys.validate_point(x)
    assert len({repr(x) for x in points}) > 1


def test_sampled_rotation_points():
    rng = random.Random(5)
    want = [Fraction(rng.randrange(1 << 16), 1 << 16) for _ in range(20)]
    rng = random.Random(5)
    rot = CircleRotation(Fraction(1, 3))
    assert [runner._random_point(rot, rng) for _ in range(20)] == want


def test_exhaustive_chains_skip_inadmissible_windows():
    # golden mean shift: 11 is forbidden, so a window's first symbol must be
    # able to precede the symbol it shares with the window before
    records = run("system.kind = sft\nsystem.transition = 11;10\n"
                  "check.kind = check-shadowing\ncheck.mode = exhaustive\n"
                  "check.width = 3\ncheck.length = 2\ncheck.epsilon = 1\n")
    words = [w for w in ((a, b, c) for a in (0, 1) for b in (0, 1)
                         for c in (0, 1)) if (1, 1) not in ((w[0], w[1]),
                                                            (w[1], w[2]))]
    chains = sum(1 for u in words for v in words if v[1] == u[2])
    assert len(records) == chains == 14
    assert all(r.outcome == "pass" for r in records)
