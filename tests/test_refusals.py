"""Every construction refuses input outside its domain with its own error."""

from fractions import Fraction

import pytest

from shadowspec.barycenter import (
    HyperbolicPeriodicPoint,
    barycenter_point,
    heteroclinic_point,
    periodic_points,
)
from shadowspec.covers import build_cover
from shadowspec.errors import (
    BudgetExceededError,
    HorizonError,
    UnsupportedSystemError,
)
from shadowspec.pseudo_orbits import from_true_orbit, perturbed_orbit
from shadowspec.reporting import expected_periodic_count
from shadowspec.shadowing import (
    delta_for_epsilon,
    falsify_shadowing,
    shadow_sft,
    shadow_toral,
)
from shadowspec.specification import specification_point, transition_times
from shadowspec.systems import (
    CircleRotation,
    ToralAutomorphism,
    cat_map,
    full_shift,
)

ROT = CircleRotation(Fraction(1, 3))
FIXED = HyperbolicPeriodicPoint(Fraction(0), 1)
SHIFT_ORBIT = from_true_orbit(full_shift(2), full_shift(2).point_through((0,)),
                              0, 2)
TORAL_ORBIT = from_true_orbit(cat_map(), cat_map().point(0, 0), 0, 2)


@pytest.mark.parametrize("call, name", [
    (lambda: periodic_points(ROT, 1), "periodic-point enumeration"),
    (lambda: heteroclinic_point(ROT, FIXED, FIXED), "heteroclinic construction"),
    (lambda: barycenter_point(ROT, FIXED, FIXED, Fraction(1, 4), 1, 1),
     "barycenter construction"),
    (lambda: build_cover(ROT, Fraction(1, 4)), "cover construction"),
    (lambda: transition_times(ROT, None), "schedule construction"),
    (lambda: perturbed_orbit(object(), 0, 0, 1, Fraction(1, 4), 0),
     "perturbation is not defined"),
    (lambda: falsify_shadowing(object(), Fraction(1, 4), 10, 0),
     "falsification is not defined"),
    # both hyperbolic families shadow, so no falsification search can succeed
    (lambda: falsify_shadowing(full_shift(2), Fraction(1, 8), 64, 5),
     "falsification is not defined for ShiftSpace"),
    (lambda: falsify_shadowing(cat_map(), Fraction(1, 8), 64, 5),
     "falsification is not defined for ToralAutomorphism"),
    (lambda: shadow_sft(cat_map(), TORAL_ORBIT, Fraction(1, 4)),
     "shadow_sft needs a shift space"),
    (lambda: shadow_toral(full_shift(2), SHIFT_ORBIT, Fraction(1, 4)),
     "shadow_toral needs a toral automorphism"),
], ids=["periodic", "heteroclinic", "barycenter", "cover", "schedule",
        "perturb", "falsify", "falsify-shift", "falsify-torus", "shadow-sft",
        "shadow-toral"])
def test_unsupported_systems(call, name):
    with pytest.raises(UnsupportedSystemError, match=name):
        call()


def _toral_schedule():
    return transition_times(cat_map(), build_cover(cat_map(), Fraction(1, 2)),
                            1)


def _full_shift_schedule():
    fs = full_shift(2)
    return transition_times(fs, build_cover(fs, Fraction(1, 32)), 1)


@pytest.mark.parametrize("call, message", [
    (lambda: expected_periodic_count(ROT, 1), "no periodic count"),
    (lambda: build_cover(full_shift(2), Fraction(0)), "delta must be positive"),
    (lambda: from_true_orbit(full_shift(2), full_shift(2).point_through((0,)),
                             3, 1), r"empty index range \[3, 1\]"),
    (lambda: delta_for_epsilon(cat_map(), 0), "epsilon must be positive"),
    (lambda: barycenter_point(full_shift(2), FIXED, FIXED, 0, 1, 1),
     "epsilon must be positive"),
    (lambda: transition_times(full_shift(2), None, 0),
     "n_max must be at least 1"),
    (lambda: _toral_schedule().entry(0, 0, 0), r"level 0 outside 1\.\.1"),
    (lambda: specification_point(full_shift(2),
                                 [(full_shift(2).point_through((0,)), 1)],
                                 0, 1), "epsilon must be positive"),
    (lambda: specification_point(full_shift(2),
                                 [(full_shift(2).point_through((0,)), 1)],
                                 Fraction(1, 8), 2,
                                 schedule=_full_shift_schedule()),
     "level 2 not scheduled"),
], ids=["periodic-count", "cover-delta", "orbit-range", "calibration-epsilon",
        "barycenter-epsilon", "schedule-levels", "schedule-entry",
        "spec-epsilon", "spec-level"])
def test_values_outside_the_domain(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_toral_schedule_refusals():
    cm = cat_map()
    with pytest.raises(HorizonError, match="no uniform transition time "
                                           "within horizon 0"):
        transition_times(cm, build_cover(cm, Fraction(1, 2)), 1, horizon=0)
    # lambda_u is about 2^25, so one step already needs 2^25 strand samples
    big = ToralAutomorphism([[2**25, 1], [2**25 - 1, 1]])
    with pytest.raises(BudgetExceededError,
                       match="strand sweep at X = 1 needs 33554433 samples"):
        transition_times(big, build_cover(big, Fraction(1, 2)), 1)
