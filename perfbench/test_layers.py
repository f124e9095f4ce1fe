"""Microbenchmarks for calls too fine-grained to trace as spans.

Run with ``python -m pytest perfbench/test_layers.py`` (pytest-benchmark);
it is outside the repository's default test paths.  Inputs are fixed, so
the numbers compare across commits on one machine.
"""

import operator
import random
from fractions import Fraction

import pytest

import shadowspec
from shadowspec import (
    CircleRotation,
    PermutationSystem,
    cat_map,
    full_shift,
    perturbed_orbit,
    shadow,
)

from perfbench.workloads import SHIFT_RANDOM

DELTA = Fraction(1, 10**6)


@pytest.fixture(scope="module")
def toral_orbit():
    """A 1000-step cat-map pseudo-orbit and its exact tracer (c2 shape)."""
    cat = cat_map()
    x0 = cat.point(Fraction(1234, 4096), Fraction(877, 4096))
    po = perturbed_orbit(cat, x0, 0, 999, DELTA, 7)
    return cat, po, shadow(cat, po, Fraction(1, 100)).tracer


@pytest.fixture(scope="module")
def quadratics(toral_orbit):
    """Two tracer coordinates: elements of Q(sqrt 5) of realistic size."""
    _, _, tracer = toral_orbit
    return tracer.coords


def _family(name, toral_orbit):
    rng = random.Random(5)
    if name == "shift":
        sft = full_shift()
        word = lambda: tuple(rng.randrange(2) for _ in range(64))  # noqa: E731
        return sft, sft.point_through(word(), at=-32), \
            sft.point_through(word(), at=-32)
    if name == "toral":
        cat, po, tracer = toral_orbit
        return cat, tracer, po.point(0)
    if name == "rotation":
        return (CircleRotation(Fraction(377, 610)), Fraction(rng.randrange(1 << 16), 1 << 16),
                Fraction(rng.randrange(1 << 16), 1 << 16))
    perm = PermutationSystem([(i * 7 + 3) % 101 for i in range(101)])
    return perm, 5, 17


FAMILIES = ("shift", "toral", "rotation", "permutation")


def test_quadratic_mul(benchmark, quadratics):
    a, b = quadratics
    benchmark(operator.mul, a, b)


def test_quadratic_sign(benchmark, quadratics):
    a, b = quadratics
    diff = a - b
    benchmark(diff.sign)


def test_quadratic_floor(benchmark, quadratics):
    a, b = quadratics
    scaled = (a - b) * 1000
    benchmark(scaled.floor)


@pytest.mark.parametrize("family", FAMILIES)
def test_apply(benchmark, family, toral_orbit):
    system, x, _ = _family(family, toral_orbit)
    benchmark(system.apply, x)


@pytest.mark.parametrize("family", FAMILIES)
def test_distance(benchmark, family, toral_orbit):
    system, x, y = _family(family, toral_orbit)
    benchmark(system.distance, x, y)


def test_perturbed_orbit_toral_1000(benchmark):
    cat = cat_map()
    x0 = cat.point(Fraction(1234, 4096), Fraction(877, 4096))
    po = benchmark(perturbed_orbit, cat, x0, 0, 999, DELTA, 11)
    assert len(po.points) == 1000


def test_perturbed_orbit_shift_64(benchmark):
    sft = full_shift()
    x0 = sft.point_through((0, 1, 1, 0, 1, 0, 0, 1), at=-4)
    po = benchmark(perturbed_orbit, sft, x0, 0, 63, Fraction(1, 16), 11)
    assert len(po.points) == 64


@pytest.fixture(scope="module")
def record_set():
    """The shift-random workload's records at its default seeds."""
    records = []
    for config in SHIFT_RANDOM.configs:
        records += shadowspec.run_check(shadowspec.parse_config(config.text()))
    return records


def test_jsonl_encode(benchmark, record_set):
    text = benchmark(shadowspec.records_to_jsonl, record_set)
    assert text.count("\n") == len(record_set)


def test_jsonl_decode(benchmark, record_set):
    text = shadowspec.records_to_jsonl(record_set)
    assert len(benchmark(shadowspec.jsonl_to_records, text)) == len(record_set)
