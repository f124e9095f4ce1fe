"""Pseudo-orbits: gaps, seeded perturbation, fast orbit generation, gluing,
and orbit deviations."""

import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from shadowspec import pseudo_orbits
from shadowspec.codecs import decode_point, encode_point, encode_scalar
from shadowspec.errors import (
    CalibrationError,
    MalformedPointError,
    UnsupportedSystemError,
)
from shadowspec.pseudo_orbits import (
    _FLIP_SPAN,
    PseudoOrbit,
    concatenate,
    deviations,
    drift_orbit,
    from_true_orbit,
    orbit,
    perturbed_orbit,
)
from shadowspec.runner import _window_chains
from shadowspec.scalars import QuadraticNumber
from shadowspec.shadowing import delta_for_epsilon, shadow_sft
from shadowspec.systems import (
    CircleRotation,
    PermutationSystem,
    ShiftSpace,
    SymbolicPoint,
    ToralAutomorphism,
    cat_map,
    full_shift,
    golden_mean_shift,
)


class TestPseudoOrbit:
    def test_true_orbit_has_zero_gap(self):
        sys_ = cat_map()
        po = from_true_orbit(sys_, sys_.point(Fraction(1, 7), Fraction(2, 7)), -3, 5)
        assert po.index_range == (-3, 5)
        assert len(po) == 9
        assert po.gap == 0

    def test_point_indexing(self):
        rot = CircleRotation(Fraction(1, 4))
        po = from_true_orbit(rot, Fraction(0), 2, 5)
        assert po.point(2) == Fraction(1, 2)
        assert po.point(5) == Fraction(1, 4)
        with pytest.raises(IndexError):
            po.point(6)

    def test_gap_frozen_sft(self):
        # jump from all-zeros to a point with a 1 at index 2: after the shift
        # the mismatch sits at index 2, giving distance 2^-2
        sh = full_shift(2)
        z = SymbolicPoint.periodic((0,))
        po = PseudoOrbit(sh, 0, (z, z.with_symbol(2, 1)))
        assert po.gap == Fraction(1, 4)
        assert PseudoOrbit(sh, 0, (z,)).gap == 0  # no jump at all

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PseudoOrbit(cat_map(), 0, ())


class TestPerturb:
    def test_toral_budget_respected(self):
        sys_ = cat_map()
        x = sys_.point(Fraction(1, 5), Fraction(3, 5))
        for seed in (0, 1, 7):
            po = perturbed_orbit(sys_, x, 0, 40, Fraction(1, 1000), seed)
            assert po.gap <= Fraction(1, 1000)
            assert po.gap != 0

    def test_sft_budget_respected(self):
        gm = golden_mean_shift()
        x = gm.point_through((0, 1, 0, 0, 1), at=-2)
        po = perturbed_orbit(gm, x, 0, 30, Fraction(1, 16), 3)
        assert po.gap <= Fraction(1, 16)
        for p in po.points:
            gm.validate_point(p)

    def test_rotation_and_permutation(self):
        rot = CircleRotation(Fraction(2, 7))
        po = perturbed_orbit(rot, Fraction(0), 0, 20, Fraction(1, 50), 5)
        assert po.gap <= Fraction(1, 50)
        # a permutation has no perturbation: every map of a finite
        # discrete space shadows, so no check takes the family
        perm = PermutationSystem([1, 2, 0])
        with pytest.raises(UnsupportedSystemError,
                           match="perturbation is not defined for "
                                 "PermutationSystem"):
            perturbed_orbit(perm, 0, 0, 10, Fraction(1, 2), 5)

    def test_sft_delta_below_flip_depth_keeps_true_orbit(self):
        fs = full_shift(2)
        x = fs.point_through((0, 1, 1, 0), at=-2)
        true = from_true_orbit(fs, x, 0, 6).points
        # flips start at |index| 64 for delta 2^-64 and at none below it
        assert perturbed_orbit(fs, x, 0, 6, Fraction(1, 2**64), 9).points \
            != true
        assert perturbed_orbit(fs, x, 0, 6, Fraction(1, 2**65), 9).points \
            == true

    def test_same_seed_same_orbit(self):
        sys_ = cat_map()
        x = sys_.point(Fraction(1, 5), Fraction(3, 5))
        a = perturbed_orbit(sys_, x, 0, 10, Fraction(1, 100), 42)
        b = perturbed_orbit(sys_, x, 0, 10, Fraction(1, 100), 42)
        assert a.points == b.points
        c = perturbed_orbit(sys_, x, 0, 10, Fraction(1, 100), 43)
        assert a.points != c.points

    def test_negative_delta_raises_and_zero_gives_true_orbit(self):
        rot = CircleRotation(Fraction(1, 3))
        cat = cat_map()
        x = cat.point(Fraction(1, 5), Fraction(3, 5))
        for sys_, start in ((rot, Fraction(1, 7)), (cat, x)):
            with pytest.raises(CalibrationError):
                perturbed_orbit(sys_, start, 0, 5, Fraction(-1, 100), 0)
            po = perturbed_orbit(sys_, start, -2, 5, Fraction(0), 0)
            assert po.points == from_true_orbit(sys_, start, -2, 5).points
        with pytest.raises(ValueError):
            perturbed_orbit(cat, x, 3, 2, Fraction(1, 100), 0)

    def test_toral_builds_no_quadratic_number(self, monkeypatch):
        # the jitter draws stay integer pairs: the few scalars of the jitter
        # bound h are built, the same few however long the orbit, and no
        # point's coordinates until the point is read
        sys_ = cat_map()
        x = sys_.point(Fraction(1234, 4096), Fraction(877, 4096))
        calls = []
        real = QuadraticNumber.__init__
        monkeypatch.setattr(QuadraticNumber, "__init__",
                            lambda *args: calls.append(1) or real(*args))
        counts = []
        for b in (1, 999):
            calls.clear()
            po = perturbed_orbit(sys_, x, 0, b, Fraction(1, 10**6), 7)
            assert len(po.points) == b + 1
            counts.append(len(calls))
        assert counts[0] == counts[1] < 10
        po.point(500)
        assert len(calls) == counts[1] + 2

    @pytest.mark.parametrize("sys_,x", [
        (golden_mean_shift(),
         golden_mean_shift().point_through((0, 1, 0, 0, 1), at=-2)),
        (CircleRotation(Fraction(2, 7)), Fraction(1, 3)),
    ], ids=["shift", "rotation"])
    def test_measures_no_distance(self, sys_, x, monkeypatch):
        calls = []
        real = type(sys_).distance
        monkeypatch.setattr(type(sys_), "distance",
                            lambda *args: calls.append(1) or real(*args))
        perturbed_orbit(sys_, x, 0, 30, Fraction(1, 16), 3)
        assert not calls


def _perturb_sft_by_flips(sys, po, delta, rng):
    """Slow oracle for the shift lane of ``perturbed_orbit``: one
    ``with_symbol`` rebuild per flip on each point of ``po``."""
    k = 0
    while Fraction(1, 2**k) > delta:
        k += 1
    out = []
    for p in po.points:
        q = p
        for j in [*range(-k - _FLIP_SPAN, -k + 1),
                  *range(k + 1, k + _FLIP_SPAN + 2)]:
            if not rng.getrandbits(1):
                continue
            old = q.symbol(j)
            allowed = [s for s in range(sys.alphabet_size)
                       if s != old
                       and sys.transition[q.symbol(j - 1)][s]
                       and sys.transition[s][q.symbol(j + 1)]]
            if allowed:
                q = q.with_symbol(j, allowed[rng.randrange(len(allowed))])
        sys.validate_point(q)
        out.append(q)
    return PseudoOrbit(sys, po.start, out)


def _perturbed_with(monkeypatch, rng, sys, x, a, b, delta):
    """``perturbed_orbit`` drawing from ``rng`` instead of its seeded one."""
    with monkeypatch.context() as m:
        m.setattr(pseudo_orbits, "random",
                  SimpleNamespace(Random=lambda seed: rng))
        return perturbed_orbit(sys, x, a, b, delta, 0)


def _assert_same_perturbation(monkeypatch, sys, x, a, b, delta, rng_fast,
                              rng_slow):
    fast = _perturbed_with(monkeypatch, rng_fast, sys, x, a, b, delta)
    slow = _perturb_sft_by_flips(sys, from_true_orbit(sys, x, a, b), delta,
                                 rng_slow)
    assert [encode_point(sys, q) for q in fast.points] == \
        [encode_point(sys, q) for q in slow.points]
    for q in fast.points:
        sys.validate_point(q)
    assert fast.gap == slow.gap


class _ScriptedRng:
    """Answers getrandbits from a script and always picks the first symbol."""

    def __init__(self, bits):
        self.bits = iter(bits)

    def getrandbits(self, n):
        return next(self.bits)

    def randrange(self, n):
        return 0


class TestPerturbSftOracle:
    SYSTEMS = {
        "full": full_shift(2),
        "golden": golden_mean_shift(),
        "sft3": ShiftSpace([[1, 1, 0], [0, 1, 1], [1, 1, 1]]),
    }
    STARTS = {
        "full": [SymbolicPoint.periodic((0,)), SymbolicPoint.periodic((0, 1, 1)),
                 SymbolicPoint((0,), (), (1,), 2),
                 SymbolicPoint((0,), (1, 0, 1), (0,), -3)],
        "golden": [SymbolicPoint.periodic((0,)), SymbolicPoint.periodic((0, 1)),
                   SymbolicPoint((0,), (), (0, 1), -4)],
        "sft3": [SymbolicPoint.periodic((1,)), SymbolicPoint.periodic((0, 1, 2)),
                 SymbolicPoint((0,), (), (1,), 5)],
    }

    def _starts(self, name, rng):
        sys_ = self.SYSTEMS[name]
        starts = list(self.STARTS[name])
        for _ in range(3):
            word = [rng.randrange(sys_.alphabet_size)]
            while len(word) < 6:
                nxt = [s for s in range(sys_.alphabet_size)
                       if sys_.transition[word[-1]][s]]
                word.append(rng.choice(nxt))
            starts.append(sys_.point_through(word, at=rng.randrange(-12, 12)))
        return starts

    @pytest.mark.parametrize("name", ["full", "golden", "sft3"])
    def test_batched_flips_match_per_flip_rebuilds(self, name, monkeypatch):
        sys_ = self.SYSTEMS[name]
        draw = random.Random(name)
        for x in self._starts(name, draw):
            sys_.validate_point(x)
            for k in range(9):
                for _ in range(3):
                    seed = draw.randrange(2**32)
                    fast, slow = random.Random(seed), random.Random(seed)
                    _assert_same_perturbation(monkeypatch, sys_, x, -6, 6,
                                              Fraction(1, 2**k), fast, slow)
                    assert fast.getstate() == slow.getstate()

    def test_span_follows_each_rebuild(self, monkeypatch):
        # Flips at 3 and 5 clear the core 101 on [3, 6).  A rebuild per flip
        # strips the core to [5, 6) after the first flip, so the all-zero
        # result sits at offset -5, not at the -3 of the starting core.
        sys_ = full_shift(2)
        x = SymbolicPoint((0,), (1, 0, 1), (0,), -3)
        bits = [0] * 9 + [1, 0, 1] + [0] * 6
        _assert_same_perturbation(monkeypatch, sys_, x, 0, 0, Fraction(1, 4),
                                  _ScriptedRng(bits), _ScriptedRng(bits))
        q = _perturbed_with(monkeypatch, _ScriptedRng(bits), sys_, x, 0, 0,
                            Fraction(1, 4)).points[0]
        assert encode_point(sys_, q) == "0~-~0@-5"

    def test_a_flip_carried_by_the_shift_is_no_jump(self, monkeypatch):
        # delta 1/4 flips indices -10..-2 and 3..11.  y_0 flips index 4 and
        # y_1 index 3, so sigma(y_0) = y_1: both are edited at index 3, with
        # one symbol, and the gap is 0
        sys_ = full_shift(2)
        bits = [0] * 10 + [1] + [0] * 7 + [0] * 9 + [1] + [0] * 8
        po = _perturbed_with(monkeypatch, _ScriptedRng(bits), sys_,
                             SymbolicPoint.periodic((0,)), 0, 1,
                             Fraction(1, 4))
        y0, y1 = po.points
        assert sys_.apply(y0) == y1 != y0
        assert po.gap == 0


def _perturbed_by_field(sys, x, a, b, delta, seed):
    """Oracle for the toral lane: jitter each true-orbit coordinate c to
    c + j*h/2^16 in field arithmetic, with the lane's draws."""
    rng = random.Random(seed)
    norm = max(sum(abs(e) for e in row) for row in sys.matrix)
    h = delta / (2 * (norm + 1))
    return PseudoOrbit(sys, a, [
        sys.point(*[c + Fraction(rng.randrange(-2**16, 2**16 + 1), 2**16) * h
                    for c in p.coords])
        for p in from_true_orbit(sys, x, a, b).points])


class TestPerturbedOrbit:
    MATRICES = [((2, 1), (1, 1)), ((1, 1), (1, 0)), ((3, 1), (2, 1)),
                ((2, 1), (1, 0)), ((3, 1), (1, 0))]

    @pytest.mark.parametrize("a,b,seed", [
        (0, 40, 5), (-3, 17, 99), (2, 30, 1234),
        pytest.param(0, 999, 7, id="toral-long")])
    def test_matches_two_step_construction(self, a, b, seed):
        # the toral-long shape, 1000 steps, on the cat map at delta 1e-6 only
        long = b - a == 999
        for matrix in self.MATRICES[:1] if long else self.MATRICES:
            sys_ = ToralAutomorphism(matrix)
            D = sys_.D
            starts = [sys_.point(Fraction(3, 7), Fraction(1, 2)),
                      sys_.point(QuadraticNumber(D, 1, 1, 7),
                                 QuadraticNumber(D, 2, -1, 9))]
            deltas = [Fraction(1, 10**6)] if long else [
                Fraction(1, 10**6), Fraction(1, 1000),
                delta_for_epsilon(sys_, Fraction(1, 10))]
            for x in starts:
                for delta in deltas:
                    lane = perturbed_orbit(sys_, x, a, b, delta, seed)
                    oracle = _perturbed_by_field(sys_, x, a, b, delta, seed)
                    assert lane.start == oracle.start == a
                    assert [encode_point(sys_, p) for p in lane.points] == \
                        [encode_point(sys_, p) for p in oracle.points]
                assert perturbed_orbit(sys_, x, a, b, 0, seed).points == \
                    from_true_orbit(sys_, x, a, b).points

    @pytest.mark.parametrize("matrix", [((2, 1), (1, 1)), ((3, 1), (2, 1))])
    def test_integer_form_matches_decoded_points(self, matrix):
        # the kernels give the same values on a seeded orbit's own integer
        # form and on the explicit pseudo-orbit of its decoded points
        sys_ = ToralAutomorphism(matrix)
        D = sys_.D
        for x in (sys_.point(Fraction(3, 7), Fraction(1, 2)),
                  sys_.point(QuadraticNumber(D, 1, 1, 7),
                             QuadraticNumber(D, 2, -1, 9))):
            seeded = perturbed_orbit(sys_, x, -2, 60, Fraction(1, 10**4), 3)
            explicit = PseudoOrbit(sys_, -2, [
                decode_point(sys_, encode_point(sys_, p))
                for p in seeded.points])
            assert encode_scalar(sys_.max_jump(seeded.form)) == \
                encode_scalar(sys_.max_jump(explicit.form))
            for y in (x, sys_.point(Fraction(1, 5), Fraction(2, 5))):
                assert encode_scalar(sys_.max_orbit_deviation(y, seeded.form)) \
                    == encode_scalar(sys_.max_orbit_deviation(y, explicit.form))
                assert list(sys_.orbit_deviations(y, seeded.form)) == \
                    list(sys_.orbit_deviations(y, explicit.form))

    def test_non_toral_falls_back(self):
        # shifts and rotations make the seeded draws of their oracles
        gm = golden_mean_shift()
        x = gm.point_through((0, 0, 1), at=0)
        lane = perturbed_orbit(gm, x, -2, 12, Fraction(1, 8), 7)
        base = from_true_orbit(gm, x, -2, 12)
        oracle = _perturb_sft_by_flips(gm, base, Fraction(1, 8),
                                       random.Random(7))
        assert lane.points == oracle.points
        rot = CircleRotation(Fraction(2, 7))
        lane = perturbed_orbit(rot, Fraction(1, 3), 0, 20, Fraction(1, 50), 5)
        rng = random.Random(5)
        assert lane.points == tuple(
            (y + Fraction(rng.randrange(-2**16, 2**16 + 1), 2**16)
             * Fraction(1, 100)) % 1
            for y in from_true_orbit(rot, Fraction(1, 3), 0, 20).points)


@settings(max_examples=30, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_perturbed_toral_gap_within_delta(seed):
    sys_ = cat_map()
    po = perturbed_orbit(sys_, sys_.point(Fraction(1, 3), Fraction(0)), 0, 25,
                         Fraction(1, 1000), seed)
    assert po.gap <= Fraction(1, 1000)


class TestConcatenate:
    def test_switch_times_are_running_sums(self):
        sh = full_shift(2)
        x = SymbolicPoint.periodic((0,))
        y = SymbolicPoint.periodic((1,))
        po, c = concatenate(sh, [(x, 2), (y, 4)], [(x, 3), (y, 5)])
        assert c == [0, 5, 14]
        assert len(po) == 14
        assert po.index_range == (0, 13)

    def test_segment_points_appear_in_place(self):
        sys_ = cat_map()
        x = sys_.point(Fraction(1, 5), Fraction(0))
        y = sys_.point(Fraction(2, 5), Fraction(0))
        po, c = concatenate(sys_, [(x, 3)], [(y, 2)])
        assert po.points[0] == x
        assert po.points[1] == sys_.apply(x)
        assert po.points[3] == y
        assert po.points[4] == sys_.apply(y)
        assert c == [0, 5]

    def test_rejects_bad_shapes(self):
        sys_ = cat_map()
        x = sys_.point(Fraction(0), Fraction(0))
        with pytest.raises(ValueError):
            concatenate(sys_, [], [])
        with pytest.raises(ValueError):
            concatenate(sys_, [(x, 1)], [])
        with pytest.raises(ValueError):
            concatenate(sys_, [(x, -1)], [(x, 1)])
        with pytest.raises(ValueError):
            concatenate(sys_, [(x, 1)], [(x, 0)])


def _deviation_case(name):
    """(system, x, points y_0..y_12) with y_n near f^n(x); the last point
    lies farthest off, so it alone decides the maximum."""
    if name == "shift":
        sys_ = full_shift(2)
        x = sys_.point_through((0, 1, 1, 0, 1), at=-2)
        pts = list(perturbed_orbit(sys_, x, 0, 11, Fraction(1, 8), 3).points)
        last = sys_.apply(x, 12)
        pts.append(last.with_symbol(0, 1 - last.symbol(0)))
    elif name.startswith("cat"):
        sys_ = cat_map()
        if name == "cat-rational":
            x = sys_.point(Fraction(3, 17), Fraction(5, 11))
        else:
            x = sys_.point(QuadraticNumber(5, 1, 1, 7),
                           QuadraticNumber(5, 2, -1, 9))
        pts = list(perturbed_orbit(sys_, x, 0, 11, Fraction(1, 100), 3).points)
        fx, fy = sys_.apply(x, 12).coords
        pts.append(sys_.point(fx + Fraction(1, 3), fy + Fraction(1, 3)))
    elif name == "rotation":
        sys_ = CircleRotation(Fraction(2, 7))
        x = Fraction(1, 3)
        pts = list(perturbed_orbit(sys_, x, 0, 11, Fraction(1, 50), 3).points)
        pts.append(sys_.point(sys_.apply(x, 12) + Fraction(1, 3)))
    else:
        sys_ = PermutationSystem([1, 2, 0, 4, 3])
        x = 3
        pts = list(from_true_orbit(sys_, x, 0, 11).points)
        pts.append(sys_.apply(x, 13))
    return sys_, x, pts


DEVIATION_CASES = ["shift", "cat-rational", "cat-irrational", "rotation",
                   "permutation"]


@pytest.mark.parametrize("name", DEVIATION_CASES)
def test_deviations_match_direct_oracle(name):
    sys_, x, pts = _deviation_case(name)
    oracle = [sys_.distance(sys_.apply(x, n), y) for n, y in enumerate(pts)]
    assert max(oracle) > max(oracle[:-1])
    assert orbit(sys_, x, 12) == [sys_.apply(x, n) for n in range(13)]
    assert list(deviations(sys_, x, pts)) == oracle
    assert encode_scalar(PseudoOrbit(sys_, 0, pts).max_deviation(x)) == \
        encode_scalar(max(oracle))
    back = [sys_.apply(x, -n) for n in range(13)]
    assert orbit(sys_, x, 12, step=-1) == back
    assert list(deviations(sys_, x, pts, step=-1)) == \
        [sys_.distance(b, y) for b, y in zip(back, pts)]


@pytest.mark.parametrize("name", DEVIATION_CASES)
def test_max_deviation_of_one_point(name):
    sys_, x, pts = _deviation_case(name)
    assert orbit(sys_, x, 0) == [x]
    for y in (x, pts[-1]):
        assert encode_scalar(PseudoOrbit(sys_, 0, [y]).max_deviation(x)) == \
            encode_scalar(sys_.distance(x, y))


def _true_orbit_cases():
    """(system, x): periodic anchors first (the fixed points and a point of
    period 2 and 3 on the cat map, 0^inf, 1^inf and (001)^inf on the full
    2-shift), then rational and irrational points of the cat map and of
    [[3, 1], [2, 1]] (D = 12), and points with distinct tails on the full
    shift and the golden mean."""
    cat, d12 = cat_map(), ToralAutomorphism([[3, 1], [2, 1]])
    sh, gm = full_shift(2), golden_mean_shift()
    period3 = next(pt for pt in (cat.point(Fraction(i, 4), Fraction(j, 4))
                                 for i in range(4) for j in range(4))
                   if cat.apply(pt, 3) == pt and cat.apply(pt) != pt)
    return [(cat, cat.point(0, 0)),
            (cat, cat.point(Fraction(1, 5), Fraction(2, 5))),
            (cat, period3),
            (sh, SymbolicPoint.periodic((0,))),
            (sh, SymbolicPoint.periodic((1,))),
            (sh, SymbolicPoint.periodic((0, 0, 1))),
            (cat, cat.point(Fraction(3, 17), Fraction(5, 11))),
            (cat, cat.point(QuadraticNumber(5, 1, 1, 7),
                            QuadraticNumber(5, 2, -1, 9))),
            (d12, d12.point(0, 0)),
            (d12, d12.point(Fraction(1, 6), Fraction(5, 9))),
            (d12, d12.point(QuadraticNumber(12, 0, 1, 7), Fraction(1, 3))),
            (sh, SymbolicPoint((0,), (1, 1, 0, 1), (1, 0), 2)),
            (gm, gm.point_through((1, 0, 0, 1, 0, 1), at=-2)),
            (gm, SymbolicPoint.periodic((0, 1)))]


def _unrelated_tracers(sys_):
    if isinstance(sys_, ShiftSpace):
        return [sys_.point_through(w, at=-3) for w in
                ((0, 1, 0, 0, 1, 0, 1), (1, 0, 1, 0, 0, 0, 0), (0, 0))]
    return [sys_.point(Fraction(2, 3), Fraction(1, 7)),
            sys_.point(QuadraticNumber(sys_.D, 3, 1, 11), Fraction(1, 2))]


@pytest.mark.parametrize("case", range(14))
def test_true_orbit_form_matches_walked_orbit(case):
    # the walk through ``apply`` and ``distance`` is the oracle for the
    # form ``from_true_orbit`` builds and the kernels that read it
    sys_, x = _true_orbit_cases()[case]
    for a, b in ((0, 0), (0, 7), (-1, 3), (-7, 0), (-50, 0), (3, 8),
                 (-5, 20)):
        po = from_true_orbit(sys_, x, a, b)
        oracle = orbit(sys_, sys_.apply(x, a), b - a)
        assert po.index_range == (a, b) and len(po) == len(oracle)
        assert po.points == oracle and list(po.points) == oracle, (a, b)
        assert po.point(b) == oracle[-1] and po.gap == 0
        for t in [oracle[0], *_unrelated_tracers(sys_)]:
            assert encode_scalar(po.max_deviation(t)) == \
                encode_scalar(max(deviations(sys_, t, oracle))), (a, b, t)


# -- the rotation integer lane ------------------------------------------------


def _rotation_walk(sys_, x, points):
    """max_n d(f^n(x), y_n) through ``apply`` and ``distance``: the oracle
    for ``CircleRotation.max_orbit_deviation``."""
    return max(sys_.distance(sys_.apply(x, n), y) for n, y in enumerate(points))


def _rotation_gap_walk(sys_, points):
    """max_i d(f(y_i), y_(i+1)) through ``apply`` and ``distance``: the
    oracle for ``CircleRotation.max_jump``."""
    return max((sys_.distance(sys_.apply(y), z)
                for y, z in zip(points, points[1:])), default=Fraction(0))


_DENOMINATORS = (1, 2, 3, 10, 49, 610, 1 << 16)


def _rotation_lane_cases(seed):
    """(label, system, x, points) over seeded angles, 0 and 377/610 among
    them, with points of mixed denominators."""
    rng = random.Random(seed)

    def draw():
        d = rng.choice(_DENOMINATORS)
        return Fraction(rng.randrange(d), d)

    angles = [Fraction(0), Fraction(377, 610),
              *(Fraction(rng.randrange(d), d) for d in (2, 7, 60, 1 << 16))]
    for angle in angles:
        sys_ = CircleRotation(angle)
        x = draw()
        true = orbit(sys_, x, 11)
        half = [sys_.point(y + Fraction(1, 2)) for y in true]
        # the true orbit with its last point moved: that point alone
        # decides both maxima
        last = true[:-1] + [sys_.point(true[-1] + Fraction(1, 3))]
        drift = drift_orbit(sys_, draw(), Fraction(1, 1000), 520).points
        yield from (
            (("mixed", angle), sys_, x, [draw() for _ in range(40)]),
            (("half-ties", angle), sys_, x, half),
            (("last-decides", angle), sys_, x, last),
            (("one-point", angle), sys_, x, [draw()]),
            (("drift-521", angle), sys_, draw(), list(drift)),
        )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rotation_lane_matches_distance_walk(seed):
    for label, sys_, x, pts in _rotation_lane_cases(seed):
        form = sys_.tracking_form(pts)
        dev = sys_.max_orbit_deviation(x, form)
        walk = _rotation_walk(sys_, x, pts)
        assert type(dev) is Fraction and dev == walk, label
        assert encode_scalar(PseudoOrbit(sys_, 0, pts).max_deviation(x)) == \
            encode_scalar(walk), label
        gap, gap_walk = sys_.max_jump(form), _rotation_gap_walk(sys_, pts)
        assert type(gap) is Fraction and gap == gap_walk, label
        assert encode_scalar(PseudoOrbit(sys_, 0, pts).gap) == \
            encode_scalar(gap_walk), label


@pytest.mark.parametrize("bad, message", [
    (0, "exact rationals"),
    (Fraction(1), r"outside \[0, 1\)"),
    (Fraction(-1, 3), r"outside \[0, 1\)"),
])
def test_rotation_lane_rejects_malformed_points(bad, message):
    sys_ = CircleRotation(Fraction(377, 610))
    good = [Fraction(1, 3), Fraction(2, 5), Fraction(7, 8)]
    with pytest.raises(MalformedPointError, match=message):
        PseudoOrbit(sys_, 0, good).max_deviation(bad)
    for i in range(len(good) + 1):
        pts = good[:i] + [bad] + good[i:]
        with pytest.raises(MalformedPointError, match=message):
            PseudoOrbit(sys_, 0, pts).max_deviation(good[0])
        with pytest.raises(MalformedPointError, match=message):
            PseudoOrbit(sys_, 0, pts).gap


def test_drift_orbit_steps_angle_plus_step():
    sys_ = CircleRotation(Fraction(377, 610))
    po = drift_orbit(sys_, Fraction(9, 10), Fraction(1, 1000), 3)
    assert po.index_range == (0, 3)
    step = Fraction(377, 610) + Fraction(1, 1000)
    assert list(po.points) == [(Fraction(9, 10) + n * step) % 1
                               for n in range(4)]
    assert po.gap == Fraction(1, 1000)
    # a drift starts on the circle and steps by a rational
    with pytest.raises(MalformedPointError):
        drift_orbit(sys_, Fraction(1), Fraction(1, 1000), 3)
    with pytest.raises(CalibrationError, match="not rational"):
        drift_orbit(sys_, Fraction(9, 10), QuadraticNumber(5, 0, 1, 10**4), 3)


def test_points_are_made_when_read():
    sys_ = cat_map()
    x = sys_.point(Fraction(1, 5), Fraction(3, 5))
    po = perturbed_orbit(sys_, x, -3, 7, Fraction(1, 100), 42)
    pts = po.points
    assert len(pts) == 11 and pts._all is None
    assert [pts[-11], pts[10], pts[-1]] == [po.point(-3), po.point(7),
                                           po.point(7)]
    with pytest.raises(IndexError):
        pts[11]
    assert pts._all is None
    assert pts == tuple(pts) and pts == list(pts) and pts == pts[:]
    assert pts != tuple(pts)[1:] and pts != "points"


# -- the shift tracking kernels -----------------------------------------------

_SHIFTS = {"full2": full_shift(2), "golden": golden_mean_shift(),
           "full3": full_shift(3)}


def _shift_gap_walk(sys_, points):
    """max_i d(sigma(y_i), y_(i+1)) through ``apply`` and ``distance``: the
    oracle for ``ShiftSpace.max_jump``."""
    return max((sys_.distance(sys_.apply(y), z)
                for y, z in zip(points, points[1:])), default=Fraction(0))


@st.composite
def _shift_point(draw, sys_):
    """A point through a short admissible word, or a periodic point at any
    offset (its texts differ where the points do not)."""
    word = [draw(st.integers(0, sys_.alphabet_size - 1))]
    for _ in range(draw(st.integers(0, 6))):
        word.append(draw(st.sampled_from(sys_.successors(word[-1]))))
    if draw(st.booleans()) and sys_.transition[word[-1]][word[0]]:
        return SymbolicPoint.periodic(word).shifted(draw(st.integers(-5, 5)))
    return sys_.point_through(word, at=draw(st.integers(-12, 12)))


@settings(max_examples=80, derandomize=True, deadline=None)
@given(st.data())
def test_shift_kernels_match_distance_walk(data):
    sys_ = _SHIFTS[data.draw(st.sampled_from(sorted(_SHIFTS)))]
    x = data.draw(_shift_point(sys_))
    a = data.draw(st.integers(-6, 6))
    b = a + data.draw(st.integers(0, 20))
    delta = Fraction(1, 2 ** data.draw(st.integers(0, 8)))
    seeded = perturbed_orbit(sys_, x, a, b, delta,
                             data.draw(st.integers(0, 2**32 - 1)))
    others = [data.draw(_shift_point(sys_))
              for _ in range(data.draw(st.integers(1, 5)))]
    orbits = {
        "seeded": seeded,
        "seeded as a list": PseudoOrbit(sys_, a, tuple(seeded.points)),
        # every jump and, traced from sigma^a(x), every deviation is 0
        "true": from_true_orbit(sys_, x, a, b),
        "unrelated": PseudoOrbit(sys_, 0, others),
    }
    tracers = [sys_.apply(x, a), seeded.points[0], others[0],
               data.draw(_shift_point(sys_))]
    for label, po in orbits.items():
        points = list(po.points)
        gap = sys_.max_jump(po.form)
        assert type(gap) is Fraction, label
        assert gap == _shift_gap_walk(sys_, points), label
        for t in tracers:
            dev = sys_.max_orbit_deviation(t, po.form)
            assert type(dev) is Fraction, label
            assert dev == max(deviations(sys_, t, points)), (label, t)
    assert orbits["true"].gap == orbits["true"].max_deviation(tracers[0]) == 0

    # An edit on the edge of a later scan's window: the first jump differs
    # first at +-m, so the second is scanned over -(m-1)..m-1, and its only
    # difference is the edit at +-(m-1).
    m = data.draw(st.integers(1, 6))
    j1, j2 = (data.draw(st.sampled_from((-1, 1))) * i for i in (m, m - 1))
    y0 = sys_.apply(x, a)
    q = sys_.apply(y0)
    y1 = q.with_symbol(j1, 1 - q.symbol(j1) % 2)
    z = sys_.apply(y1)
    y2 = z.with_symbol(j2, 1 - z.symbol(j2) % 2)
    form = [(y0, y0.symbol, 0, {}), (q, q.symbol, 0, {j1: y1.symbol(j1)}),
            (z, z.symbol, 0, {j2: y2.symbol(j2)})]
    points = [y0, y1, y2]
    assert sys_.max_jump(form) == _shift_gap_walk(sys_, points) == \
        Fraction(1, 2 ** (m - 1))
    for t in tracers:
        assert sys_.max_orbit_deviation(t, form) == \
            max(deviations(sys_, t, points)), t


@pytest.mark.parametrize("name", ["full2", "golden"])
@pytest.mark.parametrize("width, length", [(9, 2), (5, 3)])
def test_shift_kernels_on_explicit_window_chains(name, width, length):
    # the forms c3-shaped exhaustive records give: one explicit point per
    # window, traced by the splice at the loosest epsilon the width allows
    sys_ = _SHIFTS[name]
    eps = Fraction(1, 2 ** (width // 2 - 1))
    chains = _window_chains(sys_, width, length)
    assert chains
    for chain in chains:
        points = [sys_.point_through(w, -(width // 2)) for w in chain]
        po = PseudoOrbit(sys_, 0, points)
        assert sys_.max_jump(po.form) == _shift_gap_walk(sys_, points), chain
        tracer = shadow_sft(sys_, po, eps).tracer
        assert sys_.max_orbit_deviation(tracer, po.form) == \
            max(deviations(sys_, tracer, points)), chain
