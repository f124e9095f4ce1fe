"""Tracing and falsification: calibration, splice and toral tracers."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from shadowspec.errors import (
    CalibrationError,
    InternalInvariantError,
    UnsupportedSystemError,
)
from shadowspec.pseudo_orbits import (
    PseudoOrbit,
    from_true_orbit,
    perturbed_orbit,
)
from shadowspec.scalars import QuadraticNumber
from shadowspec.shadowing import (
    delta_for_epsilon,
    falsify_shadowing,
    shadow,
    shadow_sft,
    shadow_toral,
)
from shadowspec.systems import (
    CircleRotation,
    SymbolicPoint,
    ToralAutomorphism,
    cat_map,
    full_shift,
    golden_mean_shift,
)


class TestCalibration:
    def test_sft_frozen_values(self):
        sh = full_shift(2)
        assert delta_for_epsilon(sh, Fraction(1, 4)) == Fraction(1, 8)
        assert delta_for_epsilon(sh, Fraction(1, 16)) == Fraction(1, 32)
        # 1/4 is the largest power of two at most 0.3
        assert delta_for_epsilon(sh, Fraction(3, 10)) == Fraction(1, 8)
        assert delta_for_epsilon(sh, 2) == Fraction(1, 2)
        with pytest.raises(ValueError):
            delta_for_epsilon(sh, 0)

    def test_cat_constant_is_one_plus_root_five(self):
        # both eigenline terms equal the golden ratio and the eigenvectors
        # are orthogonal, so delta = eps / (2*phi) = eps / (1 + sqrt5)
        sys_ = cat_map()
        assert delta_for_epsilon(sys_, 1) == QuadraticNumber(5, -1, 1, 4)
        assert delta_for_epsilon(sys_, Fraction(1, 10)) == QuadraticNumber(5, -1, 1, 40)

    def test_rotation_unsupported(self):
        with pytest.raises(UnsupportedSystemError):
            delta_for_epsilon(CircleRotation(Fraction(1, 3)), Fraction(1, 10))

    def test_nearly_collinear_eigendirections(self):
        # slopes (4003 +- sqrt5)/2: the squared sine of the angle between
        # them is about 2^-41.5, below a 40-bit floor, so the conditioning
        # bound is read at 60 bits
        sys_ = ToralAutomorphism([[-2000, 1], [-4006001, 2003]])
        k = 5148295442949
        assert delta_for_epsilon(sys_, 1) == QuadraticNumber(5, -k, k, 2**65)
        # entries near 2^101 put the squared sine below 2^-400: refused
        n = 2**101
        sys_ = ToralAutomorphism([[-n, 1], [-(n * (n + 3) + 1), n + 3]])
        with pytest.raises(InternalInvariantError, match="nearly collinear"):
            delta_for_epsilon(sys_, 1)


class TestShadowSft:
    def test_true_orbit_traced_exactly(self):
        gm = golden_mean_shift()
        x = gm.point_through((0, 1, 0), at=-1)
        po = from_true_orbit(gm, x, -2, 9)
        res = shadow_sft(gm, po, Fraction(1, 4))
        assert res.start == -2
        assert res.max_deviation == 0
        assert all(d == 0 for d in res.per_index_deviations)

    def test_perturbed_orbit_traced(self):
        gm = golden_mean_shift()
        x = gm.point_through((0, 0, 1, 0, 1), at=-2)
        for seed in range(5):
            po = perturbed_orbit(gm, x, 0, 40, Fraction(1, 16), seed)
            res = shadow_sft(gm, po, Fraction(1, 8))
            gm.validate_point(res.tracer)
            assert res.max_deviation < Fraction(1, 8)
            for i, y in enumerate(po.points):
                d = gm.distance(gm.apply(res.tracer, i), y)
                assert d == res.per_index_deviations[i]
                assert d <= Fraction(1, 16)

    def test_gap_above_delta_rejected(self):
        sh = full_shift(2)
        z = SymbolicPoint.periodic((0,))
        po = PseudoOrbit(sh, 0, (z, z.with_symbol(0, 1)))  # gap 1
        with pytest.raises(CalibrationError):
            shadow_sft(sh, po, Fraction(1, 4))

    def test_exhaustive_width_five_oracle(self):
        # every admissible length-3 pseudo-orbit assembled from width-5
        # window words with one-step window agreement (gap <= 1/4) is traced
        # with deviation at most 1/4; checked against nothing but the metric
        sh = full_shift(2)
        words = list(product((0, 1), repeat=5))
        cases = 0
        for w1 in words:
            for w2 in (w for w in words if w[0:4] == w1[1:5]):
                for w3 in (w for w in words if w[0:4] == w2[1:5]):
                    pts = [sh.point_through(w, at=-2) for w in (w1, w2, w3)]
                    po = PseudoOrbit(sh, 0, pts)
                    assert po.gap <= Fraction(1, 4)
                    res = shadow_sft(sh, po, Fraction(1, 2))
                    for i, y in enumerate(po.points):
                        assert sh.distance(sh.apply(res.tracer, i), y) <= Fraction(1, 4)
                    cases += 1
        assert cases == 2**5 * 2 * 2


def _nearest_translate(t):
    # round half toward the smaller integer: ceil(t - 1/2)
    return -((QuadraticNumber(t.D, 1, 0, 2) - t).floor())


def _oracle(sys_, po, epsilon):
    """``shadow_toral`` step by step in ``QuadraticNumber`` arithmetic.

    The same lifts, eigencomponents and corrections, with every deviation
    read from ``distance``.  Returns the tracer, the largest deviation, the
    per-index deviations and the largest absolute correction component.
    """
    eps = sys_.scalar(epsilon)
    sp = sys_.hyperbolic_splitting()
    vs, vu = sp.v_s, sp.v_u
    det = vs[0] * vu[1] - vs[1] * vu[0]
    A = sys_.matrix
    m = len(po.points)

    lifts = [tuple(po.points[0].coords)]
    errors = []
    for n in range(m - 1):
        img = (A[0][0] * lifts[n][0] + A[0][1] * lifts[n][1],
               A[1][0] * lifts[n][0] + A[1][1] * lifts[n][1])
        nxt = tuple(y + _nearest_translate(t - y)
                    for t, y in zip(img, po.points[n + 1].coords))
        lifts.append(nxt)
        errors.append((nxt[0] - img[0], nxt[1] - img[1]))

    zero = sys_.scalar(0)
    s = [zero]
    for ex, ey in errors:
        s.append(sp.lam_s * s[-1] - (ex * vu[1] - ey * vu[0]) / det)
    u = [zero] * m
    for n in range(m - 2, -1, -1):
        ex, ey = errors[n]
        u[n] = (u[n + 1] + (vs[0] * ey - vs[1] * ex) / det) / sp.lam_u

    corrs = [(s[n] * vs[0] + u[n] * vu[0], s[n] * vs[1] + u[n] * vu[1])
             for n in range(m)]
    zs = [(lift[0] + cx, lift[1] + cy) for lift, (cx, cy) in zip(lifts, corrs)]
    for n in range(m - 1):
        img = (A[0][0] * zs[n][0] + A[0][1] * zs[n][1],
               A[1][0] * zs[n][0] + A[1][1] * zs[n][1])
        assert img == zs[n + 1], "corrected points are not an orbit"
    tracer = sys_.point(*zs[0])
    devs = tuple(sys_.distance(sys_.point(*z), y)
                 for z, y in zip(zs, po.points))
    assert sys_.apply(tracer, m - 1) == sys_.point(*zs[-1])
    mx = max(devs)
    assert mx < eps
    return tracer, mx, devs, max(abs(c) for corr in corrs for c in corr)


TORAL_MATRICES = {
    "D5": [[2, 1], [1, 1]],
    "D5-det-1": [[1, 1], [1, 0]],
    "D8-det-1": [[2, 1], [1, 0]],
    "D12": [[3, 1], [2, 1]],
    "D13-det-1": [[3, 1], [1, 0]],
}


def _jump_orbit(sys_, jump, steps):
    """Points whose jump f(y_n) -> y_{n+1} is det^n times one small vector.

    For these positive-trace matrices the sign follows that of lam_s, so a
    jump close to the stable direction piles up in the forward sum of
    stable components.
    """
    pts = [sys_.point(Fraction(1, 3), Fraction(2, 7))]
    for n in range(steps):
        x, y = sys_.apply(pts[-1]).coords
        sign = sys_.det ** n
        pts.append(sys_.point(x + sign * jump[0], y + sign * jump[1]))
    return PseudoOrbit(sys_, 0, pts)


def _toral_case(sys_, case):
    """(pseudo-orbit, epsilon) for each kind of orbit the lane must handle."""
    x = sys_.point(Fraction(1, 3), Fraction(2, 7))
    if case == "rational":
        x = sys_.point(Fraction(2, 9), Fraction(5, 9))
        return perturbed_orbit(sys_, x, -4, 36, Fraction(1, 10**4), 3), \
            Fraction(1, 12)
    if case == "irrational":
        # sqrt(D) mod 1, e.g. sqrt(5) - 2
        x = sys_.point(QuadraticNumber(sys_.D, 0, 1, 1), Fraction(1, 2))
        return perturbed_orbit(sys_, x, 0, 30, Fraction(1, 10**4), 5), \
            Fraction(1, 12)
    if case == "true-orbit":
        return from_true_orbit(sys_, x, 0, 60), Fraction(1, 10)
    if case == "long":
        # 450 steps: the coefficients of lam_s^k grow to hundreds of bits,
        # well past the filter's fixed-point window
        return perturbed_orbit(sys_, x, 0, 449, Fraction(1, 10**6), 4), \
            Fraction(1, 10**5)
    if case == "tie":
        # every x-jump is exactly 1/2: the lift takes the smaller translate
        return _jump_orbit(sys_, (Fraction(1, 2), Fraction(0)), 4), 3
    assert case == "wrap"
    return _jump_orbit(sys_, WRAP_JUMPS[sys_.matrix], 6), 2


# jumps close to each stable direction that push a correction past 1/2
WRAP_JUMPS = {
    ((2, 1), (1, 1)): (Fraction(2, 5), Fraction(-2, 5)),
    ((1, 1), (1, 0)): (Fraction(1, 10), Fraction(-3, 10)),
    ((2, 1), (1, 0)): (Fraction(2, 5), Fraction(-2, 5)),
    ((3, 1), (2, 1)): (Fraction(2, 5), Fraction(-2, 5)),
    ((3, 1), (1, 0)): (Fraction(2, 5), Fraction(-2, 5)),
}
TORAL_CASES = ("rational", "irrational", "true-orbit", "long", "tie", "wrap")


@pytest.mark.parametrize("case", TORAL_CASES)
@pytest.mark.parametrize("name", sorted(TORAL_MATRICES))
def test_lane_matches_oracle(name, case):
    sys_ = ToralAutomorphism(TORAL_MATRICES[name])
    po, eps = _toral_case(sys_, case)
    lane = shadow_toral(sys_, po, eps)
    tracer, mx, devs, largest = _oracle(sys_, po, eps)
    assert lane.tracer == tracer
    assert lane.max_deviation == mx
    assert lane.per_index_deviations == devs
    assert lane.start == po.start
    if case == "true-orbit":
        # every correction is 0, so every index ties for the largest
        # deviation and the ties are settled by exact comparison
        assert lane.tracer == po.points[0]
        assert all(d == 0 for d in lane.per_index_deviations)
    if case == "wrap":
        # a correction component past 1/2 is measured through the torus wrap
        assert largest > Fraction(1, 2)


class TestShadowToral:
    def test_tracer_orbit_is_exact(self):
        sys_ = cat_map()
        po = perturbed_orbit(sys_, sys_.point(Fraction(1, 3), Fraction(2, 7)),
                             0, 50, Fraction(1, 10**5), 11)
        eps = Fraction(1, 10)
        res = shadow_toral(sys_, po, eps)
        cur = res.tracer
        for i, y in enumerate(po.points):
            d = sys_.distance(cur, y)
            assert d == res.per_index_deviations[i]
            assert d < eps
            cur = sys_.apply(cur)  # z_{n+1} = A z_n, nothing else
        assert res.max_deviation < eps

    @pytest.mark.parametrize("seed", [0, 3, 8, 21])
    def test_lattice_and_generic_lanes_agree(self, seed):
        # the one integer lane against the step-by-step QuadraticNumber
        # oracle (the former generic lane), over several perturbation seeds
        sys_ = cat_map()
        po = perturbed_orbit(sys_, sys_.point(Fraction(2, 9), Fraction(5, 9)),
                             -4, 36, Fraction(1, 10**4), seed)
        res = shadow_toral(sys_, po, Fraction(1, 12))
        tracer, mx, devs, _ = _oracle(sys_, po, Fraction(1, 12))
        assert res.tracer == tracer
        assert res.max_deviation == mx
        assert res.per_index_deviations == devs
        assert res.start == po.start

    def test_deviations_read_after_return_match_walked_tracer(self):
        sys_ = cat_map()
        po = perturbed_orbit(sys_, sys_.point(Fraction(4, 11), Fraction(1, 6)),
                             0, 420, Fraction(1, 10**6), 9)
        res = shadow_toral(sys_, po, Fraction(1, 10**5))
        devs = res.per_index_deviations
        assert len(devs) == len(po.points)
        cur = res.tracer
        for d, y in zip(devs, po.points):
            assert sys_.distance(cur, y) == d
            cur = sys_.apply(cur)  # z_{n+1} = A z_n, nothing else
        assert max(devs) == res.max_deviation
        assert res.per_index_deviations is devs  # computed once, then kept

    def test_gap_above_delta_rejected(self):
        sys_ = cat_map()
        po = PseudoOrbit(sys_, 0, (sys_.point(Fraction(0), Fraction(0)),
                                   sys_.point(Fraction(1, 2), Fraction(1, 2))))
        with pytest.raises(CalibrationError):
            shadow_toral(sys_, po, Fraction(1, 10))

    def test_single_point_orbit(self):
        sys_ = cat_map()
        po = PseudoOrbit(sys_, 5, (sys_.point(Fraction(1, 3), Fraction(1, 3)),))
        res = shadow_toral(sys_, po, Fraction(1, 10))
        assert res.max_deviation < Fraction(1, 10)
        assert sys_.distance(res.tracer, po.points[0]) == res.per_index_deviations[0]


@settings(max_examples=25, derandomize=True, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 24),
       st.sampled_from(sorted(TORAL_MATRICES)))
def test_toral_shadowing_sound_for_random_orbits(seed, length, name):
    sys_ = ToralAutomorphism(TORAL_MATRICES[name])
    po = perturbed_orbit(sys_, sys_.point(Fraction(1, 5), Fraction(2, 5)),
                         0, length, Fraction(1, 10**4), seed)
    res = shadow(sys_, po, Fraction(1, 12))
    for i, y in enumerate(po.points):
        assert sys_.distance(sys_.apply(res.tracer, i), y) < Fraction(1, 12)


def test_shadow_dispatch_rejects_rotation():
    rot = CircleRotation(Fraction(1, 3))
    po = from_true_orbit(rot, Fraction(0), 0, 3)
    with pytest.raises(UnsupportedSystemError):
        shadow(rot, po, Fraction(1, 10))


class TestFalsify:
    def test_rotation_certificate(self):
        rot = CircleRotation(Fraction(377, 610))
        eps = Fraction(1, 10)
        res = falsify_shadowing(rot, eps, 1000, seed=7, delta=Fraction(1, 1000))
        assert res.status == "certified"
        assert res.pseudo_orbit.gap <= Fraction(1, 1000)
        cert = res.certificate
        assert cert["gridSize"] >= 40  # pitch at most eps/4
        assert cert["threshold"] == eps * Fraction(9, 8)
        assert len(cert["gridMaxDeviations"]) == cert["gridSize"]
        assert min(cert["gridMaxDeviations"]) >= cert["threshold"]

    def test_rotation_certificate_replays(self):
        # re-derive one grid row of the certificate from scratch
        rot = CircleRotation(Fraction(377, 610))
        res = falsify_shadowing(rot, Fraction(1, 10), 1000, seed=7,
                                delta=Fraction(1, 1000))
        g = res.certificate["gridSize"]
        x = Fraction(3, g)
        dev = max(rot.distance(rot.apply(x, n), y)
                  for n, y in enumerate(res.pseudo_orbit.points))
        assert dev == res.certificate["gridMaxDeviations"][3]

    def test_small_drift_is_not_certified(self):
        # 8 steps of drift 1/1000 stay within eps/8 of the nearest grid
        # orbit, so the grid cannot rule every tracer out
        rot = CircleRotation(Fraction(377, 610))
        res = falsify_shadowing(rot, Fraction(1, 4), 8, seed=3,
                                delta=Fraction(1, 1000))
        assert (res.status, res.certificate) == ("not-found", None)
        assert len(res.pseudo_orbit.points) == 9

    def test_bad_horizon(self):
        with pytest.raises(ValueError):
            falsify_shadowing(CircleRotation(Fraction(1, 3)), Fraction(1, 10), 0, seed=0)
