"""Schedules, connectors, and the specification pipeline."""

import os
import random
import subprocess
import sys as _sys
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest

import shadowspec
from shadowspec.covers import build_cover
from shadowspec.errors import (
    BudgetExceededError,
    EmptyInputError,
    HorizonError,
    NotTransitiveError,
)
from shadowspec.shadowing import delta_for_epsilon
from shadowspec.specification import (
    _SWEEP_CAP,
    _cell_lane,
    _toral_sweep,
    check_specification,
    cover_tolerance,
    specification_point,
    transition_times,
)
from shadowspec.systems import (
    ShiftSpace,
    ToralAutomorphism,
    cat_map,
    full_shift,
    golden_mean_shift,
)


def oracle_least_x(sys, w, a, b, lower):
    """Brute-force least X >= max(lower, 2w+1) with an admissible bridge."""
    X = max(lower, 2 * w + 1)
    while True:
        steps = X - 2 * w
        if steps == 1:
            ok = bool(sys.transition[a][b])
        else:
            ok = any(sys.word_admissible((a,) + mid + (b,))
                     for mid in product(range(sys.alphabet_size),
                                        repeat=steps - 1))
        if ok:
            return X
        X += 1


def build(sys, delta, n_max=2):
    cover = build_cover(sys, delta)
    return cover, transition_times(sys, cover, n_max=n_max)


def test_full_shift_level_one_is_window_clearing():
    fs = full_shift(2)
    cover, sched = build(fs, Fraction(3, 4))
    w = cover.cells[0].w
    r0 = len(cover)
    for i in range(r0):
        for j in range(r0):
            a, b = cover.cells[j].word[-1], cover.cells[i].word[0]
            assert sched.entry(1, i, j) == oracle_least_x(fs, w, a, b, 0) == 3
    assert sched.thresholds[:2] == (0, 3)


def test_golden_mean_schedule_against_bridge_oracle():
    gm = golden_mean_shift()
    cover, sched = build(gm, Fraction(3, 4), n_max=3)
    w = cover.cells[0].w
    assert sched.thresholds == (0, 4, 5, 6)
    for n in (1, 2, 3):
        for i in range(len(cover)):
            for j in range(len(cover)):
                a = cover.cells[j].word[-1]
                b = cover.cells[i].word[0]
                lower = max(sched.thresholds[n - 1],
                            sched.entry(n - 1, i, j) + 1 if n > 1 else 0)
                assert sched.entry(n, i, j) == oracle_least_x(gm, w, a, b, lower)


def test_three_cycle_schedule_fits_diagonal_types():
    # each cell of the 3-cycle is the only one exiting on its last symbol
    # and the only one entering with its first, so its returns to itself
    # form diagonal types; they must fit below the off-diagonal maximum
    cyc = ShiftSpace([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    cover, sched = build(cyc, Fraction(3, 4))
    w = cover.cells[0].w
    assert sched.thresholds == (0, 5, 8)
    for n in (1, 2):
        for i in range(3):
            for j in range(3):
                a = cover.cells[j].word[-1]
                b = cover.cells[i].word[0]
                lower = max(sched.thresholds[n - 1],
                            sched.entry(n - 1, i, j) + 1 if n > 1 else 0)
                assert sched.entry(n, i, j) == \
                    oracle_least_x(cyc, w, a, b, lower)
                assert sched.verify_entry(n, i, j)
    assert [sched.entry(n, i, i) for n in (1, 2) for i in range(3)] == \
        [3, 3, 3, 6, 6, 6]


def test_schedule_monotonicity_and_witness_replay():
    gm = golden_mean_shift()
    cover, sched = build(gm, Fraction(3, 4), n_max=4)
    ms = sched.thresholds
    assert ms[0] == 0 and all(ms[n - 1] <= ms[n] for n in range(1, 5))
    for i in range(len(cover)):
        for j in range(len(cover)):
            xs = [sched.entry(n, i, j) for n in range(1, 5)]
            assert all(x2 > x1 for x1, x2 in zip(xs, xs[1:]))
            assert all(xs[n - 1] >= ms[n - 1] for n in range(1, 5))
            assert sched.verify_entry(1, i, j)
            assert sched.verify_entry(4, i, j)


def test_reducible_sft_is_rejected():
    two_loops = ShiftSpace([[1, 0], [0, 1]])
    cover = build_cover(two_loops, Fraction(3, 4))
    with pytest.raises(NotTransitiveError):
        transition_times(two_loops, cover)


def test_sft_horizon_error_names_cells():
    fs = full_shift(2)
    cover = build_cover(fs, Fraction(3, 4))
    with pytest.raises(HorizonError) as err:
        transition_times(fs, cover, n_max=1, horizon=2)
    assert "level 1" in str(err.value)


def test_connector_full_shift_frozen_example():
    fs = full_shift(2)
    cover, sched = build(fs, Fraction(3, 4))
    i1 = cover._index[(0, 0, 0)]
    j0 = cover._index[(1, 1, 1)]
    # level 1 connects cell i1 to cell j0 in 3 steps, level 2 in 4
    assert [sched.entry(n, j0, i1) for n in (1, 2)] == [3, 4]
    y = sched.witness(1, j0, i1)
    assert cover.cells[i1].contains(y)
    assert cover.cells[j0].contains(fs.apply(y, 3))
    assert y.window(-1, 4) == (0, 0, 0, 1, 1, 1)


def test_toral_uniform_schedule_and_replay():
    cm = cat_map()
    eps = Fraction(1, 2)
    target = min(Fraction(1, 4), 1)  # placeholder; real target computed below
    half = eps / 2
    target = delta_for_epsilon(cm, half)
    if half < target:
        target = half
    cover = build_cover(cm, target)
    sched = transition_times(cm, cover, n_max=2)
    assert len(cover) == 1024
    assert [lv.x_value for lv in sched.levels] == [9, 10]
    assert sched.thresholds == (0, 9, 10)
    for i, j in [(0, 0), (5, 901), (1023, 512), (77, 77)]:
        assert sched.entry(1, i, j) == 9
        assert sched.verify_entry(1, i, j)
        assert sched.verify_entry(2, i, j)


def _numpy_sweep(np, sys, cover, X):
    """The strand sweep with a numpy raster, as its oracle: every sample is
    rastered, in chunks, before the candidates are verified as the sweep
    verifies them."""
    sp = sys.hyperbolic_splitting()
    sigma = sp.v_u[1]
    side = cover.cells[0].side
    per = round(1 / side)
    sig_ub = Fraction((abs(sigma) * 2**20).floor() + 1, 2**20)
    t_max = side / (2 * (1 + sig_ub))
    y0 = Fraction(0) if sigma.sign() >= 0 else t_max * sig_ub
    M = sys.matrix_power(X)
    lam_x = sp.lam_u**X
    img_dx, img_dy = lam_x, lam_x * sigma
    base_x = sys.scalar(M[0][1]) * y0
    base_y = sys.scalar(M[1][1]) * y0
    raw = 4 * float(t_max) * abs(float(lam_x)) * max(1.0, abs(float(sigma)))
    k_count = max(per * per, int(raw / float(side)) + 1)
    if k_count > _SWEEP_CAP:
        return "budget"
    step = t_max / k_count
    fdx, fdy = float(img_dx) * float(step), float(img_dy) * float(step)
    fbx, fby = float(base_x), float(base_y)
    candidates = {}
    for lo in range(0, k_count, 1 << 20):
        ks = np.arange(lo, min(lo + (1 << 20), k_count), dtype=np.float64)
        fx = (ks * fdx + fbx) % 1.0
        fy = (ks * fdy + fby) % 1.0
        flat = (np.clip((fx * per).astype(np.int64), 0, per - 1) * per
                + np.clip((fy * per).astype(np.int64), 0, per - 1))
        uniq, idx = np.unique(flat, return_index=True)
        for cell, k in zip(uniq.tolist(), (idx + lo).tolist()):
            candidates.setdefault(cell, k)
    if len(candidates) < per * per:
        return None
    col_x = _cell_lane(sys.D, per, base_x, img_dx * step)
    col_y = _cell_lane(sys.D, per, base_y, img_dy * step)
    witnesses = {}
    for k in sorted(candidates.values()):
        witnesses.setdefault(col_x(k) * per + col_y(k), k * step)
    return witnesses if len(witnesses) == per * per else None


@pytest.mark.parametrize("matrix, epsilon", [
    (((2, 1), (1, 1)), Fraction(1, 10)), (((2, 1), (1, 1)), Fraction(1, 20)),
    (((3, 1), (2, 1)), Fraction(1, 10)),
], ids=["cat-10", "cat-20", "3121-10"])
def test_toral_sweep_matches_numpy_raster(matrix, epsilon):
    np = pytest.importorskip("numpy")
    sys = ToralAutomorphism(matrix)
    cover = build_cover(sys, cover_tolerance(sys, epsilon))
    found = []
    for X in range(1, 15):
        want = _numpy_sweep(np, sys, cover, X)
        try:
            level = _toral_sweep(sys, cover, X)
        except BudgetExceededError:
            got = "budget"
        else:
            # the level keeps each witness's k; its parameter is k * step
            got = level and {cell: k * level.step
                             for cell, k in level.witnesses.items()}
        assert got == want, X
        found.append(want is not None and want != "budget")
    # both outcomes occur: early X values fail, later ones reach every cell
    assert found[0] is False and True in found


def test_import_leaves_numpy_out():
    # the package runs on the standard library alone
    src = os.path.dirname(os.path.dirname(shadowspec.__file__))
    code = "import sys, shadowspec; print('numpy' in sys.modules)"
    out = subprocess.run([_sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out == "False\n"


@pytest.mark.parametrize("matrix", [((2, 1), (1, 1)), ((3, 1), (2, 1))])
def test_cell_lane_matches_field_chain(matrix):
    """The sweep's integer cell of image(k) = img*(k*step) + base, against
    the QuadraticNumber chain it replaced, on the sweep's own strand shape:
    base = A^X (0, y0), img = lam_u^X times (1, sigma)."""
    sys = ToralAutomorphism(matrix)
    sp = sys.hyperbolic_splitting()
    rng = random.Random(2024)
    for X, per in ((1, 4), (6, 32), (13, 256), (20, 256)):
        M = sys.matrix_power(X)
        lam = sp.lam_u**X
        y0 = Fraction(rng.randrange(1, 10**6), 10**6 + 3)
        step = Fraction(1, rng.randrange(per * per, 64 * per * per))
        for base, img in ((sys.scalar(M[0][1]) * y0, lam),
                          (sys.scalar(M[1][1]) * y0, lam * sp.v_u[1])):
            lane = _cell_lane(sys.D, per, base, img * step)
            for k in [0] + [rng.randrange(1 << 24) for _ in range(40)]:
                x = img * (k * step) + base
                assert lane(k) == (x.mod1() * per).floor(), (X, per, k)


def test_specification_full_shift_frozen():
    fs = full_shift(2)
    eps = Fraction(1, 8)
    segs = [(fs.point_through((0, 0, 0, 0)), 4),
            (fs.point_through((1, 1, 1, 1)), 4)]
    res = specification_point(fs, segs, eps, level=1)
    assert res.switch_times == (0, 17)
    assert res.period == 34
    assert all(d < eps for d in res.per_segment_max_deviation)


def test_specification_verifies_and_detects_tampering():
    fs = full_shift(2)
    eps = Fraction(1, 8)
    half = eps / 2
    target = min(delta_for_epsilon(fs, half), half)
    cover = build_cover(fs, target)
    sched = transition_times(fs, cover, n_max=2)
    segs = [(fs.point_through((0, 1, 1, 0, 1)), 5),
            (fs.point_through((1, 0, 0, 0, 1)), 3)]
    res = specification_point(fs, segs, eps, level=2, schedule=sched)
    lo, hi = sched.threshold(1), sched.threshold(2)

    def verify(r):
        return check_specification(fs, r.tracer, r.switch_times, r.period,
                                   segs, r.epsilon, lo, hi)[:2]

    ok, checks = verify(res)
    assert ok and all(good for _, good in checks)
    # gap tampering trips an interval check
    bad = replace(res, switch_times=(0, res.switch_times[1]
                                     + sched.thresholds[2] + 1))
    ok2, checks2 = verify(bad)
    assert not ok2
    first = next(lbl for lbl, good in checks2 if not good)
    assert first.startswith("gap")
    # tracer tampering trips a deviation check
    bad2 = replace(res, tracer=fs.apply(res.tracer))
    ok3, checks3 = verify(bad2)
    assert not ok3
    first3 = next(lbl for lbl, good in checks3 if not good)
    assert first3.startswith("dev")


def test_specification_cat_map_end_to_end():
    cm = cat_map()
    eps = Fraction(1, 2)
    segs = [(cm.point(Fraction(1, 7), Fraction(2, 7)), 5),
            (cm.point(Fraction(3, 11), Fraction(9, 11)), 8),
            (cm.point(Fraction(1, 2), Fraction(1, 3)), 0)]
    res = specification_point(cm, segs, eps, level=1)
    half = eps / 2
    target = min(delta_for_epsilon(cm, half), half)
    cover = build_cover(cm, target)
    sched = transition_times(cm, cover, n_max=1)
    ok, checks, _ = check_specification(
        cm, res.tracer, res.switch_times, res.period, segs, eps,
        sched.threshold(0), sched.threshold(1))
    assert ok
    # every gap equals the uniform level value
    gaps = [lbl for lbl, _ in checks if lbl.startswith("gap")]
    assert len(gaps) == 3


def test_specification_rejects_bad_inputs():
    fs = full_shift(2)
    with pytest.raises(EmptyInputError):
        specification_point(fs, [], Fraction(1, 8), level=1)
    seg = [(fs.point_through((0, 1)), -1)]
    with pytest.raises(ValueError):
        specification_point(fs, seg, Fraction(1, 8), level=1)
    cover = build_cover(fs, Fraction(1, 64))
    sched = transition_times(fs, cover, n_max=1)
    with pytest.raises(ValueError):
        specification_point(fs, [(fs.point_through((0, 1)), 2)],
                            Fraction(1, 8), level=1, schedule=sched)
