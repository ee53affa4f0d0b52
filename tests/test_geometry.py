import ast
import itertools
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mebagg.geometry

from mebagg import (
    Ball,
    CandidateBalls,
    DimensionMismatchError,
    EmptyInputError,
    InvalidTangentConfigurationError,
    MebaggError,
    diameter,
    dist_to_ball,
    dist_to_hull,
    geometric_median,
    grid_minmax,
    meb,
    mda,
    meb_bruteforce,
    random_instance,
    soddy_inner_bend,
    solve_minmax,
    trusted_box,
)
from mebagg.pointset import as_points, as_vector
from conftest import random_cloud, random_rotation

# ---------------------------------------------------------------------------
# minimum enclosing ball


def test_meb_single_point():
    ball = meb([(0.0, 0.0)])
    assert np.allclose(ball.center, [0, 0])
    assert ball.radius == 0.0


def test_meb_two_points_midpoint():
    ball = meb([(0.0, 0.0), (0.0, 1.0)])
    assert np.allclose(ball.center, [0.0, 0.5], atol=1e-12)
    assert math.isclose(ball.radius, 0.5, rel_tol=1e-12)
    # squared lengths of these spreads underflow or overflow unless both the
    # solve and the realized radius rescale
    ball = meb([(0.0, 0.0), (0.0, 6.5e-159)])
    assert ball.center[0] == 0.0
    assert math.isclose(ball.center[1], 3.25e-159, rel_tol=1e-12)
    assert math.isclose(ball.radius, 3.25e-159, rel_tol=1e-12)
    ball = meb([(1e300, 0.0), (1.5e300, 0.0)])
    assert np.allclose(ball.center, [1.25e300, 0.0], rtol=1e-12)
    assert math.isclose(ball.radius, 2.5e299, rel_tol=1e-12)


def test_meb_unit_square():
    ball = meb([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert np.allclose(ball.center, [0.5, 0.5], atol=1e-12)
    assert math.isclose(ball.radius, math.sqrt(2) / 2, rel_tol=1e-12)


def test_meb_right_triangle_supported_by_two_points():
    # hypotenuse endpoints carry the ball; computed independently by the
    # brute-force support search
    pts = [(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)]
    oracle = meb_bruteforce(pts)
    assert np.allclose(oracle.center, [1.0, 0.0], atol=1e-12)
    assert math.isclose(oracle.radius, 1.0, rel_tol=1e-12)
    ball = meb(pts)
    assert np.allclose(ball.center, oracle.center, atol=1e-9)
    assert math.isclose(ball.radius, oracle.radius, rel_tol=1e-9)


def test_meb_duplicate_points_ignored():
    ball = meb([(0, 0), (0, 0), (0, 0), (2, 0)])
    assert np.allclose(ball.center, [1, 0], atol=1e-12)
    assert math.isclose(ball.radius, 1.0, rel_tol=1e-12)


def test_meb_empty_and_dimension_errors():
    with pytest.raises(EmptyInputError):
        meb([])
    with pytest.raises((DimensionMismatchError, MebaggError, ValueError)):
        meb([(0, 0), (1, 2, 3)])


def test_meb_containment_and_minimality_random(rng):
    for _ in range(40):
        n = int(rng.integers(1, 11))
        d = int(rng.integers(1, 5))
        pts = random_cloud(rng, n, d)
        ball = meb(pts)
        dists = np.linalg.norm(pts - ball.center, axis=1)
        assert np.all(dists <= ball.radius + 1e-9 * (1 + ball.radius))
        oracle = meb_bruteforce(pts)
        assert math.isclose(ball.radius, oracle.radius, rel_tol=1e-9, abs_tol=1e-12)


def test_meb_permutation_invariance(rng):
    pts = random_cloud(rng, 9, 3)
    ball = meb(pts)
    for _ in range(5):
        perm = rng.permutation(len(pts))
        other = meb(pts[perm])
        assert np.allclose(other.center, ball.center, atol=1e-9)
        assert math.isclose(other.radius, ball.radius, rel_tol=1e-9)


def test_meb_isometry_equivariance(rng):
    pts = random_cloud(rng, 8, 3)
    ball = meb(pts)
    for _ in range(5):
        rot = random_rotation(rng, 3)
        shift = rng.normal(size=3)
        moved = meb(pts @ rot.T + shift)
        assert np.allclose(moved.center, rot @ ball.center + shift, atol=1e-8)
        assert math.isclose(moved.radius, ball.radius, rel_tol=1e-9)


def test_meb_high_dimension_coreset_path(rng):
    pts = random_cloud(rng, 60, 15)
    ball = meb(pts)
    dists = np.linalg.norm(pts - ball.center, axis=1)
    assert np.all(dists <= ball.radius * (1 + 1e-6) + 1e-9)
    # radius cannot beat half the diameter and cannot exceed it
    diam = diameter(pts)
    assert ball.radius >= diam / 2 - 1e-6
    assert ball.radius <= diam + 1e-9


@pytest.mark.parametrize("d", range(1, 21))
def test_meb_optimality_certificate_any_dimension(d):
    # meb_bruteforce stops at d = 4; the certificate does not: the center of
    # the MEB lies in the hull of the points on its sphere
    rng = np.random.default_rng(900 + d)
    for layout in ("generic", "coincident", "collinear"):
        for _ in range(4):
            n = int(rng.integers(3, 13))
            pts = rng.normal(size=(n, d)) * 2
            if layout == "coincident":
                pts = pts[rng.integers(0, max(2, n // 3), size=n)]
            elif layout == "collinear":
                pts = np.outer(rng.normal(size=n), rng.normal(size=d))
            pts += 1e3
            ball = meb(pts)
            dists = np.linalg.norm(pts - ball.center, axis=1)
            assert dists.max() <= ball.radius
            tight = np.unique(pts[dists >= ball.radius * (1.0 - 1e-9)], axis=0)
            assert dist_to_hull(ball.center, tight) <= 1e-9 * ball.radius
    if d in (11, 14, 17, 20):
        ball = meb(np.eye(d + 1))
        assert math.isclose(ball.radius, math.sqrt(d / (d + 1)), rel_tol=1e-12)


def _batched_closed_form(CW, RW, subs):
    """The closed form of ``geometry._closed_form`` on a batch of subsets,
    each row sorted by radius: (subs, y, ok), ``ok`` False where the Gram
    matrix is rank-deficient or q has no root."""
    subs = np.take_along_axis(subs, np.argsort(RW[subs], axis=1), axis=1)
    Cs, Rs = CW[subs], RW[subs]
    if subs.shape[1] == 1:
        return subs, Cs[:, 0], np.ones(len(subs), dtype=bool)
    V = Cs[:, 1:] - Cs[:, :1]
    G = V @ V.transpose(0, 2, 1)
    ok = np.linalg.matrix_rank(G) == subs.shape[1] - 1
    G[~ok] = np.eye(subs.shape[1] - 1)
    r0sq = Rs[:, 0] ** 2
    b = 0.5 * np.einsum("sij,sij->si", V, V)
    delta = 0.5 * (Rs[:, 1:] ** 2 - r0sq[:, None])
    beta = np.linalg.solve(G, np.stack([b, delta], axis=2))
    a = np.einsum("si,sid->sd", beta[..., 0], V)
    w = np.einsum("si,sid->sd", beta[..., 1], V)
    aa, aw, ww = (a * a).sum(axis=1), (a * w).sum(axis=1), (w * w).sum(axis=1)
    a_perp = a - (aw / np.where(ww > 0, ww, 1.0))[:, None] * w
    lin = 2.0 * aw + r0sq
    disc = r0sq * r0sq + 4.0 * r0sq * aw - 4.0 * ww * (a_perp * a_perp).sum(axis=1)
    ok &= lin > 0
    q = 2.0 * aa / np.where(ok, lin + np.sqrt(np.maximum(disc, 0.0)), np.inf)
    return subs, Cs[:, 0] + a - q[:, None] * w, ok


def _all_subsets_basis(C, R, work):
    """Exhaustive working-set optimum: every subset of at most d+1 balls of
    ``work`` solved in closed form (as ``geometry._best_basis`` does), the
    smallest rho among the candidates whose balls are all tight."""
    CW, RW = C[work], R[work]
    m, d = CW.shape
    slack = 1e-10 + 1e-12 * RW.max() / RW.min()
    best = None
    for k in range(1, min(m, d + 1) + 1):
        subs, y, ok = _batched_closed_form(CW, RW, np.array(list(itertools.combinations(range(m), k))))
        ratios = np.linalg.norm(CW[None, :, :] - y[:, None, :], axis=2) / RW
        rho = ratios.max(axis=1)
        ok &= np.take_along_axis(ratios, subs, axis=1).min(axis=1) >= rho * (1.0 - slack)
        if ok.any():
            i = int(np.argmin(np.where(ok, rho, np.inf)))
            if best is None or rho[i] < best[1]:
                best = (y[i], float(rho[i]), [work[j] for j in subs[i]])
    return best


def _working_sets(rng, count):
    """(C, R, work) for the working sets that ``_one_center`` hands
    ``_best_basis`` on random ball sets in d <= 6, until ``count`` of them are
    collected. The loop starts at the far pair's closed-form optimum, so each
    is a support plus its violator, three or more balls."""
    solve = mebagg.geometry._best_basis
    seen = []

    def record(C, R, work):
        seen.append((C, R, list(work)))
        return solve(C, R, work)

    layouts = ("generic", "coincident", "collinear", "tiny", "offset")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mebagg.geometry, "_best_basis", record)
        while len(seen) < count:
            for layout in layouts:
                n, d = int(rng.integers(10, 80)), int(rng.integers(1, 7))
                C = rng.normal(size=(n, d))
                R = np.ones(n) if rng.random() < 0.3 else rng.uniform(0.2, 2.0, size=n)
                if layout == "coincident":
                    C = C[rng.integers(0, max(2, n // 3), size=n)]
                elif layout == "collinear":
                    C = np.outer(rng.normal(size=n), rng.normal(size=d))
                elif layout == "tiny":
                    R[rng.integers(n)] = 1e-9 * R.max()
                elif layout == "offset":
                    C += 1e6
                mebagg.geometry._one_center(C, R)
    return seen


@pytest.fixture(scope="module")
def working_sets():
    cases = _working_sets(np.random.default_rng(2024), 1000)
    assert len(cases) >= 1000
    return cases


def _check_best_basis_against_oracle(cases):
    for C, R, work in cases:
        y, rho, support = mebagg.geometry._best_basis(C, R, work)
        _, rho_all, _ = _all_subsets_basis(C, R, work)
        assert math.isclose(rho, rho_all, rel_tol=1e-12), (work, rho, rho_all)
        # certified: every ball of the support is tight at rho and y has
        # non-negative barycentric weights over the support centers
        ratios = np.linalg.norm(C[support] - y, axis=1) / R[support]
        slack = 1e-10 + 1e-12 * R[work].max() / R[work].min()
        assert ratios.min() >= rho * (1.0 - slack)
        A = np.vstack([C[support].T, np.ones(len(support))])
        weights = np.linalg.lstsq(A, np.append(y, 1.0), rcond=None)[0]
        assert weights.min() >= -1e-9
        assert np.linalg.norm(A @ weights - np.append(y, 1.0)) <= 1e-9


def test_closed_form_matches_the_batched_oracle_bit_for_bit(working_sets):
    # one subset at a time, the kernel does the batched arithmetic op for op;
    # the hand case has a radius whose scalar ``r ** 2`` (pow) misses r * r by an ulp
    compared = 0
    hand = (np.array([[0.0], [1.0]]), np.array([0.2976070277862801, 1.0]), [0, 1])
    for C, R, work in [hand, *working_sets]:
        CW, RW = C[work], R[work]
        m, d = CW.shape
        for k in range(2, min(m, d + 1) + 1):
            combos = np.array(list(itertools.combinations(range(m), k)))
            for S, y, ok, row in zip(*_batched_closed_form(CW, RW, combos), combos):
                S_one, y_one, *_ = mebagg.geometry._closed_form(CW, RW, row, 0.0)
                if ok and y_one is not None:
                    assert np.array_equal(S_one, S) and np.array_equal(y_one, y), (work, row)
                    compared += 1
    assert compared >= 5000


def test_best_basis_matches_all_subsets_oracle(working_sets, monkeypatch):
    # the pivot settles almost every working set of at most d+1 balls; the
    # level search takes the rest; the exhaustive search agrees either way
    pivot, stalled = mebagg.geometry._pivot, []

    def recording(*args):
        best = pivot(*args)
        stalled.append(best is None)
        return best

    monkeypatch.setattr(mebagg.geometry, "_pivot", recording)
    _check_best_basis_against_oracle(working_sets)
    assert len(stalled) >= 900 and sum(stalled) <= len(stalled) // 10


def test_best_basis_level_search_matches_all_subsets_oracle(working_sets, monkeypatch):
    # with the pivot out, the level search solves only the supports holding
    # the violator and stops at the first KKT-certified one
    monkeypatch.setattr(mebagg.geometry, "_pivot", lambda *args: None)
    _check_best_basis_against_oracle(working_sets)


def _count_calls(monkeypatch, name):
    """A list that grows by one at each call of ``geometry.<name>``, which still runs."""
    fn, calls = getattr(mebagg.geometry, name), []

    def counted(*args):
        calls.append(1)
        return fn(*args)

    monkeypatch.setattr(mebagg.geometry, name, counted)
    return calls


def _uncertified_first_rounds(monkeypatch):
    """A list that grows by one each time ``_one_center``'s first round (a
    ``_pivot`` that keeps no ball) ends uncertified, so the far-pair loop decides."""
    pivot, failed = mebagg.geometry._pivot, []

    def recording(CW, RW, keep):
        best = pivot(CW, RW, keep)
        if keep == len(RW) and best is None:
            failed.append(1)
        return best

    monkeypatch.setattr(mebagg.geometry, "_pivot", recording)
    return failed


def test_meb_regular_simplex_by_the_pivot_alone(monkeypatch):
    # the level search raises, so the pivot alone settles every round; d+1
    # points fit one basis, so the first round solves them all in one closed
    # form and no working set is ever built
    def no_level_search(*args):
        raise AssertionError("the level search ran")

    monkeypatch.setattr(mebagg.geometry, "_level_search", no_level_search)
    closed_forms = _count_calls(monkeypatch, "_closed_form")
    bases = _count_calls(monkeypatch, "_best_basis")
    for d in range(1, 21):
        closed_forms.clear()
        ball = meb(np.eye(d + 1))
        assert len(closed_forms) == 1 and not bases, d
        assert math.isclose(ball.radius, math.sqrt(d / (d + 1)), rel_tol=1e-12), d
        assert np.allclose(ball.center, 1.0 / (d + 1), rtol=0.0, atol=1e-12), d


@pytest.mark.parametrize("d", [2, 3, 4])
def test_meb_of_an_affinely_dependent_small_set_takes_the_fallback(d, monkeypatch):
    # d+1 points on a flat of lower dimension (a line, a plane in R^3, ...):
    # G is singular, so the first round cannot certify and the far-pair loop
    # decides; the ball passes the any-d certificate and matches the brute force
    fallbacks = _uncertified_first_rounds(monkeypatch)
    rng = np.random.default_rng(70 + d)
    for flat in range(1, d):
        for _ in range(5):
            pts = np.zeros((d + 1, d))
            pts[:, :flat] = rng.normal(size=(d + 1, flat))
            pts = pts[:, rng.permutation(d)] + 1e3
            fallbacks.clear()
            ball = meb(pts)
            assert fallbacks, (d, flat)
            dists = np.linalg.norm(pts - ball.center, axis=1)
            assert dists.max() <= ball.radius
            tight = pts[dists >= ball.radius * (1.0 - 1e-9)]
            assert dist_to_hull(ball.center, tight) <= 1e-9 * ball.radius
            brute = meb_bruteforce(pts)
            assert math.isclose(ball.radius, brute.radius, rel_tol=1e-9)
            assert np.allclose(ball.center, brute.center, rtol=0.0, atol=1e-9 * brute.radius)


def test_small_weighted_sets_match_the_exhaustive_oracle_and_the_grid(monkeypatch):
    # m <= d+1 weighted balls, a quarter of them with a repeated center (a
    # singular G, so the far-pair loop decides): the min-max value matches
    # the all-subsets closed form in any d, and the grid (d <= 3) never beats it
    fallbacks = _uncertified_first_rounds(monkeypatch)
    rng = np.random.default_rng(41)
    first_round = fallback = 0
    for trial in range(40):
        d = 1 + trial % 6
        m = int(rng.integers(2, d + 2))
        C = rng.normal(size=(m, d))
        if trial % 4 == 3:
            C[1] = C[0]
        R = rng.uniform(0.3, 2.0, size=m)
        balls = CandidateBalls.from_balls([Ball(c, r) for c, r in zip(C, R)])
        fallbacks.clear()
        _, value = solve_minmax(balls)
        first_round, fallback = first_round + (not fallbacks), fallback + bool(fallbacks)
        _, rho, _ = _all_subsets_basis(C, R, list(range(m)))
        assert math.isclose(1.0 + value, rho, rel_tol=1e-9), trial
        if d <= 3:
            _, grid_value = grid_minmax(balls, resolution=40, zooms=12)
            assert value <= grid_value + 1e-12 and grid_value <= value + 1e-3, trial
    assert first_round >= 15 and fallback >= 15, (first_round, fallback)


@pytest.mark.parametrize("case", ["collinear", "tiny-radius", "coincident"])
def test_far_pair_optimum_starts_the_loop_without_a_solve(case, monkeypatch):
    # m > d+1 balls whose optimum is the far pair: the loop starts at the point
    # dividing the pair's centers in the ratio of their radii and certifies it
    # there, with no working-set solve. Its rho is the larger of the pair's two
    # ratios at that point. With a radius 1e-9 of the largest, rounding y puts
    # the small ball's ratio 8e-8 above ||c_i - c_j|| / (r_i + r_j), so that
    # distance formula would leave the ball above rho, a violator of its own
    # optimum. Its centers have a mean of exactly 0, so no rounding of the
    # kernel's local origin enters the ratios read here
    C, R = {
        "collinear": (np.outer([-2.0, -1.0, 0.5, 1.0, 1.5, 0.0], [0.6, 0.8]), np.ones(6)),
        "tiny-radius": (
            np.array([[3.0, 1.0], [-2.5, -0.5], [-1.0, 1.0], [0.0, -1.0], [0.5, -0.5]]),
            np.array([2e-9, 2.0, 2.0, 2.0, 2.0]),
        ),
        "coincident": (np.tile([0.1, 0.5], (6, 1)), np.array([3.0, 1.0, 4.0, 1.5, 2.5, 2.0])),
    }[case]
    bases = _count_calls(monkeypatch, "_best_basis")
    y, rho, basis = mebagg.geometry._one_center(C, R)
    assert not bases
    assert len(basis) == (1 if case == "coincident" else 2)
    # a ratio read at a y rounded to eps max|c| is good to about eps max|c| / r
    rounding = 4 * np.finfo(float).eps * np.abs(C).max()
    ratios = np.linalg.norm(C - y, axis=1) / R
    assert ratios.max() <= rho * (1.0 + 1e-12)
    assert (np.abs(ratios[basis] - rho) <= 1e-12 * rho + rounding / R[basis].min()).all()
    want_y, want_rho, want_basis = _all_subsets_basis(C, R, list(range(len(R))))
    assert sorted(basis) == sorted(want_basis)
    assert math.isclose(rho, want_rho, rel_tol=1e-12, abs_tol=rounding / R.min())
    assert np.allclose(y, want_y, rtol=0.0, atol=rounding)


@pytest.mark.parametrize("n, d, seed", [(80, 1000, 1), (80, 1000, 2), (100, 1000, 0), (128, 512, 2)])
def test_meb_of_many_points_in_high_dimension(n, d, seed, monkeypatch):
    # seen from one point on the sphere of n Gaussian points in high d, the
    # others are nearly equicorrelated, so the Gram matrix of a working set is
    # about I + 11^T: well conditioned at any size. A rank bar that calls it
    # singular sends the solve through a walk over subsets of some 50 balls;
    # a few hundred closed forms settle it instead
    closed_form, calls = mebagg.geometry._closed_form, []

    def budgeted(*args):
        calls.append(1)
        assert len(calls) <= 1000, "the solve walks subsets of the working set"
        return closed_form(*args)

    monkeypatch.setattr(mebagg.geometry, "_closed_form", budgeted)
    pts = np.random.default_rng(seed).normal(size=(n, d))
    ball = meb(pts)
    dists = np.linalg.norm(pts - ball.center, axis=1)
    assert dists.max() <= ball.radius
    tight = pts[dists >= ball.radius * (1.0 - 1e-9)]
    assert dist_to_hull(ball.center, tight) <= 1e-12 * ball.radius


def _fresh_pivot(CW, RW, keep):
    """``_pivot`` with every solve a fresh ``_closed_form``, which sorts S, forms
    G = V V^T and tests its rank each time; also the number of base drops."""
    S, slack, base_drops = np.arange(len(RW)), mebagg.geometry._slack(RW), 0
    while True:
        S, y, rho, ok, lam, _ = mebagg.geometry._closed_form(CW, RW, S, slack)
        if not ok:
            return None, base_drops
        if lam.min() >= -1e-10:
            return (y, float(rho), S), base_drops
        lam[S == keep] = np.inf
        base_drops += int(np.argmin(lam)) == 0
        S = np.delete(S, np.argmin(lam))


def test_pivot_reuses_one_gram_matrix_as_a_fresh_solve_would(working_sets, monkeypatch):
    # a drop deletes a row and column of the first Gram matrix and skips the rank
    # test; only a drop of the base forms G afresh. The result is the fresh
    # solves', bit for bit, where the BLAS product gives each entry of V V^T the
    # same bits at any position: up to 11 vectors of up to 24 coordinates with
    # the OpenBLAS numpy ships. At 30 x 40 it is not (an entry's last bit depends
    # on its block), so there S must match and y, rho agree to 16 eps
    ranks = _count_calls(monkeypatch, "_full_rank")
    rng = np.random.default_rng(29)
    cases = [(C[work], R[work], len(work) - 1, True) for C, R, work in working_sets
             if len(work) <= C.shape[1] + 1]
    for n, d in [(9, 8), (9, 12), (30, 40)]:
        for _ in range(20):
            C = rng.normal(size=(n, d))
            for R in (np.ones(n), rng.uniform(0.5, 2.0, size=n)):
                cases += [(C, R, n, d <= 12), (C, R, n - 1, d <= 12)]
    pivots = base_drops = 0
    for CW, RW, keep, bitwise in cases:
        want, drops = _fresh_pivot(CW, RW, keep)
        ranks.clear()
        got = mebagg.geometry._pivot(CW, RW, keep)
        assert (got is None) == (want is None)
        assert len(ranks) == 1 + drops
        if got is None:
            continue
        pivots, base_drops = pivots + 1, base_drops + drops
        assert np.array_equal(got[2], want[2])
        if bitwise:
            assert np.array_equal(got[0], want[0]) and got[1] == want[1]
        else:
            eps = np.finfo(float).eps
            assert np.abs(got[0] - want[0]).max() <= 16 * eps * np.abs(want[0]).max()
            assert abs(got[1] - want[1]) <= 16 * eps * want[1]
    assert pivots >= 500 and base_drops >= 10, (pivots, base_drops)


def test_helpers_match_their_numpy_wrapper_forms_bit_for_bit():
    # the helpers call the ufunc reductions directly; the wrapper forms they had
    # (np.linalg.norm, ndarray.max and .min, np.all) are the reference
    def spread_exp(x):
        return int(np.frexp(np.abs(x).max())[1])

    def row_norms(diff):
        e = spread_exp(diff)
        return np.ldexp(np.linalg.norm(np.ldexp(diff, -e), axis=1 if diff.ndim > 1 else None), e)

    def length_tol(tol, pts):
        lo, hi = (pts / 2).min(axis=0), (pts / 2).max(axis=0)
        return 2.0 * (tol * float((hi - lo).max()) + 2.0**-49 * float(np.maximum(hi, -lo).max()))

    def mean(pts):
        e = np.frexp(np.abs(pts).max(axis=0))[1]
        return np.ldexp(np.add.reduce(np.ldexp(pts, -e)) / len(pts), e)

    geo = mebagg.geometry
    rng = np.random.default_rng(29)
    tols = np.array([1e-12, 1e-10, 1e-9, 0.0])
    for trial in range(600):
        n, d = int(rng.integers(1, 12)), int(rng.integers(1, 9))
        pts = rng.normal(size=(n, d)) * 2.0 ** float(rng.choice([-600, 0, 600]))
        if trial % 3 == 1:
            pts[rng.integers(n)] = 0.0
        elif trial % 3 == 2:  # coordinates near the float maximum, with row norms in range
            pts = rng.choice([-1.0, 1.0], size=(n, d)) * rng.uniform(0.9, 1.0, size=(n, d))
            pts *= 1.79e308 / math.sqrt(d)
        assert geo._spread_exp(pts) == spread_exp(pts)
        got, want = geo._row_norms(pts), row_norms(pts)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        got, want = geo._row_norms(pts[0]), row_norms(pts[0])
        assert type(got) is type(want) and got == want
        assert np.array_equal(geo._length_tol(tols, pts), length_tol(tols, pts))
        assert geo._length_tol(1e-9, pts) == length_tol(1e-9, pts)
        assert np.array_equal(geo._mean(pts), mean(pts))
        assert np.array_equal(as_points(pts), pts)
        assert np.array_equal(as_vector(pts[0]), pts[0])
        bad = pts.copy()
        bad[rng.integers(n), rng.integers(d)] = rng.choice([np.nan, np.inf, -np.inf])
        assert not np.all(np.isfinite(bad))
        with pytest.raises(MebaggError, match="finite"):
            as_points(bad)
        with pytest.raises(MebaggError, match="finite"):
            as_vector(bad.ravel())
    # empty input raises what the wrapper forms raise
    empty = np.zeros((0, 3))
    pairs = [(geo._spread_exp, spread_exp), (geo._row_norms, row_norms), (geo._mean, mean),
             (lambda p: geo._length_tol(1e-9, p), lambda p: length_tol(1e-9, p))]
    for new, old in pairs:
        for arg in (empty, np.zeros(0)):
            with pytest.raises(ValueError) as got:
                new(arg)
            with pytest.raises(ValueError) as want:
                old(arg)
            assert str(got.value) == str(want.value)
    for coerce in (as_points, as_vector):
        with pytest.raises(EmptyInputError):
            coerce(empty)


def test_unique_rows_matches_numpy_unique():
    rng = np.random.default_rng(5)
    for _ in range(200):
        d = int(rng.integers(1, 6))
        grid = rng.integers(-2, 3, size=(int(rng.integers(1, 20)), d)).astype(float)
        a = grid[rng.integers(0, len(grid), size=int(rng.integers(1, 41)))]
        a[rng.random(size=a.shape) < 0.2] *= -1.0  # -0.0 and 0.0 merge as np.unique merges them
        rows, first = mebagg.geometry._unique_rows(a)
        expected_rows, expected_first = np.unique(a, axis=0, return_index=True)
        assert np.array_equal(rows, expected_rows)
        assert np.array_equal(first, expected_first)


def _gram_solve_rows(G, b, dims):
    """``_gram_solve`` on fresh (k, k, s) and (k, s) copies of the row-major
    batches G (s, k, k) and b (s, k); it solves in place, so x is the copy of
    b, and comes back (s, k)."""
    rhs = b.T.copy()
    ok, x = mebagg.geometry._gram_solve(G.transpose(1, 2, 0).copy(), rhs, dims)
    assert x is rhs
    return ok, x.T


def _full_rank_rows(G):
    """``_full_rank`` of each matrix of the batch G (s, k, k), one at a time."""
    return np.array([mebagg.geometry._full_rank(g) for g in G], dtype=bool)


def test_gram_solve_matches_full_rank_and_lapack():
    # every other row is singular on purpose: a repeated point, a collinear
    # triple a, a + u, a + 2u, or all points coincident, half of each kind at
    # offset 1e3; dyadic coordinates keep these exactly singular
    rng = np.random.default_rng(11)
    batches = {0: (np.zeros((300, 0, 0)), np.zeros((300, 0)))}
    for k in range(2, 10):
        P = rng.normal(size=(300, k, k + 1))
        for r in range(0, 300, 2):
            a = rng.integers(-8, 9, size=k + 1) / 8 + (1e3 if r % 4 == 0 else 0.0)
            u = rng.integers(1, 9, size=k + 1) / 8
            kind, idx = r // 2 % 3, rng.permutation(k)
            if kind == 0:
                P[r, idx[:2]] = a
            elif kind == 1 and k >= 3:
                P[r, idx[:3]] = a, a + u, a + 2 * u
            else:
                P[r] = a
        V = P[:, 1:] - P[:, :1]
        G = V @ V.transpose(0, 2, 1)
        b = 0.5 * np.einsum("sij,sij->si", V, V)
        batches[k - 1] = G, b
        ok, x = _gram_solve_rows(G, b, np.full(300, k - 1))
        assert np.array_equal(ok, _full_rank_rows(G))
        assert not ok[::2].any() and ok[1::2].all()
        want = np.linalg.solve(G[ok], b[ok][..., None])[..., 0]
        err = np.linalg.norm(x[ok] - want, axis=1) / np.linalg.norm(want, axis=1)
        assert err.max() <= 1e-10, (k, err.max())
        assert np.isfinite(x).all()
    # mixed sizes, sorted by size and padded with identity or zero blocks (the
    # Gram entries of zero vectors, as the support kernel pads): each row's
    # leading block must factor bit for bit as it does unpadded, and its
    # padding must solve to 0
    for trial in range(20):
        dims = np.sort(rng.choice(list(batches), size=int(rng.integers(2, 6)), replace=False))
        take = {g: rng.permutation(300)[: int(rng.choice([1, 2, 37, 300]))] for g in dims}
        K = dims[-1]
        G, b, rows = [], [], []
        for g in dims:
            Gg, bg = batches[g][0][take[g]], batches[g][1][take[g]]
            pad = np.tile(np.eye(K) * (trial % 2), (len(Gg), 1, 1))
            pad[:, :g, :g] = Gg
            G.append(pad)
            b.append(np.pad(bg, ((0, 0), (0, K - g))))
            rows.append(np.full(len(Gg), g))
        ok, x = _gram_solve_rows(np.concatenate(G), np.concatenate(b), np.concatenate(rows))
        at = 0
        for g in dims:
            Gg, bg = batches[g][0][take[g]], batches[g][1][take[g]]
            alone = _gram_solve_rows(Gg, bg, np.full(len(Gg), g))
            assert np.array_equal(ok[at : at + len(Gg)], alone[0])
            assert np.array_equal(ok[at : at + len(Gg)], _full_rank_rows(Gg))
            assert np.array_equal(x[at : at + len(Gg), :g], alone[1])
            assert not x[at : at + len(Gg), g:].any()
            at += len(Gg)
    # G = I + 11^T, the Gram matrix of k vectors at 60 degrees from each other
    # (points on a sphere seen from one of them in high d): its condition number
    # is k + 1, so both must call it nonsingular, also scaled near overflow
    for k in (10, 60):
        G = np.eye(k) + 1.0
        for scale in (1.0, 1e300 / k):
            Gs = np.stack([G * scale] * 3)
            b = 0.5 * np.einsum("sii->si", Gs)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                ok, x = _gram_solve_rows(Gs, b, np.full(3, k))
                assert ok.all() and _full_rank_rows(Gs).all()
            want = np.linalg.solve(Gs, b[..., None])[..., 0]
            assert np.abs(x - want).max() <= 1e-13 * np.abs(want).max(), (k, scale)


def test_meb_is_bit_identical_under_row_permutations():
    rng = np.random.default_rng(6)
    for _ in range(20):
        base = rng.normal(size=(int(rng.integers(2, 8)), 3))
        pts = base[rng.integers(0, len(base), size=12)]
        ball = meb(pts)
        for _ in range(5):
            other = meb(pts[rng.permutation(len(pts))])
            assert np.array_equal(other.center, ball.center)
            assert other.radius == ball.radius


def test_geometry_imports_no_higher_layer():
    # the shared solver kernel lives in geometry, below the modules using it
    tree = ast.parse(Path(mebagg.geometry.__file__).read_text())
    higher = {"aggregate", "validity", "oracle", "scenarios"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        for name in names:
            assert not higher & set(name.split(".")), ast.unparse(node)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(-50, 50, allow_nan=False, allow_infinity=False),
            st.floats(-50, 50, allow_nan=False, allow_infinity=False),
        ),
        min_size=1,
        max_size=10,
    )
)
def test_meb_radius_diameter_sandwich(points):
    pts = np.array(points, dtype=float)
    ball = meb(pts)
    diam = diameter(pts)
    assert ball.radius <= diam + 1e-9 * (1 + diam)
    assert diam <= 2 * ball.radius + 1e-9 * (1 + diam)


# ---------------------------------------------------------------------------
# diameter / distances


def test_diameter_examples():
    assert diameter([(0.0, 0.0)]) == 0.0
    assert math.isclose(diameter([(0, 0), (3, 4)]), 5.0, rel_tol=1e-12)
    assert math.isclose(diameter([(0, 0), (1, 0), (0, 1)]), math.sqrt(2), rel_tol=1e-12)


@pytest.mark.parametrize("scale", [2.0**700, 2.0**-700], ids=["2**700", "2**-700"])
def test_diameter_is_scale_equivariant(scale, rng):
    # raw squared differences overflow (or vanish) at these scales
    pts = rng.normal(size=(9, 3))
    assert diameter(pts * scale) == diameter(pts) * scale


def test_dist_to_ball_examples():
    assert dist_to_ball((0, 0), Ball(np.array([0.0, 0.0]), 1.0)) == 0.0
    assert math.isclose(dist_to_ball((3, 0), Ball(np.array([0.0, 0.0]), 1.0)), 2.0)
    gap = dist_to_ball((1, 1), Ball(np.array([3.0, 0.0]), 1.0))
    assert math.isclose(gap, math.sqrt(5) - 1, rel_tol=1e-12)


def test_dist_to_hull_on_segment():
    assert dist_to_hull((0.5, 0.0), [(0, 0), (1, 0)]) <= 1e-9


def test_dist_to_hull_off_segment():
    assert math.isclose(dist_to_hull((0, 1), [(0, 0), (1, 0)]), 1.0, rel_tol=1e-9)


def test_dist_to_hull_triangle_facet():
    # projection of (2,2) onto the facet x+y=1 lands at (0.5, 0.5), so the
    # distance is 3/sqrt(2); dense convex-combination sampling agrees
    expected = 3 / math.sqrt(2)
    got = dist_to_hull((2, 2), [(0, 0), (1, 0), (0, 1)])
    assert math.isclose(got, expected, rel_tol=1e-7)
    rng = np.random.default_rng(7)
    pts = np.array([(0, 0), (1, 0), (0, 1)], dtype=float)
    w = rng.dirichlet(np.ones(3), size=20000)
    samples = w @ pts
    sampled_min = np.min(np.linalg.norm(samples - np.array([2.0, 2.0]), axis=1))
    assert got <= sampled_min + 1e-6


def test_dist_to_hull_inside_hull_is_zero(rng):
    pts = random_cloud(rng, 7, 3)
    for _ in range(10):
        w = rng.dirichlet(np.ones(7))
        assert dist_to_hull(w @ pts, pts) <= 1e-7


def test_dist_to_hull_inside_a_simplex(rng):
    # y inside a simplex of at most d+1 points: the corral must take every
    # vertex, and the witness is y up to rounding
    inst = random_instance(15, 6, 8, seed=0)
    honest = inst.points.honest_points()
    y = mda(inst.points.points, 6).output
    dist, witness = dist_to_hull(y, honest, return_witness=True)
    assert dist <= 1e-9
    assert np.linalg.norm(witness - y) == dist
    for d in range(1, 9):
        pts = random_cloud(rng, d + 1, d)
        y = rng.dirichlet(np.ones(d + 1)) @ pts
        assert dist_to_hull(y, pts) <= 1e-9
    # repeated vertices leave the hull a simplex
    tri = [[1.336, -0.556], [0.788, -0.003], [-0.701, 1.338]]
    assert dist_to_hull([0.5159, 0.2335], np.repeat(tri, 2, axis=0)) <= 1e-9


def test_hull_distance_never_exceeded_by_ball_distance(rng):
    # hull sits inside the enclosing ball
    for _ in range(25):
        pts = random_cloud(rng, int(rng.integers(2, 9)), int(rng.integers(1, 4)))
        y = rng.normal(size=pts.shape[1]) * 3
        assert dist_to_ball(y, meb(pts)) <= dist_to_hull(y, pts) + 1e-6


def test_dist_to_hull_empty_error():
    with pytest.raises(EmptyInputError):
        dist_to_hull((0, 0), [])


def test_dist_to_hull_iteration_cap():
    from mebagg import NonConvergenceError

    # nearest hull point is interior to the face: two major cycles add the
    # other two vertices, and a third confirms the optimum
    pts = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]
    for max_iter in (1, 2):
        with pytest.raises(NonConvergenceError):
            dist_to_hull((2.0, 2.0, 2.0), pts, max_iter=max_iter)
    assert math.isclose(dist_to_hull((2.0, 2.0, 2.0), pts, max_iter=3), 5 / math.sqrt(3))
    # a geometric-median output 0.12 from the hull of 8 points in d = 8,
    # where pairwise Frank-Wolfe ran out of its iterations
    inst = random_instance(10, 2, 8, seed=594099398, strategy="cluster")
    y = geometric_median(inst.points.points, 2).output
    assert math.isclose(dist_to_hull(y, inst.points.honest_points()), 0.119558, abs_tol=1e-6)


def test_dist_to_hull_stops_when_rounding_stalls():
    # 35 lattice points of a 3-plane in R^12 and y far off it: at the
    # optimum the best point's gain is a hair above the rounding floor, and
    # each major cycle would give back the same x until the cap
    rng = np.random.default_rng(10582)
    n, k = int(rng.integers(10, 40)), int(rng.integers(2, 5))
    basis = rng.normal(size=(k, 12))
    pts = rng.integers(-2, 3, size=(n, k)) @ basis
    spread = np.abs(pts - pts.mean(axis=0)).max() + 1.0
    y = pts.mean(axis=0) + spread * rng.normal(size=12) * rng.choice([0.1, 0.3, 1, 3, 100])
    dist, x = dist_to_hull(y, pts, return_witness=True)
    scale = float(np.linalg.norm(pts - y, axis=1).max())
    assert ((pts - x) @ (y - x)).max() <= 1e-12 * scale**2
    assert math.isclose(dist, 62.83574147582559, rel_tol=1e-12)


def _all_faces_dist(y, pts):
    """Exhaustive hull distance: y projected onto aff(S) for every affinely
    independent S of at most d+1 points, the nearest projection with
    non-negative weights."""
    n, d = pts.shape
    best = math.inf
    for k in range(1, min(n, d + 1) + 1):
        for S in itertools.combinations(range(n), k):
            V = pts[list(S[1:])] - pts[S[0]]
            if k > 1 and np.linalg.matrix_rank(V) < k - 1:
                continue
            beta = np.linalg.solve(V @ V.T, V @ (y - pts[S[0]])) if k > 1 else np.zeros(0)
            if beta.min(initial=0.0) >= -1e-12 and beta.sum() <= 1.0 + 1e-12:
                best = min(best, float(np.linalg.norm(pts[S[0]] + beta @ V - y)))
    return best


@pytest.mark.parametrize("d", range(1, 13))
def test_dist_to_hull_optimality_certificate_any_dimension(d):
    # a hull point x is the nearest one iff <y - x, p - x> <= 0 for every
    # point p; on small sets the all-faces oracle also checks the distance
    # and that x lies in the hull
    rng = np.random.default_rng(700 + d)
    for layout in ("generic", "collinear", "repeated", "offset"):
        for inside in (False, True):
            for _ in range(3):
                n = int(rng.integers(2, 13))
                pts = rng.normal(size=(n, d))
                if layout == "collinear":
                    pts = np.outer(rng.normal(size=n), rng.normal(size=d)) + rng.normal(size=d)
                elif layout == "repeated":
                    pts = pts[rng.integers(0, max(2, n // 3), size=n)]
                elif layout == "offset":
                    pts += 1e3
                if inside:
                    y = rng.dirichlet(np.ones(n)) @ pts
                else:
                    y = pts.mean(axis=0) + 2.0 * rng.normal(size=d)
                scale = float(np.linalg.norm(pts - y, axis=1).max())
                dist, x = dist_to_hull(y, pts, return_witness=True)
                assert dist == np.linalg.norm(x - y)
                assert ((pts - x) @ (y - x)).max() <= 1e-12 * scale**2
                if n <= 8:
                    assert abs(dist - _all_faces_dist(y, pts)) <= 1e-12 * scale
                    assert _all_faces_dist(x, pts) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# trusted box


def test_trusted_box_examples():
    box = trusted_box([(0, 0), (0, 1)])
    assert np.allclose(box.lo, [0, 0]) and np.allclose(box.hi, [0, 1])
    box = trusted_box([(1, 2)])
    assert np.allclose(box.lo, [1, 2]) and np.allclose(box.hi, [1, 2])
    box = trusted_box([(0, 3), (2, 1)])
    assert np.allclose(box.lo, [0, 1]) and np.allclose(box.hi, [2, 3])


# ---------------------------------------------------------------------------
# tangent-ball bend arithmetic


def soddy_identity_gap(bends, k, result):
    s = sum(bends) + result
    q = sum(b * b for b in bends) + result * result
    return abs(s * s - k * q)


def test_soddy_three_unit_circles():
    bend = soddy_inner_bend([1.0, 1.0, 1.0], 2)
    assert math.isclose(bend, 3 + 2 * math.sqrt(3), rel_tol=1e-12)
    assert math.isclose(1 / bend, 0.1547005, abs_tol=1e-7)
    assert soddy_identity_gap([1, 1, 1], 2, bend) < 1e-9


def test_soddy_matches_equal_radius_closed_form():
    for k in (2, 3, 4, 7):
        bend = soddy_inner_bend([1.0] * (k + 1), k)
        radius = (k - 1) / (k + 1 + math.sqrt(2 * (k + 1) * k))
        assert math.isclose(1 / bend, radius, rel_tol=1e-12)
        assert soddy_identity_gap([1.0] * (k + 1), k, bend) < 1e-9


def test_soddy_k1_degenerate_returns_linear_root():
    # the quadratic collapses at k=1; its surviving root still satisfies the
    # bend identity (s^2 = k*q)
    bend = soddy_inner_bend([1.0, 1.0], 1)
    assert math.isclose(bend, -0.5, rel_tol=1e-12)
    assert soddy_identity_gap([1.0, 1.0], 1, bend) < 1e-12


def test_soddy_outer_root():
    inner = soddy_inner_bend([1.0, 1.0, 1.0], 2)
    outer = soddy_inner_bend([1.0, 1.0, 1.0], 2, root="outer")
    assert outer < inner
    assert math.isclose(outer, 3 - 2 * math.sqrt(3), rel_tol=1e-12)
    assert soddy_identity_gap([1, 1, 1], 2, outer) < 1e-9


def test_soddy_monotone_in_equal_bends():
    bends = [soddy_inner_bend([b] * 3, 2) for b in (0.25, 0.5, 1.0, 2.0)]
    assert bends == sorted(bends)


def test_soddy_invalid_configuration():
    with pytest.raises(InvalidTangentConfigurationError):
        soddy_inner_bend([1.0, 1.0, 1.0, 100.0], 3)


def test_soddy_argument_validation():
    with pytest.raises(DimensionMismatchError):
        soddy_inner_bend([1.0, 1.0], 2)
    with pytest.raises(MebaggError):
        soddy_inner_bend([1.0, -1.0, 1.0], 2)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=5),
    st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
)
def test_soddy_identity_property(k, b):
    bend = soddy_inner_bend([b] * (k + 1), k)
    assert soddy_identity_gap([b] * (k + 1), k, bend) < 1e-6 * (1 + bend * bend)


def test_dist_to_hull_tight_tol_on_segment():
    # a gap below its own rounding level must not run out the iterations
    rng = np.random.default_rng(17)
    for d in range(2, 9):
        for _ in range(20):
            pts = rng.normal(size=(2, d))
            y = pts[0] + rng.random() * (pts[1] - pts[0])
            assert dist_to_hull(y, pts) <= 1e-12
