import itertools
import math

import numpy as np
import pytest

from mebagg import (
    Ball,
    CandidateBalls,
    ConflictingZeroRadiusError,
    DimensionMismatchError,
    InvalidFaultBudgetError,
    PointSet,
    ResilienceViolationError,
    TooManySubsetsError,
    candidate_balls,
    candidate_balls_bruteforce,
    coordwise_median,
    dist_to_hull,
    geometric_median,
    lower_bound_construction,
    mda,
    mean_aggregate,
    medoid,
    medoid_counterexample,
    minmax_meb,
    random_instance,
    run_rule,
    solve_minmax,
    tangent_unit_balls,
    worst_designation,
)
from mebagg import aggregate
from mebagg.aggregate import _ball_keys
from mebagg.geometry import _spread_exp
from conftest import random_cloud, random_rotation

# ---------------------------------------------------------------------------
# minimum-diameter averaging


def test_mda_drops_the_outlier():
    pts = [(0.0, 0.0), (0.1, 0.0), (0.0, 0.1), (10.0, 10.0)]
    # C(4,3) subsets: only {0,1,2} avoids the far point; its diameter
    # 0.1*sqrt(2) beats any subset containing (10,10)
    result = mda(pts, 1)
    assert result.chosen_subset == (0, 1, 2)
    assert np.allclose(result.output, [0.1 / 3, 0.1 / 3], atol=1e-12)


def test_mda_t0_is_mean():
    pts = np.array([(0.0, 1.0), (2.0, 3.0), (4.0, -1.0)])
    result = mda(pts, 0)
    assert np.allclose(result.output, pts.mean(axis=0), atol=1e-12)


def test_mda_zero_diameter_pair():
    result = mda([(0.0, 0.0), (0.0, 0.0), (5.0, 5.0)], 1)
    assert np.allclose(result.output, [0, 0], atol=1e-12)
    assert result.chosen_subset == (0, 1)


def test_mda_chunks_match_bruteforce(monkeypatch):
    # integer grids tie many diameters exactly; a tiny chunk budget puts
    # those ties across chunk boundaries, where the first subset must win
    monkeypatch.setattr(aggregate, "_CHUNK_ELEMS", 5)
    rng = np.random.default_rng(31)
    for _ in range(60):
        n = int(rng.integers(3, 10))
        t = int(rng.integers(0, n - 1))
        pts = rng.integers(0, 3, size=(n, 2)).astype(float)
        expected = min(
            itertools.combinations(range(n), n - t),
            key=lambda S: max((math.dist(pts[i], pts[j]) for i, j in itertools.combinations(S, 2)),
                              default=0.0),
        )
        assert mda(pts, t).chosen_subset == expected
    # every diameter overflows to inf: the lex-first subset still wins
    with np.errstate(over="ignore"):
        assert mda([(-1e308,), (1e308,), (0.0,)], 0).chosen_subset == (0, 1, 2)


def _mda_bruteforce(pts, t):
    """The lex-first size-(n-t) subset of smallest diameter, over every subset."""
    return min(
        itertools.combinations(range(len(pts)), len(pts) - t),
        key=lambda S: max((math.dist(pts[i], pts[j]) for i, j in itertools.combinations(S, 2)),
                          default=0.0),
    )


@pytest.mark.parametrize("chunk_elems", [aggregate._CHUNK_ELEMS, 5], ids=["default", "tiny"])
def test_mda_pruned_walk_matches_bruteforce(chunk_elems, monkeypatch):
    monkeypatch.setattr(aggregate, "_CHUNK_ELEMS", chunk_elems)
    rng = np.random.default_rng(17)
    cases = []
    for _ in range(40):
        n = int(rng.integers(3, 11))
        t = int(rng.integers(0, n - 1))
        # integer grids tie many diameters, and the lex-first subset must win
        cases.append((rng.integers(0, 3, size=(n, 2)).astype(float), t))
        # a far Byzantine cluster: peeling removes it before the walk
        b = int(rng.integers(1, max(2, n // 2)))
        honest = rng.normal(size=(n - b, 3))
        cases.append((np.vstack([honest, 50.0 + 0.1 * rng.normal(size=(b, 3))]), min(t, n - 2)))
    # all points equal: every subset ties and peeling removes nothing
    cases += [(np.zeros((9, 2)), t) for t in range(8)]
    for pts, t in cases:
        assert mda(pts, t).chosen_subset == _mda_bruteforce(pts, t)


def test_mda_walks_only_the_core(monkeypatch):
    walked = []
    index_chunks = aggregate._index_chunks

    def counting(*args):
        for chunk in index_chunks(*args):
            walked.append(len(chunk))
            yield chunk

    monkeypatch.setattr(aggregate, "_index_chunks", counting)
    # the walk over all C(20, 13) = 77 520 subsets finds 1 in the core
    inst = random_instance(20, 7, 2, seed=0, strategy="cluster")
    mda(inst.points.points, 7)
    assert 0 < sum(walked) <= 20
    # nothing can be pruned when every diameter ties
    walked.clear()
    assert mda(np.zeros((12, 2)), 4).chosen_subset == tuple(range(8))
    assert sum(walked) == math.comb(12, 8)


def test_mda_budget_errors():
    with pytest.raises(InvalidFaultBudgetError):
        mda([(0.0,), (1.0,)], 2)
    with pytest.raises(TooManySubsetsError):
        mda(np.zeros((30, 1)), 15, max_subsets=1000)


@pytest.mark.parametrize("scale", [1e200, 1e-200, 1e-300])
def test_mda_choice_is_scale_invariant(scale):
    # raw squared differences overflow (or vanish) here and every diameter
    # would tie; the unit-scale choice must stand
    pts = np.array([(10.0, 10.0), (0.0, 0.0), (0.1, 0.0), (0.0, 0.1)])
    assert mda(pts, 1).chosen_subset == (1, 2, 3)
    result = mda(pts * scale, 1)
    assert result.chosen_subset == (1, 2, 3)
    assert np.array_equal(result.output, (pts * scale)[1:].mean(axis=0))


# ---------------------------------------------------------------------------
# medoid


def test_medoid_example_sums():
    # distance sums are 11, 10, 19; the middle point wins
    pts = np.array([(0.0, 0.0), (1.0, 0.0), (10.0, 0.0)])
    sums = np.linalg.norm(pts[:, None] - pts[None, :], axis=2).sum(axis=1)
    assert np.allclose(sums, [11.0, 10.0, 19.0])
    result = medoid(pts)
    assert np.allclose(result.output, [1, 0])
    assert result.chosen_index == 1


@pytest.mark.parametrize("scale", [1e200, 1e-200, 1e-300])
def test_medoid_choice_is_scale_invariant(scale):
    pts = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.2, 0.1), (50.0, 50.0)])
    assert medoid(pts, 1).chosen_index == 3
    result = medoid(pts * scale, 1)
    assert result.chosen_index == 3
    assert np.array_equal(result.output, pts[3] * scale)


def test_medoid_singleton():
    result = medoid([(0.0, 0.0)])
    assert np.allclose(result.output, [0, 0])


def test_medoid_counterexample_small_t_middle_wins():
    # at t=8 the middle pair still has the smallest distance sum:
    # S_E = 22 + 8*sqrt(2) beats S_B = 8 + 5*sqrt(2) + 3*sqrt(10) + sqrt(82)
    s_e = 22 + 8 * math.sqrt(2)
    s_b = 8 + 5 * math.sqrt(2) + 3 * math.sqrt(10) + math.sqrt(82)
    assert s_e < s_b
    inst = medoid_counterexample(8, 10.0)
    result = medoid(inst.points)
    assert np.allclose(result.output, [2.0, 0.0])
    realized = np.linalg.norm(inst.points.points - result.output, axis=1).sum()
    assert math.isclose(realized, s_e, rel_tol=1e-12)


def test_medoid_counterexample_large_t_top_cluster_wins():
    # the cluster weights cross over by t=12 and the medoid moves to a top
    # cluster, realizing the sqrt(5) gap to the hostile designation ball
    inst = medoid_counterexample(12, 10.0)
    result = medoid(inst.points)
    assert any(
        np.allclose(result.output, e) for e in ([1.0, 1.0], [3.0, 1.0])
    )
    hostile = "ECD" if result.output[0] <= 2 else "ABE"
    dist = np.linalg.norm(result.output - inst.balls[hostile].center)
    assert math.isclose(dist, math.sqrt(5), rel_tol=1e-12)


# ---------------------------------------------------------------------------
# geometric median


def test_gm_two_points_midpoint_convention():
    result = geometric_median([(0.0, 0.0), (2.0, 0.0)])
    assert np.allclose(result.output, [1, 0], atol=1e-9)


def test_gm_square_symmetry():
    result = geometric_median([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert np.allclose(result.output, [0.5, 0.5], atol=1e-8)


def test_gm_triangle_clusters_hit_balance_point():
    # equal-multiplicity clusters at (1,1), (3,1), (2,0): the minimizer is
    # the point seeing each pair under 120 degrees, (2, 1 - 1/sqrt(3))
    pts = np.array([(1.0, 1.0)] * 5 + [(3.0, 1.0)] * 5 + [(2.0, 0.0)] * 5)
    result = geometric_median(pts)
    assert np.allclose(result.output, [2.0, 1 - 1 / math.sqrt(3)], atol=1e-7)


def test_gm_collinear_even_count_midpoint():
    # optimal set is the segment [0,1]; the midpoint convention picks 0.5
    result = geometric_median([(0.0, 0.0), (0.0, 0.0), (1.0, 0.0), (3.0, 0.0)])
    assert np.allclose(result.output, [0.5, 0.0], atol=1e-12)


def test_gm_subgradient_norm_small(rng):
    smooth_checked = 0
    for _ in range(20):
        pts = random_cloud(rng, int(rng.integers(3, 12)), int(rng.integers(2, 4)))
        out = geometric_median(pts).output
        d = np.linalg.norm(pts - out, axis=1)
        if np.any(d <= 1e-12):
            # vertex optimum: the data-point subgradient condition applies
            here = d <= 1e-12
            resid = ((out - pts[~here]) / d[~here, None]).sum(axis=0)
            assert np.linalg.norm(resid) <= here.sum() + 1e-9
            continue
        grad = ((out - pts) / d[:, None]).sum(axis=0)
        assert np.linalg.norm(grad) <= 1e-6 * len(pts)
        smooth_checked += 1
    assert smooth_checked >= 5


def test_gm_data_point_optimum():
    # heavy cluster pins the optimum at an input point
    pts = np.array([(0.0, 0.0)] * 6 + [(1.0, 1.0), (-1.0, 2.0)])
    result = geometric_median(pts)
    assert np.allclose(result.output, [0, 0], atol=1e-8)


@pytest.mark.parametrize(
    "n, t, seed, strategy", [(4, 1, 794, "cluster"), (11, 3, 357, "uniform-far")]
)
def test_gm_settles_beside_a_non_optimal_vertex(n, t, seed, strategy):
    # Weiszfeld settles about 1.4e-5 from a data point that is not optimal;
    # stepping off that vertex on every settle used to cycle until max_iter
    pts = random_instance(n, t, 2, seed=seed, strategy=strategy).points.points
    out = geometric_median(pts).output

    def cost(y):
        return float(np.linalg.norm(pts - y, axis=1).sum())

    angles = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
    steps = np.column_stack([np.cos(angles), np.sin(angles)])
    for h in (1e-3, 1e-5, 1e-7):
        assert cost(out) <= min(cost(out + h * s) for s in steps) + 1e-8


def test_gm_iteration_cap_raises():
    from mebagg import NonConvergenceError

    pts = np.array([(0.0, 0.0), (3.0, 1.0), (1.0, 4.0), (-2.0, 2.0)])
    with pytest.raises(NonConvergenceError):
        geometric_median(pts, max_iter=2, tol=1e-15)


# ---------------------------------------------------------------------------
# coordinate-wise median / mean


def test_coordwise_median_examples():
    assert np.allclose(coordwise_median([(0, 0), (1, 0), (0, 1)]).output, [0, 0])
    assert np.allclose(coordwise_median([(0.0,), (2.0,)]).output, [1.0])
    assert np.allclose(coordwise_median([(1, 5), (3, 1), (2, 9)]).output, [2, 5])


def test_mean_aggregate():
    assert np.allclose(mean_aggregate([(0, 0), (2, 4)]).output, [1, 2])


# ---------------------------------------------------------------------------
# candidate balls


def test_candidate_balls_interval_instance():
    balls = candidate_balls(np.array([[0.0], [1.0], [10.0]]), 1)
    got = {
        tuple(sub): (float(b.center[0]), b.radius)
        for sub, b in zip(balls.subsets, balls.balls)
    }
    assert got[(0, 1)] == pytest.approx((0.5, 0.5))
    assert got[(0, 2)] == pytest.approx((5.0, 5.0))
    assert got[(1, 2)] == pytest.approx((5.5, 4.5))


def test_candidate_balls_t0_single():
    pts = random_cloud(np.random.default_rng(3), 6, 2)
    balls = candidate_balls(pts, 0)
    assert len(balls) == 1
    from mebagg import meb

    ball = meb(pts)
    assert np.allclose(balls.balls[0].center, ball.center, atol=1e-9)


def _distinct_keys(balls, pts):
    """The distinct (center - mean of pts, radius) rows, keyed as
    candidate_balls keys them: in a power-of-two unit of the points' spread."""
    origin = pts.mean(axis=0)
    e = _spread_exp(pts - origin)
    keys = _ball_keys(np.ldexp(balls.centers() - origin, -e), np.ldexp(balls.radii(), -e))
    return np.ldexp(np.unique(keys, axis=0), e)


def test_candidate_balls_count():
    pts = random_cloud(np.random.default_rng(4), 5, 2)
    reference = candidate_balls_bruteforce(pts, 2)
    assert len(reference) == 10
    assert len(candidate_balls(pts, 2)) == len(_distinct_keys(reference, pts))


def _agreement_cases():
    shapes = [(6, 2, 1), (9, 3, 2), (12, 4, 3), (10, 2, 5), (20, 2, 3), (14, 2, 8), (20, 1, 8)]
    for n, t, d in shapes:
        pts = random_instance(n, t, d, seed=n + d).points.points
        yield pytest.param(pts, t, id=f"random-{n}-{t}-{d}")
    for d, t in [(2, 3), (3, 3), (3, 4)]:
        pts = lower_bound_construction(d, t).points.points
        yield pytest.param(pts, t, id=f"lower-bound-{d}-{t}")
    yield pytest.param(medoid_counterexample(4, 10.0).points.points, 4, id="medoid-ce-4")
    rng = np.random.default_rng(41)
    # integer grids repeat points, so several subsets share one ball
    yield pytest.param(rng.integers(0, 3, size=(10, 2)).astype(float), 3, id="grid-2d")
    yield pytest.param(rng.integers(0, 2, size=(12, 3)).astype(float), 4, id="grid-3d")
    # each tripled point is a zero-radius candidate, which the Gram expansion
    # of the distances misses for these seeds
    for seed in (0, 1):
        tripled = np.repeat(np.random.default_rng(seed).normal(size=(3, 3)), 3, axis=0)
        yield pytest.param(tripled, 6, id=f"tripled-{seed}")
    # few subsets next to the supports: the subset enumeration by default
    for n, t, d in [(40, 1, 3), (25, 0, 4)]:
        pts = random_instance(n, max(t, 1), d, seed=n + d).points.points
        yield pytest.param(pts, t, id=f"random-{n}-{t}-{d}")


# a zero meb cost takes the subset enumeration, an infinite one the supports
@pytest.mark.parametrize("meb_cost", [0, math.inf], ids=["subsets", "supports"])
@pytest.mark.parametrize("pts,t", list(_agreement_cases()))
def test_candidate_balls_agree_with_subset_oracle(pts, t, meb_cost, monkeypatch):
    from mebagg import meb

    monkeypatch.setattr(aggregate, "_MEB_COST_IN_SUPPORTS", meb_cost)
    balls = candidate_balls(pts, t)
    reference = candidate_balls_bruteforce(pts, t)
    got, want = _distinct_keys(balls, pts), _distinct_keys(reference, pts)
    assert len(balls) == len(got) == len(want)
    assert np.allclose(got, want, rtol=1e-9, atol=1e-9)
    assert list(balls.subsets) == sorted(balls.subsets)
    ref_centers, ref_radii = reference.centers(), reference.radii()
    for sub, ball in zip(balls.subsets, balls.balls):
        direct = meb(pts[list(sub)])
        assert math.isclose(ball.radius, direct.radius, rel_tol=1e-9, abs_tol=1e-12)
        assert np.allclose(ball.center, direct.center, atol=1e-9)
        # the witness is the first subset, in lexicographic order, with this MEB
        same = np.all(np.abs(ref_centers - ball.center) <= 1e-9, axis=1) & np.isclose(
            ref_radii, ball.radius, rtol=1e-9, atol=1e-12
        )
        assert same.any() and sub == reference.subsets[int(np.argmax(same))]
    # a generic y, so distinct balls do not tie on the worst ratio
    y = pts.mean(axis=0) + np.random.default_rng(5).normal(size=pts.shape[1]) * pts.std()
    factor, witness = worst_designation(pts, t, y, balls=balls)
    ref_factor, ref_witness = worst_designation(pts, t, y, balls=reference)
    assert math.isclose(factor, ref_factor, rel_tol=1e-10)
    assert witness == ref_witness


def test_candidate_balls_at_extreme_scales():
    # squared differences of coordinates near 1e300 overflow unless scaled
    layout = np.array([(1.0, 0.0), (1.5, 0.0), (1.2, 0.1)])
    assert len(candidate_balls(layout * 1e300, 1)) == len(candidate_balls(layout, 1)) == 3
    # at 1e-13 absolute 12-decimal keys would merge all 7 balls into one
    pts = np.random.default_rng(0).normal(size=(6, 2))
    unit = candidate_balls(pts, 2)
    tiny = candidate_balls(pts * 1e-13, 2)
    assert len(unit) == len(tiny) == 7 and tiny.subsets == unit.subsets
    assert np.allclose(tiny.centers() / 1e-13, unit.centers(), rtol=1e-9, atol=0)
    assert np.allclose(tiny.radii() / 1e-13, unit.radii(), rtol=1e-9, atol=0)
    y_unit = minmax_meb(pts, 2).output
    assert np.allclose(minmax_meb(pts * 1e-13, 2).output / 1e-13, y_unit, rtol=1e-9, atol=0)


def test_candidate_balls_cap_counts_support_sets():
    # C(40, 25) is about 4e10 subsets, but only 10 700 supports of <= 3 points
    pts = random_cloud(np.random.default_rng(40), 40, 2)
    balls = candidate_balls(pts, 15)
    assert len(balls) > 0
    assert all(len(sub) == 25 for sub in balls.subsets)


def test_candidate_balls_small_t_enumerates_subsets():
    from mebagg import meb

    # t = 0 has a single subset but about 3.4e8 supports of <= 4 points
    pts = random_cloud(np.random.default_rng(41), 300, 3)
    balls = candidate_balls(pts, 0)
    assert len(balls) == 1 and balls.subsets == (tuple(range(300)),)
    direct = meb(pts)
    assert math.isclose(balls.balls[0].radius, direct.radius, rel_tol=1e-12)
    # 40 subsets fit under a cap that the 10 700 supports exceed
    pts = random_cloud(np.random.default_rng(42), 40, 2)
    assert len(candidate_balls(pts, 1, max_subsets=100)) > 0


def test_candidate_balls_fast_path_matches_direct_meb(rng):
    from mebagg import meb

    for _ in range(15):
        n = int(rng.integers(4, 10))
        d = int(rng.integers(1, 5))
        t = int(rng.integers(1, n))
        pts = random_cloud(rng, n, d)
        balls = candidate_balls(pts, t)
        for sub, ball in zip(balls.subsets, balls.balls):
            direct = meb(pts[list(sub)])
            assert math.isclose(ball.radius, direct.radius, rel_tol=1e-9, abs_tol=1e-12)
            assert np.allclose(ball.center, direct.center, atol=1e-7)


def test_candidate_balls_errors():
    with pytest.raises(InvalidFaultBudgetError):
        candidate_balls([(0.0,), (1.0,)], 2)
    with pytest.raises(TooManySubsetsError):
        candidate_balls(np.zeros((40, 1)), 20, max_subsets=100)


# ---------------------------------------------------------------------------
# minmax rule


def test_minmax_identical_points_zero_radius_branch():
    result = minmax_meb(np.array([[2.0, 3.0]] * 5), 2)
    assert np.allclose(result.output, [2, 3])
    assert result.achieved_value == 0.0


def test_minmax_interval_instance():
    result = minmax_meb(np.array([[0.0], [1.0], [10.0]]), 1)
    assert abs(result.output[0] - 1.0) <= 1e-7
    assert result.achieved_value <= 1e-9


def test_minmax_resilience_flag():
    pts = np.array([[0.0], [1.0], [2.0], [3.0]])
    with pytest.raises(ResilienceViolationError):
        minmax_meb(pts, 2)
    result = minmax_meb(pts, 2, allow_low_resilience=True)
    assert result.output.shape == (1,)


def test_minmax_conflicting_zero_radius():
    pts = np.array([[0.0]] * 3 + [[5.0]] * 3)
    with pytest.raises(ConflictingZeroRadiusError):
        minmax_meb(pts, 3, allow_low_resilience=True)
    _, value = solve_minmax(candidate_balls(pts, 3))
    assert value == math.inf


def test_minmax_zero_radius_candidate_is_returned():
    # three of five points coincide, so one candidate ball has radius 0
    pts = np.array([[1000.0, 5.0]] * 3 + [[1001.0, 5.0], [1000.0, 7.0]])
    balls = candidate_balls(pts, 2)
    result = minmax_meb(pts, 2, balls=balls)
    assert np.array_equal(result.output, [1000.0, 5.0])
    assert result.achieved_value == 0.0
    assert worst_designation(pts, 2, result.output, balls=balls)[0] <= 1.0


def test_ratios_zero_radius_rule():
    cb = CandidateBalls.from_balls([Ball([1000.0, 0.0], 0.0), Ball([1002.0, 0.0], 4.0)])
    # the miss tolerance is 1e-9 * (1 + 1002) about the zero-radius center
    near = cb.ratios([1000.0 + 1e-7, 0.0])
    assert near[0] == 0.0 and math.isclose(near[1], (2.0 - 1e-7) / 4.0, rel_tol=1e-12)
    assert cb.ratios([1000.0 + 1e-5, 0.0])[0] == math.inf
    assert CandidateBalls.from_balls(cb) is cb


def test_minmax_at_large_scale_matches_unit_scale():
    # the ratios take their distances in a power-of-two unit, so the squares
    # do not overflow to inf and pass for missed zero-radius balls
    pts = np.random.default_rng(0).normal(size=(6, 2))
    unit = minmax_meb(pts, 2)
    big = minmax_meb(pts * 1e250, 2)
    assert np.allclose(big.output / 1e250, unit.output, rtol=0, atol=1e-14)
    assert big.achieved_value == unit.achieved_value
    cb = candidate_balls(pts * 1e250, 2)
    assert np.isfinite(cb.ratios(big.output)).all()


def test_solve_minmax_tangent_balls_inner_value():
    # k=2: 1/(3 + 2*sqrt(3)); k=3: 2/(4 + sqrt(24))
    for k in (2, 3, 4, 5):
        y, value = solve_minmax(tangent_unit_balls(k))
        assert abs(value - (k - 1) / (k + 1 + math.sqrt(2 * (k + 1) * k))) <= 1e-9
        assert np.linalg.norm(y) <= 1e-6  # optimum at the simplex centroid


def _assert_minmax_certificate(balls, y, value):
    """The returned value is g(y), and 0 lies in the subdifferential of g at
    y, which holds exactly when y is in the hull of the tight centers."""
    C, R = balls.centers(), balls.radii()
    ratios = np.linalg.norm(C - y, axis=1) / R
    assert abs(ratios.max() - 1.0 - value) <= 1e-12 * (1.0 + ratios.max())
    # a tiny ball's ratio carries rounding of order eps * max(R)/min(R)
    tight = ratios >= ratios.max() * (1.0 - 1e-9 - 1e-11 * R.max() / R.min())
    assert dist_to_hull(y, C[tight]) <= 1e-7


@pytest.mark.parametrize("d", range(1, 9))
def test_solve_minmax_optimality_certificate_any_dimension(d):
    # the grid oracle stops at d = 3; the subgradient certificate does not
    rng = np.random.default_rng(700 + d)
    for layout in ("generic", "coincident", "collinear", "tiny"):
        for _ in range(6):
            b = int(rng.integers(3, 25))
            centers = rng.normal(size=(b, d)) * 2
            radii = rng.uniform(0.05, 2.0, size=b)
            if layout == "coincident":
                centers = centers[rng.integers(0, b // 3, size=b)]
            elif layout == "collinear":
                centers = np.outer(rng.normal(size=b), rng.normal(size=d))
            elif layout == "tiny":
                # a radius-1e-9 ball beside the segment between two others
                centers[0] = centers[1:3].mean(axis=0) + 1e-10 * rng.normal(size=d)
                radii[0] = 1e-9
            balls = CandidateBalls.from_balls(
                Ball(c, float(r)) for c, r in zip(centers, radii)
            )
            _assert_minmax_certificate(balls, *solve_minmax(balls))
    for seed in range(3):
        inst = random_instance(d + 4, 2, d, seed=seed)
        balls = candidate_balls(inst.points, 2)
        _assert_minmax_certificate(balls, *solve_minmax(balls))


def test_minmax_achieved_value_respects_proven_bound(rng):
    from mebagg import theoretical_bound

    for _ in range(30):
        n = int(rng.integers(3, 11))
        t = int(rng.integers(1, (n - 1) // 2 + 1))
        d = int(rng.integers(1, 5))
        pts = random_cloud(rng, n, d)
        result = minmax_meb(pts, t)
        certified = 1.0 + result.achieved_value
        assert certified <= theoretical_bound("minmax-meb", n, t, d) + 1e-6
        assert certified < math.sqrt(2) + 1e-6


def test_solve_minmax_never_beaten_by_grid(rng):
    # solver optimality against a dense grid sweep on small instances
    from mebagg import grid_minmax

    for _ in range(15):
        n = int(rng.integers(4, 10))
        d = int(rng.integers(1, 4))
        t = int(rng.integers(1, (n - 1) // 2 + 1))
        pts = random_cloud(rng, n, d)
        balls = candidate_balls(pts, t)
        if len(balls) > 200 or np.any(balls.radii() <= 1e-12):
            continue
        _, solved = solve_minmax(balls)
        _, grid = grid_minmax(balls, resolution=40 if d == 3 else 90, zooms=10)
        assert solved <= grid + 1e-5


# ---------------------------------------------------------------------------
# shared rule properties


ALL_RULES = ["mean", "coordmedian", "mda", "medoid", "geomedian", "minmax-meb"]


@pytest.mark.parametrize("rule", ALL_RULES)
def test_rule_permutation_invariance(rule, rng):
    pts = random_cloud(rng, 7, 2)
    t = 2
    base = run_rule(rule, pts, t).output
    for _ in range(3):
        perm = rng.permutation(len(pts))
        out = run_rule(rule, pts[perm], t).output
        assert np.allclose(out, base, atol=1e-6)


@pytest.mark.parametrize("rule", ALL_RULES)
def test_rule_isometry_and_scale_equivariance(rule, rng):
    if rule == "coordmedian":
        pytest.skip("coordinate-wise median is axis-bound, not rotation-equivariant")
    pts = random_cloud(rng, 7, 3)
    t = 2
    base = run_rule(rule, pts, t).output
    rot = random_rotation(rng, 3)
    shift = rng.normal(size=3)
    moved = run_rule(rule, pts @ rot.T + shift, t).output
    assert np.allclose(moved, rot @ base + shift, atol=1e-5)
    scaled = run_rule(rule, 2.5 * pts, t).output
    assert np.allclose(scaled, 2.5 * base, atol=1e-5)


@pytest.mark.parametrize("rule", ALL_RULES)
def test_rule_rejects_zero_dimensional_points(rule):
    with pytest.raises(DimensionMismatchError):
        run_rule(rule, np.zeros((3, 0)), 1)
    with pytest.raises(DimensionMismatchError):
        PointSet(np.zeros((3, 0)))


def test_coordmedian_translation_and_scale_equivariance(rng):
    pts = random_cloud(rng, 7, 3)
    base = coordwise_median(pts).output
    shift = rng.normal(size=3)
    assert np.allclose(coordwise_median(pts + shift).output, base + shift, atol=1e-9)
    assert np.allclose(coordwise_median(3.0 * pts).output, 3.0 * base, atol=1e-9)
