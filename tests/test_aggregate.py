import itertools
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from mebagg import (
    Ball,
    CandidateBalls,
    ConflictingZeroRadiusError,
    DimensionMismatchError,
    EmptyInputError,
    InvalidFaultBudgetError,
    InvalidParamsError,
    MebaggError,
    PointSet,
    ResilienceViolationError,
    TooManySubsetsError,
    candidate_balls,
    candidate_balls_bruteforce,
    check_bias_bound,
    check_c_meb,
    coordwise_median,
    diameter,
    dist_to_hull,
    exhaustive_factor,
    geometric_median,
    lower_bound_construction,
    mda,
    mean_aggregate,
    meb,
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
from mebagg.aggregate import MAX_SUBSETS, _ball_keys
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
    # an extent past the float range: the diameters stay finite
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
        for chunk, sizes in index_chunks(*args):
            walked.append(len(chunk))
            yield chunk, sizes

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


def test_mda_mean_holds_when_the_sum_passes_the_float_range():
    # the chosen points sum past the float range, but their mean does not
    result = mda([(-1e308, 0.0), (1e308, 0.0), (0.5e308, 0.0), (0.6e308, 1.0)], 1)
    assert result.chosen_subset == (1, 2, 3)
    assert np.allclose(result.output, [0.7e308, 1.0 / 3.0], rtol=1e-15, atol=0.0)
    # at unit scale the output is the plain mean, bit for bit
    rng = np.random.default_rng(8)
    for _ in range(50):
        pts = rng.normal(size=(int(rng.integers(3, 9)), 3))
        result = mda(pts, 1)
        assert np.array_equal(result.output, pts[list(result.chosen_subset)].mean(axis=0))


def test_means_hold_when_the_coordinate_sums_pass_the_float_range():
    # the first coordinates sum past the float range, though every mean is
    # finite; means are summed in each coordinate's power-of-two unit, so
    # each result here is its result at 2**-8 scale scaled back, bit for bit
    P = np.array([(1.5e308, 0.0), (1.7e308, 1.0), (1.6e308, 3.0)])
    Q, y = np.ldexp(P, -8), P[2]

    def up(x):
        return np.ldexp(x, 8)

    big, small = meb(P), meb(Q)
    assert np.array_equal(big.center, up(small.center)) and big.radius == up(small.radius)
    big, small = check_c_meb(y, P, 1.0), check_c_meb(np.ldexp(y, -8), Q, 1.0)
    assert (big.achieved, big.bound, big.passed) == (small.achieved, small.bound, small.passed)
    big, small = check_bias_bound(y, P, 1.0), check_bias_bound(np.ldexp(y, -8), Q, 1.0)
    assert (big.achieved, big.bound, big.passed) == (up(small.achieved), up(small.bound), small.passed)
    big, small = candidate_balls(P, 1), candidate_balls(Q, 1)
    assert np.array_equal(big.centers(), up(small.centers()))
    assert np.array_equal(big.radii(), up(small.radii()))
    big, small = minmax_meb(P, 1), minmax_meb(Q, 1)
    assert np.array_equal(big.output, up(small.output)) and big.achieved_value == small.achieved_value
    assert np.array_equal(mean_aggregate(P).output, up(mean_aggregate(Q).output))


def test_mda_and_medoid_hold_when_the_extent_passes_the_float_range():
    # the extent, 2e308, overflows unless it is taken on the halved points
    pts = np.array([(-1e308, 0.0), (1e308, 0.0), (0.5e308, 0.0), (0.6e308, 1.0)])
    unit = pts / 1e308
    assert medoid(pts).chosen_index == medoid(unit).chosen_index == 2
    assert mda(pts, 2).chosen_subset == mda(unit, 2).chosen_subset == (2, 3)
    # geomedian's Newton steps square lengths as long as the extent
    wide = np.array([(-1e308, 0.0), (1e308, 0.0), (0.0, 1e308), (0.1e308, 0.2e308)])
    assert np.allclose(geometric_median(wide).output,
                       geometric_median(wide / 1e308).output * 1e308, rtol=1e-9, atol=0.0)


def test_pairwise_rules_hold_memory_to_a_few_blocks():
    # all n x n x d differences at once would take 60 times the input here
    pts = np.random.default_rng(3).normal(size=(30, 2000))
    for run in (lambda: medoid(pts), lambda: mda(pts, 1), lambda: diameter(pts)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * pts.nbytes, peak


def test_candidate_balls_hold_memory_to_a_few_chunks():
    # A chunk of width K <= 9 holds s = _CHUNK_ELEMS // ((n + K - 1) d)
    # supports: their differences to every point and their K-1 vectors take
    # s (n + K - 1) d <= _CHUNK_ELEMS floats; the Gram matrices, which _gram_solve
    # factors in place, and its update take (K-1)^2 s <= _CHUNK_ELEMS (K-1)/n each.
    # A whole level of C(16, 8) = 12 870 supports at once would take about
    # 22 chunks for the differences alone.
    pts = np.random.default_rng(4).normal(size=(16, 11))
    candidate_balls(pts, 7)  # the subset tables are a cache, bounded on their own
    tracemalloc.start()
    try:
        candidate_balls(pts, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * aggregate._CHUNK_ELEMS, peak


def test_support_sizes_share_a_chunk_and_one_factor(monkeypatch):
    # n = 12, d = 4, t = 3 has 12 + 66 + 220 + 495 + 792 = 1585 supports.
    # Sizes 1-4 (793 rows) fit one chunk of width 4 and size 5 fills its
    # own, so the factor runs twice where a chunk per size ran it 4 times.
    chunks, solves = [], []
    index_chunks, gram_solve = aggregate._index_chunks, aggregate._gram_solve

    def counting_chunks(*args):
        for S, size in index_chunks(*args):
            chunks.append(S)
            yield S, size

    def counting_solve(G, b, dims):
        solves.append((G.shape[0], int(dims.max())))
        return gram_solve(G, b, dims)

    pts = random_instance(12, 3, 4, seed=1).points.points
    monkeypatch.setattr(aggregate, "_index_chunks", counting_chunks)
    monkeypatch.setattr(aggregate, "_gram_solve", counting_solve)
    shared = candidate_balls(pts, 3)
    assert sum(map(len, chunks)) == 1585
    assert len(solves) == len(chunks) <= 2
    # no chunk is wider than its largest support, the size of its last row
    for S in chunks:
        assert len(set(S[-1].tolist())) == S.shape[1]
    assert all(width == dims for width, dims in solves)
    # one-row chunks carry no padding, and give the same balls bit for bit
    monkeypatch.setattr(aggregate, "_CHUNK_ELEMS", 5)
    alone = candidate_balls(pts, 3)
    for name in ("center_array", "radius_array", "witness_array"):
        assert getattr(shared, name).tobytes() == getattr(alone, name).tobytes()


@pytest.mark.parametrize("n, t, d", [(10, 2, 8), (16, 4, 3), (9, 3, 5), (18, 1, 4)])
def test_one_row_chunks_give_the_same_balls(n, t, d, monkeypatch):
    # No sum in the support kernel may change order with the chunk's width:
    # chunks of one row give the kernel's centers, radii and witnesses, and
    # so the balls, byte for byte. (10, 2, 8) has supports of width 9, and
    # (18, 1, 4) takes the search route.
    support_balls, default, calls = aggregate._support_balls, aggregate._CHUNK_ELEMS, []

    def recording(P, m, found=None):
        out = support_balls(P, m, found)
        calls.append((found is not None, [a.tobytes() for a in out]))
        return out

    monkeypatch.setattr(aggregate, "_support_balls", recording)
    for seed, strategy in itertools.product(range(2), ("uniform-far", "cluster")):
        pts = random_instance(n, t, d, seed=seed, strategy=strategy).points.points
        monkeypatch.setattr(aggregate, "_CHUNK_ELEMS", default)
        shared = candidate_balls(pts, t)
        monkeypatch.setattr(aggregate, "_CHUNK_ELEMS", 5)
        alone = candidate_balls(pts, t)
        for name in ("center_array", "radius_array", "witness_array"):
            assert getattr(shared, name).tobytes() == getattr(alone, name).tobytes()
        assert calls[-2] == calls[-1] and calls[-1][0] == ((n, t, d) == (18, 1, 4))


def test_distance_matrix_blocks_change_no_bit(monkeypatch):
    rng = np.random.default_rng(8)
    inputs = [rng.normal(size=(int(rng.integers(1, 20)), int(rng.integers(1, 9)))) * 10.0**e
              for e in (-200, 0, 200) for _ in range(10)]
    whole = [aggregate._distance_matrix(p) for p in inputs]
    monkeypatch.setattr(aggregate, "_CHUNK_ELEMS", 5)
    for p, w in zip(inputs, whole):
        assert np.array_equal(aggregate._distance_matrix(p), w)


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


@pytest.mark.parametrize("d", [2, 8, 200, 5000])
@pytest.mark.parametrize("n", [5, 12, 30])
def test_gm_optimality_certificate_in_every_dimension(n, d):
    # d >= n runs the Newton steps in the span of the points; each output is
    # certified where it lies, and it lies in the points' affine hull
    rng = np.random.default_rng(1000 * n + d)
    clouds = [random_cloud(rng, n, d), random_cloud(rng, n, d)]
    clouds[1][: n // 2] = clouds[1][0]  # a heavy point, optimal or not
    clouds.append(random_instance(n, (n - 1) // 2, d, seed=n + d, strategy="uniform-far").points.points)
    for pts in clouds:
        out = geometric_median(pts).output
        extent = float(np.ptp(pts, axis=0).max())
        dist = np.linalg.norm(pts - out, axis=1)
        here = dist <= 1e-12 * extent
        pull = np.linalg.norm(((out - pts[~here]) / dist[~here, None]).sum(axis=0))
        if here.any():  # vertex: the pull of the others is at most its multiplicity
            assert pull <= here.sum() + 1e-9
        else:  # the 1e-12 n would also catch a descent test that loses its sign
            assert pull <= 1e-12 * n
        centered = pts - pts.mean(axis=0)
        _, svals, vt = np.linalg.svd(centered, full_matrices=False)
        span = vt[svals > 1e-12 * svals[0]]
        off = out - pts.mean(axis=0)
        assert np.linalg.norm(off - (off @ span.T) @ span) <= 1e-12 * extent


def test_gm_settles_in_a_few_steps_where_weiszfeld_crawled():
    # a labeled bench input: Weiszfeld took 2031 iterations here and
    # stopped with a gradient residual of 5.9e-5
    pts = random_instance(20, 7, 2, seed=2083950923, strategy="uniform-far").points.points
    out = geometric_median(pts, 7, max_iter=20).output
    dist = np.linalg.norm(pts - out, axis=1)
    assert np.linalg.norm(((out - pts) / dist[:, None]).sum(axis=0)) <= 1e-6 * len(pts)


@pytest.mark.parametrize(
    "pts",
    [[(0.799, -0.551, 2.161), (0.799000001616, -0.551000000663, 2.161000001046),
      (-0.383, 0.167, 0.735), (-0.587, 0.38, -0.017)],
     [(-0.961, -0.71, -1.19), (-0.961000000014, -0.709999998873, -1.190000000068),
      (0.624, 1.632, 0.27), (0.195, -0.275, -1.608), (0.76, -1.756, 0.653)],
     [(0.561, 0.532), (0.561000000000028, 0.531999999997697),
      (1.412, 0.534), (0.364, -0.63), (0.603, -0.599)]],
    ids=["optimum-beside-the-pair", "optimum-away-from-the-pair", "optimum-away-from-a-closer-pair"],
)
def test_gm_settles_beside_a_near_duplicate_pair(pts):
    # two inputs 2e-9 apart: full Newton steps overshoot the pair, so they are
    # cut back to its closest approach, and beside the pair every step is
    # short, so only a step short against the pair's distance ends the loop.
    # The closer pair is 2.3e-12 apart, about two on-a-point tolerances: the
    # vertex test must take it as one cluster, or its descent step off one
    # input aims at the other and the loop ends between them
    pts = np.array(pts)
    out = geometric_median(pts, max_iter=20).output
    dist = np.linalg.norm(pts - out, axis=1)
    assert np.linalg.norm(((out - pts) / dist[:, None]).sum(axis=0)) <= 1e-6 * len(pts)


def test_gm_ends_beside_a_pair_closer_than_rounding():
    # the pair is 1e-11 apart, so steps beside it reach the rounding of the
    # coordinates before they reach tol times its distance: a step below
    # that rounding floor ends the loop
    pts = np.array([(-1.718, 1.682), (-1.71800000000639, 1.681999999992), (1.138, 0.349)])
    out = geometric_median(pts, max_iter=20).output

    def cost(y):
        return float(np.linalg.norm(pts - y, axis=1).sum())

    assert cost(out) <= min(cost(p) for p in pts) + 1e-12


@pytest.mark.parametrize(
    "pts, expected",
    [([(0.0, 0.0)] * 6 + [(1.0, 1.0), (-1.0, 2.0)], (0.0, 0.0)),
     ([(0.0, 0.0), (1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)], (0.0, 0.0)),
     ([(2.5, -1.0)], (2.5, -1.0)),
     ([(2.5, -1.0, 3.0)] * 4, (2.5, -1.0, 3.0))],
    ids=["heavy-cluster", "plus-lands-on-its-centre", "one-point", "four-equal-points"],
)
def test_gm_data_point_optimum(pts, expected):
    # a heavy cluster pins the optimum at an input point; the plus shape's
    # mean is its centre, so the first iterate lands on an optimal vertex
    result = geometric_median(pts)
    assert result.output.tolist() == list(expected)


def test_gm_steps_off_a_landing_that_is_not_optimal():
    # the mean (0, 0) is a data point, but the four points near x = 3 pull
    # harder than its multiplicity: one descent step off it, then Newton
    pts = np.array([(0.0, 0.0), (3.0, 1.0), (3.0, -1.0), (3.0, 0.5), (3.0, -0.5), (-12.0, 0.0)])
    out = geometric_median(pts).output
    d = np.linalg.norm(pts - out, axis=1)
    assert d.min() > 1e-3 and abs(out[0] - 2.5978) < 1e-4
    grad = ((out - pts) / d[:, None]).sum(axis=0)
    assert np.linalg.norm(grad) <= 1e-6 * len(pts)


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


@pytest.mark.parametrize(
    "kwargs",
    [{"tol": math.inf}, {"tol": math.nan}, {"tol": -1.0},
     {"max_iter": 0}, {"max_iter": -3}, {"max_iter": True}, {"max_iter": 2.5}],
    ids=["tol-inf", "tol-nan", "tol-negative", "iter-0", "iter-negative", "iter-bool", "iter-float"],
)
def test_gm_rejects_a_bad_tol_or_iteration_cap(kwargs):
    # tol=inf used to stop after one Weiszfeld step; a bad cap ran and raised NonConvergenceError
    pts = np.array([(0.0, 0.0), (3.0, 1.0), (1.0, 4.0), (-2.0, 2.0)])
    with pytest.raises(InvalidParamsError):
        geometric_median(pts, **kwargs)


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
    # the benchmark's t = 1 shapes that take the violator search by default
    shapes += [(18, 1, 4), (19, 1, 3), (24, 1, 2)]
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
    # few search nodes next to the supports: the violator search by default
    for n, t, d in [(40, 1, 3), (25, 0, 4)]:
        pts = random_instance(n, max(t, 1), d, seed=n + d).points.points
        yield pytest.param(pts, t, id=f"random-{n}-{t}-{d}")
    # a far location whose copies number t can be removed; with t + 1 it cannot
    for copies in (2, 3):
        pts = np.vstack([np.random.default_rng(copies).normal(size=(6, 2)), [[3.0, 3.0]] * copies])
        yield pytest.param(pts, 2, id=f"far-copies-{copies}")


def _route(monkeypatch, path):
    """Send candidate_balls down one path: the violator search, its bounded
    fallback over every removable set (one basis each), or all supports."""
    monkeypatch.setattr(aggregate, "_MEB_COST_IN_SUPPORTS", math.inf if path == "supports" else 0)
    if path != "supports":
        cap, search_rows = MAX_SUBSETS if path == "search" else None, aggregate._search_rows
        monkeypatch.setattr(aggregate, "_search_rows", lambda P, t, m, _: search_rows(P, t, m, cap))


@pytest.mark.parametrize("path", ["subsets", "search", "supports"])
@pytest.mark.parametrize("pts,t", list(_agreement_cases()))
def test_candidate_balls_agree_with_subset_oracle(pts, t, path, monkeypatch):
    from mebagg import meb

    _route(monkeypatch, path)
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


def _forced(pts, t, path, monkeypatch):
    with monkeypatch.context() as patch:
        _route(patch, path)
        balls = candidate_balls(pts, t)
    return balls.centers(), balls.radii(), balls.subsets


def test_candidate_balls_search_matches_full_supports(monkeypatch):
    # the search only narrows which supports the kernel checks, so every
    # center, radius and witness comes out bit for bit the same; the
    # fallback finds the same witnesses, its centers from a basis each
    rng = np.random.default_rng(29)
    for i in range(300):
        n, d = int(rng.integers(3, 12)), int(rng.integers(1, 5))
        t = int(rng.integers(0, min(3, n)))
        if i % 2:
            pts = rng.integers(0, 3, size=(n, d)).astype(float)
        else:
            pts = rng.normal(size=(n, d))
        full = _forced(pts, t, "supports", monkeypatch)
        search = _forced(pts, t, "search", monkeypatch)
        assert search[2] == full[2], (n, t, d, i)
        assert search[0].tobytes() == full[0].tobytes() and search[1].tobytes() == full[1].tobytes()
        subsets = _forced(pts, t, "subsets", monkeypatch)
        assert subsets[2] == full[2], (n, t, d, i)
        assert np.allclose(subsets[0], full[0], rtol=0, atol=1e-9)
        assert np.allclose(subsets[1], full[1], rtol=1e-9, atol=1e-12)


def _count_checked_rows(monkeypatch):
    checked = []
    support_balls = aggregate._support_balls

    def counting(P, m, found=None):
        checked.append(len(found))
        return support_balls(P, m, found)

    monkeypatch.setattr(aggregate, "_support_balls", counting)
    return checked


def test_candidate_balls_search_checks_few_supports(monkeypatch):
    # the search takes (18, 1, 4), whose 12 615 supports hold 5 distinct
    # balls; each generic node gives the kernel its one support
    pts = random_instance(18, 1, 4, seed=22).points.points
    with monkeypatch.context() as patch:
        checked = _count_checked_rows(patch)
        searched = candidate_balls(pts, 1)
    assert checked == [len(searched)]
    monkeypatch.setattr(aggregate, "_MEB_COST_IN_SUPPORTS", math.inf)
    assert candidate_balls(pts, 1).subsets == searched.subsets


def test_candidate_balls_high_dimension_checks_few_supports(monkeypatch):
    from mebagg import meb

    # 30 Gaussian points in R^100 put about 20 points on every candidate's
    # sphere, 2^20 supports among them; one per node keeps the kernel small
    pts = np.random.default_rng(0).normal(size=(30, 100))
    checked = _count_checked_rows(monkeypatch)
    balls = candidate_balls(pts, 1)
    assert checked == [len(balls)] and len(balls) == len(set(balls.subsets)) > 1
    for sub, ball in zip(balls.subsets, balls.balls):
        assert math.isclose(ball.radius, meb(pts[list(sub)]).radius, rel_tol=1e-9)


@pytest.mark.parametrize("n, t", [(60, 1), (30, 2)])
def test_candidate_balls_in_high_dimension_match_subset_oracle(n, t):
    # point 0 shifted by 3 in every coordinate of R^1000: some MEBs have dozens
    # of points on their sphere, whose difference vectors are nearly
    # equicorrelated; a rank bar that calls their Gram matrix singular finds no
    # tight support and raises
    pts = np.random.default_rng(n).normal(size=(n, 1000))
    pts[0] += 3.0
    balls = candidate_balls(pts, t)
    reference = candidate_balls_bruteforce(pts, t)
    C, R = reference.centers(), reference.radii()
    tol = 1e-12 * R.max()
    by_subset = {sub: i for i, sub in enumerate(reference.subsets)}
    for sub, c, r in zip(balls.subsets, balls.centers(), balls.radii()):
        i = by_subset[sub]
        assert np.abs(c - C[i]).max() <= tol and abs(r - R[i]) <= tol
    # and every subset's ball is among the candidates
    for c, r in zip(C, R):
        gap = np.maximum(np.abs(balls.centers() - c).max(axis=1), np.abs(balls.radii() - r))
        assert gap.min() <= tol
    y = minmax_meb(pts, t, balls=balls).output
    assert np.abs(minmax_meb(pts, t, balls=reference).output - y).max() <= 1e-9 * R.max()


def test_candidate_balls_co_spherical_points_restart_bounded(monkeypatch):
    # all 20 points of the cross-polytope in R^10 lie on one sphere, so each
    # search node would hand the kernel 784 625 subsets of them; past the
    # cap the search restarts with one basis per removable point instead
    pts = np.vstack([np.eye(10), -np.eye(10)])
    checked = _count_checked_rows(monkeypatch)
    balls = candidate_balls(pts, 1)
    assert 0 < checked[0] <= 21
    assert balls.subsets == (tuple(range(19)),)
    assert np.allclose(balls.centers(), 0.0, atol=1e-12) and math.isclose(balls.radii()[0], 1.0)


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
    # the search runs when the 10 700 supports exceed the cap
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


@pytest.mark.parametrize(
    "t", [1.5, 1.0, True, np.float64(1.0)], ids=["1.5", "1.0", "True", "np-float"]
)
def test_fault_budget_must_be_an_integer(t):
    pts = np.random.default_rng(3).normal(size=(6, 2))
    for rule in (mda, candidate_balls, minmax_meb):
        with pytest.raises(InvalidFaultBudgetError, match="integer"):
            rule(pts, t)
    assert mda(pts, np.int64(1)).chosen_subset == mda(pts, 1).chosen_subset


def test_candidate_balls_errors():
    with pytest.raises(InvalidFaultBudgetError):
        candidate_balls([(0.0,), (1.0,)], 2)
    with pytest.raises(TooManySubsetsError):
        candidate_balls(np.zeros((40, 1)), 20, max_subsets=100)
    # the arrays are checked once, radii as Ball checks one radius
    for radius in (-1.0, math.inf, math.nan):
        with pytest.raises(MebaggError, match="radius must be finite"):
            CandidateBalls(np.zeros((2, 2)), [1.0, radius])
    with pytest.raises(MebaggError, match="finite"):
        CandidateBalls([[0.0, math.inf]], [1.0])
    with pytest.raises(DimensionMismatchError):
        CandidateBalls(np.zeros((2, 2)), [1.0])
    with pytest.raises(EmptyInputError):
        solve_minmax([])


def test_candidate_ball_path_builds_no_ball(monkeypatch):
    # candidate balls stay arrays from the kernel through the min-max rule
    # and the oracles; Ball objects are views, built only when asked for
    cases = [(random_instance(n, t, d, seed=n).points.points, t)
             for n, t, d in [(7, 2, 2), (12, 4, 3), (18, 1, 4)]]
    cases.append((np.array([[1000.0, 5.0]] * 3 + [[1001.0, 5.0], [1000.0, 7.0]]), 2))
    built, post_init = [], Ball.__post_init__
    monkeypatch.setattr(Ball, "__post_init__", lambda ball: built.append(ball) or post_init(ball))
    for pts, t in cases:
        balls = candidate_balls(pts, t)
        y = minmax_meb(pts, t, balls=balls).output
        worst_designation(pts, t, y, balls=balls)
        exhaustive_factor(pts, t, y=y, balls=balls)
    assert built == []
    assert len(balls.balls) == len(balls) and built


@pytest.mark.parametrize(
    "max_subsets", [0, -5, 1.5, True, None], ids=["0", "-5", "1.5", "True", "None"]
)
def test_max_subsets_must_be_a_positive_integer(max_subsets):
    pts = np.random.default_rng(4).normal(size=(6, 2))
    for rule in (candidate_balls, mda, minmax_meb):
        with pytest.raises(InvalidParamsError, match="max_subsets must be an integer >= 1"):
            rule(pts, 1, max_subsets=max_subsets)
    assert len(candidate_balls(pts, 1, max_subsets=np.int64(6))) > 0


# ---------------------------------------------------------------------------
# subset tables


def _itertools_chunks(n, k, rows):
    return list(aggregate._index_chunks(n, (k,), lambda K: rows, list(itertools.combinations(range(n), k))))


@pytest.mark.parametrize("rows", [1, 7, 10**6])
def test_subset_table_chunks_match_itertools(rows):
    for n in range(13):
        for k in range(n + 1):
            chunks = list(aggregate._index_chunks(n, (k,), lambda K: rows))
            reference = _itertools_chunks(n, k, rows)
            assert [c.shape for c, _ in chunks] == [c.shape for c, _ in reference]
            assert all(np.array_equal(a, b) for (a, _), (b, _) in zip(chunks, reference))
            flat = [tuple(r) for c, _ in chunks for r in c.tolist()]
            assert flat == list(itertools.combinations(range(n), k))
            # each chunk's row sizes travel with it
            assert all(np.array_equal(size, np.full(len(c), k)) for c, size in chunks + reference)


def test_subset_tables_are_read_only_and_shared():
    chunk, size = next(aggregate._index_chunks(9, (3,), lambda K: 5))
    with pytest.raises(ValueError, match="read-only"):
        chunk[0, 0] = 4
    with pytest.raises(ValueError, match="read-only"):
        size[0] = 4
    pair = table, sizes = aggregate._subset_table(9, (3,))
    assert not table.flags.writeable and np.shares_memory(chunk, table)
    assert not sizes.flags.writeable and np.shares_memory(size, sizes)
    assert aggregate._subset_table(9, (3,)) is pair


def test_subset_table_cache_is_bounded():
    cache = aggregate._subset_table
    # the stated bound: _TABLES tables of at most _TABLE_ELEMS indices, 8 MB
    per_table = aggregate._TABLE_ELEMS * np.dtype(np.intp).itemsize
    assert cache.cache_info().maxsize == aggregate._TABLES
    assert aggregate._TABLES * per_table <= 8 * 2**20
    cache.cache_clear()
    # C(20, 5) x 5 = 77 520 indices is over the cap: built chunk by chunk, never cached
    assert math.comb(20, 5) * 5 > aggregate._TABLE_ELEMS
    chunks = list(aggregate._index_chunks(20, (5,), lambda K: 1000))
    assert all(c.flags.writeable for c, _ in chunks)
    assert sum(len(c) for c, _ in chunks) == math.comb(20, 5)
    assert cache.cache_info().currsize == cache.cache_info().misses == 0
    # more (n, k) than the cache holds, each at most the cap: it keeps _TABLES
    shapes = [(n, k) for n in range(40) for k in range(1, n + 1)
              if math.comb(n, k) * k <= aggregate._TABLE_ELEMS]
    assert len(shapes) > 2 * aggregate._TABLES
    for n, k in shapes:
        assert sum(len(c) for c, _ in aggregate._index_chunks(n, (k,), lambda K: 500)) == math.comb(n, k)
        table, sizes = aggregate._subset_table(n, (k,))
        assert table.nbytes <= per_table and sizes.size == len(table)
    assert cache.cache_info().currsize == aggregate._TABLES


def test_candidate_balls_from_four_threads_match_serial():
    cases = [(random_instance(n, t, d, seed=s).points.points, t)
             for s, (n, t, d) in enumerate([(12, 4, 2), (13, 4, 3), (9, 3, 5), (16, 5, 2)] * 3)]

    def run(worker):
        out = []
        for pts, t in cases[worker::4]:
            cb = candidate_balls(pts, t)
            out.append((cb.center_array.tobytes(), cb.radius_array.tobytes(),
                        cb.witness_array.tobytes()))
        return out

    aggregate._subset_table.cache_clear()
    serial = [run(w) for w in range(4)]
    aggregate._subset_table.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside the table cache too
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(run, range(4), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


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
    # the miss tolerance is 1e-9 of the centers' extent, 2, plus a rounding
    # floor about the zero-radius center; the coordinate 1000 does not widen it
    near = cb.ratios([np.nextafter(1000.0, 2000.0), 0.0])
    assert near[0] == 0.0 and math.isclose(near[1], 0.5, rel_tol=1e-12)
    assert cb.ratios([1000.0 + 1e-7, 0.0])[0] == math.inf
    assert cb.ratios([1000.0 + 1e-5, 0.0])[0] == math.inf
    assert CandidateBalls.from_balls(cb) is cb
    # y one spread away from three coincident points misses their ball at any scale
    pts = np.array([(0.0, 0.0)] * 3 + [(1.0, 0.0), (0.0, 2.0)])
    for scale in (1.0, 1e-13):
        y = np.array([1.0, 0.0]) * scale
        assert exhaustive_factor(pts * scale, 2, y=y) == math.inf


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
    # a tiny scale and a far offset, compared in the unit frame
    tiny = run_rule(rule, 1e-6 * pts, t).output
    assert np.allclose(tiny / 1e-6, base, atol=1e-5)
    far = run_rule(rule, pts + 1e6, t).output
    assert np.allclose(far - 1e6, base, atol=1e-5)


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
