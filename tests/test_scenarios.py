import math

import numpy as np
import pytest

from mebagg import (
    InvalidParamsError,
    MebaggError,
    PointSet,
    candidate_balls,
    exhaustive_factor,
    gm_convex_violation_instance,
    gm_impossibility_instance,
    lower_bound_construction,
    meb,
    medoid,
    medoid_counterexample,
    random_instance,
    safe_meb_empty,
    soddy_inner_bend,
    tangent_unit_balls,
)
from mebagg.scenarios import lower_bound_geometry

# ---------------------------------------------------------------------------
# emptiness construction


def test_lower_bound_d2_ball_layout():
    inst = lower_bound_construction(2, 2)
    centers = sorted(
        (tuple(inst.balls[f"unit_{i}"].center) for i in range(2)), key=lambda c: c[0]
    )
    assert np.allclose(centers[0], (0.0, math.sqrt(2)), atol=1e-12)
    assert np.allclose(centers[1], (math.sqrt(2), 0.0), atol=1e-12)
    q = inst.reference["q"]
    assert np.allclose(q, (1 / math.sqrt(2), 1 / math.sqrt(2)), atol=1e-12)
    # q is one of the emitted points
    assert any(np.allclose(row, q, atol=1e-12) for row in inst.points.points)


def test_lower_bound_d3_meeting_point_coefficient():
    inst = lower_bound_construction(3, 4)
    coef = (math.sqrt(3) + 1) / 2 ** 1.5
    assert math.isclose(coef, 0.9659258262890683, rel_tol=1e-12)
    target = coef * np.array([0.0, 1.0, 1.0])
    assert any(np.allclose(row, target, atol=1e-12) for row in inst.points.points)


def test_lower_bound_unit_balls_meet_only_at_q():
    inst = lower_bound_construction(3, 4)
    q = inst.reference["q"]
    for i in range(3):
        ball = inst.balls[f"unit_{i}"]
        assert math.isclose(np.linalg.norm(q - ball.center), 1.0, rel_tol=1e-12)
    big = inst.balls["big"]
    assert np.linalg.norm(q - big.center) > big.radius  # far ball excludes q
    assert inst.reference["gap"] < 1 / (2 * 3)


def test_lower_bound_gap_meets_its_target():
    # the closed form puts the big ball's bulge at 1/(4D) up to rounding;
    # from D = 12 on, the floor on its center holds the bulge lower still
    for D in range(2, 16):
        gap = lower_bound_geometry(D)["gap"]
        assert gap <= (1.0 + 1e-12) / (4 * D), D
        assert D >= 12 or math.isclose(gap, 1.0 / (4 * D), rel_tol=1e-12), D


def test_lower_bound_constructed_balls_are_candidates():
    # every advertised ball must be the enclosing ball of some size-(n-t)
    # subset of the emitted points
    for d, t in [(2, 3), (3, 4), (3, 3)]:
        inst = lower_bound_construction(d, t)
        balls = candidate_balls(inst.points, t)
        for name, ball in inst.balls.items():
            hit = any(
                np.allclose(b.center, ball.center, atol=1e-9)
                and math.isclose(b.radius, ball.radius, rel_tol=1e-9)
                for b in balls.balls
            )
            assert hit, (d, t, name)


def test_lower_bound_emptiness_certified_cases():
    for d, t in [(2, 3), (3, 3), (3, 4), (4, 5)]:
        inst = lower_bound_construction(d, t)
        assert inst.reference["emptiness_certified"]
        empty, value = safe_meb_empty(candidate_balls(inst.points, t))
        assert empty and value > 1e-3, (d, t, value)


def test_lower_bound_param_validation():
    with pytest.raises(InvalidParamsError):
        lower_bound_construction(1, 5)
    with pytest.raises(InvalidParamsError):
        lower_bound_construction(4, 2)


# ---------------------------------------------------------------------------
# medoid counterexample


def test_medoid_ce_counts_and_balls():
    inst = medoid_counterexample(8, 10.0)
    assert inst.points.n == 17
    assert math.isclose(inst.balls["ABE"].radius, 1.0, rel_tol=1e-9)
    assert np.allclose(inst.balls["ABE"].center, [1, 0], atol=1e-9)
    assert math.isclose(inst.balls["ECD"].radius, 1.0, rel_tol=1e-9)
    assert np.allclose(inst.balls["ECD"].center, [3, 0], atol=1e-9)
    # stray-point designation: circumball of (1,1),(3,1),(2,x) for x >= 2
    x = 10.0
    expected_r = (x * x - 2 * x + 2) / (2 * (x - 1))
    assert math.isclose(inst.balls["BCF"].radius, expected_r, rel_tol=1e-9)


def test_medoid_ce_designations_have_budget_size():
    t = 8
    inst = medoid_counterexample(t, 10.0)
    for idx in inst.designations.values():
        assert len(idx) == t + 1  # n - t with n = 2t + 1


def test_medoid_ce_param_validation():
    with pytest.raises(InvalidParamsError):
        medoid_counterexample(7, 10.0)
    with pytest.raises(InvalidParamsError):
        medoid_counterexample(2, 10.0)


def test_medoid_ce_exhaustive_factor_large_t():
    # once the medoid lands in a top cluster it misses the hostile ball by
    # sqrt(5) radii
    inst = medoid_counterexample(12, 10.0)
    out = medoid(inst.points).output
    worst = max(
        np.linalg.norm(out - b.center) / b.radius for b in inst.balls.values()
    )
    assert worst >= math.sqrt(5) - 1e-9


# ---------------------------------------------------------------------------
# geometric-median instances


def test_gm_impossibility_counts_and_balls():
    inst = gm_impossibility_instance(200, 10.0)
    assert inst.points.n == 3 * 200 - 3
    assert math.isclose(inst.balls["ABE"].radius, 1.0, rel_tol=1e-9)
    assert math.isclose(inst.balls["ECD"].radius, 1.0, rel_tol=1e-9)
    assert np.allclose(inst.balls["ABE"].center, [1, 0], atol=1e-9)
    assert np.allclose(inst.balls["ECD"].center, [3, 0], atol=1e-9)
    assert math.isclose(
        inst.reference["distance_to_unit_center"],
        math.sqrt(7 / 3 - 2 / math.sqrt(3)),
        rel_tol=1e-12,
    )


def test_gm_impossibility_param_validation():
    with pytest.raises(InvalidParamsError):
        gm_impossibility_instance(4, 10.0)


def test_gm_convex_violation_counts():
    assert gm_convex_violation_instance(2).points.n == 7
    assert gm_convex_violation_instance(50).points.n == 151
    inst = gm_convex_violation_instance(3)
    for idx in inst.designations.values():
        assert len(idx) == inst.points.n - 3


# ---------------------------------------------------------------------------
# tangent balls


def test_tangent_balls_pairwise_distance():
    for k in (2, 3, 5):
        balls = tangent_unit_balls(k)
        centers = balls.centers()
        assert centers.shape == (k + 1, k)
        d = np.linalg.norm(centers[:, None, :] - centers[None, :, :], axis=2)
        off = d[~np.eye(k + 1, dtype=bool)]
        assert np.all(np.abs(off - 2.0) <= 1e-12)
        assert np.all(balls.radii() == 1.0)


def test_tangent_balls_inner_gap_radius():
    # distance from the centroid to any center, minus 1
    for k in (2, 3):
        centers = tangent_unit_balls(k).centers()
        inner = float(np.linalg.norm(centers[0])) - 1.0
        expected = (k - 1) / (k + 1 + math.sqrt(2 * (k + 1) * k))
        assert math.isclose(inner, expected, rel_tol=1e-9)


def test_tangent_balls_param_validation():
    with pytest.raises(InvalidParamsError):
        tangent_unit_balls(1)


# ---------------------------------------------------------------------------
# random instances


def test_random_instance_seed_repeatability():
    a = random_instance(8, 2, 3, seed=42)
    b = random_instance(8, 2, 3, seed=42)
    assert np.array_equal(a.points.points, b.points.points)
    c = random_instance(8, 2, 3, seed=43)
    assert not np.array_equal(a.points.points, c.points.points)


def test_random_instance_t0_all_honest():
    inst = random_instance(6, 0, 2, seed=1)
    assert inst.points.byzantine_count == 0
    assert inst.points.honest_points().shape == (6, 2)


def test_random_instance_labels_and_spread():
    inst = random_instance(9, 3, 2, spread=0.5, seed=7)
    assert inst.points.byzantine_count == 3
    honest = inst.points.honest_points()
    assert np.all(np.linalg.norm(honest, axis=1) <= 0.5 + 1e-12)


def test_random_instance_strategies_smoke():
    for strategy in ("uniform-far", "cluster"):
        inst = random_instance(7, 2, 2, seed=5, strategy=strategy)
        assert inst.points.n == 7


def test_random_instance_param_validation():
    with pytest.raises(InvalidParamsError):
        random_instance(3, 3, 2, seed=0)
    with pytest.raises(InvalidParamsError):
        random_instance(5, 1, 2, spread=-1.0, seed=0)
    with pytest.raises(InvalidParamsError):
        random_instance(5, 1, 2, seed=0, strategy="nope")


@pytest.mark.parametrize(
    ("make", "args"),
    [(random_instance, (6, 1.5, 2)), (random_instance, (6, 1, 2.0)), (random_instance, (6.0, 1, 2)),
     (random_instance, (6, True, 2)), (lower_bound_construction, (2.5, 3)),
     (lower_bound_construction, (2, 3.0)), (tangent_unit_balls, (2.0,)),
     (medoid_counterexample, (6.0, 10.0)), (gm_impossibility_instance, (5.0,)),
     (gm_convex_violation_instance, (2.5,))],
)
def test_generators_reject_counts_that_are_not_integers(make, args):
    # these ended in a bare TypeError, and random_instance ran t=True as t=1
    with pytest.raises(InvalidParamsError):
        make(*args)


@pytest.mark.parametrize("dim", [2.5, 2.0, True])
def test_dimensions_must_be_integers(dim):
    # soddy_inner_bend asked for 3.5 bends at 2.5, and lower_bound_geometry
    # ended in a bare TypeError from np.full
    with pytest.raises(MebaggError, match="k must be an integer >= 1"):
        soddy_inner_bend([1.0] * 4, dim)
    with pytest.raises(InvalidParamsError, match="dimension must be an integer >= 2"):
        lower_bound_geometry(dim)
    assert soddy_inner_bend([1.0] * 3, np.int64(2)) == soddy_inner_bend([1.0] * 3, 2)


def test_attack_search_beats_honest_ball_on_medoid():
    # searched placements should push the medoid outside the honest ball on
    # at least half the seeds
    wins = 0
    seeds = range(10)
    for seed in seeds:
        inst = random_instance(
            5, 2, 2, seed=seed, strategy="worst-case", rule="medoid", attack_starts=60
        )
        honest = inst.points.honest_points()
        ball = meb(honest)
        out = medoid(inst.points).output
        factor = np.linalg.norm(out - ball.center) / ball.radius
        if factor > 1.0:
            wins += 1
    assert wins >= len(seeds) / 2


@pytest.mark.parametrize("rule", ["medoid", "mda", "geomedian"])
def test_attack_search_stays_at_the_spread(rule):
    # lengths are taken in the spread's unit, so no square overflows, and the
    # rim cluster's jitter scales with the spread
    for spread in (1e-200, 1e200):
        inst = random_instance(6, 1, 2, spread, seed=0, strategy="worst-case", rule=rule)
        byz = inst.points.points[5:]
        assert (np.linalg.norm(byz / spread, axis=1) < 10).all()


def test_generated_instances_satisfy_pointset_invariants():
    for inst in (
        lower_bound_construction(3, 3),
        medoid_counterexample(8, 10.0),
        gm_impossibility_instance(6, 10.0),
        gm_convex_violation_instance(4),
        random_instance(8, 3, 2, seed=11),
    ):
        ps = inst.points
        assert isinstance(ps, PointSet)
        assert np.all(np.isfinite(ps.points))
        assert ps.byzantine_count <= inst.spec.params.get("t", ps.n)
