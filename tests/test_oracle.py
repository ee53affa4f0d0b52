import math

import numpy as np
import pytest

from mebagg import (
    CandidateBalls,
    InstanceTooLargeError,
    InvalidFaultBudgetError,
    candidate_balls,
    candidate_balls_bruteforce,
    circumball,
    exhaustive_factor,
    grid_minmax,
    meb,
    meb_bruteforce,
    mean_aggregate,
    medoid,
    medoid_counterexample,
    minmax_meb,
    solve_minmax,
    tangent_unit_balls,
    worst_designation,
)
from conftest import random_cloud


def test_bruteforce_two_points():
    ball = meb_bruteforce([(0.0, 0.0), (2.0, 0.0)])
    assert np.allclose(ball.center, [1, 0], atol=1e-12)
    assert math.isclose(ball.radius, 1.0, rel_tol=1e-12)


def test_bruteforce_equilateral_triangle_circumradius():
    # side 1 -> circumradius 1/sqrt(3)
    pts = [(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3) / 2)]
    ball = meb_bruteforce(pts)
    assert math.isclose(ball.radius, 1 / math.sqrt(3), rel_tol=1e-12)


def test_circumball_of_collinear_points_falls_back_to_least_squares(monkeypatch):
    # the Gram matrix 2 V V^T of (1, 0), (3, 0) is singular; the minimum-norm
    # least-squares solution puts the center at (1.4, 0), 1.6 from (3, 0)
    calls = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(a) or lstsq(*a, **k))
    ball = circumball([(0.0, 0.0), (1.0, 0.0), (3.0, 0.0)])
    assert len(calls) == 1
    assert np.allclose(ball.center, [1.4, 0.0], rtol=0, atol=1e-12)
    assert math.isclose(ball.radius, 1.6, rel_tol=1e-12)


def test_bruteforce_caps():
    with pytest.raises(InstanceTooLargeError):
        meb_bruteforce(np.zeros((13, 2)))
    with pytest.raises(InstanceTooLargeError):
        meb_bruteforce(np.zeros((4, 5)))


def test_bruteforce_agrees_with_meb(rng):
    for _ in range(60):
        n = int(rng.integers(1, 11))
        d = int(rng.integers(1, 5))
        pts = random_cloud(rng, n, d)
        a = meb(pts)
        b = meb_bruteforce(pts)
        assert math.isclose(a.radius, b.radius, rel_tol=1e-9, abs_tol=1e-12)
        assert np.allclose(a.center, b.center, atol=1e-7)


def test_grid_single_ball_center():
    from mebagg import Ball, CandidateBalls

    cb = CandidateBalls.from_balls([Ball(np.array([1.0, 2.0]), 1.0)])
    point, value = grid_minmax(cb, resolution=40)
    assert np.allclose(point, [1, 2], atol=1e-6)
    assert math.isclose(value, -1.0, abs_tol=1e-6)


def test_grid_tangent_balls_value():
    point, value = grid_minmax(tangent_unit_balls(2), resolution=400, zooms=6)
    assert abs(value - 0.1547005) <= 1e-3
    assert np.linalg.norm(point) <= 1e-2


def test_grid_interval_instance():
    balls = candidate_balls(np.array([[0.0], [1.0], [10.0]]), 1)
    point, value = grid_minmax(balls, resolution=200, zooms=8)
    assert abs(point[0] - 1.0) <= 1e-6
    assert abs(value) <= 1e-9


def test_grid_dimension_cap():
    from mebagg import Ball, CandidateBalls

    cb = CandidateBalls.from_balls([Ball(np.zeros(4), 1.0)])
    with pytest.raises(InstanceTooLargeError):
        grid_minmax(cb, resolution=10)


def test_candidate_balls_bruteforce_limits():
    with pytest.raises(InvalidFaultBudgetError):
        candidate_balls_bruteforce(np.zeros((3, 1)), 3)
    # C(40, 20) is about 1.4e11 subsets
    with pytest.raises(InstanceTooLargeError):
        candidate_balls_bruteforce(np.zeros((40, 1)), 20)


def test_solver_agrees_with_grid_random(rng):
    for _ in range(25):
        n = int(rng.integers(4, 9))
        d = int(rng.integers(1, 3))
        t = int(rng.integers(1, (n - 1) // 2 + 1))
        pts = random_cloud(rng, n, d)
        balls = candidate_balls(pts, t)
        if np.any(balls.radii() <= 0):
            continue
        y, v = solve_minmax(balls)
        _, gv = grid_minmax(balls, resolution=90, zooms=12)
        assert v <= gv + 1e-3
        assert gv <= v + 1e-3


def test_solver_handles_extreme_radius_ratios(rng):
    # synthetic balls with radii spanning two orders of magnitude
    from mebagg import Ball, CandidateBalls

    for _ in range(40):
        b = int(rng.integers(2, 12))
        d = int(rng.integers(1, 3))
        centers = rng.normal(size=(b, d)) * 2
        radii = rng.uniform(0.05, 2.0, size=b)
        cb = CandidateBalls.from_balls(
            Ball(c, float(r)) for c, r in zip(centers, radii)
        )
        _, solved = solve_minmax(cb)
        _, grid = grid_minmax(cb, resolution=100, zooms=12)
        assert solved <= grid + 1e-5
        assert grid <= solved + 1e-3


def test_exhaustive_factor_t0_is_plain_factor(rng):
    pts = random_cloud(rng, 6, 2)
    ball = meb(pts)
    y = mean_aggregate(pts).output
    expected = np.linalg.norm(y - ball.center) / ball.radius
    assert math.isclose(exhaustive_factor(pts, 0, y=y), expected, rel_tol=1e-9)


def test_exhaustive_factor_matches_minmax_achieved_value():
    # instance with an empty candidate intersection: the worst designation
    # ratio of the minmax output equals 1 + its achieved value
    inst = medoid_counterexample(4, 10.0)
    result = minmax_meb(inst.points, 4)
    assert result.achieved_value > 1e-6
    factor = exhaustive_factor(inst.points, 4, y=result.output)
    assert math.isclose(factor, 1.0 + result.achieved_value, abs_tol=1e-6)


def test_worst_designation_reports_subset():
    inst = medoid_counterexample(4, 10.0)
    medoid_point = np.array([1.0, 1.0])
    factor, subset = worst_designation(inst.points, 4, medoid_point)
    assert factor >= math.sqrt(5) - 1e-9
    assert subset is not None and len(subset) == inst.points.n - 4


def test_worst_designation_witness_survives_ulp_moves():
    # the medoid 2 of the points 0..4 lies on the spheres of the witnesses
    # (0, 1, 2) and (2, 3, 4), both at ratio 1; moving the centers by a few
    # ulps must not hand the witness to whichever ratio rounds ahead
    pts = np.arange(5.0)[:, None]
    y = medoid(pts).output
    cb = candidate_balls(pts, 2)
    assert worst_designation(pts, 2, y, balls=cb) == (1.0, (0, 1, 2))
    rng = np.random.default_rng(3)
    for _ in range(50):
        ulps = rng.integers(-4, 5, size=cb.center_array.shape)
        moved = CandidateBalls(cb.center_array + ulps * np.spacing(cb.center_array),
                               cb.radius_array, cb.witness_array)
        factor, witness = worst_designation(pts, 2, y, balls=moved)
        assert witness == (0, 1, 2)
        assert factor == moved.ratios(y).max()
