import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from mebagg import (
    Ball,
    CandidateBalls,
    InvalidParamsError,
    MebaggError,
    PointSet,
    RELATIONS,
    ResilienceViolationError,
    ZeroRadiusError,
    candidate_balls,
    check_bias_bound,
    check_box,
    check_c_meb,
    check_convex,
    check_relaxed_convex,
    dist_to_ball,
    geometric_median,
    meb,
    medoid_counterexample,
    phi,
    relation_check,
    safe_meb_empty,
    safe_meb_value,
    tangent_unit_balls,
    theoretical_bound,
)
from mebagg import geometry, validity
from mebagg.pointset import as_points
from conftest import random_cloud

# ---------------------------------------------------------------------------
# phi


def test_phi_center_is_zero():
    assert phi((3, 0), Ball(np.array([3.0, 0.0]), 1.0)) == 0.0


def test_phi_at_twice_radius():
    assert math.isclose(phi((2, 0), Ball(np.array([0.0, 0.0]), 1.0)), 1.0)


def test_phi_counterexample_geometry():
    value = phi((1, 1), Ball(np.array([3.0, 0.0]), 1.0))
    assert math.isclose(value, math.sqrt(5) - 1, rel_tol=1e-12)


def test_phi_zero_radius_error():
    with pytest.raises(ZeroRadiusError):
        phi((0, 0), Ball(np.array([0.0, 0.0]), 0.0))


# ---------------------------------------------------------------------------
# c-relaxed ball certificates


def test_c_meb_pass_at_center(rng):
    honest = random_cloud(rng, 6, 2)
    ball = meb(honest)
    cert = check_c_meb(ball.center, honest, 1.0)
    assert cert.passed and cert.achieved <= 1e-12


def test_c_meb_fail_outside():
    honest = [(0.0, 0.0), (2.0, 0.0)]
    # radius 1 around (1,0); a point at distance 1.2 fails c=1
    cert = check_c_meb((1.0, 1.2), honest, 1.0)
    assert not cert.passed
    assert math.isclose(cert.achieved, 1.2, rel_tol=1e-9)


def test_c_meb_counterexample_designation():
    inst = medoid_counterexample(8, 10.0)
    honest = inst.designation_points("ECD")
    cert = check_c_meb((1.0, 1.0), honest, 2.0)
    assert not cert.passed
    assert math.isclose(cert.achieved, math.sqrt(5), rel_tol=1e-9)


def test_c_meb_zero_radius_point_semantics():
    honest = [(1.0, 1.0), (1.0, 1.0)]
    assert check_c_meb((1.0, 1.0), honest, 1.0).passed
    assert not check_c_meb((1.0, 1.0 + 1e-3), honest, 1.0).passed


def test_c_meb_requires_c_at_least_one():
    with pytest.raises(InvalidParamsError):
        check_c_meb((0, 0), [(0.0, 0.0), (1.0, 0.0)], 0.5)


def test_c_meb_rejects_a_nan_factor():
    with pytest.raises(InvalidParamsError):
        check_c_meb((0, 0), [(0.0, 0.0), (1.0, 0.0)], math.nan)


# ---------------------------------------------------------------------------
# safe intersection value / emptiness


def interval_balls():
    return candidate_balls(np.array([[0.0], [1.0], [10.0]]), 1)


def test_safe_value_zero_inside_intersection():
    balls = interval_balls()
    assert safe_meb_value((1.0,), balls) == 0.0


def test_safe_value_outside_worst_ball():
    balls = interval_balls()
    # at y=0 only the [1,10] candidate is violated: (5.5 - 4.5)/4.5
    assert math.isclose(safe_meb_value((0.0,), balls), 1 / 4.5, rel_tol=1e-12)


def test_safe_value_t0_center():
    pts = random_cloud(np.random.default_rng(0), 5, 2)
    balls = candidate_balls(pts, 0)
    assert safe_meb_value(balls.balls[0].center, balls) == 0.0


def test_safe_empty_false_for_t0():
    pts = random_cloud(np.random.default_rng(1), 5, 2)
    empty, value = safe_meb_empty(candidate_balls(pts, 0))
    assert not empty and value == 0.0


def test_safe_empty_tangent_balls():
    empty, value = safe_meb_empty(tangent_unit_balls(2))
    assert empty
    assert abs(value - 0.1547005) <= 1e-6


def test_minmax_output_lands_in_nonempty_intersection(rng):
    # whenever the candidate balls do intersect, the minmax output must sit
    # inside every one of them
    from mebagg import minmax_meb

    checked = 0
    for seed in range(40):
        n = int(rng.integers(3, 9))
        t = int(rng.integers(1, (n - 1) // 2 + 1))
        pts = random_cloud(rng, n, 2)
        balls = candidate_balls(pts, t)
        if np.any(balls.radii() <= 1e-12):
            continue
        result = minmax_meb(pts, t, balls=balls)
        if result.achieved_value <= 1e-12:
            assert safe_meb_value(result.output, balls) <= 1e-9
            checked += 1
    assert checked >= 10


# ---------------------------------------------------------------------------
# convex / box / relaxed-convex / bias


def test_convex_pass_for_mean(rng):
    honest = random_cloud(rng, 6, 2)
    assert check_convex(honest.mean(axis=0), honest).passed


def test_convex_fail_off_segment():
    honest = np.array([(0.0, 0.0)] * 3 + [(0.0, 1.0)] * 3)
    cert = check_convex((0.5, 0.5), honest)
    assert not cert.passed
    assert math.isclose(cert.achieved, 0.5, rel_tol=1e-6)


def test_convex_pass_for_input_point(rng):
    honest = random_cloud(rng, 6, 3)
    assert check_convex(honest[2], honest).passed


def test_box_examples():
    honest = np.array([(0.0, 0.0), (0.0, 1.0)])
    assert check_box((0.0, 0.4), honest).passed
    cert = check_box((0.5, 0.5), honest)
    assert not cert.passed and math.isclose(cert.achieved, 0.5)
    assert check_box((0.0, 1.0), honest).passed  # box vertex


def test_relaxed_convex_examples():
    honest = [(0.0, 0.0), (1.0, 0.0)]
    assert check_relaxed_convex((0.5, 0.0), honest, 0.5).passed
    assert not check_relaxed_convex((0.5, 0.0), honest, 0.4).passed
    cert = check_relaxed_convex((0.0, 1.0), [(0.0, 0.0)], 1.0)
    assert math.isclose(cert.achieved, 1.0) and cert.passed


@pytest.mark.parametrize("delta", [-1.0, math.nan, math.inf])
def test_relaxed_convex_rejects_a_negative_or_non_finite_delta(delta):
    with pytest.raises(InvalidParamsError, match="delta"):
        check_relaxed_convex((0.5, 0.0), [(0.0, 0.0), (1.0, 0.0)], delta)


def test_relaxed_convex_achieved_matches_dense_hull_max(rng):
    for _ in range(10):
        honest = random_cloud(rng, 6, 2)
        y = rng.normal(size=2) * 2
        cert = check_relaxed_convex(y, honest, 1.0)
        # dense hull sampling: interior mixtures plus the vertices themselves
        w = rng.dirichlet(np.ones(6), size=4000)
        samples = np.vstack([w @ honest, honest])
        sampled = float(np.max(np.linalg.norm(samples - y, axis=1)))
        assert abs(cert.achieved - sampled) <= 1e-4


def test_bias_bound_examples(rng):
    honest = random_cloud(rng, 6, 2)
    ball = meb(honest)
    cert = check_bias_bound(ball.center, honest, 1.0)
    assert cert.passed and cert.achieved <= ball.radius + 1e-9
    cert = check_bias_bound(honest.mean(axis=0), honest, 1.0)
    assert cert.achieved <= 1e-12


@pytest.mark.parametrize("c", [-3.0, math.nan, math.inf])
def test_bias_bound_rejects_a_negative_or_non_finite_factor(c):
    with pytest.raises(InvalidParamsError, match="c must be"):
        check_bias_bound((0.5, 0.0), [(0.0, 0.0), (1.0, 0.0)], c)


@pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf])
def test_every_check_rejects_a_negative_or_non_finite_tol(tol):
    honest, y = [(0.0, 0.0), (1.0, 0.0)], (0.5, 0.0)
    checks = [
        lambda: check_c_meb(y, honest, 2.0, tol=tol),
        lambda: check_convex(y, honest, tol=tol),
        lambda: check_box(y, honest, tol=tol),
        lambda: check_relaxed_convex(y, honest, 1.0, tol=tol),
        lambda: check_bias_bound(y, honest, 1.0, tol=tol),
        lambda: safe_meb_empty(candidate_balls(honest, 0), tol=tol),
        *(lambda rel=rel: relation_check(rel, honest, tol=tol) for rel in RELATIONS),
    ]
    for check in checks:
        with pytest.raises(InvalidParamsError, match="tol must be >= 0 and finite"):
            check()


def test_bias_bound_accepts_a_factor_below_one():
    # an achieved factor below 1 is checked as is: (0 + 1) * radius 0.5
    honest = [(0.0, 0.0), (1.0, 0.0)]
    assert check_bias_bound((1.0, 0.0), honest, 0.0).passed
    assert not check_bias_bound((1.1, 0.0), honest, 0.0).passed


def test_bias_bound_follows_c_meb(rng):
    # whenever the output passes the c-relaxed ball check, the deviation
    # from the honest mean stays within (c+1) radii
    for _ in range(200):
        honest = random_cloud(rng, int(rng.integers(2, 8)), int(rng.integers(1, 4)))
        ball = meb(honest)
        if ball.radius <= 0:
            continue
        c = float(rng.uniform(1.0, 3.0))
        y = ball.center + rng.normal(size=honest.shape[1]) * ball.radius
        if check_c_meb(y, honest, c).passed:
            assert check_bias_bound(y, honest, c).passed


# ---------------------------------------------------------------------------
# verdicts at any offset and spread

_OFFSET_SPREAD = [
    (offset, spread)
    for offset in (0.0, 1.0, 1e3, 1e6, 1e9)
    for spread in (1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e6)
    if offset <= 1e6 * spread
]


@pytest.mark.parametrize("offset, spread", _OFFSET_SPREAD)
def test_verdicts_do_not_hang_on_offset_or_spread(offset, spread):
    def place(unit_pts):
        return offset + spread * np.asarray(unit_pts)

    # a right triangle: its enclosing ball has the hypotenuse as diameter
    honest = place([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    inside, outside = place((0.5, 1e-6)), place((0.5, -1e-6))
    assert check_convex(inside, honest).passed
    assert not check_convex(outside, honest).passed
    assert check_box(inside, honest).passed
    assert not check_box(outside, honest).passed

    # y = (1/4, 1/4) is farthest from the two acute vertices
    far = spread * math.hypot(0.75, 0.25)
    y = place((0.25, 0.25))
    assert check_relaxed_convex(y, honest, far * (1 + 1e-6)).passed
    assert not check_relaxed_convex(y, honest, far * (1 - 1e-6)).passed

    # the (c+1) * radius budget about the mean (1/3, 1/3), radius sqrt(2)/2
    budget = 2.5 * math.sqrt(0.5)
    for stretch, ok in ((1 - 1e-6, True), (1 + 1e-6, False)):
        y = place((1 / 3 + budget * stretch, 1 / 3))
        assert check_bias_bound(y, honest, 1.5).passed is ok

    # a single location: only y on it, within rounding, passes
    single = place([(0.3, 0.7)] * 3)
    assert check_c_meb(single[0], single, 1.5).passed
    assert check_c_meb(np.nextafter(single[0], np.inf), single, 1.5).passed
    assert not check_c_meb(place((0.3 + 1e-6, 0.7)), single, 1.5).passed

    cloud = np.random.default_rng(0).normal(size=(7, 3))
    unit = geometric_median(cloud).output
    moved = geometric_median(place(cloud)).output
    assert np.allclose((moved - offset) / spread, unit, rtol=0, atol=1e-6)


# ---------------------------------------------------------------------------
# bounds


def test_theoretical_bounds_formulas():
    assert math.isclose(theoretical_bound("mda", 5, 2), 1 + 4 / 3, rel_tol=1e-12)
    assert math.isclose(theoretical_bound("medoid", 5, 2), 11.0, rel_tol=1e-12)
    assert math.isclose(theoretical_bound("geomedian", 5, 2), 6.0, rel_tol=1e-12)
    bound = theoretical_bound("minmax-meb", 200, 3, 2)
    assert math.isclose(bound, 1.1547005383792515, rel_tol=1e-9)


def test_theoretical_bound_below_sqrt2():
    for d in (1, 2, 3, 5, 20, 1000):
        b = theoretical_bound("minmax-meb", 2001, 1000, d)
        assert b < math.sqrt(2)


def test_theoretical_bound_errors():
    with pytest.raises(ResilienceViolationError):
        theoretical_bound("medoid", 4, 2)
    with pytest.raises(ResilienceViolationError):
        theoretical_bound("geomedian", 6, 3)
    with pytest.raises(InvalidParamsError):
        theoretical_bound("mean", 5, 1)
    # no rule has a finite factor without an honest majority: mda on honest
    # (0,0), (1,0) and Byzantine (100,0), (100,1e-3) reaches 199 at t = 2
    with pytest.raises(ResilienceViolationError):
        theoretical_bound("mda", 4, 2)


@pytest.mark.parametrize(
    "rule, n, t, d",
    [("medoid", 10, 2.5, None), ("mda", 10, True, None), ("mda", 10.0, 2, None),
     ("minmax-meb", 10, 2, 2.5), ("minmax-meb", 10, 2, False)],
    ids=["fractional-t", "bool-t", "float-n", "fractional-d", "bool-d"],
)
def test_theoretical_bound_rejects_counts_that_are_not_integers(rule, n, t, d):
    with pytest.raises(InvalidParamsError, match="must be an integer >= "):
        theoretical_bound(rule, n, t, d)


def test_theoretical_bound_accepts_numpy_integers():
    assert theoretical_bound("mda", np.int64(5), np.int64(2)) == theoretical_bound("mda", 5, 2)


# ---------------------------------------------------------------------------
# region relations


def test_relation_hull_point_inside_ball(rng):
    honest = random_cloud(rng, 6, 3)
    report = relation_check("convex-implies-meb", honest, rng=rng)
    assert report.passed


def test_relation_box_corner_within_sqrtd():
    honest = np.array([(0.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
    ball = meb(honest)
    corner = np.array([1.0, 0.0])
    report = relation_check("box-implies-sqrtd-meb", honest, corner)
    assert report.passed
    assert report.achieved <= math.sqrt(2) * ball.radius + 1e-9


def test_relation_cmeb_triangle_inequality(rng):
    honest = random_cloud(rng, 5, 2)
    report = relation_check("cmeb-implies-relaxed-convex", honest, rng=rng, c=2.0)
    assert report.passed


def test_relation_relaxed_convex_factor(rng):
    honest = random_cloud(rng, 5, 2)
    report = relation_check("relaxed-convex-implies-meb", honest, rng=rng, delta=0.7)
    assert report.passed


def test_relation_relaxed_convex_holds_at_large_scale():
    # the diameter and the distance to the center square past the float range
    rng = np.random.default_rng(0)
    for _ in range(20):
        honest = rng.normal(size=(5, 2)) * 1e200
        assert relation_check("relaxed-convex-implies-meb", honest, rng=rng).passed


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_lengths_scale_past_the_float_range(scale):
    # the squares of these lengths overflow (1e200) or vanish (1e-200) unless
    # taken in a power-of-two unit, and RuntimeWarnings are errors here
    unit = np.random.default_rng(1).normal(size=(5, 2))
    pts, y, far = unit * scale, unit.mean(axis=0), unit.mean(axis=0) + 3.0
    for relation in RELATIONS:
        got = relation_check(relation, pts, rng=np.random.default_rng(2))
        want = relation_check(relation, unit, rng=np.random.default_rng(2))
        assert got.passed == want.passed
        assert math.isclose(got.achieved / scale, want.achieved, rel_tol=1e-12, abs_tol=1e-12)
    checks = [
        lambda p, v, s: check_c_meb(v, p, 2.0).achieved,
        lambda p, v, s: check_relaxed_convex(v, p, s).achieved / s,
        lambda p, v, s: check_bias_bound(v, p, 2.0).achieved / s,
        lambda p, v, s: check_convex(v, p).achieved / s,
        lambda p, v, s: dist_to_ball(v, meb(p)) / s,
        lambda p, v, s: phi(v, meb(p)),
    ]
    for check in checks:
        for v in (y, far):
            got, want = check(pts, v * scale, scale), check(unit, v, 1.0)
            assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12)


def test_relation_sampling_sweeps(rng):
    for relation in RELATIONS:
        for _ in range(50):
            honest = random_cloud(rng, int(rng.integers(2, 8)), int(rng.integers(1, 4)))
            report = relation_check(relation, honest, rng=rng)
            assert report.passed, (relation, report)


@pytest.mark.parametrize(
    "kwargs",
    [{"c": -3.0}, {"c": math.nan}, {"c": math.inf},
     {"delta": -1.0}, {"delta": math.nan}, {"delta": math.inf}],
    ids=["c-negative", "c-nan", "c-inf", "delta-negative", "delta-nan", "delta-inf"],
)
def test_relation_check_rejects_a_negative_or_non_finite_parameter(kwargs):
    honest = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    for relation in RELATIONS:
        with pytest.raises(InvalidParamsError, match=next(iter(kwargs))):
            relation_check(relation, honest, **kwargs)


def test_relation_unknown_name():
    with pytest.raises(InvalidParamsError):
        relation_check("nope", [(0.0, 0.0)])


# ---------------------------------------------------------------------------
# point sets


@pytest.mark.parametrize(
    "labels", [[["a"], "byz"], [5, "honest"], ["honest", None]], ids=["unhashable", "int", "none"]
)
def test_point_set_rejects_a_label_that_is_not_a_string(labels):
    with pytest.raises(MebaggError, match="labels must be strings"):
        PointSet(np.zeros((2, 2)), labels)


# ---------------------------------------------------------------------------
# the honest-ball memo


def _certify_all(honest, y, seed):
    """Every certificate that reads the honest ball, as plain values."""
    out = [
        check_c_meb(y, honest, 1.5).to_dict(),
        check_bias_bound(y, honest, 1.5).to_dict(),
    ]
    rng = np.random.default_rng(seed)
    for relation in RELATIONS:
        r = relation_check(relation, honest, rng=rng)
        out.append((r.relation, r.point.tolist(), r.achieved, r.bound, r.passed, r.detail))
    return out


def _memo_cases(rng):
    base = random_cloud(rng, 12, 3)
    cases = [
        PointSet(random_cloud(rng, 5, 2)),  # read-only points
        base[::2, ::-1],  # non-contiguous view
        np.repeat([[1.5, -2.0]], 4, axis=0),  # a single location
    ]
    for _ in range(20):
        cases.append(random_cloud(rng, int(rng.integers(1, 9)), int(rng.integers(1, 5))))
    return cases


def test_geometry_meb_stays_uncached():
    assert not hasattr(geometry.meb, "cache_info")


def test_memo_sees_in_place_mutation():
    honest = np.array([(0.0, 0.0), (2.0, 0.0)])
    y = (1.0, 2.5)
    first = check_c_meb(y, honest, 1.0)
    assert math.isclose(first.achieved, 2.5, rel_tol=1e-12)
    honest[1] = (4.0, 0.0)  # ball: center (2, 0), radius 2
    second = check_c_meb(y, honest, 1.0)
    assert math.isclose(second.achieved, math.hypot(1.0, 2.5) / 2.0, rel_tol=1e-12)
    assert np.array_equal(second.witness, [2.0, 0.0])


def test_memo_matches_uncached_meb(rng, monkeypatch):
    cases = _memo_cases(rng)
    ys = [rng.normal(size=as_points(h).shape[1]) for h in cases]
    # per set, check_c_meb misses the memo and the five calls after it hit
    validity._cached_meb.cache_clear()
    memoised = [_certify_all(h, y, k) for k, (h, y) in enumerate(zip(cases, ys))]
    monkeypatch.setattr(validity, "_honest_ball", geometry.meb)
    uncached = [_certify_all(h, y, k) for k, (h, y) in enumerate(zip(cases, ys))]
    assert memoised == uncached


def test_memo_is_thread_safe(rng):
    sets = [random_cloud(rng, int(rng.integers(2, 9)), 3) for _ in range(24)]
    ys = [rng.normal(size=3) for _ in sets]
    jobs = [(k % 4, h, y) for k, (h, y) in enumerate(zip(sets, ys))]

    def run(worker):
        return [_certify_all(h, y, k) for k, (w, h, y) in enumerate(jobs) if w == worker]

    validity._cached_meb.cache_clear()
    serial = [run(w) for w in range(4)]
    validity._cached_meb.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside the memo too
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(run, range(4), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial
