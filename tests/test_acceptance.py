"""End-to-end acceptance checks, one test per criterion.

Run with ``pytest -v`` to see one pass/fail line per criterion, or add
``-s`` for the printed summaries (value + wall time).
"""

import math
import time
import zlib

import numpy as np
import pytest

from mebagg import (
    RELATIONS,
    candidate_balls,
    check_convex,
    exhaustive_factor,
    geometric_median,
    gm_convex_violation_instance,
    gm_impossibility_instance,
    grid_minmax,
    lower_bound_construction,
    mda,
    meb,
    meb_bruteforce,
    medoid,
    medoid_counterexample,
    minmax_meb,
    random_instance,
    relation_check,
    safe_meb_empty,
    solve_minmax,
    tangent_unit_balls,
    theoretical_bound,
)

SQRT2 = math.sqrt(2.0)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------


def test_criterion_01_minmax_on_tangent_balls():
    start = time.perf_counter()
    balls = tangent_unit_balls(2)
    _, value = solve_minmax(balls)
    elapsed = time.perf_counter() - start
    expected = 1.0 / (3.0 + 2.0 * math.sqrt(3.0))
    ok = abs(value - expected) <= 1e-4 and elapsed < 1.0
    report(
        1,
        ok,
        f"tangent-ball min-max value {value:.7f} vs {expected:.7f}, "
        f"factor {1 + value:.7f}, {elapsed:.2f}s",
    )
    assert abs(value - expected) <= 1e-4
    assert abs((1 + value) - 1.1547005) <= 1e-4
    assert elapsed < 1.0


def test_criterion_02_minmax_worst_designation_bound():
    start = time.perf_counter()
    rng = np.random.default_rng(20260808)
    worst_gap = -math.inf
    count = 0
    while count < 1000:
        n = int(rng.integers(3, 13))
        if n < 3:
            continue
        t = int(rng.integers(1, (n - 1) // 2 + 1))
        d = int(rng.integers(1, 5))
        strategy = "cluster" if count % 3 == 2 else "uniform-far"
        inst = random_instance(n, t, d, spread=1.0, seed=count, strategy=strategy)
        balls = candidate_balls(inst.points, t)
        result = minmax_meb(inst.points, t, balls=balls)
        factor = exhaustive_factor(inst.points, t, y=result.output, balls=balls)
        bound = theoretical_bound("minmax-meb", n, t, d)
        assert factor <= bound + 1e-4, (n, t, d, count, factor, bound)
        assert factor < SQRT2 + 1e-4
        worst_gap = max(worst_gap, factor - bound)
        count += 1
    elapsed = time.perf_counter() - start
    ok = elapsed < 120.0
    report(
        2,
        ok,
        f"1000 instances, worst factor-bound gap {worst_gap:.3e}, {elapsed:.1f}s",
    )
    assert elapsed < 120.0


def test_criterion_03_medoid_counterexample_t8():
    start = time.perf_counter()
    inst = medoid_counterexample(8, 10.0)
    result = medoid(inst.points)
    out = result.output
    in_expected = any(
        np.allclose(out, e, atol=1e-9) for e in ([1.0, 1.0], [3.0, 1.0])
    )
    hostile = "ECD" if out[0] <= 2.0 else "ABE"
    dist = float(np.linalg.norm(out - inst.balls[hostile].center))
    elapsed = time.perf_counter() - start
    ok = in_expected and abs(dist - math.sqrt(5)) <= 1e-9 and elapsed < 1.0
    report(
        3,
        ok,
        f"medoid {out.tolist()} (expected a top cluster), distance to hostile "
        f"center {dist:.6f} vs sqrt(5)={math.sqrt(5):.6f}, {elapsed:.2f}s",
    )
    assert in_expected, (
        "medoid of the t=8 construction is the middle pair (2,0): its "
        "distance-sum 22+8*sqrt(2) undercuts the top clusters at this size; "
        "the advertised behavior first appears at t=12 (see README, Known red)"
    )
    assert abs(dist - math.sqrt(5)) <= 1e-9
    assert elapsed < 1.0


def test_criterion_04_gm_impossibility_t200():
    start = time.perf_counter()
    inst = gm_impossibility_instance(200, 10.0)
    result = geometric_median(inst.points)
    balance = np.array([2.0, 1.0 - 1.0 / math.sqrt(3.0)])
    d_balance = float(np.linalg.norm(result.output - balance))
    d_center = float(np.linalg.norm(result.output - np.array([1.0, 0.0])))
    elapsed = time.perf_counter() - start
    ok = d_balance <= 0.01 and abs(d_center - 1.0857) <= 0.01 and elapsed < 5.0
    report(
        4,
        ok,
        f"gm at {result.output.round(5).tolist()}, |gm-balance|={d_balance:.4f}, "
        f"dist to (1,0)={d_center:.4f} vs 1.0857, {elapsed:.2f}s",
    )
    assert d_balance <= 0.01
    assert abs(d_center - 1.0857) <= 0.01
    assert elapsed < 5.0


def test_criterion_05_gm_convex_violation_t50():
    start = time.perf_counter()
    inst = gm_convex_violation_instance(50)
    result = geometric_median(inst.points)
    gaps = [
        check_convex(result.output, inst.designation_points(name)).achieved
        for name in inst.designations
    ]
    elapsed = time.perf_counter() - start
    ok = min(gaps) > 0.01 and elapsed < 5.0
    report(
        5,
        ok,
        f"gm {result.output.round(5).tolist()}, hull distance {min(gaps):.4f} > 0.01, "
        f"{elapsed:.2f}s",
    )
    assert min(gaps) > 0.01
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# guarantee sweeps (shared by criteria 6 and 10)

RULES_UNDER_TEST = {
    "mda": mda,
    "medoid": lambda pts, t: medoid(pts),
    "geomedian": lambda pts, t: geometric_median(pts),
}

SWEEP_TOLS = {"mda": 1e-6, "medoid": 1e-6, "geomedian": 1e-4}


@pytest.fixture(scope="module")
def guarantee_sweeps():
    records = {}
    timings = {}
    for name, fn in RULES_UNDER_TEST.items():
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        rows = []
        start = time.perf_counter()
        for seed in range(1000):
            n = int(rng.integers(3, 16))
            t = int(rng.integers(1, (n - 1) // 2 + 1))
            d = int(rng.integers(1, 5))
            strategy = "cluster" if seed % 3 == 2 else "uniform-far"
            inst = random_instance(n, t, d, spread=1.0, seed=seed, strategy=strategy)
            honest = inst.points.honest_points()
            ball = meb(honest)
            if ball.radius <= 1e-12:
                continue
            out = fn(inst.points, t).output
            factor = float(np.linalg.norm(out - ball.center)) / ball.radius
            bound = theoretical_bound(name, n, t)
            bias = float(np.linalg.norm(out - honest.mean(axis=0)))
            rows.append(
                {"n": n, "t": t, "factor": factor, "bound": bound,
                 "bias": bias, "radius": ball.radius}
            )
        timings[name] = time.perf_counter() - start
        records[name] = rows
    return records, timings


def test_criterion_06_guarantee_sweeps(guarantee_sweeps):
    records, timings = guarantee_sweeps
    total = sum(timings.values())
    worst = {}
    for name, rows in records.items():
        tol = SWEEP_TOLS[name]
        for row in rows:
            assert row["factor"] <= row["bound"] + tol, (name, row)
        worst[name] = max(row["factor"] / row["bound"] for row in rows)
    ok = total < 300.0
    report(
        6,
        ok,
        "worst factor/bound ratios "
        + ", ".join(f"{k}={v:.3f}" for k, v in worst.items())
        + f", {total:.1f}s",
    )
    assert total < 300.0


def test_criterion_10_bias_bound_on_sweeps(guarantee_sweeps):
    records, _ = guarantee_sweeps
    checked = 0
    for rows in records.values():
        for row in rows:
            budget = (row["factor"] + 1.0) * row["radius"] + 1e-6
            assert row["bias"] <= budget, row
            checked += 1
    report(10, True, f"bias within (factor+1)*radius on {checked} sweep instances")


# ---------------------------------------------------------------------------


def test_criterion_07_lower_bound_emptiness():
    start = time.perf_counter()
    inst = lower_bound_construction(3, 3)
    balls = candidate_balls(inst.points, 3)
    empty, value = safe_meb_empty(balls)
    _, grid_value = grid_minmax(balls, resolution=120, zooms=12)
    elapsed = time.perf_counter() - start
    ok = empty and value > 1e-3 and abs(value - grid_value) <= 1e-3 and elapsed < 120.0
    report(
        7,
        ok,
        f"empty={empty}, min-max value {value:.6f} (grid {grid_value:.6f}), "
        f"{elapsed:.1f}s",
    )
    assert empty
    assert value > 1e-3
    assert abs(value - grid_value) <= 1e-3
    assert elapsed < 120.0


def test_criterion_08_relation_property_suites():
    start = time.perf_counter()
    rng = np.random.default_rng(88)
    per_relation = 10_000
    samples_per_instance = 25
    for relation in RELATIONS:
        done = 0
        while done < per_relation:
            n = int(rng.integers(2, 9))
            d = int(rng.integers(1, 5))
            honest = rng.normal(size=(n, d)) * rng.uniform(0.5, 2.0)
            for _ in range(min(samples_per_instance, per_relation - done)):
                rep = relation_check(relation, honest, rng=rng, tol=1e-6,
                                     c=float(rng.uniform(1.0, 3.0)))
                assert rep.passed, (relation, rep)
                done += 1
    elapsed = time.perf_counter() - start
    ok = elapsed < 120.0
    report(8, ok, f"4 x {per_relation} sampled implications, zero violations, {elapsed:.1f}s")
    assert elapsed < 120.0


def test_criterion_09_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    for _ in range(500):
        n = int(rng.integers(1, 11))
        d = int(rng.integers(1, 5))
        pts = rng.normal(size=(n, d))
        fast = meb(pts)
        slow = meb_bruteforce(pts)
        assert math.isclose(fast.radius, slow.radius, rel_tol=1e-9, abs_tol=1e-12)
    ball_time = time.perf_counter() - start

    worst = 0.0
    done = 0
    while done < 200:
        n = int(rng.integers(3, 10))
        d = int(rng.integers(1, 3))
        t = int(rng.integers(1, (n - 1) // 2 + 1))
        pts = rng.normal(size=(n, d))
        balls = candidate_balls(pts, t)
        if np.any(balls.radii() <= 1e-12):
            continue
        _, solved = solve_minmax(balls)
        _, grid = grid_minmax(balls, resolution=80, zooms=12)
        assert abs(solved - grid) <= 1e-3, (n, t, d, solved, grid)
        worst = max(worst, abs(solved - grid))
        done += 1
    elapsed = time.perf_counter() - start
    ok = elapsed < 120.0
    report(
        9,
        ok,
        f"500 ball oracles ({ball_time:.1f}s) + 200 min-max oracles, "
        f"worst value gap {worst:.2e}, {elapsed:.1f}s",
    )
    assert elapsed < 120.0
