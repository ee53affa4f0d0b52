"""The benchmark's four workloads.

Each workload builds all of its inputs during set-up, from the seed alone,
then runs one kind of operation over them in a closed loop. An op receives
only arrays, numbers and paths, calls mebagg through a ``spans.Layers``
object, and returns whether its output passed the workload's correctness
check. README.md says why each workload exists.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from mebagg.aggregate import medoid
from mebagg.io import format_float, save_points
from mebagg.scenarios import random_instance
from mebagg.validity import RELATIONS, theoretical_bound

CLI_TIMEOUT_S = 60
SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int, Path], list]
    op: Callable[[tuple, object], bool]


def _instances(shapes, seed: int, passes: int):
    """``passes`` instances of every (n, t, d, strategy) shape, pass-major.

    The shapes are fixed, so every seed gives the same mix of sizes; the
    seed draws the coordinates. Consecutive instances differ in shape, so
    any stretch of a pass holds the whole mix. Each workload asks for as
    many passes as take about 20 s to run: a run then meets each input about
    once, and many distinct instances keep its figures from hanging on a
    few of them.
    """
    seeds = np.random.default_rng(seed).integers(0, 2**31, size=passes * len(shapes))
    for k, inst_seed in enumerate(seeds):
        n, t, d, strategy = shapes[k % len(shapes)]
        yield random_instance(n, t, d, seed=int(inst_seed), strategy=strategy)


def _alternate(shapes):
    """Give every other shape the cluster placement, the rest uniform-far."""
    return [(*s, "cluster" if i % 2 else "uniform-far") for i, s in enumerate(shapes)]


def _distinct(balls) -> int:
    """Distinct (center, radius) pairs, rounded to 12 digits as solve_minmax rounds them."""
    keyed = np.round(np.column_stack([balls.centers(), balls.radii()]), 12)
    return int(np.unique(keyed, axis=0).shape[0])


def _candidate_balls(lay, pts: np.ndarray, t: int):
    balls = lay.candidate_balls(pts, t)
    n, d = pts.shape
    # The all-subset fast path runs for n <= 16 and d <= 6, subset
    # enumeration otherwise; the side is read from the input shape.
    lay.annotate(
        side="fast_side" if n <= 16 and d <= 6 else "enum_side",
        subsets=math.comb(n, n - t),
        distinct=lambda: _distinct(balls),
    )
    return balls


# ---------------------------------------------------------------------------
# sweep: candidate balls, the min-max solve and the exhaustive factor


def _criterion02_shapes(count: int):
    """The first ``count`` (n, t, d, strategy) draws of acceptance criterion 02."""
    rng = np.random.default_rng(20260808)
    shapes = []
    for i in range(count):
        n = int(rng.integers(3, 13))
        t = int(rng.integers(1, (n - 1) // 2 + 1))
        d = int(rng.integers(1, 5))
        shapes.append((n, t, d, "cluster" if i % 3 == 2 else "uniform-far"))
    return shapes


SWEEP_SHAPES = _criterion02_shapes(30)


def sweep_setup(seed: int, workdir: Path) -> list:
    return [
        (inst.points.points, inst.spec.params["t"], inst.spec.params["d"])
        for inst in _instances(SWEEP_SHAPES, seed, passes=10)
    ]


def sweep_op(inp, lay) -> bool:
    pts, t, d = inp
    balls = _candidate_balls(lay, pts, t)
    result = lay.minmax_meb(pts, t, balls=balls)
    factor = lay.exhaustive_factor(pts, t, y=result.output, balls=balls)
    bound = lay.theoretical_bound("minmax-meb", pts.shape[0], t, d)
    return factor <= bound + 1e-4 and factor < SQRT2 + 1e-4


# ---------------------------------------------------------------------------
# worstcase: unlabeled certification of the medoid, both candidate paths

WORSTCASE_SHAPES = _alternate([
    # fast path and enumerated path interleaved, so any prefix of a pass
    # holds both sides. Enumerated-path cost varies a lot with the points
    # (Welzl's recursion), so those shapes stay small to keep runs steady.
    (12, 4, 2), (17, 1, 2),
    (13, 4, 3), (19, 1, 3),
    (14, 5, 2), (20, 1, 2),
    (16, 5, 2), (24, 1, 2),
    (16, 4, 3), (18, 1, 4),
    (11, 4, 4), (9, 2, 8),
    (10, 3, 6), (10, 2, 8),
    (9, 3, 5), (8, 3, 8),
])


def worstcase_setup(seed: int, workdir: Path) -> list:
    out = []
    for inst in _instances(WORSTCASE_SHAPES, seed, passes=16):
        pts = inst.points.points
        out.append((pts, inst.spec.params["t"], medoid(pts).output))
    return out


def worstcase_op(inp, lay) -> bool:
    pts, t, y = inp
    balls = _candidate_balls(lay, pts, t)
    factor, witness = lay.worst_designation(pts, t, y, balls=balls)
    exhaustive = lay.exhaustive_factor(pts, t, y=y, balls=balls)
    bound = lay.theoretical_bound("medoid", pts.shape[0], t)
    return (
        factor <= bound + 1e-6
        and witness is not None
        and math.isclose(factor, exhaustive, rel_tol=1e-12)
    )


# ---------------------------------------------------------------------------
# labeled: certificates of mda, medoid and geometric median on the honest ball

LABELED_SHAPES = _alternate([
    # n = 20, t = 7 makes mda gather its largest index array; d = 12 takes
    # the core-set meb path. Every op computes the honest meb several times,
    # so the d = 8 and d = 12 shapes keep n - t <= 9 to keep runs steady.
    (20, 7, 2), (15, 6, 8),
    (17, 6, 3), (14, 5, 12),
    (16, 5, 2), (12, 4, 8),
    (13, 4, 3), (11, 4, 12),
    (11, 3, 2), (10, 2, 8),
    (7, 2, 3), (9, 3, 12),
])
# rule -> (function, tolerance of acceptance criterion 06)
LABELED_RULES = {
    "mda": ("mda", 1e-6),
    "medoid": ("medoid", 1e-6),
    "geomedian": ("geometric_median", 1e-4),
}


def labeled_setup(seed: int, workdir: Path) -> list:
    # Each op gets an instance of its own, the rules taking turns pass by
    # pass. The three rules on one instance cost much alike (the honest meb
    # dominates), so sharing instances would leave the tail to a third as
    # many draws and make it hang on the seed.
    rules = list(LABELED_RULES)
    out = []
    relation_seeds = np.random.default_rng([seed, 1])
    for k, inst in enumerate(_instances(LABELED_SHAPES, seed, passes=16 * len(rules))):
        rule = rules[k // len(LABELED_SHAPES) % len(rules)]
        relation_seed = int(relation_seeds.integers(0, 2**31))
        out.append((inst.points.points, inst.points.honest_points(), inst.spec.params["t"],
                    rule, relation_seed))
    return out


def labeled_op(inp, lay) -> bool:
    pts, honest, t, rule, relation_seed = inp
    fn_name, tol = LABELED_RULES[rule]
    y = getattr(lay, fn_name)(pts, t).output
    ball = lay.meb(honest)
    bound = lay.theoretical_bound(rule, pts.shape[0], t)
    factor = float(np.linalg.norm(y - ball.center)) / ball.radius
    bias = float(np.linalg.norm(y - honest.mean(axis=0)))
    c_meb = lay.check_c_meb(y, honest, bound, tol=tol)
    lay.check_convex(y, honest)
    lay.check_box(y, honest)
    bias_cert = lay.check_bias_bound(y, honest, factor, tol=1e-6)
    rng = np.random.default_rng(relation_seed)
    relations = [
        lay.relation_check(rel, honest, rng=rng, tol=1e-6, c=float(rng.uniform(1.0, 3.0)))
        for rel in RELATIONS
    ]
    return (
        factor <= bound + tol  # criterion 06
        and c_meb.passed
        and bias <= (factor + 1.0) * ball.radius + 1e-6  # criterion 10
        and bias_cert.passed
        and all(r.passed for r in relations)  # criterion 08
    )


# ---------------------------------------------------------------------------
# cli: mebagg subprocesses on files written at set-up

CLI_SHAPES = _alternate([(8, 2, 2), (7, 3, 3), (9, 2, 2), (7, 2, 3)])


def cli_setup(seed: int, workdir: Path) -> list:
    out = []
    for k, inst in enumerate(_instances(CLI_SHAPES, seed, passes=7)):
        path = str(workdir / f"points-{k}.csv")
        save_points(inst.points, path)
        n, t, d = (inst.spec.params[key] for key in ("n", "t", "d"))
        y = ",".join(format_float(v) for v in medoid(inst.points.points).output)
        c = format_float(theoretical_bound("medoid", n, t))
        faults = ["-t", str(t)]
        out += [
            ("aggregate", ["aggregate", path, "--rule", "minmax-meb", *faults], d),
            ("aggregate", ["aggregate", path, "--rule", "mda", *faults], d),
            ("certify", ["certify", path, f"--y={y}", f"--c={c}", *faults], d),
            ("certify", ["certify", path, f"--y={y}", f"--c={c}", "--ignore-labels", *faults], d),
        ]
    return out


def cli_op(inp, lay) -> bool:
    command, argv, d = inp
    with lay.span(f"cli.{command}"):
        proc = subprocess.run(
            [sys.executable, "-m", "mebagg.cli", *argv],
            capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
        )
    if proc.returncode != 0:
        return False
    report = json.loads(proc.stdout)
    lay.annotate(compute_s=report["wall_time_s"])
    problems = lay.validate_report(report)
    vector = report["output"] if command == "aggregate" else report["y"]
    return not problems and report["command"] == command and len(vector) == d


WORKLOADS = {
    "sweep": Workload(sweep_setup, sweep_op),
    "worstcase": Workload(worstcase_setup, worstcase_op),
    "labeled": Workload(labeled_setup, labeled_op),
    "cli": Workload(cli_setup, cli_op),
}
