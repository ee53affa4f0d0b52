"""Instance generators: adversarial constructions and random test beds.

Each generator returns a ScenarioInstance carrying the point set, any
candidate honest designations with their reference balls, and the values a
verifier should reproduce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .aggregate import AggregateResult, CandidateBalls, RULES
from .errors import InvalidParamsError, MebaggError
from .geometry import Ball, _row_norms, meb, sample_in_ball
from .pointset import BYZANTINE, HONEST, PointSet, _count, _real

ATTACK_STARTS = 200
ATTACK_DESCENT_ROUNDS = 8


@dataclass(frozen=True)
class ScenarioSpec:
    """Parameterized description of a generated instance."""

    kind: str
    params: dict

    @classmethod
    def from_dict(cls, payload: dict) -> "ScenarioSpec":
        params = payload.get("params", {})
        if not isinstance(payload.get("kind"), str) or not isinstance(params, dict):
            raise InvalidParamsError('scenario config needs a "kind" string and a "params" object')
        return cls(kind=payload["kind"], params=dict(params))


@dataclass(frozen=True)
class ScenarioInstance:
    spec: ScenarioSpec
    points: PointSet
    designations: dict[str, tuple[int, ...]] | None = None
    balls: dict[str, Ball] | None = None
    reference: dict = field(default_factory=dict)

    def designation_points(self, name: str) -> np.ndarray:
        if not self.designations or name not in self.designations:
            raise InvalidParamsError(f"no designation named {name!r}")
        return self.points.subset(self.designations[name])


# ---------------------------------------------------------------------------
# emptiness construction


def lower_bound_geometry(dim: int) -> dict:
    """Ball layout for the intersection-emptiness construction in ``dim``
    dimensions: dim unit balls meeting in a single point plus one large ball
    pinned to the pairwise meeting points, chosen to exclude the common
    point. Row i of ``unit_centers``, ``meet_points`` and ``antipodes``
    belongs to unit ball i."""
    D = _count(dim, "dimension", 2)
    q = np.full(D, 1.0 / math.sqrt(D * (D - 1)))
    unit_centers = math.sqrt(D / (D - 1)) * np.eye(D)
    meet = ((math.sqrt(D) + 1) / (D - 1) ** 1.5) * (1.0 - np.eye(D))
    beta_meet = float(meet[0] @ (np.ones(D) / math.sqrt(D)))  # height along the diagonal
    rho_sq = float(meet[0] @ meet[0]) - beta_meet**2  # squared radius of the meeting ring

    # the big ball, centered on the diagonal at height beta_c, bulges past the
    # meeting hyperplane by sqrt(u^2 + rho^2) - u, u = beta_c - beta_meet; that
    # falls to tau = 1/(4D), comfortably inside the 1/(2D) margin that keeps q
    # outside, at u = (rho^2 - tau^2) / (2 tau). The center's coordinate keeps
    # the floor beta_meet/sqrt(D) + 0.1, which is the larger from D = 12 on.
    tau = 1.0 / (4 * D)
    u = (rho_sq - tau**2) / (2 * tau)
    y_val = max(beta_meet / math.sqrt(D) + 0.1, (beta_meet + u) / math.sqrt(D))
    beta_c = y_val * math.sqrt(D)
    big_radius = math.sqrt((beta_c - beta_meet) ** 2 + rho_sq)
    big_center = y_val * np.ones(D)
    assert np.linalg.norm(big_center - q) > big_radius  # q stays excluded
    return {
        "q": q,
        "unit_centers": unit_centers,
        "meet_points": meet,
        "antipodes": 2.0 * unit_centers - q,
        "big_center": big_center,
        "big_radius": big_radius,
        "far_point": (y_val + big_radius / math.sqrt(D)) * np.ones(D),
        "gap": beta_meet - (beta_c - big_radius),
    }


def lower_bound_construction(d: int, t: int) -> ScenarioInstance:
    """Point set whose candidate enclosing balls have an empty intersection.

    dim unit balls share exactly one point q; a large ball through the
    pairwise meeting points excludes q, so the dim+1 balls cannot intersect.
    Each ball is pinned as the enclosing ball of a size-(n-t) subset by a
    diameter pair (q with its antipode, or the meeting ring with the far
    point). The construction realizes every ball as a candidate when
    t >= dim+1; for smaller t it drops to dim_eff = t-1 dimensions, embedded
    in R^d, which certifies emptiness down to t = 3. Below that the layout
    is still emitted but no emptiness claim attaches.
    """
    d = _count(d, "d", 2)
    t = _count(t, "t", d - 1)
    dim_eff = d if t >= d + 1 else min(d, max(2, t - 1))
    mult = max(1, t - dim_eff)
    geo = lower_bound_geometry(dim_eff)

    def embed(v: np.ndarray) -> np.ndarray:
        """v, or each row of v, padded with zeros from R^dim_eff to R^d."""
        return np.concatenate([v, np.zeros(v.shape[:-1] + (d - dim_eff,))], axis=-1)

    # q and each meeting point mult times, then the antipodes and the far point
    pts = embed(np.vstack([
        np.repeat(np.vstack([geo["q"], geo["meet_points"]]), mult, axis=0),
        geo["antipodes"],
        geo["far_point"],
    ]))
    balls = {f"unit_{i}": Ball(c, 1.0) for i, c in enumerate(embed(geo["unit_centers"]))}
    balls["big"] = Ball(embed(geo["big_center"]), geo["big_radius"])
    spec = ScenarioSpec("lower-bound", {"d": d, "t": t})
    return ScenarioInstance(
        spec=spec,
        points=PointSet(pts),
        balls=balls,
        reference={
            "dim_eff": dim_eff,
            "multiplicity": mult,
            "n": pts.shape[0],
            "q": embed(geo["q"]),
            "gap": geo["gap"],
            "emptiness_certified": t >= dim_eff + 1,
        },
    )


# ---------------------------------------------------------------------------
# impossibility instances for specific rules


def _clusters(layout) -> tuple[np.ndarray, dict[str, tuple[int, ...]]]:
    """The points of ``layout``, (name, location, count) triples in order,
    and the index tuple of each named cluster."""
    rows: list = []
    index = {}
    for name, loc, count in layout:
        index[name] = tuple(range(len(rows), len(rows) + count))
        rows += [loc] * count
    return np.array(rows, dtype=float), index


def _street_scene(outer: int, top: int, middle: int, x: float):
    """Six clusters on a street: A = (0,0) and D = (4,0) with ``outer``
    points each, B = (1,1) and C = (3,1) with ``top`` each, E = (2,0) with
    ``middle`` and one stray point F = (2,x). Returns the points, the honest
    designations ABE, ECD and BCF, and their enclosing balls."""
    pts, at = _clusters([
        ("A", (0.0, 0.0), outer), ("D", (4.0, 0.0), outer), ("B", (1.0, 1.0), top),
        ("C", (3.0, 1.0), top), ("E", (2.0, 0.0), middle), ("F", (2.0, x), 1),
    ])
    designations = {name: tuple(i for c in name for i in at[c]) for name in ("ABE", "ECD", "BCF")}
    return pts, designations, {name: meb(pts[list(idx)]) for name, idx in designations.items()}


def medoid_counterexample(t: int, x: float) -> ScenarioInstance:
    """Two-cluster street scene defeating 2-relaxed ball validity of the
    medoid: n = 2t+1 points in six clusters, with three equally plausible
    honest designations whose enclosing balls disagree.

    The medoid lands in one of the top clusters (1,1)/(3,1) once the
    cluster weights dominate the middle pair; for small t the middle point
    (2,0) still wins the distance-sum race (see the regression tests for
    the crossover).
    """
    if _count(t, "t", 4) % 2:
        raise InvalidParamsError(f"t must be an even integer >= 4, got {t}")
    pts, designations, balls = _street_scene(t // 2 - 1, t // 2, 2, x)
    spec = ScenarioSpec("medoid-ce", {"t": t, "x": x})
    return ScenarioInstance(
        spec=spec,
        points=PointSet(pts),
        designations=designations,
        balls=balls,
        reference={"n": pts.shape[0], "expected_outputs": [(1.0, 1.0), (3.0, 1.0)]},
    )


def gm_impossibility_instance(t: int, x: float = 10.0) -> ScenarioInstance:
    """n = 3t-3 instance whose geometric median approaches the equal-weights
    balance point of the three big clusters, at distance ~1.0857 from the
    nearest designation ball center."""
    t = _count(t, "t", 5)
    pts, designations, balls = _street_scene(1, t - 2, t - 2, x)
    balance = np.array([2.0, 1.0 - 1.0 / math.sqrt(3.0)])
    spec = ScenarioSpec("gm-impossibility", {"t": t, "x": x})
    return ScenarioInstance(
        spec=spec,
        points=PointSet(pts),
        designations=designations,
        balls=balls,
        reference={
            "n": pts.shape[0],
            "balance_point": balance,
            "distance_to_unit_center": math.sqrt(7.0 / 3.0 - 2.0 / math.sqrt(3.0)),
        },
    )


def gm_convex_violation_instance(t: int) -> ScenarioInstance:
    """n = 3t+1 instance whose geometric median leaves the honest hull: the
    hull of any origin-plus-one-side designation is a segment, but the
    median sits strictly inside the triangle."""
    t = _count(t, "t", 2)
    pts, at = _clusters(
        [("origin", (0.0, 0.0), t + 1), ("right", (1.0, 0.0), t), ("top", (0.0, 1.0), t)]
    )
    spec = ScenarioSpec("gm-convex", {"t": t})
    return ScenarioInstance(
        spec=spec,
        points=PointSet(pts),
        designations={f"origin-{side}": at["origin"] + at[side] for side in ("right", "top")},
        reference={"n": pts.shape[0]},
    )


def tangent_unit_balls(k: int) -> CandidateBalls:
    """k+1 mutually tangent unit balls in k dimensions: centers are the
    vertices of a regular simplex with edge 2, centered at the origin."""
    k = _count(k, "k", 2)
    lifted = np.eye(k + 1) * math.sqrt(2.0)
    lifted -= lifted.mean(axis=0)
    _, _, vt = np.linalg.svd(np.ones((1, k + 1)))
    return CandidateBalls(lifted @ vt[1:].T, np.ones(k + 1))


# ---------------------------------------------------------------------------
# random instances and attacks


def _byz_uniform_far(rng, t, d, spread):
    return np.array(
        [sample_in_ball(rng, d, 1.0) * rng.uniform(2.0, 6.0) * spread for _ in range(t)]
    )


def _byz_cluster(rng, t, d, spread):
    direction = rng.normal(size=d)
    direction /= max(np.linalg.norm(direction), 1e-12)
    anchor = direction * rng.uniform(2.0, 5.0) * spread
    return anchor + rng.normal(size=(t, d)) * 1e-2 * spread


STRATEGIES = ("uniform-far", "cluster", "worst-case")


def random_instance(
    n: int,
    t: int,
    d: int,
    spread: float = 1.0,
    seed: int = 0,
    *,
    strategy: str = "uniform-far",
    rule: str = "medoid",
    attack_starts: int = ATTACK_STARTS,
) -> ScenarioInstance:
    """Seeded random instance: n-t honest points i.i.d. in a ball of radius
    ``spread`` plus t Byzantine points placed by the chosen strategy.

    ``worst-case`` searches Byzantine placements maximizing the named
    rule's relaxation factor against the honest ball (random multi-start
    plus per-coordinate descent).
    """
    n = _count(n, "n", 1)
    t = _count(t, "t", 0, n)
    d = _count(d, "d", 1)
    if _real(spread, "spread") == 0:
        raise InvalidParamsError(f"spread must be > 0, got {spread}")
    _count(attack_starts, "attack_starts")
    if strategy not in STRATEGIES:
        raise InvalidParamsError(f"unknown strategy {strategy!r}; choose from {STRATEGIES}")
    rng = np.random.default_rng(_count(seed, "seed"))
    honest = np.array([sample_in_ball(rng, d, spread) for _ in range(n - t)])
    if t == 0:
        byz = np.zeros((0, d))
    elif strategy == "uniform-far":
        byz = _byz_uniform_far(rng, t, d, spread)
    elif strategy == "cluster":
        byz = _byz_cluster(rng, t, d, spread)
    else:
        byz = _attack_search(rng, honest, t, spread, rule, attack_starts)
    pts = np.vstack([honest, byz]) if t else honest
    labels = (HONEST,) * (n - t) + (BYZANTINE,) * t
    spec = ScenarioSpec(
        "random",
        {"n": n, "t": t, "d": d, "spread": spread, "seed": seed, "strategy": strategy,
         "rule": rule},
    )
    return ScenarioInstance(spec=spec, points=PointSet(pts, labels))


def _attack_factor(rule_fn, honest: np.ndarray, byz: np.ndarray, honest_ball: Ball) -> float:
    pts = np.vstack([honest, byz])
    try:
        result: AggregateResult = rule_fn(pts, byz.shape[0])
    except MebaggError:
        return -math.inf
    dist = float(_row_norms(result.output - honest_ball.center))
    return dist / max(honest_ball.radius, 1e-12)


def _attack_search(
    rng: np.random.Generator,
    honest: np.ndarray,
    t: int,
    spread: float,
    rule: str,
    starts: int,
) -> np.ndarray:
    if rule not in RULES:
        raise InvalidParamsError(f"unknown rule {rule!r} for attack search")
    rule_fn = RULES[rule]
    d = honest.shape[1]
    ball = meb(honest)

    def rim_cluster() -> np.ndarray:
        # hug the honest ball surface just outside a support point, where a
        # colluding cluster can win selection-style rules while sitting
        # outside the ball
        if rng.random() < 0.5:
            support = honest[int(np.argmax(_row_norms(honest - ball.center)))]
            direction = support - ball.center
        else:
            direction = rng.normal(size=d)
        norm = _row_norms(direction)
        direction = direction / norm if norm > 0 else np.eye(d)[0]
        anchor = ball.center + direction * ball.radius * (1.0 + rng.uniform(0.02, 0.9))
        return anchor + rng.normal(size=(t, d)) * 1e-3 * max(ball.radius, 1e-9 * spread)

    best_byz = rim_cluster()
    best = _attack_factor(rule_fn, honest, best_byz, ball)
    for _ in range(starts):
        u = rng.random()
        if u < 0.5:
            cand = rim_cluster()
        elif u < 0.75:
            cand = _byz_cluster(rng, t, d, spread)
        else:
            cand = _byz_uniform_far(rng, t, d, spread)
        val = _attack_factor(rule_fn, honest, cand, ball)
        if val > best:
            best, best_byz = val, cand
    # per-coordinate descent around the best start
    step = spread
    byz = best_byz.copy()
    for _ in range(ATTACK_DESCENT_ROUNDS):
        improved = False
        for i in range(t):
            for j in range(d):
                for sign in (1.0, -1.0):
                    cand = byz.copy()
                    cand[i, j] += sign * step
                    val = _attack_factor(rule_fn, honest, cand, ball)
                    if val > best:
                        best, byz = val, cand
                        improved = True
        if not improved:
            step *= 0.5
    return byz

