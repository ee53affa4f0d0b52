"""Certification of aggregation outputs against geometric validity regions.

Each check compares an achieved quantity against its bound and returns a
Certificate; a witness accompanies failures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any

import numpy as np

from .aggregate import CandidateBalls, solve_minmax
from .errors import (
    InvalidParamsError,
    ResilienceViolationError,
    ZeroRadiusError,
)
from .geometry import (
    Ball, _length_tol, _mean, _row_norms, diameter, dist_to_ball, dist_to_hull, meb, sample_in_ball,
    trusted_box,
)
from .pointset import _count, _real, as_points, as_vector

ABS_TOL = 1e-9


@dataclass(frozen=True)
class Certificate:
    """Verdict for one validity condition: pass iff achieved <= bound + tol."""

    condition: str
    achieved: float
    bound: float
    passed: bool
    witness: Any = None

    def to_dict(self) -> dict:
        w = self.witness
        if isinstance(w, np.ndarray):
            w = [float(x) for x in w]
        return {
            "condition": self.condition,
            "achieved": self.achieved,
            "bound": self.bound,
            "pass": self.passed,
            "witness": w,
        }


def _certify(
    condition: str, achieved: float, bound: float, tol: float, witness, *, points=None
) -> Certificate:
    """Pass iff achieved <= bound + tol, for a finite tol >= 0. Given ``points``,
    achieved and bound are lengths among them and tol scales with their extent
    (``_length_tol``)."""
    tol = _real(tol, "tol")
    if points is not None:
        tol = _length_tol(tol, points)
    passed = achieved <= bound + tol
    return Certificate(
        condition=condition,
        achieved=float(achieved),
        bound=float(bound),
        passed=bool(passed),
        witness=None if passed else witness,
    )


# callers certify one honest set several times in a row; a few entries
# cover that and bound the memory the keys hold
@lru_cache(maxsize=4)
def _cached_meb(shape: tuple[int, int], data: bytes) -> Ball:
    return meb(np.frombuffer(data).reshape(shape))


def _honest_ball(pts: np.ndarray) -> Ball:
    """``meb`` of the honest points, memoised by value: the key is their
    shape and bytes, so a caller that mutates its array gets a new ball.
    The memo is bounded (``lru_cache``) and thread-safe, and the shared
    ``Ball`` is read-only."""
    return _cached_meb(pts.shape, pts.tobytes())


def phi(y, ball: Ball) -> float:
    """Relative gap to a candidate ball: max(0, ||y-c|| - r)/r."""
    if ball.radius <= 0:
        raise ZeroRadiusError("phi is undefined for a zero-radius ball")
    return dist_to_ball(y, ball) / ball.radius


def check_c_meb(y, honest, c: float, *, tol: float = ABS_TOL) -> Certificate:
    """Is y within c times the honest enclosing-ball radius of its center?

    The factor is compared with c at ``tol`` as is. A zero-radius honest
    ball degenerates to exact-point semantics: the factor is 0 when y is
    within rounding of the center (``geometry._length_tol``), and infinite
    otherwise. The honest ball comes from a bounded, thread-safe memo keyed
    by value (``_honest_ball``).
    """
    c = _real(c, "relaxation factor c", 1.0)
    pts = as_points(honest)
    ball = _honest_ball(pts)
    v = as_vector(y, ball.dim)
    dist = float(_row_norms(v - ball.center))
    if ball.radius <= 0:
        achieved = 0.0 if dist <= _length_tol(tol, pts) else math.inf
    else:
        achieved = dist / ball.radius
    return _certify(f"c-meb(c={c:g})", achieved, c, tol, ball.center)


def safe_meb_value(y, balls: CandidateBalls) -> float:
    """Worst relative gap of y over all candidate balls, max(0, largest
    ``CandidateBalls.ratios`` value - 1); 0 means y lies in the exact
    intersection, and a zero-radius ball whose center y misses makes it
    infinite."""
    return max(0.0, float(CandidateBalls.from_balls(balls).ratios(y).max()) - 1.0)


def safe_meb_empty(balls: CandidateBalls, *, tol: float = 1e-9) -> tuple[bool, float]:
    """Decide emptiness of the exact candidate-ball intersection.

    Returns (empty, min-max value clamped at 0): a value above ``tol``, a
    finite tolerance >= 0, means no point lies in every candidate ball.
    Zero-radius candidates with distinct centers give (True, inf).
    """
    tol = _real(tol, "tol")
    _, value = solve_minmax(balls)
    value = max(0.0, value)
    return value > tol, value


def check_convex(y, honest, *, tol: float = ABS_TOL) -> Certificate:
    """Is y inside the convex hull of the honest points?

    The distance is exact (``dist_to_hull``), so ``tol`` only absorbs
    rounding; it scales with the honest extent (``geometry._length_tol``),
    so the verdict holds at any offset. The witness is the nearest hull point.
    """
    pts = as_points(honest)
    v = as_vector(y, pts.shape[1])
    achieved, witness = dist_to_hull(v, pts, return_witness=True)
    return _certify("convex", achieved, 0.0, tol, witness, points=pts)


def check_box(y, honest, *, tol: float = ABS_TOL) -> Certificate:
    """Is y inside the coordinate-wise bounding box of the honest points?"""
    pts = as_points(honest)
    box = trusted_box(pts)
    v = as_vector(y, box.dim)
    excursions = np.maximum(box.lo - v, v - box.hi)
    worst = int(np.argmax(excursions))
    achieved = max(0.0, float(excursions[worst]))
    return _certify("box", achieved, 0.0, tol, worst, points=pts)


def check_relaxed_convex(y, honest, delta: float, *, tol: float = ABS_TOL) -> Certificate:
    """Is y within distance delta of every point of the honest hull?

    The hull maximum of the distance is attained at a vertex, so it equals
    the maximum over the honest points themselves.
    """
    delta = _real(delta, "delta")
    pts = as_points(honest)
    v = as_vector(y, pts.shape[1])
    dists = _row_norms(pts - v)
    worst = int(np.argmax(dists))
    return _certify(
        f"relaxed-convex(delta={delta:g})", float(dists[worst]), delta, tol, pts[worst],
        points=pts,
    )


def check_bias_bound(y, honest, c: float, *, tol: float = ABS_TOL) -> Certificate:
    """Deviation from the honest mean against the (c+1) * radius budget.

    Any finite c >= 0 is accepted, so an achieved factor below 1 can be
    checked. The honest ball comes from a bounded, thread-safe memo keyed by
    value (``_honest_ball``)."""
    c = _real(c, "c")
    pts = as_points(honest)
    v = as_vector(y, pts.shape[1])
    ball = _honest_ball(pts)
    mean = _mean(pts)
    bound = (c + 1.0) * ball.radius
    return _certify(f"bias(c={c:g})", float(_row_norms(v - mean)), bound, tol, mean, points=pts)


_BOUND_RULES = ("mda", "medoid", "geomedian", "minmax-meb")


def theoretical_bound(rule: str, n: int, t: int, d: int | None = None) -> float:
    """Proven worst-case relaxation factor of a rule at (n, t, d).

    mda: 1 + 2t/(n-t); medoid: (3n-2t)/(n-2t); geomedian: 2(n-t)/(n-2t);
    minmax-meb: 1 + (k-1)/(k+1+sqrt(2(k+1)k)) with k = max(1, min(d,
    C(n, n-t)-1)), so it needs d.
    Every bound needs an honest majority: n <= 2t raises
    ``ResilienceViolationError``, since no rule has a finite factor there.
    """
    if rule not in _BOUND_RULES:
        raise InvalidParamsError(
            f"no proven bound for rule {rule!r}; choose from {_BOUND_RULES}"
        )
    n = _count(n, "n", 1)
    t = _count(t, "t", 0, n)
    if rule == "minmax-meb" or d is not None:
        d = _count(d, "d", 1)
    if n <= 2 * t:
        raise ResilienceViolationError(
            f"{rule} guarantee needs an honest majority (n > 2t); got n={n}, t={t}"
        )
    if rule == "mda":
        return 1.0 + 2.0 * t / (n - t)
    if rule == "medoid":
        return (3.0 * n - 2.0 * t) / (n - 2.0 * t)
    if rule == "geomedian":
        return 2.0 * (n - t) / (n - 2.0 * t)
    k = max(1, min(d, math.comb(n, n - t) - 1))
    return 1.0 + _tangent_minmax_value(k)


def _tangent_minmax_value(k: int) -> float:
    """Min-max value of k+1 mutually tangent unit balls in k dimensions,
    (k-1)/(k+1+sqrt(2(k+1)k)): the worst case of the minmax-meb bound."""
    return (k - 1.0) / (k + 1.0 + math.sqrt(2.0 * (k + 1.0) * k))


@dataclass(frozen=True)
class RelationReport:
    """Outcome of a sampled implication between two validity regions."""

    relation: str
    point: np.ndarray
    achieved: float
    bound: float
    passed: bool
    detail: dict = field(default_factory=dict)


RELATIONS = (
    "convex-implies-meb",
    "box-implies-sqrtd-meb",
    "cmeb-implies-relaxed-convex",
    "relaxed-convex-implies-meb",
)


def _sample_hull_point(rng: np.random.Generator, pts: np.ndarray) -> np.ndarray:
    w = rng.dirichlet(np.ones(pts.shape[0]))
    return w @ pts


def relation_check(
    relation: str,
    honest,
    y=None,
    *,
    c: float = 2.0,
    delta: float | None = None,
    rng: np.random.Generator | None = None,
    tol: float = 1e-6,
) -> RelationReport:
    """Sample (or accept) a point satisfying one validity region and certify
    the region it implies, at the proven factor.

    convex-implies-meb: hull points lie in the enclosing ball.
    box-implies-sqrtd-meb: box points lie within sqrt(d) radii of the center.
    cmeb-implies-relaxed-convex: points within c radii of the center are
        within (c+1) radii of every honest point.
    relaxed-convex-implies-meb: points within delta (default diam/2) of
        the hull lie within the (1 + 2*delta/diam) inflated ball; skipped if
        the honest set is a single location.

    ``c``, ``delta`` and ``tol`` must be finite and >= 0. ``tol`` scales with the
    honest extent (``geometry._length_tol``). The honest ball comes from a
    bounded, thread-safe memo keyed by value (``_honest_ball``), so the four
    relations on one honest set build it once.
    """
    if relation not in RELATIONS:
        raise InvalidParamsError(f"unknown relation {relation!r}; choose from {RELATIONS}")
    c = _real(c, "c")
    delta = None if delta is None else _real(delta, "delta")
    tol = _real(tol, "tol")
    pts = as_points(honest)
    if rng is None:
        rng = np.random.default_rng(0)
    ball = _honest_ball(pts)
    d = pts.shape[1]
    tol = _length_tol(tol, pts)

    if relation == "convex-implies-meb":
        v = _sample_hull_point(rng, pts) if y is None else as_vector(y, d)
        achieved = dist_to_ball(v, ball)
        return RelationReport(relation, v, achieved, 0.0, achieved <= tol)

    if relation == "box-implies-sqrtd-meb":
        box = trusted_box(pts)
        if y is None:
            v = box.lo + rng.random(d) * (box.hi - box.lo)
        else:
            v = as_vector(y, d)
        dist = float(_row_norms(v - ball.center))
        bound = math.sqrt(d) * ball.radius
        return RelationReport(relation, v, dist, bound, dist <= bound + tol)

    if relation == "cmeb-implies-relaxed-convex":
        v = ball.center + sample_in_ball(rng, d, c * ball.radius) if y is None else as_vector(y, d)
        achieved = float(_row_norms(pts - v).max())
        bound = (c + 1.0) * ball.radius
        return RelationReport(
            relation, v, achieved, bound, achieved <= bound + tol, {"c": c}
        )

    # relaxed-convex-implies-meb
    diam = diameter(pts)
    if diam <= 0:
        return RelationReport(relation, ball.center, 0.0, 0.0, True, {"skipped": "diam=0"})
    if delta is None:
        delta = 0.5 * diam
    if y is None:
        base = _sample_hull_point(rng, pts)
        v = base + sample_in_ball(rng, d, delta)
    else:
        v = as_vector(y, d)
    dist = float(_row_norms((v - ball.center)[None])[0])
    bound = (1.0 + 2.0 * delta / diam) * ball.radius
    return RelationReport(
        relation, v, dist, bound, dist <= bound + tol, {"delta": delta, "diam": diam}
    )
