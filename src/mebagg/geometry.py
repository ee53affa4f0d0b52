"""Computational-geometry kernels: enclosing balls, hull distances, bends.

All operations are pure functions over immutable inputs and are safe for
concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidTangentConfigurationError,
    MebaggError,
    NonConvergenceError,
)
from .pointset import as_points, as_vector

# Dimension above which the recursive ball solver hands off to the
# iterative core-set refinement.
WELZL_MAX_DIM = 10
CORESET_EPS = 1e-7

HULL_TOL = 1e-7
HULL_MAX_ITER = 10_000


@dataclass(frozen=True)
class Ball:
    """A Euclidean ball given by center and radius."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = as_vector(self.center)
        c.setflags(write=False)
        object.__setattr__(self, "center", c)
        r = float(self.radius)
        if not math.isfinite(r) or r < 0:
            raise MebaggError(f"ball radius must be finite and >= 0, got {r}")
        object.__setattr__(self, "radius", r)

    @property
    def dim(self) -> int:
        return self.center.size


@dataclass(frozen=True)
class TrustedBox:
    """Coordinate-wise bounding hyperrectangle."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = as_vector(self.lo)
        hi = as_vector(self.hi, lo.size)
        if np.any(lo > hi):
            raise MebaggError("box must satisfy lo <= hi coordinate-wise")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return self.lo.size


def circumball(points) -> Ball:
    """Ball through all given points with center in their affine hull.

    For k affinely independent points this is the unique (k-1)-sphere
    through them, extended to the smallest d-ball. Degenerate (affinely
    dependent) inputs are resolved by a least-squares center.
    """
    pts = as_points(points)
    if pts.shape[0] == 1:
        return Ball(pts[0], 0.0)
    base = pts[0]
    V = pts[1:] - base
    G = 2.0 * (V @ V.T)
    b = np.einsum("ij,ij->i", V, V)
    try:
        gamma = np.linalg.solve(G, b)
        if not np.all(np.isfinite(gamma)):
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        gamma, *_ = np.linalg.lstsq(G, b, rcond=None)
    center = base + gamma @ V
    radius = float(np.max(np.linalg.norm(pts - center, axis=1)))
    return Ball(center, radius)


def _welzl(pts: np.ndarray) -> Ball:
    """Move-to-front Welzl on deduplicated, canonically ordered points."""
    d = pts.shape[1]
    rows = [pts[i] for i in range(pts.shape[0])]

    def ball_of(support: list[np.ndarray]) -> tuple[np.ndarray, float]:
        if not support:
            return pts[0] * 0.0, -1.0
        ball = circumball(np.array(support))
        return ball.center, ball.radius

    def mtf(order: list[int], support: list[np.ndarray]) -> tuple[np.ndarray, float]:
        center, radius = ball_of(support)
        if len(support) == d + 1:
            return center, radius
        for i, idx in enumerate(order):
            p = rows[idx]
            if np.linalg.norm(p - center) > radius * (1.0 + 1e-12) + 1e-300:
                center, radius = mtf(order[:i], support + [p])
                order[: i + 1] = [idx] + order[:i]
        return center, radius

    center, radius = mtf(list(range(len(rows))), [])
    radius = max(radius, 0.0)
    return Ball(center, radius)


def _meb_coreset(pts: np.ndarray, eps: float = CORESET_EPS) -> Ball:
    """High-dimension fallback: grow an active support set until the ball
    covers everything within relative eps."""
    far0 = int(np.argmax(np.linalg.norm(pts - pts.mean(axis=0), axis=1)))
    far1 = int(np.argmax(np.linalg.norm(pts - pts[far0], axis=1)))
    active = {far0, far1}
    ball = _welzl(pts[sorted(active)])
    for _ in range(10 * len(pts)):
        dists = np.linalg.norm(pts - ball.center, axis=1)
        worst = int(np.argmax(dists))
        if dists[worst] <= ball.radius * (1.0 + eps) + 1e-300:
            break
        active.add(worst)
        ball = _welzl(pts[sorted(active)])
    return ball


def meb(points) -> Ball:
    """Minimum enclosing ball of a point set.

    Exactly duplicated points are merged first; the result is independent of
    input order. The reported radius is the realized covering radius, so
    containment holds with no slack.
    """
    pts = as_points(points)
    uniq = np.unique(pts, axis=0)
    if uniq.shape[0] == 1:
        return Ball(uniq[0], 0.0)
    if uniq.shape[1] > WELZL_MAX_DIM:
        ball = _meb_coreset(uniq)
    else:
        ball = _welzl(uniq)
    # pin containment: report the realized covering radius
    radius = float(np.max(np.linalg.norm(pts - ball.center, axis=1)))
    return Ball(ball.center, radius)


def diameter(points) -> float:
    """Largest pairwise Euclidean distance; 0 for a singleton."""
    pts = as_points(points)
    n = pts.shape[0]
    if n == 1:
        return 0.0
    best = 0.0
    chunk = max(1, 2_000_000 // max(n, 1))
    for i in range(0, n, chunk):
        block = pts[i : i + chunk]
        d = np.linalg.norm(block[:, None, :] - pts[None, :, :], axis=2)
        best = max(best, float(d.max()))
    return best


def dist_to_ball(y, ball: Ball) -> float:
    """Euclidean gap from y to the ball surface; 0 inside."""
    v = as_vector(y, ball.dim)
    return max(0.0, float(np.linalg.norm(v - ball.center)) - ball.radius)


def dist_to_hull(
    y,
    points,
    *,
    tol: float = HULL_TOL,
    max_iter: int = HULL_MAX_ITER,
    return_witness: bool = False,
):
    """Euclidean distance from y to the convex hull of the points.

    Solved as min ||Pw - y|| over the simplex of convex weights with a
    pairwise Frank-Wolfe iteration (exact line search). Accurate to roughly
    ``max(tol, sqrt(8 eps)) * scale`` in the distance, with scale = 1 + the
    largest distance from y to a point and eps the float epsilon: the
    duality gap that stops the iteration bounds the squared distance, and
    it cannot settle below a few ulps of scale^2, so below ``tol`` of about
    4e-8 the floor sets the accuracy. When there are at most d+1 points and
    y lies in their hull, one least-squares solve for y's barycentric
    weights settles it first: the result is then the solve's residual,
    within ``tol * scale`` of y.

    Parameters
    ----------
    return_witness : also return the nearest hull point found.
    """
    pts = as_points(points)
    v = as_vector(y, pts.shape[1])
    n = pts.shape[0]
    scale = 1.0 + float(np.max(np.linalg.norm(pts - v, axis=1)))
    # the gap is a difference of products of size scale^2, so it cannot
    # settle below a few ulps of that, however small tol is
    gap_tol = max((tol * scale) ** 2, 8.0 * np.finfo(float).eps * scale**2)

    # start at the nearest vertex
    d0 = np.linalg.norm(pts - v, axis=1)
    w = np.zeros(n)
    w[int(np.argmin(d0))] = 1.0
    x = pts[int(np.argmin(d0))].copy()

    if n == 1:
        dist = float(np.linalg.norm(x - v))
        return (dist, x) if return_witness else dist

    if n <= pts.shape[1] + 1:
        # a simplex: y inside it has non-negative barycentric weights, which
        # one least-squares solve finds, where Frank-Wolfe crawls
        V = pts[1:] - pts[0]
        beta = np.linalg.lstsq(V.T, v - pts[0], rcond=None)[0]
        inside = pts[0] + beta @ V
        if (beta >= 0).all() and beta.sum() <= 1.0 and np.linalg.norm(inside - v) <= tol * scale:
            dist = float(np.linalg.norm(inside - v))
            return (dist, inside) if return_witness else dist

    converged = False
    for _ in range(max_iter):
        grad = pts @ (x - v)  # 0.5 * gradient w.r.t. w, per-vertex
        s = int(np.argmin(grad))
        active = np.flatnonzero(w > 0)
        a = active[int(np.argmax(grad[active]))]
        fw_gap = float((x - v) @ (x - pts[s]))
        if fw_gap <= gap_tol * 0.5:
            converged = True
            break
        direction = pts[s] - pts[a]
        dd = float(direction @ direction)
        if dd <= 0.0:
            converged = True
            break
        step = float((v - x) @ direction) / dd
        step = min(max(step, 0.0), w[a])
        if step == 0.0:
            # away vertex saturated and no progress available
            converged = True
            break
        w[s] += step
        w[a] -= step
        if w[a] < 1e-17:
            w[a] = 0.0
        x = x + step * direction

    if not converged:
        grad = pts @ (x - v)
        s = int(np.argmin(grad))
        fw_gap = float((x - v) @ (x - pts[s]))
        if fw_gap > gap_tol:
            raise NonConvergenceError(
                f"hull projection did not reach tolerance in {max_iter} iterations"
            )
    dist = float(np.linalg.norm(x - v))
    return (dist, x) if return_witness else dist


def sample_in_ball(rng: np.random.Generator, d: int, radius: float) -> np.ndarray:
    """Uniform draw from the d-ball of the given radius about the origin."""
    direction = rng.normal(size=d)
    norm = np.linalg.norm(direction)
    if norm == 0:
        return np.zeros(d)
    return direction / norm * radius * rng.random() ** (1.0 / d)


def trusted_box(points) -> TrustedBox:
    """Coordinate-wise min/max bounding box."""
    pts = as_points(points)
    return TrustedBox(pts.min(axis=0), pts.max(axis=0))


def soddy_inner_bend(bends, k: int, *, root: str = "inner") -> float:
    """Bend (1/radius) of the ball tangent to k+1 mutually tangent balls in
    k dimensions.

    With S and Q the sum and sum-of-squares of the given bends, the tangent
    bend solves (k-1)x^2 - 2Sx + (kQ - S^2) = 0. ``root="inner"`` picks the
    larger root (the small ball nested in the gap, positive bend);
    ``root="outer"`` picks the other root, whose negative values denote an
    enclosing ball.

    k = 1 is geometrically degenerate (two tangent intervals); the quadratic
    collapses to a linear equation and its single root is returned for
    either ``root`` choice.
    """
    b = np.asarray(list(bends), dtype=float)
    if k < 1:
        raise MebaggError(f"k must be >= 1, got {k}")
    if b.size != k + 1:
        raise DimensionMismatchError(f"expected {k + 1} bends for k={k}, got {b.size}")
    if np.any(b <= 0) or not np.all(np.isfinite(b)):
        raise MebaggError("all bends must be positive and finite")
    if root not in ("inner", "outer"):
        raise MebaggError(f"root must be 'inner' or 'outer', got {root!r}")
    S = float(b.sum())
    Q = float((b * b).sum())
    if k == 1:
        return (Q - S * S) / (2.0 * S)
    disc = k * (S * S - (k - 1) * Q)
    if disc < 0:
        raise InvalidTangentConfigurationError(
            f"no tangent ball exists for these bends (discriminant {disc:.3g})"
        )
    rt = math.sqrt(disc)
    if root == "inner":
        return (S + rt) / (k - 1)
    return (S - rt) / (k - 1)
