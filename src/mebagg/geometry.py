"""Computational-geometry kernels: enclosing balls, hull distances, bends.

All operations are pure functions over immutable inputs and are safe for
concurrent use.
"""

from __future__ import annotations

import itertools
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


# Working-set rounds before the enclosing solve gives up. Each round
# strictly raises the working-set optimum, so it settles long before this.
_MINMAX_MAX_ROUNDS = 500

# Index subsets solved per batch: each batch holds a few rows x n x d arrays,
# so this element budget bounds the working memory at any n.
_CHUNK_ELEMS = 1 << 16


def _index_chunks(n: int, k: int, rows: int):
    """The k-subsets of range(n) in lexicographic order, ``rows`` at a time."""
    combos = itertools.combinations(range(n), k)
    while chunk := list(itertools.islice(combos, rows)):
        flat = np.fromiter(itertools.chain.from_iterable(chunk), np.intp, len(chunk) * k)
        yield flat.reshape(len(chunk), k)


def _spread_exp(x) -> int:
    """The exponent e of the power of two 2**e just above max |x| (0 for all
    zeros); scaling by 2**-e brings x near 1 and rounds nothing."""
    return int(np.frexp(np.abs(x).max())[1])


def _row_norms(diff: np.ndarray) -> np.ndarray:
    """Row norms of ``diff``, taken in the power-of-two unit of its spread
    and scaled back, so the squares neither overflow nor underflow."""
    e = _spread_exp(diff)
    return np.ldexp(np.linalg.norm(np.ldexp(diff, -e), axis=1), e)


def _full_rank(G: np.ndarray) -> np.ndarray:
    """Which Gram matrices in the batch G are nonsingular, by the Hadamard
    ratio det(G) / prod(G_ii): 1 for orthogonal rows, 0 for dependent ones."""
    diag = np.diagonal(G, axis1=-2, axis2=-1)
    return np.linalg.det(G) > G.shape[-1] * np.finfo(float).eps * np.prod(diag, axis=-1)


def _best_basis(C: np.ndarray, R: np.ndarray, work: list[int]):
    """Exact optimum of max ||y - c_i||/r_i over the balls in ``work``,
    whose last ball violates the optimum of the others.

    A subset S of at most d+1 balls is solved in closed form. With c_0 the
    ball of S of smallest radius, V the rows c_i - c_0, G = V V^T,
    b_i = |v_i|^2/2, delta_i = (r_i^2 - r_0^2)/2 and q = rho^2, the point
    y = c_0 + V^T gamma with G gamma = b - q delta has ratio rho at every
    ball of S. That is a line y(q) = c_0 + a - q w, and |y(q) - c_0|^2 =
    q r_0^2 fixes q; forming the discriminant from the offset of c_0 from
    the line keeps the root accurate when one radius is tiny.

    The problem is LP-type, so the violator is in every basis of ``work``
    (Gaertner, ESA 1999). Only subsets holding it are solved, level by
    level by how many other balls they drop, largest first. S is certified
    when its balls are tight at y (rho is the largest ratio over ``work``)
    and y is in conv(S): gamma >= 0, sum(gamma) <= 1. That is the KKT
    condition, so the first certified S is optimal and ends the search.
    Should rounding certify none, the tight S of smallest rho is returned
    as (y, rho, S); None when no S is tight.
    """
    CW, RW = C[work], R[work]
    m, d = CW.shape
    # a ratio is accurate to about eps * |y - c|/r, which a tiny ball inflates
    slack = 1e-10 + 1e-12 * RW.max() / RW.min()
    rows = max(1, _CHUNK_ELEMS // (m * d))
    best = None
    for k in range(min(m, d + 1), 0, -1):
        for others in _index_chunks(m - 1, k - 1, rows):
            subs = np.column_stack([others, np.full(len(others), m - 1)])
            subs = np.take_along_axis(subs, np.argsort(RW[subs], axis=1), axis=1)
            Cs, Rs = CW[subs], RW[subs]
            V = Cs[:, 1:] - Cs[:, :1]
            G = V @ V.transpose(0, 2, 1)
            ok = _full_rank(G)
            G[~ok] = np.eye(k - 1)
            r0sq = Rs[:, 0] ** 2
            b = 0.5 * np.einsum("sij,sij->si", V, V)
            delta = 0.5 * (Rs[:, 1:] ** 2 - r0sq[:, None])
            beta = np.linalg.solve(G, np.stack([b, delta], axis=2))
            a = np.einsum("si,sid->sd", beta[..., 0], V)
            w = np.einsum("si,sid->sd", beta[..., 1], V)
            aa, aw, ww = (a * a).sum(axis=1), (a * w).sum(axis=1), (w * w).sum(axis=1)
            a_perp = a - (aw / np.where(ww > 0, ww, 1.0))[:, None] * w
            # |a - q w|^2 = q r_0^2  <=>  ww q^2 - lin q + aa = 0
            lin = 2.0 * aw + r0sq
            disc = r0sq * r0sq + 4.0 * r0sq * aw - 4.0 * ww * (a_perp * a_perp).sum(axis=1)
            ok &= lin > 0
            q = 2.0 * aa / np.where(ok, lin + np.sqrt(np.maximum(disc, 0.0)), np.inf)
            y = Cs[:, 0] + a - q[:, None] * w
            ratios = np.linalg.norm(CW[None, :, :] - y[:, None, :], axis=2) / RW
            rho = ratios.max(axis=1)
            ok &= np.take_along_axis(ratios, subs, axis=1).min(axis=1) >= rho * (1.0 - slack)
            gamma = beta[..., 0] - q[:, None] * beta[..., 1]
            certified = ok & (gamma >= -1e-10).all(axis=1) & (gamma.sum(axis=1) <= 1.0 + 1e-10)
            i = int(np.argmin(np.where(certified if certified.any() else ok, rho, np.inf)))
            if ok[i] and (certified[i] or best is None or rho[i] < best[1]):
                best = (y[i], float(rho[i]), [work[j] for j in subs[i]])
                if certified[i]:
                    return best
    return best


def _one_center(C: np.ndarray, R: np.ndarray) -> tuple[np.ndarray, float]:
    """(y, rho) minimizing rho = max_i ||y - c_i|| / r_i, exactly; all r_i > 0.

    The weighted Euclidean 1-center problem (Megiddo 1983) is LP-type with
    combinatorial dimension d+1, so the optimum is fixed by at most d+1
    tight balls whose centers hold y in their convex hull. An active-set
    loop finds them: solve the working set exactly (``_best_basis``), stop
    when no ball has a larger ratio, else make the optimal support plus the
    worst violator, kept last for ``_best_basis``, the new working set. It
    never exceeds d+2 balls and its optimum strictly rises each round. With
    every r_i = 1 this is the minimum enclosing ball of the centers.
    """
    # a local origin keeps the closed-form solves well scaled at any offset;
    # power-of-two scales bring the spread and the radii near 1 without
    # rounding, so squared lengths neither underflow nor overflow
    origin = C.mean(axis=0)
    cexp, rexp = _spread_exp(C - origin), _spread_exp(R)
    local = np.ldexp(C - origin, -cexp)
    R = np.ldexp(R, -rexp)
    # start from a far pair: the ball farthest by ratio from the centroid,
    # then the ball farthest from it by ||c_i - c_j|| / (r_i + r_j)
    i = int(np.argmax(np.linalg.norm(local, axis=1) / R))
    j = int(np.argmax(np.linalg.norm(local - local[i], axis=1) / (R + R[i])))
    work = [i, j] if i != j else [i]
    for _ in range(_MINMAX_MAX_ROUNDS):
        best = _best_basis(local, R, work)
        if best is None:
            raise NonConvergenceError(f"no support of the working set {work} is tight")
        y, rho, support = best
        ratios = np.linalg.norm(local - y, axis=1) / R
        worst = int(np.argmax(ratios))
        if ratios[worst] <= rho * (1.0 + 1e-12):
            return np.ldexp(y, cexp) + origin, float(np.ldexp(rho, cexp - rexp))
        work = support + [worst]
    raise NonConvergenceError(f"active set did not settle within {_MINMAX_MAX_ROUNDS} rounds")


def meb(points) -> Ball:
    """Minimum enclosing ball of a point set, exact in every dimension.

    Exactly duplicated points are merged first; the result is independent of
    input order. The center comes from ``_one_center`` with every radius 1,
    the same active-set kernel that ``aggregate.solve_minmax`` runs. The
    reported radius is the realized covering radius, so containment holds
    with no slack.
    """
    pts = as_points(points)
    uniq = np.unique(pts, axis=0)
    if uniq.shape[0] == 1:
        return Ball(uniq[0], 0.0)
    center, _ = _one_center(uniq, np.ones(uniq.shape[0]))
    # pin containment with the realized radius
    return Ball(center, float(_row_norms(pts - center).max()))


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


def dist_to_hull(y, points, *, max_iter: int = HULL_MAX_ITER, return_witness: bool = False):
    """Euclidean distance from y to the convex hull of the points, exactly.

    Wolfe's min-norm-point algorithm (Math. Programming 11, 1976) on the
    points p_i taken relative to y. A corral of affinely independent points
    holds the current nearest point x = sum(lam_j p_j). Each major cycle
    adds the point minimizing <x, p>, and stops when no point improves on
    ||x||^2 beyond rounding (8 eps max||p||^2), when the best one is already
    in the corral, or when rounding keeps the cycle from shortening x. Each
    minor cycle solves the affine system [G 1; 1^T 0] for the corral's
    nearest affine point; when a weight turns non-positive, x steps to the
    boundary of the corral's hull and drops that point. The algorithm is
    finite; ``max_iter`` caps the major cycles. The distance is the length
    of the returned witness from y.

    Parameters
    ----------
    return_witness : also return the nearest hull point.
    """
    pts = as_points(points)
    v = as_vector(y, pts.shape[1])
    # a power-of-two scale keeps the Gram matrix near the unit row, without rounding
    e = _spread_exp(pts - v)
    P = np.ldexp(pts - v, -e)
    sq = np.einsum("ij,ij->i", P, P)
    floor = 8.0 * np.finfo(float).eps * sq.max()
    corral, lam = [int(np.argmin(sq))], np.ones(1)
    x = P[corral[0]]
    for _ in range(max_iter):
        j = int(np.argmin(P @ x))
        if x @ x - P[j] @ x <= floor or j in corral:
            break
        corral, lam = corral + [j], np.append(lam, 0.0)
        while True:
            k = len(corral)
            A = np.ones((k + 1, k + 1))
            A[:k, :k] = P[corral] @ P[corral].T
            A[k, k] = 0.0
            alpha = np.linalg.solve(A, np.eye(k + 1)[k])[:k]
            if (alpha > 0).all():
                lam = alpha
                break
            # move toward the affine point until the first weight reaches 0
            steps = np.where(alpha <= 0, lam / np.where(lam > alpha, lam - alpha, 1.0), np.inf)
            i = int(np.argmin(steps))
            lam = lam + steps[i] * (alpha - lam)
            lam[i] = 0.0
            keep = lam > 0
            corral, lam = [c for c, kp in zip(corral, keep) if kp], lam[keep]
        x, last = lam @ P[corral], x
        if x @ x >= last @ last:
            break  # rounding has stalled the descent
    else:
        raise NonConvergenceError(f"hull projection did not settle within {max_iter} major cycles")
    witness = np.ldexp(x, e) + v
    dist = float(np.linalg.norm(witness - v))
    return (dist, witness) if return_witness else dist


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
