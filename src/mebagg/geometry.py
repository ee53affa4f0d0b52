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
from .pointset import _count, as_points, as_vector

HULL_MAX_ITER = 10_000
_EPS = float(np.finfo(float).eps)


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


# Working-set rounds before the enclosing solve gives up. Each round
# strictly raises the working-set optimum, so it settles long before this.
_MINMAX_MAX_ROUNDS = 500

# Index subsets or row blocks handled per batch: each batch holds a few
# rows x n x d arrays, so this element budget bounds the working memory at any n.
_CHUNK_ELEMS = 1 << 16


def _spread_exp(x) -> int:
    """The exponent e of the power of two 2**e just above max |x| (0 for all
    zeros); scaling by 2**-e brings x near 1 and rounds nothing."""
    return int(np.frexp(np.maximum.reduce(np.abs(x), axis=None))[1])


def _mean(pts: np.ndarray) -> np.ndarray:
    """Column means summed in each coordinate's power-of-two unit, which rounds nothing:
    no sum overflows where the mean is representable, and in range no bit changes."""
    e = np.frexp(np.maximum.reduce(np.abs(pts)))[1]
    return np.ldexp(np.add.reduce(np.ldexp(pts, -e)) / len(pts), e)


_ROUNDING_FLOOR = 2.0**-49  # 8 eps: points this close, relative to max|x|, count as one


def _length_tol(tol, pts: np.ndarray):
    """``tol`` times the points' extent, their largest coordinate range
    (taken on the halved points so it cannot overflow), plus a rounding
    floor of ``_ROUNDING_FLOOR`` max|x|: a tolerance for lengths among the
    points that does not change when they are translated or scaled. An
    array of tols gives the array of tolerances. The ufunc reductions are
    called directly: at these sizes the ``ndarray.max`` wrappers cost more."""
    half = pts / 2
    lo, hi = np.minimum.reduce(half), np.maximum.reduce(half)
    extent, size = np.maximum.reduce(hi - lo), np.maximum.reduce(np.maximum(hi, -lo))
    return 2.0 * (tol * float(extent) + _ROUNDING_FLOOR * float(size))


def _row_norms(diff: np.ndarray) -> np.ndarray:
    """Row norms of ``diff``, or one vector's norm, in the power-of-two unit
    of its spread: the squares cannot overflow or underflow, and in range no bit changes.
    The sums of squares are those ``np.linalg.norm`` takes, without its wrapper: an
    ``np.add.reduce`` over each row, a ``dot`` for one vector."""
    e = _spread_exp(diff)
    x = np.ldexp(diff, -e)
    return np.ldexp(np.sqrt(np.add.reduce(x * x, axis=1) if x.ndim > 1 else x.dot(x)), e)


def _unique_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(a, axis=0, return_index=True)`` for a 2-D array, by one
    stable lexsort and a compare of adjacent rows."""
    order = np.lexsort(a.T[::-1])
    order = order[np.append(True, (a[order[1:]] != a[order[:-1]]).any(axis=1))]
    return a[order], order


def _pivot_floor(k, diag):
    """The one rank bar of Gram matrices G of k vectors: every pivot D_jj of a factor
    G = L D L^T must exceed this k (k+1) eps G_jj, so vector j keeps a squared sine above
    k (k+1) eps against the span of the earlier ones. A Cholesky factor is exact for G plus an
    error of norm k (k+1) eps in G scaled to a unit diagonal (Higham, Accuracy and Stability of
    Numerical Algorithms, Thm 10.3): a smaller pivot puts G within it of a singular matrix."""
    return k * (k + 1) * _EPS * diag


def _full_rank(G: np.ndarray) -> bool:
    """Is the Gram matrix G nonsingular by ``_pivot_floor``, with the pivots D_jj = L_jj^2 of
    one Cholesky factor G = L L^T; a factor that fails (a pivot not positive) says no."""
    try:
        L = np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        return False
    return bool((L.diagonal() ** 2 > _pivot_floor(len(G), G.diagonal())).all())


def _gram_solve(G: np.ndarray, b: np.ndarray, dims: np.ndarray):
    """(ok, x): x solves G x = b on each row of a batch of Gram matrices G
    (k, k, s) with right-hand sides b (k, s), and ok is ``_pivot_floor``'s bar on each
    row's leading block of non-decreasing ``dims``, past which G is 0 or I and b 0.

    One square-root-free Cholesky factor G = L D L^T for the whole batch (Golub & Van
    Loan, Matrix Computations, 4.1-4.2): Gaussian elimination without row exchanges, a
    column per step. Laid out (k, k, s), each matrix entry is one contiguous length-s
    vector, so step j is numpy work over all rows with dims > j, from lo[j] on. A padded
    column gets a unit diagonal, so its pivot is 1 and passes the bar at the row's own
    dims. A pivot that is not positive is replaced by 1, so no NaN spreads; x is then
    meaningless on that row, which fails the bar. G and b are overwritten, G with the
    factor and b with x, returned (k, s); beside them one update holds about k^2 s floats."""
    A, x, k = G, b, len(b)
    lo = np.searchsorted(dims, range(k), "right").tolist()
    for j, r in enumerate(lo):
        A[j, j, :r] = 1.0  # a unit pivot past a row's dims
    floor = _pivot_floor(dims[:, None], A.diagonal(0, 0, 1))
    piv = []
    for j, r in enumerate(lo):
        col = A[j:, j, r:]  # the pivot D_jj, then row j of D L^T by symmetry
        piv.append(np.where(col[0] > 0, col[0], 1.0))
        if j + 1 < k:
            lower = col[1:] / piv[j]
            A[j + 1 :, j + 1 :, r:] -= lower[:, None] * col[1:]
            x[j + 1 :, r:] -= lower * x[j, r:]
    for j, r in reversed(list(enumerate(lo))):
        x[j, r:] = (x[j, r:] - np.einsum("is,is->s", A[j + 1 :, j, r:], x[j + 1 :, r:])) / piv[j]
    return (A.diagonal(0, 0, 1) > floor).all(axis=1), x


def _ratios(C: np.ndarray, R: np.ndarray, y) -> np.ndarray:
    """||y - c_i|| / r_i for every ball, by ``np.linalg.norm(axis=1)``'s sums, unwrapped."""
    return np.sqrt(np.add.reduce((C - y) ** 2, axis=1)) / R


def _closed_form(CW: np.ndarray, RW: np.ndarray, S: np.ndarray, slack: float, G=None):
    """Solve the balls S in closed form. With c_0 the ball of S of smallest
    radius, V the rows c_i - c_0, G = V V^T, b_i = |v_i|^2/2,
    delta_i = (r_i^2 - r_0^2)/2 and q = rho^2, y = c_0 + V^T gamma with
    G gamma = b - q delta has ratio rho at every ball of S: a line
    y(q) = c_0 + a - q w, on which |y(q) - c_0|^2 = q r_0^2 fixes q; forming
    the discriminant from the offset of c_0 from the line keeps the root
    accurate when one radius is tiny. Returns S sorted by radius, y, rho,
    ``ok`` (each ball of S has the top ratio, rho), y's convex weights and G;
    when G is singular or q has no root, ``ok`` is False and y, rho and the weights None.
    A given Gram matrix ``G`` is taken as that of S, sorted already, that passed
    ``_full_rank``: the stable sort, the product V V^T and the rank test are skipped."""
    if G is None:
        S = S[np.argsort(RW[S], kind="stable")]
    Cs, Rs = CW[S], RW[S]
    V = Cs[1:] - Cs[0]
    if G is None and not _full_rank(G := V @ V.T):
        return S, None, None, False, None, G
    r0sq = float(Rs[0] * Rs[0])  # a scalar ** 2 calls pow, which can miss r * r by an ulp
    beta = np.linalg.solve(G, 0.5 * np.array([np.einsum("ij,ij->i", V, V), Rs[1:] ** 2 - r0sq]).T)
    a, w = lines = np.einsum("ik,id->kd", beta, V)
    (aa, aw), (_, ww) = np.add.reduce(lines[:, None] * lines, axis=2).tolist()
    a_perp = a - (aw / (ww if ww > 0 else 1.0)) * w
    # |a - q w|^2 = q r_0^2  <=>  ww q^2 - lin q + aa = 0
    lin = 2.0 * aw + r0sq
    if not lin > 0:
        return S, None, None, False, None, G
    disc = r0sq * r0sq + 4.0 * r0sq * aw - 4.0 * ww * float(np.add.reduce(a_perp * a_perp))
    q = 2.0 * aa / (lin + math.sqrt(max(disc, 0.0)))
    y = Cs[0] + a - q * w
    ratios = _ratios(CW, RW, y)
    rho = ratios.max()
    gamma = beta[:, 0] - q * beta[:, 1]
    lam = np.concatenate(([1.0 - gamma.sum()], gamma))
    return S, y, rho, ratios[S].min() >= rho * (1.0 - slack), lam, G


def _slack(RW: np.ndarray) -> float:
    """Tightness slack: a ratio is accurate to about eps |y - c|/r, which a tiny r inflates."""
    return 1e-10 + 1e-12 * RW.max() / RW.min()


def _pivot(CW: np.ndarray, RW: np.ndarray, keep: int):
    """Pivot all the balls as one basis, dropping the ball of least convex weight
    but ball ``keep`` (``len(RW)`` keeps none): (y, rho, S) once certified, else None.
    One sort, Gram matrix and rank test serve every drop but the base's, which moves V:
    a drop deletes its row and column of G, in order, and a subset of vectors that passed
    ``_pivot_floor`` passes it (each squared sine can only rise, the bar falls with k)."""
    S, slack, G = np.arange(len(RW)), _slack(RW), None
    while True:
        S, y, rho, ok, lam, G = _closed_form(CW, RW, S, slack, G)
        if not ok:
            return None
        if lam.min() >= -1e-10:
            return y, float(rho), S
        lam[S == keep] = np.inf
        rest = np.arange(len(S)) != np.argmin(lam)
        S, G = S[rest], (G[rest[1:]][:, rest[1:]] if rest[0] else None)


def _level_search(CW: np.ndarray, RW: np.ndarray, slack: float):
    """Solve the subsets S of at most d+1 balls that hold the violator (the
    last) one at a time, largest first: (y, rho, S) for the certified S of
    least rho at the first level that has one; should rounding certify none,
    for the tight S of least rho; else None. Ties keep the first S in
    lexicographic order. Only the running best is held: O(m d) memory."""
    m, d = CW.shape
    best = None
    for k in range(min(m, d + 1), 0, -1):
        certified = tight = None
        for others in itertools.combinations(range(m - 1), k - 1):
            S, y, rho, ok, lam, _ = _closed_form(CW, RW, np.array(others + (m - 1,)), slack)
            if ok and lam.min() >= -1e-10 and (certified is None or rho < certified[1]):
                certified = (y, float(rho), S)
            if ok and (tight is None or rho < tight[1]):
                tight = (y, float(rho), S)
        if certified is not None:
            return certified
        if tight is not None and (best is None or tight[1] < best[1]):
            best = tight
    return best


def _best_basis(C: np.ndarray, R: np.ndarray, work: list[int]):
    """Exact optimum (y, rho, S) of max ||y - c_i||/r_i over the balls in
    ``work``, whose last ball violates the optimum of the others; None when
    no S is tight.

    S of at most d+1 balls is certified when its balls are tight at the
    ``_closed_form`` point y and y is in conv(S): the KKT condition, so a
    certified S is optimal. The problem is LP-type, so the violator is in
    every basis of ``work`` (Gaertner, ESA 1999). A working set of at most
    d+1 balls is pivoted first (``_pivot``, at most d+1 solves); if that
    ends uncertified, or ``work`` holds d+2 balls, ``_level_search`` decides.
    """
    CW, RW = C[work], R[work]
    m, d = CW.shape
    best = (m <= d + 1 and _pivot(CW, RW, m - 1)) or _level_search(CW, RW, _slack(RW))
    return best and (best[0], best[1], [work[j] for j in best[2]])


def _one_center(C: np.ndarray, R: np.ndarray) -> tuple[np.ndarray, float, list[int]]:
    """(y, rho, basis) minimizing rho = max_i ||y - c_i|| / r_i, exactly;
    all r_i > 0. ``basis`` indexes tight balls that alone give this optimum.

    The weighted Euclidean 1-center problem (Megiddo 1983) is LP-type: at
    most d+1 tight balls whose centers hold y in their hull fix the optimum.
    So at most d+1 balls are first pivoted as one basis (``_pivot``); all
    are in it, so a certified pivot is optimal. Else (G singular, say) an
    active-set loop starts at a far pair's optimum, known in closed form: the
    point dividing c_i c_j in the ratio r_i : r_j, at which both ratios are
    rho. Each round then checks before it solves: it stops when no ball has a
    larger ratio, else solves the optimal support plus the worst violator,
    kept last (``_best_basis``). It never exceeds d+2 balls and its optimum
    strictly rises each round. With every r_i = 1 it gives the centers' MEB.
    """
    # a local origin keeps the closed-form solves well scaled at any offset;
    # power-of-two scales bring the spread and the radii near 1 without
    # rounding, so squared lengths neither underflow nor overflow
    origin = _mean(C)
    cexp, rexp = _spread_exp(C - origin), _spread_exp(R)
    local = np.ldexp(C - origin, -cexp)
    R = np.ldexp(R, -rexp)
    if len(R) <= C.shape[1] + 1 and (first := _pivot(local, R, len(R))):
        y, rho, S = first
        return np.ldexp(y, cexp) + origin, float(np.ldexp(rho, cexp - rexp)), S.tolist()
    # else start at a far pair's optimum: the ball farthest by ratio from the
    # centroid, then the ball farthest from it by ||c_i - c_j|| / (r_i + r_j),
    # or j alone at one center. As in a closed form, the support is sorted by
    # radius and rho read from the ratios at y: the distance formula can leave
    # a tiny ball above rho, its own violator
    i = int(np.argmax(_ratios(local, R, 0.0)))
    j = int(np.argmax(_ratios(local, R + R[i], local[i])))
    if (local[i] != local[j]).any():
        y = (R[j] * local[i] + R[i] * local[j]) / (R[i] + R[j])
        support = [i, j] if R[i] <= R[j] else [j, i]
    else:
        y, support = local[j], [j]
    ratios = _ratios(local, R, y)
    rho = ratios[support].max()
    for _ in range(_MINMAX_MAX_ROUNDS):
        worst = int(np.argmax(ratios))
        if ratios[worst] <= rho * (1.0 + 1e-12):
            return np.ldexp(y, cexp) + origin, float(np.ldexp(rho, cexp - rexp)), support
        best = _best_basis(local, R, work := support + [worst])
        if best is None:
            raise NonConvergenceError(f"no support of the working set {work} is tight")
        y, rho, support = best
        ratios = _ratios(local, R, y)
    raise NonConvergenceError(f"active set did not settle within {_MINMAX_MAX_ROUNDS} rounds")


def meb(points) -> Ball:
    """Minimum enclosing ball of a point set, exact in every dimension.

    Exactly duplicated points are merged first, by one sort of the rows
    (``_unique_rows``), so the result does not depend on input order, bit
    for bit. The center comes from ``_one_center`` with every radius 1,
    the same active-set kernel that ``aggregate.solve_minmax`` runs. The
    reported radius is the realized covering radius, so containment holds
    with no slack.
    """
    pts = as_points(points)
    uniq, _ = _unique_rows(pts)
    center, _, _ = _one_center(uniq, np.ones(uniq.shape[0]))
    # pin containment with the realized radius
    return Ball(center, float(_row_norms(pts - center).max()))


def diameter(points) -> float:
    """Largest pairwise Euclidean distance, by ``_row_norms``; 0 for a
    singleton. The differences are taken in row blocks of about
    ``_CHUNK_ELEMS`` elements (one row at least), so the working memory is
    of the order of the input, not n times it."""
    pts = as_points(points)
    n, d = pts.shape
    chunk = max(1, _CHUNK_ELEMS // (n * d))
    blocks = (pts[i : i + chunk, None, :] - pts[None, :, :] for i in range(0, n, chunk))
    return max(float(_row_norms(diff.reshape(-1, d)).max()) for diff in blocks)


def dist_to_ball(y, ball: Ball) -> float:
    """Euclidean gap from y to the ball surface; 0 inside."""
    v = as_vector(y, ball.dim)
    return max(0.0, float(_row_norms(v - ball.center)) - ball.radius)


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
    max_iter = _count(max_iter, "max_iter", 1)
    # a power-of-two scale keeps the Gram matrix near the unit row, without rounding
    e = _spread_exp(pts - v)
    P = np.ldexp(pts - v, -e)
    sq = np.einsum("ij,ij->i", P, P)
    floor = 8.0 * _EPS * sq.max()
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
    dist = float(_row_norms(witness - v))
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
    k = _count(k, "k", 1, error=MebaggError)
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
