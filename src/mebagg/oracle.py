"""Brute-force reference implementations used to cross-check the solvers.

``meb_bruteforce`` (every support set through ``circumball``) and
``grid_minmax`` (dense grid search) share no code with the solvers, so
solver bugs cannot hide behind shared machinery. The others reuse
production kernels: ``candidate_balls_bruteforce`` takes one ``meb`` per
subset, and ``exhaustive_factor``/``worst_designation`` score y against
``candidate_balls``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .aggregate import CandidateBalls, candidate_balls
from .errors import InstanceTooLargeError, InvalidFaultBudgetError, MebaggError
from .geometry import _EPS, Ball, _length_tol, meb
from .pointset import _count, as_points

BRUTEFORCE_MAX_N = 12
BRUTEFORCE_MAX_D = 4
BRUTEFORCE_MAX_SUBSETS = 100_000
GRID_MAX_D = 3
GRID_MAX_CELLS = 100_000_000
_GRID_CHUNK = 200_000  # grid points scored per block


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


def meb_bruteforce(points) -> Ball:
    """Smallest enclosing ball by trying every support set of size <= d+1.

    The minimum-radius circumball that contains all points is the MEB, since
    the true MEB is the circumball of its own support set.
    """
    pts = as_points(points)
    n, d = pts.shape
    if n > BRUTEFORCE_MAX_N or d > BRUTEFORCE_MAX_D:
        raise InstanceTooLargeError(
            f"brute-force ball search capped at n<={BRUTEFORCE_MAX_N}, "
            f"d<={BRUTEFORCE_MAX_D}; got n={n}, d={d}"
        )
    rank_tol, cover_tol = _length_tol(1e-10, pts), _length_tol(1e-12, pts)
    best: Ball | None = None
    for k in range(1, min(n, d + 1) + 1):
        for sub in itertools.combinations(range(n), k):
            sup = pts[list(sub)]
            if k >= 3:
                # skip affinely dependent supports; a smaller support covers them
                if np.linalg.matrix_rank(sup[1:] - sup[0], tol=rank_tol) < k - 1:
                    continue
            ball = circumball(sup)
            dists = np.linalg.norm(pts - ball.center, axis=1)
            if np.all(dists <= ball.radius * (1 + 1e-10) + cover_tol):
                realized = float(dists.max())
                if best is None or realized < best.radius:
                    best = Ball(ball.center, realized)
    assert best is not None  # k=1..: singletons always exist; full cover found
    return best


def candidate_balls_bruteforce(points, t: int) -> CandidateBalls:
    """MEB of every size-(n-t) subset, in lexicographic subset order.

    The reference for ``candidate_balls``: one ``meb`` per subset, duplicates
    kept, so ``subsets`` lists every subset.
    """
    pts = as_points(points)
    n = pts.shape[0]
    t = _count(t, "t", 0, n, InvalidFaultBudgetError)
    if math.comb(n, t) > BRUTEFORCE_MAX_SUBSETS:
        raise InstanceTooLargeError(
            f"brute-force candidate balls capped at {BRUTEFORCE_MAX_SUBSETS} subsets; "
            f"got C({n},{n - t}) = {math.comb(n, t)}"
        )
    subsets = tuple(itertools.combinations(range(n), n - t))
    return CandidateBalls.from_balls((meb(pts[list(s)]) for s in subsets), subsets)


def grid_minmax(
    balls,
    resolution: int = 200,
    *,
    zooms: int = 12,
) -> tuple[np.ndarray, float]:
    """Dense grid minimization of max((||y-c||-r)/r) with local zoom passes.

    Searches the bounding box of the candidate centers inflated by the
    largest radius, then repeatedly re-grids around the incumbent. Returns
    (best point, unclamped value).

    Its floor is about 1e-4 relative: each zoom re-grids only the box 3
    cells either side of its incumbent, and along a valley where two ratios
    tie the incumbent can sit many cells from the optimum, so the zoom loses
    it. On random weighted sets of at most d+1 balls at d = 2 and 3 it stops
    1e-5 to 1.3e-4 relative above the exact value (resolution 101, 20
    zooms), so a check against it needs a tolerance of about 1e-3.
    """
    resolution = _count(resolution, "resolution", 2, error=MebaggError)
    zooms = _count(zooms, "zooms", 1)
    cb = CandidateBalls.from_balls(balls)
    C, R = cb.centers(), cb.radii()
    B, d = C.shape
    if d > GRID_MAX_D:
        raise InstanceTooLargeError(f"grid search capped at d<={GRID_MAX_D}, got d={d}")
    if resolution**d > GRID_MAX_CELLS:
        raise InstanceTooLargeError(
            f"{resolution}^{d} grid cells exceed the cap of {GRID_MAX_CELLS}"
        )
    if np.any(R <= 0):
        raise MebaggError("grid oracle needs strictly positive radii")
    lo = C.min(axis=0) - R.max()
    hi = C.max(axis=0) + R.max()
    best_pt: np.ndarray | None = None
    best_val = math.inf
    for _ in range(zooms):
        axes = [np.linspace(lo[j], hi[j], resolution) for j in range(d)]
        mesh = np.meshgrid(*axes, indexing="ij")
        grid = np.stack([m.ravel() for m in mesh], axis=1)
        for i in range(0, grid.shape[0], _GRID_CHUNK):
            block = grid[i : i + _GRID_CHUNK]
            dist = np.linalg.norm(block[:, None, :] - C[None, :, :], axis=2)
            vals = ((dist - R) / R).max(axis=1)
            j = int(np.argmin(vals))
            if vals[j] < best_val:
                best_val = float(vals[j])
                best_pt = block[j].copy()
        span = (hi - lo) / (resolution - 1) * 3.0
        lo = best_pt - span
        hi = best_pt + span
    return best_pt, best_val


def exhaustive_factor(points, t: int, *, y, balls: CandidateBalls | None = None) -> float:
    """Worst relaxation factor of an output y over every honest designation.

    Every size-(n-t) subset is treated as the possible honest set; the
    factor is the largest ``CandidateBalls.ratios`` value, ||y - center||/
    radius of the designation's MEB, so a zero-radius designation counts 0
    when y sits on its center and infinity otherwise. Precomputed ``balls``
    are reused when given.
    """
    return worst_designation(points, t, y, balls=balls)[0]


def worst_designation(
    points, t: int, y, *, balls: CandidateBalls | None = None
) -> tuple[float, tuple[int, ...] | None]:
    """The exhaustive factor of y and the witness of the first ball, in witness order, whose
    ratio is within 16 eps of it (None without subsets), so that ulps do not pick among ties."""
    _count(t, "t", 0, len(as_points(points)), InvalidFaultBudgetError)
    if balls is None:
        balls = candidate_balls(points, t)
    ratios, W = balls.ratios(y), balls.witness_array
    top = ratios.max()
    idx = int(np.argmax(ratios >= top * (1.0 - 16 * _EPS)))
    return float(top), None if W is None else tuple(W[idx].tolist())
