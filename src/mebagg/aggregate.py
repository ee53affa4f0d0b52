"""Aggregation rules over a full point set (honest + Byzantine, labels unseen).

Every rule maps (points, fault budget t) to an output vector. Rules are
permutation-invariant and equivariant under isometries and positive scaling,
up to solver tolerance.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    ConflictingZeroRadiusError,
    DimensionMismatchError,
    InvalidFaultBudgetError,
    InvalidParamsError,
    MebaggError,
    NonConvergenceError,
    ResilienceViolationError,
    TooManySubsetsError,
)
from .geometry import (
    _CHUNK_ELEMS,
    Ball,
    _full_rank,
    _gram_solve,
    _length_tol,
    _mean,
    _one_center,
    _row_norms,
    _spread_exp,
    _unique_rows,
)
from .pointset import _count, _real, as_points, as_vector

MAX_SUBSETS = 2_000_000

# One violator-search node (``_search_rows``) is priced at this many batched
# support checks: candidate_balls searches when its node bound is cheaper than
# the supports, and the search falls back to bases past C(n, t) at this price.
# Measured on the 41 sweep/worstcase shapes (one Xeon vCPU, numpy 2.4): a node
# costs a median 250 us, 290 support rows; on the t = 1 shapes with 800 or more
# supports, where the choice is close, a bound node costs 420-1020 rows. Any price
# from 581 to 1006 picks the faster path on all 41: the supports for (24, 1, 2),
# 680 against 1060 us, and the search for (19, 1, 3), 1250 against 1370 us.
_MEB_COST_IN_SUPPORTS = 800

# At most _TABLES subset tables of at most _TABLE_ELEMS indices (8 MB in all) are kept, each
# with one row size a row; the worstcase bench shapes need 16 tables and the sweep ones 17.
_TABLE_ELEMS = _CHUNK_ELEMS // 4
_TABLES = 64


def _build(n: int, sizes, rows: int, combos=None):
    """The k-subsets of range(n) for k in ``sizes``, size-major and each
    lexicographic, or ``combos``, as (rows, row sizes) pairs of ``rows`` rows,
    each row padded to the largest size by repeating its first index."""
    K = sizes[-1]
    if combos is None:
        combos = itertools.chain.from_iterable(itertools.combinations(range(n), k) for k in sizes)
    while chunk := list(itertools.islice(combos, rows)):
        flat = itertools.chain.from_iterable(S + S[:1] * (K - len(S)) for S in chunk)
        yield (np.fromiter(flat, np.intp, len(chunk) * K).reshape(len(chunk), K),
               np.fromiter(map(len, chunk), np.intp, len(chunk)))


@lru_cache(maxsize=_TABLES)
def _subset_table(n: int, sizes: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """``_build(n, sizes)`` as one read-only pair, which every call shares."""
    table = next(_build(n, sizes, sum(math.comb(n, k) for k in sizes)))
    for a in table:
        a.setflags(write=False)
    return table


def _index_chunks(n: int, sizes, rows, found=None):
    """The (rows, row sizes) of ``_build(n, sizes)``, or of ``found`` (sorted by size, then
    lexicographically; ``sizes`` is then unused), in chunks of at most ``rows(K)`` rows of
    width K: whole sizes share a chunk while they fit, and a size that does not is chunked
    alone. A table of at most ``_TABLE_ELEMS`` indices is sliced from the cache; a larger
    one, or ``found``, is built chunk by chunk, so memory stays bounded at any count."""
    counts = Counter(map(len, found)) if found is not None else {k: math.comb(n, k) for k in sizes}
    runs = []  # each chunk's sizes, and their count
    for k, count in counts.items():
        if runs and runs[-1][1] + count <= rows(k):
            runs[-1] = (runs[-1][0] + (k,), runs[-1][1] + count)
        else:
            runs.append(((k,), count))
    rest = None if found is None else iter(found)
    for ks, count in runs:
        r = rows(ks[-1])
        if found is None and count * ks[-1] <= _TABLE_ELEMS:
            table, size = _subset_table(n, ks)
            yield from ((table[i : i + r], size[i : i + r]) for i in range(0, count, r))
        else:
            yield from _build(n, ks, r, None if found is None else itertools.islice(rest, count))


@dataclass(frozen=True)
class AggregateResult:
    """Output of one aggregation rule.

    ``achieved_value`` is the min-max rule's worst relative gap (clamped at
    0); other rules leave it unset. Subset/point selections are recorded
    where the rule makes one.
    """

    output: np.ndarray
    rule: str
    achieved_value: float | None = None
    chosen_subset: tuple[int, ...] | None = None
    chosen_index: int | None = None

    def __post_init__(self):
        out = np.asarray(self.output, dtype=float).reshape(-1)
        out.setflags(write=False)
        object.__setattr__(self, "output", out)


@dataclass(frozen=True, eq=False)
class CandidateBalls:
    """Candidate balls as read-only arrays: ``center_array`` (k >= 1 finite
    rows of d), ``radius_array`` (k, finite, >= 0) and, from ``candidate_balls``,
    ``witness_array`` (k x (n-t)): ball i is the MEB of the size-(n-t) subset
    in row i, the lexicographically smallest with that MEB, and the rows are
    sorted. ``balls`` and ``subsets`` (None without witnesses) are views
    built on first use."""

    center_array: np.ndarray
    radius_array: np.ndarray
    witness_array: np.ndarray | None = None

    def __post_init__(self):
        # copied, so that freezing them leaves the caller's arrays writable
        C, R = as_points(self.center_array).copy(), np.array(self.radius_array, dtype=float)
        if (bad := ~np.isfinite(R) | (R < 0)).any():
            raise MebaggError(f"ball radius must be finite and >= 0, got {R[bad][0]}")
        if R.shape != C.shape[:1]:
            raise DimensionMismatchError(f"{C.shape[0]} centers but radii of shape {R.shape}")
        W = None if self.witness_array is None else np.array(self.witness_array, dtype=np.intp)
        for name, a in (("center_array", C), ("radius_array", R), ("witness_array", W)):
            if a is not None:
                a.setflags(write=False)
            object.__setattr__(self, name, a)

    @classmethod
    def from_balls(cls, balls, subsets=None) -> "CandidateBalls":
        """Stack ``Ball`` objects and any witness subsets; a CandidateBalls passes through."""
        if isinstance(balls, CandidateBalls):
            return balls
        balls = tuple(balls)
        return cls([b.center for b in balls], [b.radius for b in balls], subsets)

    def __len__(self) -> int:
        return self.radius_array.size

    @cached_property
    def balls(self) -> tuple[Ball, ...]:
        return tuple(map(Ball, self.center_array, self.radius_array))

    @cached_property
    def subsets(self) -> tuple[tuple[int, ...], ...] | None:
        return None if self.witness_array is None else tuple(map(tuple, self.witness_array.tolist()))

    @cached_property
    def _unit(self) -> tuple[np.ndarray, np.ndarray]:
        """Centers about the first one and radii, in the power-of-two unit
        just above their spread: the frame, free of offset and scale, in
        which zero radii and duplicate balls are judged."""
        C, R = self.center_array, self.radius_array
        local = C - C[0]
        e = max(_spread_exp(local), _spread_exp(R))
        return np.ldexp(local, -e), np.ldexp(R, -e)

    @cached_property
    def _zero(self) -> np.ndarray:
        """Mask of the balls with radius at most 1e-12 in ``_unit``."""
        return self._unit[1] <= 1e-12

    def centers(self) -> np.ndarray:
        return self.center_array

    def radii(self) -> np.ndarray:
        return self.radius_array

    def ratios(self, y) -> np.ndarray:
        """||y - c|| / r for every ball: at most 1 inside, above 1 outside.

        A zero-radius ball (``_zero``) scores 0 when y lies within
        ``geometry._length_tol(1e-9, centers)`` of its center, and infinity
        otherwise, so the verdict holds at any offset and scale.
        """
        C, R, zero = self.center_array, self.radius_array, self._zero
        dist = _row_norms(C - as_vector(y, C.shape[1]))
        if not zero.any():
            return dist / R
        miss = dist > _length_tol(1e-9, C)
        return np.where(zero, np.where(miss, math.inf, 0.0), dist / np.where(zero, 1.0, R))


def _distance_matrix(pts: np.ndarray) -> np.ndarray:
    """Pairwise distances in a power-of-two unit of the points' extent: a
    unit that rounds nothing keeps every comparison between them exact at
    any scale, where raw squares would overflow and tie at inf; the extent
    is taken on the halved points, so it stays finite at any range. The
    differences are taken in row blocks of about ``_CHUNK_ELEMS`` elements
    (one row at least), so beside the n x n result the working memory is of
    the order of the input, not n times it."""
    pts = np.ldexp(pts, -_spread_exp(np.ptp(pts / 2, axis=0)) - 1)
    n, d = pts.shape
    rows = max(1, _CHUNK_ELEMS // (n * d))
    out = np.empty((n, n))
    for i in range(0, n, rows):
        out[i : i + rows] = np.linalg.norm(pts[i : i + rows, None, :] - pts[None, :, :], axis=2)
    return out


def _ball_keys(centers, radii) -> np.ndarray:
    """One row per ball, equal exactly when two balls count as the same:
    center and radius rounded to 12 decimals. Callers take the centers
    about a local origin and both in a power-of-two unit of the spread,
    so the keys do not depend on offset or scale."""
    return np.round(np.column_stack([centers, radii]), 12)


def _search_rows(P: np.ndarray, t: int, m: int, cap: int | None) -> list:
    """Support rows, by size then lexicographically, with each candidate's smallest witness.

    A violator search (Matousek, DCG 14, 1995) over the distinct locations
    L: a node removes a set V of them, memoised, at most t points in all,
    and branches on each basis location of B = MEB(L minus V); points off a
    basis leave B as it is, so this reaches every candidate. B's rows use
    the lowest copies within 1e-9 of its sphere; if they are affinely
    independent, every support holds each of weight above 1e-6: one row if
    generic. Past ``cap`` rows it restarts with cap None, one basis row per
    removable set: some node keeps just the locations of B's smallest witness.
    """
    L, first = _unique_rows(P)
    rows, seen, todo = set(), set(), [frozenset()]
    while todo:
        if (V := todo.pop()) in seen:
            continue
        seen.add(V)
        rest = np.delete(np.arange(len(L)), list(V))
        y, rho, basis = _one_center(L[rest], np.ones(rest.size))
        Q = np.sort(first[rest[basis] if cap is None else np.abs(_row_norms(L - y) - rho) <= 1e-9])
        core, A = np.zeros(Q.size, dtype=bool), P[Q[1:]] - P[Q[0]]
        if Q.size <= P.shape[1] + 1 and _full_rank(G := A @ A.T):
            beta = np.linalg.solve(G, A @ (y - P[Q[0]]))
            core = np.append(1.0 - beta.sum(), beta) > 1e-6
        fixed, free = Q[core].tolist(), Q[~core].tolist()
        sizes = range(int(not fixed), min(P.shape[1] + 1, m) - len(fixed) + 1)
        if cap is not None and len(rows) + sum(math.comb(len(free), j) for j in sizes) > cap:
            return _search_rows(P, t, m, None)
        extras = itertools.chain.from_iterable(itertools.combinations(free, j) for j in sizes)
        rows.update(tuple(sorted(fixed + list(x))) for x in extras)
        budget = t - (P[:, None] == L[list(V)]).all(axis=2).any(axis=1).sum()
        branch = (rest if cap is None else rest[basis]) if budget > 0 else []
        todo += [V | {int(j)} for j in branch if (P == L[j]).all(axis=1).sum() <= budget]
    return sorted(rows, key=lambda S: (len(S), S))


def _support_balls(P: np.ndarray, m: int, found: list | None = None):
    """(centers, radii, witnesses) of every support set, or every row of
    ``found``, whose circumball is the MEB of a size-m subset of P, duplicates kept.

    Every MEB(T) is the circumball B_S of a support S of at most d+1
    affinely independent points whose circumcenter lies in conv(S), and
    conversely any T with S in T inside B_S has MEB(T) = B_S. So a support
    counts when its circumcenter has non-negative barycentric weights and
    B_S covers at least m of the points, and its witness is S plus the
    lowest-index covered points.
    """
    n, d = P.shape
    slack = 1e-12 * float(np.abs(P).max())
    PT = np.ascontiguousarray(P.T)
    centers, radii, witnesses = [], [], []
    # Chunk arrays keep the support index s last, as _gram_solve factors them, and no sum's
    # order moves with the chunk's width: einsum adds down strided axes, filtered beta and V
    # keep i innermost, sum() adds beta's rows in turn; a one-row 2-point Gram gives beta 1/2.
    rows = lambda K: max(1, _CHUNK_ELEMS // ((n + K - 1) * d))  # a row's differences and K-1 vectors
    for S, size in _index_chunks(n, range(1, min(d + 1, m) + 1), rows, found):
        c = base = np.take(PT, S[:, 0], axis=1)
        if S.shape[1] > 1:
            # circumcenter c = base + V beta with G beta = |v_i|^2 / 2, V (d, K-1, s)
            V = np.take(PT, S[:, 1:].T, axis=1) - base[:, None, :]
            G = np.einsum("dis,djs->ijs", V, V)
            ok, beta = _gram_solve(G, 0.5 * G.diagonal(0, 0, 1).T, size - 1)
            ok &= (beta >= -1e-12).all(axis=0) & (sum(beta) <= 1.0 + 1e-12)
            S, size = S[ok], size[ok]
            c = base[:, ok] + np.einsum("is,dis->ds", beta[:, ok], V[:, :, ok])
        # direct distances, (d, n, s): the Gram expansion loses coincident points
        diff = PT[:, :, None] - c[:, None, :]
        dist2 = np.einsum("dns,dns->ns", diff, diff)
        r = np.sqrt(dist2[S[:, 0], np.arange(len(S))])
        covered = (dist2 <= ((1.0 + 1e-12) * r + slack) ** 2).T
        ok = covered.sum(axis=1) >= m
        if not ok.any():
            continue
        in_s = np.zeros((int(ok.sum()), n), dtype=bool)
        in_s[np.arange(len(in_s))[:, None], S[ok]] = True
        extra = covered[ok] & ~in_s
        extra &= np.cumsum(extra, axis=1) <= (m - size[ok])[:, None]
        witnesses.append(np.nonzero(in_s | extra)[1].reshape(-1, m))
        centers.append(c[:, ok])
        radii.append(r[ok])
    if not centers:
        raise NonConvergenceError("no support set passed its enclosing-ball checks")
    return np.concatenate(centers, axis=1).T, np.concatenate(radii), np.concatenate(witnesses)


def candidate_balls(points, t: int, *, max_subsets: int = MAX_SUBSETS) -> CandidateBalls:
    """The distinct MEBs of the size-(n-t) subsets, each with its
    lexicographically smallest witness subset, ordered by witness.

    The balls come from the support sets of at most d+1 points
    (``_support_balls``), sum over k <= min(d+1, n-t) of C(n, k) of them.
    When that count exceeds ``max_subsets`` or a violator search's node
    bound priced at ``_MEB_COST_IN_SUPPORTS``, the search (``_search_rows``)
    picks the few that can win, or about C(n, t) bases if they are many,
    with the same balls. ``TooManySubsetsError`` is raised only when the
    supports and the C(n, t) subsets both exceed ``max_subsets``, an integer
    >= 1 (anything else is an ``InvalidParamsError``). Radii are
    realized covering radii over the witness, as ``meb`` reports them.
    """
    pts = as_points(points)
    n, d = pts.shape
    t = _count(t, "t", 0, n, InvalidFaultBudgetError)
    max_subsets = _count(max_subsets, "max_subsets", 1)
    m = n - t
    supports = sum(math.comb(n, k) for k in range(1, min(d + 1, m) + 1))
    subsets = math.comb(n, t)
    if min(supports, subsets) > max_subsets:
        raise TooManySubsetsError(
            f"{subsets} subsets of size {m} and {supports} support sets of {n} points "
            f"both exceed the cap of {max_subsets}"
        )
    # a local origin keeps the solves well scaled at any offset, and a
    # power-of-two unit of the spread keeps squares in range without
    # rounding; the balls are built and keyed in these units
    origin = _mean(pts)
    P = pts - origin
    e = _spread_exp(P)
    P = np.ldexp(P, -e)
    nodes = sum(min(math.comb(n, j), (d + 1) ** j) for j in range(t + 1))  # d+1 branches each
    search = supports > max_subsets or nodes * _MEB_COST_IN_SUPPORTS < supports
    cap = min(max_subsets, subsets * _MEB_COST_IN_SUPPORTS)
    C, R, W = _support_balls(P, m, _search_rows(P, t, m, cap) if search else None)
    # one ball per key; the first in witness order has the smallest witness
    order = np.lexsort(W.T[::-1])
    _, first = _unique_rows(_ball_keys(C[order], R[order]))
    keep = order[np.sort(first)]
    C, W = C[keep], W[keep]
    realized = np.linalg.norm(P[W] - C[:, None, :], axis=2).max(axis=1)
    return CandidateBalls(np.ldexp(C, e) + origin, np.ldexp(realized, e), W)


# ---------------------------------------------------------------------------
# classical rules


def mean_aggregate(points, t: int = 0) -> AggregateResult:
    """Arithmetic mean of all points (no robustness, baseline)."""
    pts = as_points(points)
    _count(t, "t", 0, len(pts), InvalidFaultBudgetError)
    return AggregateResult(output=_mean(pts), rule="mean")


def coordwise_median(points, t: int = 0) -> AggregateResult:
    """Per-coordinate median; even counts take the midpoint of the two
    central order statistics (unanalyzed baseline)."""
    pts = as_points(points)
    _count(t, "t", 0, len(pts), InvalidFaultBudgetError)
    return AggregateResult(output=np.median(pts, axis=0), rule="coordmedian")


def mda(points, t: int, *, max_subsets: int = MAX_SUBSETS) -> AggregateResult:
    """Minimum-diameter averaging: mean of a size-(n-t) subset of smallest
    diameter; ties go to the lexicographically smallest index set.

    A depth-first search over point sets S, memoised on S, from all n points,
    with the m = n-t points nearest the point whose (m-1)-th neighbour is
    closest as the incumbent. A node peels the points with fewer than m-1
    others within the best diameter yet, which no subset that ties it holds;
    records S's first m indices, its lex-first m-subset, optimal once diam(S)
    is; and while |S| > m branches on dropping either end of S's farthest
    pair, which every subset of smaller diameter drops: at most 2^(t+1) - 1
    nodes. ``max_subsets`` (an integer >= 1) still caps all C(n, n-t)
    subsets, counted before the search.
    """
    pts = as_points(points)
    n = pts.shape[0]
    t = _count(t, "t", 0, n, InvalidFaultBudgetError)
    max_subsets = _count(max_subsets, "max_subsets", 1)
    m = n - t
    count = math.comb(n, m)
    if count > max_subsets:
        raise TooManySubsetsError(
            f"C({n},{m}) = {count} subsets exceeds the cap of {max_subsets}"
        )
    dmat = _distance_matrix(pts)
    best_sub = tuple(range(m))
    if m > 1:
        i = int(np.argmin(np.partition(dmat, m - 1, axis=1)[:, m - 1]))
        near = np.sort(np.argpartition(dmat[i], m - 1)[:m])
        best, best_sub = dmat[np.ix_(near, near)].max(), tuple(near.tolist())
        seen, todo = set(), [np.arange(n)]
        while todo:
            if (key := (S := todo.pop()).tobytes()) in seen:
                continue
            seen.add(key)
            sub = dmat[np.ix_(S, S)]
            while not (keep := (sub <= best).sum(axis=1) >= m).all():  # counts the point itself
                S, sub = S[keep], sub[np.ix_(keep, keep)]
            if S.size < m:
                continue
            if (head := (sub[:m, :m].max(), tuple(S[:m].tolist()))) < (best, best_sub):
                best, best_sub = head
            if S.size > m and sub.flat[j := int(sub.argmax())] > 0:  # the farthest pair
                todo += [np.delete(S, j % S.size), np.delete(S, j // S.size)]
    return AggregateResult(output=_mean(pts[list(best_sub)]), rule="mda", chosen_subset=best_sub)


def medoid(points, t: int = 0) -> AggregateResult:
    """Input point minimizing the total distance to all inputs; ties go to
    the lowest index."""
    pts = as_points(points)
    _count(t, "t", 0, len(pts), InvalidFaultBudgetError)
    dmat = _distance_matrix(pts)
    sums = dmat.sum(axis=1)
    idx = int(np.argmin(sums))
    return AggregateResult(output=pts[idx], rule="medoid", chosen_index=idx)


def geometric_median(
    points, t: int = 0, *, tol: float = 1e-9, max_iter: int = 100_000
) -> AggregateResult:
    """Point minimizing f(y) = sum_i ||y - p_i||.

    Newton steps from the mean (Overton 1983) in the coordinates z = (y - mean) V^T of
    the centered points' SVD, where the Hessian sum_i (I - u_i u_i^T) / ||z - z_i||, u_i
    the unit vector from z_i to z, is r x r with r <= min(n, d). A step is kept when it
    lowers f, else cut back to the point of its ray closest to the nearest input; when
    neither lowers f, or the iterate lands on an input, that input gets the vertex test
    (Vardi-Zhang). It is returned, exactly, when the pull of the others is at most its
    multiplicity, the inputs within 1e-10 of the extent of it counting as one cluster;
    else one Weiszfeld step, or the descent step off the input, follows.
    The loop stops at an uncut step no longer than ``tol`` times the smaller of the
    extent and the nearest input's distance, or than the rounding floor; ``max_iter``
    (an integer >= 1) caps the steps, ``tol`` is finite and >= 0. Collinear inputs take
    the 1-D median, the midpoint for even counts, as ``coordwise_median``.
    """
    pts = as_points(points)
    n, d = pts.shape
    _count(t, "t", 0, n, InvalidFaultBudgetError)
    tol = _real(tol, "tol")
    max_iter = _count(max_iter, "max_iter", 1)
    # in the extent's power-of-two unit (as ``_distance_matrix``): squares stay in range
    e = _spread_exp(np.ptp(pts / 2, axis=0)) + 1
    P = np.ldexp(pts, -e)
    # length tolerances of the extent: on a data point, one cluster, settled, rounding
    here_tol, near_tol, step_tol, floor = _length_tol(np.array([1e-12, 1e-10, tol, 0.0]), P)
    centered = P - (mean := _mean(P))
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    if svals[0] <= here_tol:  # one point, or all equal
        return AggregateResult(output=pts[0], rule="geomedian")
    vt = vt[svals > 1e-12 * svals[0]]  # the directions of the affine hull
    Z = centered @ vt.T
    if len(vt) == 1:  # collinear: the 1-D median, the midpoint of the central two for even n
        return AggregateResult(output=np.ldexp(mean + np.median(Z[:, 0]) * vt[0], e), rule="geomedian")

    z, diff, eye = np.zeros(len(vt)), -Z, np.eye(len(vt))
    dist = np.linalg.norm(diff, axis=1)
    for _ in range(max_iter):
        k = int(np.argmin(dist))
        limit = max(step_tol * min(1.0, dist[k]), floor)
        if dist[k] > here_tol:
            w = 1.0 / dist
            u = diff * w[:, None]
            step = np.linalg.solve(w.sum() * eye - (u.T * w) @ u, u.sum(axis=0))
            if math.sqrt(step @ step) <= limit:
                z = z - step
                break
            # the Newton step, or its cut, kept when f drops; the drop is summed
            # as differences of squares over sums of lengths, which do not cancel
            for s in (step, min(1.0, diff[k] @ step / (step @ step)) * step):
                new = np.linalg.norm(diff - s, axis=1)
                if lowers := ((s - 2.0 * diff) @ s / (new + dist)).sum() < 0.0:
                    break
            if lowers:
                z, diff, dist = z - s, diff - s, new
                continue
        # vertex test at Z[k]: optimal when the pull of the other points is at most
        # its multiplicity; inputs within near_tol of it count as one cluster, or the
        # descent step off it would aim at a neighbour a few here_tol away and stop there
        dk = np.linalg.norm(Z - Z[k], axis=1)
        rest = dk > near_tol
        mult = n - int(rest.sum())
        rnorm = float(np.linalg.norm(((Z[k] - Z[rest]) / dk[rest, None]).sum(axis=0)))
        if rnorm <= mult + 1e-12:
            return AggregateResult(output=pts[k], rule="geomedian")
        if dist[k] <= here_tol:  # on Z[k]: the descent step off it
            wk, lam = 1.0 / dk[rest], min(1.0, mult / rnorm)
            step = z - (1.0 - lam) * (wk @ Z[rest]) / wk.sum() - lam * Z[k]
        else:  # one Weiszfeld step, which always descends
            step = z - w @ Z / w.sum()
        z, diff = z - step, diff - step
        dist = np.linalg.norm(diff, axis=1)
        if math.sqrt(step @ step) <= limit:
            break
    else:
        raise NonConvergenceError(f"geometric median did not settle within {max_iter} steps")
    return AggregateResult(output=np.ldexp(mean + z @ vt, e), rule="geomedian")


# ---------------------------------------------------------------------------
# min-max relative-distance rule


def solve_minmax(balls) -> tuple[np.ndarray, float]:
    """Minimize g(y) = max over balls of (||y - c|| - r)/r exactly.

    Returns (argmin, unclamped value); the value is negative when some point
    lies strictly inside every ball. This is the weighted Euclidean 1-center
    problem, solved by the exact active-set kernel ``geometry._one_center``
    that ``meb`` also runs.

    Zero-radius balls (``CandidateBalls.ratios``) pin the answer: the first
    one's center is returned with the value its ratios give, which is
    infinite when zero-radius centers disagree.
    """
    cb = CandidateBalls.from_balls(balls)
    if cb._zero.any():
        y = cb.centers()[cb._zero][0]
    else:
        # balls given through from_balls may repeat; collapse the duplicates
        keep = np.sort(_unique_rows(_ball_keys(*cb._unit))[1])
        y = _one_center(cb.centers()[keep], cb.radii()[keep])[0]
    return y, float(cb.ratios(y).max()) - 1.0


def minmax_meb(
    points,
    t: int,
    *,
    max_subsets: int = MAX_SUBSETS,
    allow_low_resilience: bool = False,
    balls: CandidateBalls | None = None,
) -> AggregateResult:
    """Candidate-ball min-max rule.

    The output minimizes the worst relative distance over all candidate
    balls; ``achieved_value`` is that worst value clamped at 0, and
    1 + achieved_value is the certified relaxation factor. If some
    size-(n-t) subset collapses to a point (zero-radius candidate), that
    center is returned (see ``solve_minmax``); zero-radius candidates with
    distinct centers raise ``ConflictingZeroRadiusError``.

    Requires an honest majority (n > 2t) unless ``allow_low_resilience`` is
    set, in which case the output carries no guarantee.
    """
    pts = as_points(points)
    n = pts.shape[0]
    t = _count(t, "t", 0, n, InvalidFaultBudgetError)
    if n <= 2 * t and not allow_low_resilience:
        raise ResilienceViolationError(
            f"minmax rule needs n > 2t for its guarantee (n={n}, t={t}); "
            "pass allow_low_resilience=True to compute anyway"
        )
    cb = candidate_balls(pts, t, max_subsets=max_subsets) if balls is None else balls
    y, value = solve_minmax(cb)
    if value == math.inf:
        raise ConflictingZeroRadiusError(
            "multiple zero-radius candidates with distinct centers; "
            "instance violates n > 2t assumptions"
        )
    return AggregateResult(
        output=y, rule="minmax-meb", achieved_value=max(0.0, value)
    )


RULES = {
    "mean": mean_aggregate,
    "coordmedian": coordwise_median,
    "mda": mda,
    "medoid": medoid,
    "geomedian": geometric_median,
    "minmax-meb": minmax_meb,
}


def run_rule(name: str, points, t: int, **kwargs) -> AggregateResult:
    """Dispatch a rule by CLI name."""
    if name not in RULES:
        raise InvalidParamsError(f"unknown rule {name!r}; choose from {sorted(RULES)}")
    return RULES[name](points, t, **kwargs)
