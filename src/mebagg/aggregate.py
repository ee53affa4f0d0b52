"""Aggregation rules over a full point set (honest + Byzantine, labels unseen).

Every rule maps (points, fault budget t) to an output vector. Rules are
permutation-invariant and equivariant under isometries and positive scaling,
up to solver tolerance.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ConflictingZeroRadiusError,
    EmptyInputError,
    InvalidFaultBudgetError,
    InvalidParamsError,
    NonConvergenceError,
    ResilienceViolationError,
    TooManySubsetsError,
)
from .geometry import (
    _CHUNK_ELEMS,
    Ball,
    _full_rank,
    _index_chunks,
    _one_center,
    _row_norms,
    _spread_exp,
    meb,
)
from .pointset import as_points, as_vector

MAX_SUBSETS = 2_000_000

# One ``meb`` call costs about as much as this many batched support-set
# checks (measured ratios run from a few hundred to a few thousand, growing
# with n); candidate_balls enumerates subsets when that makes them cheaper.
_MEB_COST_IN_SUPPORTS = 1000


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


@dataclass(frozen=True)
class CandidateBalls:
    """The distinct MEBs of the size-(n-t) subsets, one witness subset each.

    ``subsets[i]`` is the lexicographically smallest size-(n-t) subset whose
    MEB is ``balls[i]``, and the balls are ordered by witness. ``subsets`` is
    None when the balls were supplied directly rather than derived from a
    point set.
    """

    balls: tuple[Ball, ...]
    subsets: tuple[tuple[int, ...], ...] | None = None
    n: int | None = None
    t: int | None = None

    @classmethod
    def from_balls(cls, balls) -> "CandidateBalls":
        """Wrap an iterable of balls; a CandidateBalls is returned unchanged."""
        if isinstance(balls, CandidateBalls):
            return balls
        return cls(balls=tuple(balls))

    def __len__(self) -> int:
        return len(self.balls)

    def __iter__(self):
        return iter(self.balls)

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        C = np.array([b.center for b in self.balls])
        R = np.array([b.radius for b in self.balls])
        C.setflags(write=False)
        R.setflags(write=False)
        return C, R

    @cached_property
    def _unit(self) -> tuple[np.ndarray, np.ndarray]:
        """Centers about the first one and radii, in the power-of-two unit
        just above their spread: the frame, free of offset and scale, in
        which zero radii and duplicate balls are judged."""
        C, R = self._arrays
        local = C - C[0]
        e = max(_spread_exp(local), _spread_exp(R))
        return np.ldexp(local, -e), np.ldexp(R, -e)

    @cached_property
    def _zero(self) -> np.ndarray:
        """Mask of the balls with radius at most 1e-12 in ``_unit``."""
        return self._unit[1] <= 1e-12

    def centers(self) -> np.ndarray:
        return self._arrays[0]

    def radii(self) -> np.ndarray:
        return self._arrays[1]

    def ratios(self, y) -> np.ndarray:
        """||y - c|| / r for every ball: at most 1 inside, above 1 outside.

        A zero-radius ball (``_zero``) scores 0 when y lies within
        1e-9 * (1 + largest center coordinate) of its center, and infinity
        otherwise.
        """
        (C, R), zero = self._arrays, self._zero
        dist = _row_norms(C - as_vector(y, C.shape[1]))
        if not zero.any():
            return dist / R
        miss = dist > 1e-9 * (1.0 + float(np.abs(C).max()))
        return np.where(zero, np.where(miss, math.inf, 0.0), dist / np.where(zero, 1.0, R))


def _distance_matrix(pts: np.ndarray) -> np.ndarray:
    """Pairwise distances in a power-of-two unit of the points' extent: a
    unit that rounds nothing keeps every comparison between them exact at
    any scale, where raw squares would overflow and tie at inf."""
    pts = np.ldexp(pts, -_spread_exp(np.ptp(pts, axis=0)))
    return np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)


def _check_fault_budget(n: int, t: int) -> None:
    if t < 0 or t >= n:
        raise InvalidFaultBudgetError(f"need 0 <= t < n, got t={t}, n={n}")


def _ball_keys(centers, radii) -> np.ndarray:
    """One row per ball, equal exactly when two balls count as the same:
    center and radius rounded to 12 decimals. Callers take the centers
    about a local origin and both in a power-of-two unit of the spread,
    so the keys do not depend on offset or scale."""
    return np.round(np.column_stack([centers, radii]), 12)


def _support_balls(P: np.ndarray, m: int):
    """(centers, radii, witnesses) of every support set whose circumball is
    the MEB of some size-m subset of the points P, duplicates kept.

    Every MEB(T) is the circumball B_S of a support S of at most d+1
    affinely independent points whose circumcenter lies in conv(S), and
    conversely any T with S in T inside B_S has MEB(T) = B_S. So a support
    counts when its circumcenter has non-negative barycentric weights and
    B_S covers at least m points, and its witness is S plus the
    lowest-index covered points.
    """
    n, d = P.shape
    slack = 1e-12 * float(np.abs(P).max())
    rows = max(1, _CHUNK_ELEMS // (n * d))
    centers, radii, witnesses = [], [], []
    for k in range(1, min(d + 1, m) + 1):
        for S in _index_chunks(n, k, rows):
            base = P[S[:, 0]]
            c = base
            if k > 1:
                # circumcenter c = base + V^T beta with G beta = |v_i|^2 / 2
                V = P[S[:, 1:]] - base[:, None, :]
                G = V @ V.transpose(0, 2, 1)
                b = 0.5 * np.einsum("sij,sij->si", V, V)
                ok = _full_rank(G)
                G[~ok] = np.eye(k - 1)
                beta = np.linalg.solve(G, b[..., None])[..., 0]
                ok &= (beta >= -1e-12).all(axis=1) & (beta.sum(axis=1) <= 1.0 + 1e-12)
                S, base, beta, V = S[ok], base[ok], beta[ok], V[ok]
                c = base + np.einsum("si,sid->sd", beta, V)
            r = np.linalg.norm(c - base, axis=1)
            # direct distances: the Gram expansion loses coincident points
            diff = P[None, :, :] - c[:, None, :]
            reach = (1.0 + 1e-12) * r + slack
            covered = np.einsum("snd,snd->sn", diff, diff) <= (reach * reach)[:, None]
            ok = covered.sum(axis=1) >= m
            if not ok.any():
                continue
            in_s = np.zeros((int(ok.sum()), n), dtype=bool)
            np.put_along_axis(in_s, S[ok], True, axis=1)
            extra = covered[ok] & ~in_s
            extra &= np.cumsum(extra, axis=1) <= m - k
            witnesses.append(np.nonzero(in_s | extra)[1].reshape(-1, m))
            centers.append(c[ok])
            radii.append(r[ok])
    if not centers:
        raise NonConvergenceError("no support set passed its enclosing-ball checks")
    return np.concatenate(centers), np.concatenate(radii), np.concatenate(witnesses)


def _subset_balls(P: np.ndarray, m: int):
    """(centers, radii, witnesses) from one ``meb`` per size-m subset of the
    points P, in lexicographic order, keeping the first subset of each
    distinct ball; P comes in the units that ``candidate_balls`` keys in."""
    seen = set()
    centers, radii, witnesses = [], [], []
    for sub in itertools.combinations(range(P.shape[0]), m):
        ball = meb(P[list(sub)])
        key = tuple(_ball_keys(ball.center[None], [ball.radius])[0])
        if key not in seen:
            seen.add(key)
            centers.append(ball.center)
            radii.append(ball.radius)
            witnesses.append(sub)
    return np.array(centers), np.array(radii), np.array(witnesses, dtype=np.intp)


def candidate_balls(points, t: int, *, max_subsets: int = MAX_SUBSETS) -> CandidateBalls:
    """The distinct MEBs of the size-(n-t) subsets, each with its
    lexicographically smallest witness subset, ordered by witness.

    The balls come from the support sets of at most d+1 points
    (``_support_balls``), sum over k <= min(d+1, n-t) of C(n, k) of them,
    or, when the C(n, t) subsets are far fewer, from one ``meb`` per subset
    (``_subset_balls``); both give the same balls. ``TooManySubsetsError``
    is raised only when both counts exceed ``max_subsets``, and the subsets
    are taken whenever only they fit under it. Radii are realized covering
    radii over the witness, as ``meb`` reports them.
    """
    pts = as_points(points)
    n, d = pts.shape
    _check_fault_budget(n, t)
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
    origin = pts.mean(axis=0)
    P = pts - origin
    e = _spread_exp(P)
    P = np.ldexp(P, -e)
    if supports > max_subsets or subsets * _MEB_COST_IN_SUPPORTS < supports:
        C, R, W = _subset_balls(P, m)
    else:
        C, R, W = _support_balls(P, m)
    # one ball per key; the first in witness order has the smallest witness
    order = np.lexsort(W.T[::-1])
    _, first = np.unique(_ball_keys(C[order], R[order]), axis=0, return_index=True)
    keep = order[np.sort(first)]
    C, W = C[keep], W[keep]
    realized = np.linalg.norm(P[W] - C[:, None, :], axis=2).max(axis=1)
    C, realized = np.ldexp(C, e) + origin, np.ldexp(realized, e)
    balls = tuple(Ball(c, r) for c, r in zip(C, realized))
    witnesses = tuple(tuple(int(i) for i in w) for w in W)
    return CandidateBalls(balls=balls, subsets=witnesses, n=n, t=t)


# ---------------------------------------------------------------------------
# classical rules


def mean_aggregate(points, t: int = 0) -> AggregateResult:
    """Arithmetic mean of all points (no robustness, baseline)."""
    pts = as_points(points)
    return AggregateResult(output=pts.mean(axis=0), rule="mean")


def coordwise_median(points, t: int = 0) -> AggregateResult:
    """Per-coordinate median; even counts take the midpoint of the two
    central order statistics (unanalyzed baseline)."""
    pts = as_points(points)
    return AggregateResult(output=np.median(pts, axis=0), rule="coordmedian")


def mda(points, t: int, *, max_subsets: int = MAX_SUBSETS) -> AggregateResult:
    """Minimum-diameter averaging: mean of a size-(n-t) subset of smallest
    diameter; ties go to the lexicographically smallest index set.

    The subsets are walked in lexicographic order, in chunks that hold about
    ``_CHUNK_ELEMS`` pair distances, so memory stays bounded at any count.
    The walk skips every subset that holds a point with fewer than n-t-1
    others within an attained diameter, since no such subset can beat it;
    ``max_subsets`` still caps all C(n, n-t) subsets, counted before
    that pruning.
    """
    pts = as_points(points)
    n = pts.shape[0]
    _check_fault_budget(n, t)
    m = n - t
    count = math.comb(n, m)
    if count > max_subsets:
        raise TooManySubsetsError(
            f"C({n},{m}) = {count} subsets exceeds the cap of {max_subsets}"
        )
    dmat = _distance_matrix(pts)
    # the lex-first subset stands until a strictly smaller diameter displaces
    # it; argmin keeps the first of a chunk's ties
    best, best_sub = math.inf, tuple(range(m))
    if m > 1:
        # the m points nearest the point with the closest (m-1)-th neighbour
        # attain a diameter D, and a subset of diameter <= D lies in the
        # (m-1)-core of the pairs within D: peel points with fewer partners
        i = int(np.argmin(np.partition(dmat, m - 1, axis=1)[:, m - 1]))
        near = np.argpartition(dmat[i], m - 1)[:m]
        close = dmat <= dmat[np.ix_(near, near)].max()
        partners = close.sum(axis=1)  # counts the point itself
        alive = np.ones(n, dtype=bool)
        while (drop := alive & (partners < m)).any():
            alive &= ~drop
            partners -= close[:, drop].sum(axis=1)
        core = np.flatnonzero(alive)
        pair_rows, pair_cols = np.triu_indices(m, k=1)
        for subs in _index_chunks(core.size, m, max(1, _CHUNK_ELEMS // pair_rows.size)):
            subs = core[subs]
            diams = dmat[subs[:, pair_rows], subs[:, pair_cols]].max(axis=1)
            idx = int(np.argmin(diams))
            if diams[idx] < best:
                best, best_sub = diams[idx], tuple(int(i) for i in subs[idx])
    out = pts[list(best_sub)].mean(axis=0)
    return AggregateResult(output=out, rule="mda", chosen_subset=best_sub)


def medoid(points, t: int = 0) -> AggregateResult:
    """Input point minimizing the total distance to all inputs; ties go to
    the lowest index."""
    pts = as_points(points)
    dmat = _distance_matrix(pts)
    sums = dmat.sum(axis=1)
    idx = int(np.argmin(sums))
    return AggregateResult(output=pts[idx], rule="medoid", chosen_index=idx)


def geometric_median(
    points, t: int = 0, *, tol: float = 1e-9, max_iter: int = 100_000
) -> AggregateResult:
    """Point minimizing the sum of Euclidean distances to the inputs.

    Weiszfeld iteration with data-point collision handling: when the iterate
    lands on an input point, a subgradient optimality test either certifies
    it or steps off along the descent direction. Rank-deficient (collinear)
    inputs reduce to the 1-D median with the midpoint convention for even
    counts, matching ``coordwise_median``.
    """
    pts = as_points(points)
    n, d = pts.shape
    if n == 1:
        return AggregateResult(output=pts[0], rule="geomedian")
    scale = 1.0 + float(np.abs(pts).max())

    centered = pts - pts.mean(axis=0)
    svals = np.linalg.svd(centered, compute_uv=False)
    if svals[0] <= 1e-14 * scale:
        return AggregateResult(output=pts[0], rule="geomedian")
    if d == 1 or svals[1] <= 1e-12 * svals[0]:
        # collinear: 1-D median, midpoint of the two central order statistics
        _, _, vt = np.linalg.svd(centered, full_matrices=False)
        axis = vt[0]
        proj = np.sort(centered @ axis)
        mid = 0.5 * (proj[(n - 1) // 2] + proj[n // 2])
        return AggregateResult(output=pts.mean(axis=0) + mid * axis, rule="geomedian")

    def vertex_step(vertex: np.ndarray):
        """Subgradient test at a data point; None when the point is optimal,
        otherwise one descent step off it (Vardi-Zhang)."""
        dist = np.linalg.norm(pts - vertex, axis=1)
        here = dist <= 1e-12 * scale
        mult = int(here.sum())
        rest = ~here
        resid = ((vertex - pts[rest]) / dist[rest, None]).sum(axis=0)
        rnorm = float(np.linalg.norm(resid))
        if rnorm <= mult + 1e-12:
            return None
        w = 1.0 / dist[rest]
        target = (pts[rest] * w[:, None]).sum(axis=0) / w.sum()
        lam = min(1.0, mult / rnorm)
        return (1.0 - lam) * target + lam * vertex

    y = pts.mean(axis=0)
    resolved = set()
    for _ in range(max_iter):
        dist = np.linalg.norm(pts - y, axis=1)
        nearest = int(np.argmin(dist))
        if dist[nearest] <= 1e-12 * scale:
            stepped = vertex_step(pts[nearest])
            if stepped is None:
                return AggregateResult(output=pts[nearest], rule="geomedian")
            y_new = stepped
        else:
            w = 1.0 / dist
            y_new = (pts * w[:, None]).sum(axis=0) / w.sum()
        if np.linalg.norm(y_new - y) <= tol * scale:
            # settled; if hugging a data point, resolve the vertex exactly,
            # once: stepping off it again would retrace the same path
            if dist[nearest] <= 1e-5 * scale and nearest not in resolved:
                resolved.add(nearest)
                stepped = vertex_step(pts[nearest])
                if stepped is None:
                    return AggregateResult(output=pts[nearest], rule="geomedian")
                y = stepped
                continue
            return AggregateResult(output=y_new, rule="geomedian")
        y = y_new
    raise NonConvergenceError(
        f"Weiszfeld iteration did not settle within {max_iter} iterations"
    )


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
    if not len(cb):
        raise EmptyInputError("no candidate balls to solve over")
    C, R, zero = cb.centers(), cb.radii(), cb._zero
    if zero.any():
        y = C[zero][0]
        return y, float(cb.ratios(y).max()) - 1.0
    # overlapping subsets often share one MEB; collapse the duplicates
    _, uniq_idx = np.unique(_ball_keys(*cb._unit), axis=0, return_index=True)
    if uniq_idx.size < C.shape[0]:
        C = C[np.sort(uniq_idx)]
        R = R[np.sort(uniq_idx)]
    y, _ = _one_center(C, R)
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
    if n <= 2 * t and not allow_low_resilience:
        raise ResilienceViolationError(
            f"minmax rule needs n > 2t for its guarantee (n={n}, t={t}); "
            "pass allow_low_resilience=True to compute anyway"
        )
    if balls is None:
        balls = candidate_balls(pts, t, max_subsets=max_subsets)
    y, value = solve_minmax(balls)
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
