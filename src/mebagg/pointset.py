"""Point sets with optional ground-truth honest/Byzantine labels."""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, EmptyInputError, InvalidParamsError, MebaggError

HONEST = "honest"
BYZANTINE = "byz"

_VALID_LABELS = frozenset({HONEST, BYZANTINE})


@dataclass(frozen=True)
class PointSet:
    """An ordered collection of d-dimensional vectors.

    ``labels``, when present, is test-only ground truth: aggregation rules
    never look at it.
    """

    points: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        pts = as_points(self.points).copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        if self.labels is not None:
            labels = tuple(self.labels)
            if len(labels) != pts.shape[0]:
                raise MebaggError(
                    f"got {len(labels)} labels for {pts.shape[0]} points"
                )
            if not all(isinstance(label, str) for label in labels):
                raise MebaggError(f"labels must be strings, got {labels!r}")
            bad = set(labels) - _VALID_LABELS
            if bad:
                raise MebaggError(f"unknown labels: {sorted(bad)}")
            object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def byzantine_count(self) -> int:
        if self.labels is None:
            return 0
        return sum(1 for l in self.labels if l == BYZANTINE)

    def honest_points(self) -> np.ndarray:
        """Ground-truth honest subset; requires labels."""
        if self.labels is None:
            raise MebaggError("point set carries no honest/byz labels")
        mask = np.array([l == HONEST for l in self.labels])
        return self.points[mask]

    def subset(self, indices) -> np.ndarray:
        return self.points[np.asarray(indices, dtype=int)]

    def __len__(self) -> int:
        return self.n


def as_points(data) -> np.ndarray:
    """Coerce a PointSet or array-like into a validated (n, d) float array."""
    if isinstance(data, PointSet):
        return data.points
    try:
        pts = np.asarray(data, dtype=float)
    except ValueError as exc:
        raise DimensionMismatchError(f"points do not form a uniform array: {exc}")
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise EmptyInputError("expected a nonempty sequence of points")
    if pts.shape[1] < 1:
        raise DimensionMismatchError("points must have dimension >= 1")
    if not np.isfinite(pts).all():
        raise MebaggError("points must be finite (no NaN/inf)")
    return pts


def as_vector(data, dim: int | None = None) -> np.ndarray:
    """Coerce to a 1-D float vector, optionally checking its dimension."""
    v = np.asarray(data, dtype=float).reshape(-1)
    if v.size == 0:
        raise EmptyInputError("expected a nonempty vector")
    if not np.isfinite(v).all():
        raise MebaggError("vector must be finite (no NaN/inf)")
    if dim is not None and v.size != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got {v.size}")
    return v


def _count(value, name: str, floor: int = 0, bound: int | None = None, error=InvalidParamsError) -> int:
    """``value`` as an int: an integer (numpy ones count, a bool does not) >= ``floor``
    and, given ``bound``, < ``bound``; else ``error``. Plain ints skip the slow ABC check."""
    integer = type(value) is int or (isinstance(value, numbers.Integral) and not isinstance(value, bool))
    if not (integer and floor <= value and (bound is None or value < bound)):
        below = "" if bound is None else f" and < {bound}"
        raise error(f"{name} must be an integer >= {floor}{below}, got {value!r}")
    return int(value)


def _real(value, name: str, floor: float = 0.0) -> float:
    """``value`` as a float: a real number, not a bool, >= ``floor`` and finite."""
    real = type(value) is float or (isinstance(value, numbers.Real) and not isinstance(value, bool))
    if not (real and floor <= value < np.inf):
        raise InvalidParamsError(f"{name} must be >= {floor:g} and finite, got {value}")
    return float(value)
