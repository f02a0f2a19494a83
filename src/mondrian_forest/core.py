"""Shared domain types for piecewise-constant estimation on the unit cube.

Feature vectors live in [0,1]^d. Axis-aligned cells use a half-open
convention so that any finite axis-aligned partition tiles the cube with
every point belonging to exactly one cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

DEFAULT_LEAF_CAP = 10**6


class InputError(ValueError):
    """Invalid input: bad dimensions, out-of-domain values, malformed files."""


class ResourceError(RuntimeError):
    """A configured resource budget (for example the leaf cap) was exceeded."""


class NumericError(ArithmeticError):
    """A computation produced non-finite or otherwise impossible values."""


def clamp(value: float, lo: float, hi: float) -> float:
    """Clamp ``value`` into the closed interval [lo, hi]."""
    return min(max(value, lo), hi)


def as_point(x: Sequence[float] | np.ndarray, dimension: int | None = None) -> np.ndarray:
    """Validate a single feature vector and return it as a float array.

    Coordinates must be finite and lie in [0,1]; a dimension mismatch or an
    out-of-domain coordinate raises :class:`InputError`.
    """
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise InputError(f"expected a 1-d point, got shape {arr.shape}")
    if dimension is not None and arr.shape[0] != dimension:
        raise InputError(f"point has dimension {arr.shape[0]}, expected {dimension}")
    if not np.all(np.isfinite(arr)):
        raise InputError("point has non-finite coordinates")
    if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
        raise InputError("point lies outside [0,1]^d")
    return arr


def as_points(xs: Sequence[Sequence[float]] | np.ndarray, dimension: int | None = None) -> np.ndarray:
    """Validate a batch of feature vectors, returned as an (n, d) float array."""
    arr = np.asarray(xs, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1) if dimension in (None, 1) else arr.reshape(1, -1)
    if arr.ndim != 2:
        raise InputError(f"expected an (n, d) array of points, got shape {arr.shape}")
    if dimension is not None and arr.shape[1] != dimension:
        raise InputError(f"points have dimension {arr.shape[1]}, expected {dimension}")
    if not np.all(np.isfinite(arr)):
        raise InputError("points have non-finite coordinates")
    if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
        raise InputError("points lie outside [0,1]^d")
    return arr


@dataclass(frozen=True)
class Cell:
    """Axis-aligned box ``prod_j [lo_j, hi_j)`` inside the unit cube.

    The upper face is exclusive except where it touches the cube boundary:
    a coordinate with ``hi_j == 1`` is inclusive there, so partitions of
    [0,1]^d cover the whole cube.
    """

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.lo) != len(self.hi):
            raise InputError("cell bounds have mismatched dimensions")
        if not len(self.lo):
            raise InputError("cell must have dimension >= 1")
        # canonicalize to floats so equal cells compare and serialize equal
        object.__setattr__(self, "lo", tuple(float(a) for a in self.lo))
        object.__setattr__(self, "hi", tuple(float(b) for b in self.hi))
        for a, b in zip(self.lo, self.hi):
            if not (np.isfinite(a) and np.isfinite(b)):
                raise InputError("cell bounds must be finite")
            if not (0.0 <= a <= b <= 1.0):
                raise InputError("cell bounds must satisfy 0 <= lo <= hi <= 1")

    @property
    def dimension(self) -> int:
        return len(self.lo)

    def side_lengths(self) -> np.ndarray:
        return np.asarray(self.hi, dtype=float) - np.asarray(self.lo, dtype=float)


def volume(cell: Cell) -> float:
    out = 1.0
    for a, b in zip(cell.lo, cell.hi):
        out *= b - a
    return float(out)


def diameter(cell: Cell) -> float:
    """Euclidean length of the cell's main diagonal."""
    return float(np.sqrt(np.sum(cell.side_lengths() ** 2)))


def contains(cell: Cell, x: Sequence[float] | np.ndarray) -> bool:
    """Half-open membership: ``lo_j <= x_j < hi_j``, inclusive where ``hi_j == 1``."""
    arr = as_point(x, dimension=cell.dimension)
    for a, b, v in zip(cell.lo, cell.hi, arr):
        if v < a:
            return False
        if v >= b and not (b == 1.0 and v == 1.0):
            return False
    return True


@dataclass(frozen=True)
class ValueBox:
    """Closed interval of admissible fitted values."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise InputError("value box bounds must be finite")
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        if not self.lo < self.hi:
            raise InputError(f"value box requires lo < hi, got [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def clip(self, value: float) -> float:
        return clamp(value, self.lo, self.hi)

    def holds(self, value) -> bool:
        v = np.asarray(value, dtype=float)
        return bool(np.all(v >= self.lo) and np.all(v <= self.hi))


@dataclass(frozen=True)
class FixedLambda:
    """Fit every tree at one prescribed time horizon."""

    value: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.value) or self.value < 0.0:
            raise InputError("fixed lambda must be finite and >= 0")
        object.__setattr__(self, "value", float(self.value))


@dataclass(frozen=True)
class AutoLambda:
    """Select each tree's horizon by penalized empirical risk.

    ``alpha`` is the per-unit-time penalty weight, restricted to (0, 1];
    ``lambda_max`` bounds the search horizon.
    """

    alpha: float
    lambda_max: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.alpha) or not (0.0 < self.alpha <= 1.0):
            raise InputError("alpha must lie in (0, 1]")
        if not np.isfinite(self.lambda_max) or self.lambda_max <= 0.0:
            raise InputError("lambda_max must be finite and > 0")
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "lambda_max", float(self.lambda_max))


@dataclass(frozen=True)
class FitConfig:
    """Ensemble fitting parameters.

    ``seed`` is the master seed; per-tree randomness is derived from it
    through independent substreams so results do not depend on scheduling.
    """

    tree_count: int
    lambda_mode: FixedLambda | AutoLambda
    value_box: ValueBox
    seed: int
    leaf_cap: int = DEFAULT_LEAF_CAP

    def __post_init__(self) -> None:
        if self.tree_count < 1:
            raise InputError("tree_count must be >= 1")
        if not isinstance(self.lambda_mode, (FixedLambda, AutoLambda)):
            raise InputError("lambda_mode must be FixedLambda or AutoLambda")
        if not isinstance(self.value_box, ValueBox):
            raise InputError("value_box must be a ValueBox")
        if not (0 <= int(self.seed) < 2**64):
            raise InputError("seed must be a 64-bit unsigned integer")
        if self.leaf_cap < 1:
            raise InputError("leaf_cap must be >= 1")


@dataclass(frozen=True)
class Dataset:
    """Immutable sample of points in [0,1]^d with an optional response column."""

    points: np.ndarray
    responses: np.ndarray | None = None

    def __post_init__(self) -> None:
        pts = np.array(self.points, dtype=float, copy=True)
        if pts.ndim != 2 or pts.shape[1] < 1:
            raise InputError(f"points must be an (n, d) array with d >= 1, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise InputError("points have non-finite coordinates")
        if pts.size and (pts.min() < 0.0 or pts.max() > 1.0):
            raise InputError("points lie outside [0,1]^d")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)
        if self.responses is not None:
            ys = np.array(self.responses, dtype=float, copy=True).reshape(-1)
            if ys.shape[0] != pts.shape[0]:
                raise InputError("responses length does not match number of points")
            if not np.all(np.isfinite(ys)):
                raise InputError("responses must be finite")
            ys.flags.writeable = False
            object.__setattr__(self, "responses", ys)

    @property
    def n(self) -> int:
        return int(self.points.shape[0])

    @property
    def dimension(self) -> int:
        return int(self.points.shape[1])

    def require_responses(self) -> np.ndarray:
        if self.responses is None:
            raise InputError("dataset has no response column")
        return self.responses


def _format_value(v: float) -> str:
    return repr(float(v))


def save_dataset_csv(dataset: Dataset, path) -> None:
    """Write ``x1,...,xd[,y]`` rows; floats use shortest round-trip formatting."""
    d = dataset.dimension
    header = ",".join(f"x{j + 1}" for j in range(d))
    if dataset.responses is not None:
        header += ",y"
    lines = [header]
    for i in range(dataset.n):
        row = [_format_value(v) for v in dataset.points[i]]
        if dataset.responses is not None:
            row.append(_format_value(dataset.responses[i]))
        lines.append(",".join(row))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv_columns(path) -> tuple[np.ndarray, np.ndarray | None]:
    """Points and responses of an ``x1,...,xd[,y]`` CSV file, not yet validated."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not an ASCII text file: {exc}") from exc
    if not lines:
        raise InputError(f"{path}: empty file")
    header = lines[0].split(",")
    has_response = header[-1] == "y"
    d = len(header) - (1 if has_response else 0)
    expected = [f"x{j + 1}" for j in range(d)] + (["y"] if has_response else [])
    if header != expected or d < 1:
        raise InputError(f"{path}: header must be x1,...,xd[,y], got {lines[0]!r}")
    rows = lines[1:]
    data = np.fromiter(_row_values(path, rows, len(header)), dtype=float,
                       count=len(rows) * len(header)).reshape(len(rows), len(header))
    return data[:, :d], (data[:, d] if has_response else None)


def _row_values(path, rows: Iterable[str], width: int) -> Iterator[float]:
    """Every field of ``rows`` through Python's ``float``, streamed; the
    first row without ``width`` numeric fields is an :class:`InputError`."""
    for ln in rows:
        parts = ln.split(",")
        if len(parts) != width:
            raise InputError(f"{path}: row has {len(parts)} fields, expected {width}")
        try:
            yield from map(float, parts)
        except ValueError as exc:
            raise InputError(f"{path}: non-numeric field in row {ln!r}") from exc


def load_dataset_csv(path) -> Dataset:
    """Read a dataset written by :func:`save_dataset_csv` (header required)."""
    points, responses = read_csv_columns(path)
    try:
        return Dataset(points=points, responses=responses)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc
