"""Random recursive axis-aligned partitions of the unit cube.

A partition tree is grown by attaching an exponential clock to every cell:
a cell born at time ``tau`` waits an Exponential(rate = linear size) time,
and if the clock rings before the horizon the cell splits along dimension
``J`` (chosen with probability proportional to side length) at a threshold
drawn uniformly inside the side. Children inherit the ring time as their
birth time. The tree records the full genealogy up to the horizon, so the
coarser partition at any earlier time ``lam <= horizon`` can be read off by
ignoring splits born after ``lam``.

A genealogy is held as flat arrays over its nodes (see :class:`PartitionTree`);
cells are derived from them only when asked for. :func:`sample_forest` is
the one place that turns a forest's master seed into per-tree streams.

Threshold ownership is half-open and matches :func:`mondrian_forest.core.contains`:
the left child is ``[lo, S)`` and the right child ``[S, hi]`` along the
split dimension.

The module also holds the codec of the model files: one JSON object per
file, and per tree ``{values, partition}`` with the arrays flat. A tree is
stored pruned at its horizon (:func:`prune`), so the stored genealogy's
horizon is the tree's ``lambda`` and no split born after it is kept.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Iterator

import numpy as np

from .core import (
    DEFAULT_LEAF_CAP,
    Cell,
    InputError,
    NumericError,
    ResourceError,
    ValueBox,
    as_points,
)


@dataclass(frozen=True, eq=False)
class PartitionTree:
    """A partition genealogy up to ``horizon``, as arrays over its nodes in pre-order.

    ``split_dim`` is -1 at a leaf, whose ``threshold`` is NaN and whose
    ``birth_time`` is infinite. The left child of split ``i`` is node
    ``i + 1``; its right child ``right[i]`` is derived from ``split_dim``,
    and so are the corners ``cell_lo[i]`` and ``cell_hi[i]`` of its cell.
    Construction checks that the arrays form a genealogy: split dimensions
    in ``[0, d)``, every threshold inside its node's cell, and split birth
    times in ``[0, horizon]``, never decreasing down a path.

    ``stream_id`` names the random stream that produced the tree, so a fit
    can be reproduced from its serialized header alone.
    """

    dimension: int
    horizon: float
    split_dim: np.ndarray
    threshold: np.ndarray
    birth_time: np.ndarray
    stream_id: str
    right: np.ndarray = field(init=False, repr=False)
    cell_lo: np.ndarray = field(init=False, repr=False)
    cell_hi: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        for name, dtype in (("split_dim", np.int64), ("threshold", float),
                            ("birth_time", float)):
            arr = np.array(getattr(self, name), dtype=dtype)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        dims, births = self.split_dim, self.birth_time
        if not (self.dimension >= 1 and 0.0 <= self.horizon < math.inf):
            raise InputError("partition needs dimension >= 1 and a finite horizon >= 0")
        if self.threshold.shape != dims.shape or births.shape != dims.shape:
            raise InputError("partition node arrays have mismatched lengths")
        if np.any((dims < -1) | (dims >= self.dimension)):
            raise InputError(f"split dimension outside [0, {self.dimension})")
        object.__setattr__(self, "right", _right_children(dims))
        splits = dims >= 0
        if not np.all(np.where(splits, (births >= 0.0) & (births <= self.horizon),
                               births == math.inf)):
            raise InputError("split birth times must lie in [0, horizon]")
        parents = np.flatnonzero(splits)
        if np.any(births[parents + 1] < births[parents]) or \
                np.any(births[self.right[parents]] < births[parents]):
            raise InputError("split birth times decrease down a path")
        for name, bounds in zip(("cell_lo", "cell_hi"), _node_bounds(self)):
            bounds.flags.writeable = False
            object.__setattr__(self, name, bounds)


def _right_children(split_dim: np.ndarray) -> np.ndarray:
    """Right-child index of every split of a pre-order node sequence, -1 at leaves."""
    # with s splits and s + 1 leaves, the sequence is a tree unless it ends early
    n = split_dim.size
    if split_dim.ndim != 1 or n != 2 * int(np.count_nonzero(split_dim >= 0)) + 1:
        raise InputError("partition nodes do not form a binary tree")
    right = np.full(n, -1, dtype=np.int64)
    awaiting_right: list[int] = []
    for i, dim in enumerate(split_dim.tolist()):
        if dim >= 0:
            awaiting_right.append(i)
        elif awaiting_right:
            right[awaiting_right.pop()] = i + 1
        elif i != n - 1:
            raise InputError("partition nodes do not form a binary tree")
    right.flags.writeable = False
    return right


def sample_split(lo, hi, rng: np.random.Generator) -> tuple[int, float]:
    """Draw a split (dimension, threshold) for the cell with bounds ``lo``, ``hi``.

    The dimension is chosen with probability proportional to its side
    length and the threshold uniformly inside the chosen side (endpoints
    excluded, redrawing on the measure-zero collisions).
    """
    sides = np.asarray(hi, dtype=float) - np.asarray(lo, dtype=float)
    total = float(sides.sum())
    if total <= 0.0:
        raise NumericError("cannot split a degenerate cell")
    u = rng.uniform(0.0, total)
    acc = 0.0
    dim = len(sides) - 1
    for j, s in enumerate(sides):
        acc += float(s)
        if u < acc:
            dim = j
            break
    a, b = lo[dim], hi[dim]
    threshold = rng.uniform(a, b)
    while threshold <= a or threshold >= b:
        threshold = rng.uniform(a, b)
    return dim, float(threshold)


def sample_partition(dimension: int, horizon: float,
                     rng: np.random.Generator | int,
                     leaf_cap: int = DEFAULT_LEAF_CAP,
                     stream_id: str | None = None) -> PartitionTree:
    """Sample a partition tree of [0,1]^``dimension`` up to time ``horizon``.

    ``rng`` may be a seeded generator or a plain integer seed. The number of
    leaves is capped at ``leaf_cap``; exceeding it aborts with
    :class:`ResourceError` rather than consuming unbounded memory.
    """
    if not np.isfinite(horizon) or horizon < 0.0:
        raise InputError("horizon must be finite and >= 0")
    if isinstance(rng, (int, np.integer)):
        if stream_id is None:
            stream_id = str(int(rng))
        rng = np.random.default_rng(int(rng))
    nodes: list[tuple[int, float, float]] = []  # (split_dim, threshold, birth_time)
    leaves = 0
    # draws in pre-order: a node's wait, its split, its left subtree, its right
    # one; the stack holds (lo, hi, birth time) of the cells still to visit
    stack = [((0.0,) * dimension, (1.0,) * dimension, 0.0)]
    while stack:
        lo, hi, tau = stack.pop()
        size = float(sum(b - a for a, b in zip(lo, hi)))
        birth = tau + rng.exponential(1.0 / size) if size > 0.0 else math.inf
        if birth > horizon:
            leaves += 1
            if leaves > leaf_cap:
                raise ResourceError(f"partition exceeded leaf cap {leaf_cap}")
            nodes.append((-1, math.nan, math.inf))
            continue
        dim, threshold = sample_split(lo, hi, rng)
        nodes.append((dim, threshold, birth))
        stack.append((lo[:dim] + (threshold,) + lo[dim + 1:], hi, birth))
        stack.append((lo, hi[:dim] + (threshold,) + hi[dim + 1:], birth))
    dims, thresholds, births = zip(*nodes)
    return PartitionTree(dimension=dimension, horizon=float(horizon), split_dim=dims,
                         threshold=thresholds, birth_time=births,
                         stream_id="anonymous" if stream_id is None else stream_id)


def sample_forest(dimension: int, horizon: float, seed: int, tree_count: int,
                  leaf_cap: int = DEFAULT_LEAF_CAP) -> Iterator[PartitionTree]:
    """The genealogies of a forest's ``tree_count`` trees, one at a time.

    Tree ``b`` draws from the ``b``-th of ``tree_count`` children of
    ``SeedSequence(seed)`` and is named ``"{seed}/{b}"``. A child does not
    depend on how many siblings it has, so tree ``b`` is the same in every
    forest of more than ``b`` trees. A tree over ``leaf_cap`` raises
    :class:`ResourceError` naming the tree.
    """
    if not 0 <= int(seed) < 2**64:
        raise InputError("seed must be a 64-bit unsigned integer")
    children = np.random.SeedSequence(int(seed)).spawn(tree_count)
    for b, child in enumerate(children):
        try:
            partition = sample_partition(dimension, horizon, np.random.default_rng(child),
                                         leaf_cap=leaf_cap, stream_id=f"{seed}/{b}")
        except ResourceError as exc:
            raise ResourceError(f"tree {b}: {exc}") from exc
        yield partition


def _check_lambda(tree: PartitionTree, lam: float) -> float:
    if not 0.0 <= lam <= tree.horizon:
        raise InputError(f"lambda {lam} is outside [0, tree horizon {tree.horizon}]")
    return float(lam)


def _reached(tree: PartitionTree, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the nodes in the time-``lam`` tree and of those split by ``lam``.

    Birth times never decrease down a path, so the tree holds the root and
    every child of a node split by ``lam``."""
    split = tree.birth_time <= _check_lambda(tree, lam)
    parents = np.flatnonzero(tree.split_dim >= 0)
    reached = np.ones(tree.split_dim.shape[0], dtype=bool)
    reached[parents + 1] = split[parents]
    reached[tree.right[parents]] = split[parents]
    return reached, split


def leaf_nodes(tree: PartitionTree, lam: float) -> np.ndarray:
    """Node of each leaf id of the time-``lam`` partition (leaves in pre-order)."""
    reached, split = _reached(tree, lam)
    return np.flatnonzero(reached & ~split)


def prune(tree: PartitionTree, lam: float) -> tuple[PartitionTree, np.ndarray]:
    """The genealogy up to ``lam``, with horizon ``lam``, and the pre-order
    indices in ``tree`` of the nodes it keeps; ``tree`` itself at its horizon.

    A Mondrian process stopped at ``lam`` is the process sampled up to ``lam``,
    so the pruned tree has the same time-``lam`` leaves, in the same order.
    """
    if lam == tree.horizon:
        return tree, np.arange(tree.split_dim.shape[0])
    reached, split = _reached(tree, lam)
    kept = np.flatnonzero(reached)
    split = split[kept]
    return replace(tree, horizon=float(lam), split_dim=np.where(split, tree.split_dim[kept], -1),
                   threshold=np.where(split, tree.threshold[kept], math.nan),
                   birth_time=np.where(split, tree.birth_time[kept], math.inf)), kept


def leaf_count_at(tree: PartitionTree, lam: float) -> int:
    """Every split born by ``lam`` adds one leaf to the root cell."""
    return 1 + int(np.count_nonzero(tree.birth_time <= _check_lambda(tree, lam)))


def _node_bounds(tree: PartitionTree) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper corners of every node's cell, as (nodes, d) arrays,
    checking each threshold against its node's cell."""
    lo = np.zeros((tree.split_dim.shape[0], tree.dimension))
    hi = np.ones_like(lo)
    for i, (j, t, r) in enumerate(zip(tree.split_dim.tolist(), tree.threshold.tolist(),
                                      tree.right.tolist())):
        if j < 0:
            continue
        if not lo[i, j] <= t <= hi[i, j]:
            raise InputError("split threshold outside its node's cell")
        lo[i + 1], hi[i + 1], lo[r], hi[r] = lo[i], hi[i], lo[i], hi[i]
        hi[i + 1, j] = lo[r, j] = t
    return lo, hi


def leaf_bounds(tree: PartitionTree, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Corners of the time-``lam`` leaf cells, as (leaves, d) arrays in leaf-id order."""
    nodes = leaf_nodes(tree, lam)
    return tree.cell_lo[nodes], tree.cell_hi[nodes]


def leaves_at(tree: PartitionTree, lam: float) -> list[Cell]:
    """Leaf cells of the partition at time ``lam``, in stable pre-order."""
    lo, hi = leaf_bounds(tree, lam)
    return [Cell(tuple(a), tuple(b)) for a, b in zip(lo.tolist(), hi.tolist())]


def split_times(tree: PartitionTree) -> list[float]:
    """Sorted birth times of all splits in the genealogy (empty if none)."""
    return sorted(tree.birth_time[tree.split_dim >= 0].tolist())


def locate_batch(tree: PartitionTree, lam: float, xs) -> np.ndarray:
    """Leaf id of the time-``lam`` cell holding each point, as an int array.

    Each split partitions its points in one comparison and hands each half
    to its child. An empty half is not followed, so one point costs one
    root-to-leaf path.
    """
    points = as_points(xs, dimension=tree.dimension)
    leaf_id = np.full(tree.split_dim.shape[0], -1, dtype=np.int64)
    nodes = leaf_nodes(tree, lam)
    leaf_id[nodes] = np.arange(nodes.shape[0])
    out = np.empty(points.shape[0], dtype=np.int64)
    # a stack, not a recursive closure: see node_members
    stack = [(0, np.arange(points.shape[0]))] if points.shape[0] else []
    while stack:
        node, idx = stack.pop()
        if leaf_id[node] >= 0:
            out[idx] = leaf_id[node]
            continue
        go_left = points[idx, tree.split_dim[node]] < tree.threshold[node]
        for child, part in ((node + 1, idx[go_left]), (tree.right[node], idx[~go_left])):
            if part.size:
                stack.append((child, part))
    return out


def node_members(tree: PartitionTree, xs) -> tuple[np.ndarray, np.ndarray]:
    """Every (node, point) pair of the genealogy whose node's cell holds the point.

    Returns the pairs as a node array and a point-index array, sorted by
    node and then by point. Each point goes down the whole genealogy once,
    so there are about n times the depth pairs; nodes no point reaches have
    none.
    """
    points = as_points(xs, dimension=tree.dimension)
    nodes: list[int] = []
    members: list[np.ndarray] = []
    # a stack, not a recursive closure: a closure that calls itself is a
    # reference cycle, and would keep every member array until the next
    # garbage collection
    stack = [(0, np.arange(points.shape[0]))] if points.shape[0] else []
    while stack:
        node, idx = stack.pop()
        nodes.append(node)
        members.append(idx)
        dim = tree.split_dim[node]
        if dim < 0:
            continue
        go_left = points[idx, dim] < tree.threshold[node]
        # the left child is pushed last, so it comes out first: pre-order
        for child, part in ((tree.right[node], idx[~go_left]), (node + 1, idx[go_left])):
            if part.size:
                stack.append((child, part))
    if not nodes:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    sizes = [m.size for m in members]
    return np.repeat(np.asarray(nodes, dtype=np.int64), sizes), np.concatenate(members)


def partition_to_obj(tree: PartitionTree) -> dict:
    """The genealogy's arrays; thresholds and birth times of splits only."""
    splits = tree.split_dim >= 0
    return {
        "dimension": tree.dimension,
        "horizon": tree.horizon,
        "stream_id": tree.stream_id,
        "split_dim": tree.split_dim.tolist(),
        "threshold": tree.threshold[splits].tolist(),
        "birth_time": tree.birth_time[splits].tolist(),
    }


def partition_from_obj(obj: dict) -> PartitionTree:
    """Read :func:`partition_to_obj` output; the constructor checks the genealogy."""
    try:
        dims = np.asarray(obj["split_dim"])
        if dims.ndim != 1 or dims.dtype.kind not in "iu":
            raise TypeError("split dimensions must be a list of integers")
        splits = dims >= 0
        threshold = np.full(dims.shape, math.nan)
        birth_time = np.full(dims.shape, math.inf)
        for full, key in ((threshold, "threshold"), (birth_time, "birth_time")):
            values = np.asarray(obj[key], dtype=float)
            if values.shape != (int(splits.sum()),):
                raise ValueError(f"{key} needs one entry per split")
            full[splits] = values
        return PartitionTree(dimension=json_int(obj["dimension"], "dimension"),
                             horizon=float(obj["horizon"]),
                             split_dim=dims, threshold=threshold, birth_time=birth_time,
                             stream_id=str(obj["stream_id"]))
    except InputError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed partition object: {exc!r}") from exc


def json_int(value, what: str) -> int:
    """``value`` if JSON read an integer for it; a float, even an integral
    one, a boolean or anything else is an :class:`InputError`."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{what} must be an integer, got {value!r}")
    return value


def tree_to_obj(partition: PartitionTree, lam: float, values) -> dict:
    """One fitted tree: a value per leaf at ``lam``, and its genealogy pruned at ``lam``."""
    return {
        "values": np.asarray(values, dtype=float).tolist(),
        "partition": partition_to_obj(prune(partition, lam)[0]),
    }


def tree_from_obj(obj: dict, dimension: int,
                  box: ValueBox | None = None) -> tuple[PartitionTree, float, np.ndarray]:
    """Read :func:`tree_to_obj` output as (partition, its horizon, values),
    checking that there is one finite value per leaf, inside ``box`` if given."""
    try:
        partition_obj = obj["partition"]
        values = np.asarray(obj["values"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed tree object: {exc!r}") from exc
    partition = partition_from_obj(partition_obj)
    if partition.dimension != dimension:
        raise InputError(f"tree dimension {partition.dimension} is not the model's {dimension}")
    leaf_count = leaf_count_at(partition, partition.horizon)
    if values.shape != (leaf_count,):
        raise InputError(f"tree has {values.size} values for {leaf_count} leaves")
    if not np.all(np.isfinite(values)) or (box is not None and not box.holds(values)):
        raise InputError("tree values must be finite and inside the value box")
    values.flags.writeable = False
    return partition, partition.horizon, values


def save_model(obj: dict, path) -> None:
    """Write a model object as one line of ASCII JSON; floats round-trip exactly."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(json.dumps(obj, separators=(",", ":")) + "\n")


def load_model(path, fmt: str) -> dict:
    """Read a :func:`save_model` file whose ``format`` field is ``fmt``."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            obj = json.loads(fh.read())
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"{path}: malformed {fmt} file: {exc}") from exc
    found = obj.get("format") if isinstance(obj, dict) else None
    if found != fmt:
        raise InputError(f"{path}: expected format {fmt!r}, found {found!r}")
    return obj
