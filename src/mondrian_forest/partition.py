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

A fitted model answers queries through one :class:`QueryIndex` over all of
its trees, compiled when the model is fitted or loaded.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator

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

# The corners of every node's cell are two (nodes, dimension) float arrays;
# a genealogy whose nodes times dimension exceeds this many entries (1 GiB
# per array) is refused with ResourceError before they are allocated.
MAX_NODE_BOUND_ENTRIES = 2**27

# A batch of at most this many points in d >= 2 walks every (point, tree)
# pair in lockstep; a larger one is partitioned node by node, tree by tree.
# Measured (wall time, best of 5, a 2.1 GHz Xeon vCPU): the two kernels break
# even between 4 096 and 8 192 points on regress-d2's forest (d=2, 50 trees,
# 11 700 nodes, depth 18; 60 vs 73 ms at 4 096, 123 vs 101 ms at 8 192),
# above 8 192 on d=5, lambda=3, 20 trees (24 vs 88 ms at 4 096) and near
# 8 192 on d=3, lambda=4, 10 trees (10 vs 14 ms at 4 096); lockstep takes
# 3.7x as long at 10^5 points (2.55 vs 0.69 s on regress-d2).
LOCKSTEP_MAX_POINTS = 4096


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

    A genealogy whose node count times ``dimension`` exceeds
    :data:`MAX_NODE_BOUND_ENTRIES` raises :class:`ResourceError`: its cell
    corners would not fit the budget.
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
        if dims.shape[0] * self.dimension > MAX_NODE_BOUND_ENTRIES:
            raise ResourceError(
                f"{dims.shape[0]} nodes in dimension {self.dimension} exceed the budget of "
                f"{MAX_NODE_BOUND_ENTRIES} cell-corner entries")
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


def _edges_born_by(tree: PartitionTree, lam: float) -> np.ndarray:
    """In d = 1, the sorted inner edges of the time-``lam`` leaves: the
    thresholds of the splits born by ``lam``."""
    return np.sort(tree.threshold[tree.birth_time <= lam])


def _search_edges(edges: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Leaf id of each coordinate ``x`` of a 1-d partition with inner edges
    ``edges``. Pre-order leaf ids run left to right in d = 1, and
    ``side="right"`` sends a point on an edge to the leaf starting there,
    which is the half-open ``[lo, S)`` ownership."""
    return np.searchsorted(edges, x, side="right")


def _node_segments(split_dim: list, threshold: list, right: list, root: int,
                   columns: list, order: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Every node below ``root`` that a point reaches, in pre-order, with its points.

    ``order`` holds point indices and is partitioned in place: each split
    moves the points of its left child before those of its right child,
    keeping index order, so every node's points are one segment of ``order``.
    Yields (node, its segment) before the node's split partitions it, a view
    in increasing index order that the next step overwrites. The left child
    of node ``i`` is ``i + 1``; ``columns[j]`` is coordinate ``j`` of every point.
    """
    stack = [(root, 0, order.shape[0])] if order.shape[0] else []
    while stack:
        node, start, stop = stack.pop()
        segment = order[start:stop]
        yield node, segment
        dim = split_dim[node]
        if dim < 0:
            continue
        go_left = columns[dim][segment] < threshold[node]
        left = segment[go_left]
        k = left.shape[0]
        segment[k:] = segment[~go_left]
        segment[:k] = left
        # the left child is pushed last, so it comes out first: pre-order
        if k < stop - start:
            stack.append((right[node], start + k, stop))
        if k:
            stack.append((node + 1, start, start + k))


def _columns(points: np.ndarray) -> list[np.ndarray]:
    return [np.ascontiguousarray(points[:, j]) for j in range(points.shape[1])]


def group_points(tree: PartitionTree, lam: float, xs) -> tuple[np.ndarray, np.ndarray]:
    """The points of every time-``lam`` leaf, grouped: ``(order, counts)``.

    ``order`` lists the point indices leaf by leaf in leaf-id order, each
    leaf's points in increasing index order, and ``counts[k]`` is the number
    of points in leaf ``k`` (0 where no point lands). In d = 1, one binary
    search over the edges born by ``lam`` and a stable argsort of its leaf
    ids. Otherwise each split partitions its points in place, left child
    before right, by a boolean selection that keeps index order, so the
    walk's final order is the grouping; an empty half is not followed, so
    one point costs one root-to-leaf path.
    """
    points = as_points(xs, dimension=tree.dimension)
    lam = _check_lambda(tree, lam)
    if tree.dimension == 1:
        edges = _edges_born_by(tree, lam)
        ids = _search_edges(edges, points[:, 0])
        return np.argsort(ids, kind="stable"), np.bincount(ids, minlength=edges.shape[0] + 1)
    split_dim = np.where(tree.birth_time <= lam, tree.split_dim, -1).tolist()
    order = np.arange(points.shape[0])
    counts = np.zeros(tree.split_dim.shape[0], dtype=np.int64)
    for node, segment in _node_segments(split_dim, tree.threshold.tolist(), tree.right.tolist(),
                                        0, _columns(points), order):
        counts[node] = segment.shape[0]
    return order, counts[leaf_nodes(tree, lam)]


def node_groups(tree: PartitionTree, xs) -> tuple[np.ndarray, np.ndarray]:
    """The points of every node of the genealogy, grouped: ``(order, counts)``.

    The every-node twin of :func:`group_points`: ``order`` lists the point
    indices node by node in pre-order, each node's in increasing index order,
    and ``counts[i]`` is the number of points in node ``i``'s cell. Each point
    goes down the whole genealogy once: ``order`` holds about n times depth entries.
    """
    points = as_points(xs, dimension=tree.dimension)
    counts = np.zeros(tree.split_dim.shape[0], dtype=np.int64)
    groups = [np.empty(0, dtype=np.int64)]
    for node, segment in _node_segments(tree.split_dim.tolist(), tree.threshold.tolist(),
                                        tree.right.tolist(), 0, _columns(points),
                                        np.arange(points.shape[0])):
        counts[node] = segment.shape[0]
        groups.append(segment.copy())
    return np.concatenate(groups), counts


def locate_batch(tree: PartitionTree, lam: float, xs) -> np.ndarray:
    """Leaf id of the time-``lam`` cell holding each point, as an int array.

    In d = 1, one binary search over the edges born by ``lam``; otherwise
    the leaf ids that :func:`group_points` groups the points by.
    """
    if tree.dimension == 1:
        points = as_points(xs, dimension=1)
        return _search_edges(_edges_born_by(tree, _check_lambda(tree, lam)), points[:, 0])
    order, counts = group_points(tree, lam, xs)
    ids = np.empty(order.shape[0], dtype=np.int64)
    ids[order] = np.repeat(np.arange(counts.shape[0]), counts)
    return ids


@dataclass(frozen=True, eq=False)
class QueryIndex:
    """Every tree of a model, at its lambda, in flat arrays; built by :func:`compile_index`.

    In d = 1, ``edges[b]`` holds tree ``b``'s sorted inner leaf edges and
    ``leaf_values[b]`` its leaf values, left to right. In d >= 2, the trees
    pruned at their lambdas are concatenated in tree order, each in
    pre-order, and ``roots[b]`` is tree ``b``'s first node. ``value``
    inlines each leaf's fitted value (NaN at splits). ``child`` is the
    flattened ``(nodes, 2)`` table of global child indices, (left, right)
    at a split and (itself, itself) at a leaf, and ``depth`` is the longest
    root-to-leaf path in splits. The fields of the other case are unset.
    """

    dimension: int
    tree_count: int
    edges: tuple[np.ndarray, ...] = ()
    leaf_values: tuple[np.ndarray, ...] = ()
    roots: np.ndarray | None = None
    split_dim: np.ndarray | None = None
    threshold: np.ndarray | None = None
    value: np.ndarray | None = None
    child: np.ndarray | None = None
    depth: int = 0

    def mean(self, points: np.ndarray) -> np.ndarray:
        """The mean over trees of the value of the leaf holding each point.

        ``points`` is an already checked (n, d) array. Tree values are added
        in tree order to a zero total and divided by the tree count once,
        so a point's mean does not depend on the batch it comes in or on
        the kernel that answers it.
        """
        total = np.zeros(points.shape[0])
        if self.dimension == 1:
            x = points[:, 0]
            for edges, values in zip(self.edges, self.leaf_values):
                total += values[_search_edges(edges, x)]
        elif points.shape[0] <= LOCKSTEP_MAX_POINTS:
            values = self.value[self._lockstep_leaves(points)]
            for b in range(self.tree_count):
                total += values[:, b]
        else:
            self._add_partitioned(points, total)
        return total / self.tree_count

    def _lockstep_leaves(self, points: np.ndarray) -> np.ndarray:
        """Leaf node of every (point, tree) pair, walking all pairs one level per step."""
        node = np.tile(self.roots, (points.shape[0], 1))
        rows = np.arange(points.shape[0])[:, None]
        for _ in range(self.depth):
            # a leaf's split_dim -1 reads some coordinate and its NaN
            # threshold compares false, but both of its children are itself
            go_right = points[rows, self.split_dim[node]] >= self.threshold[node]
            node = self.child[2 * node + go_right]
        return node

    def _add_partitioned(self, points: np.ndarray, total: np.ndarray) -> None:
        """Add each tree's leaf values to ``total``, partitioning the points node by node."""
        split_dim, threshold = self.split_dim.tolist(), self.threshold.tolist()
        right, value = self.child[1::2].tolist(), self.value.tolist()
        columns = _columns(points)
        order = np.arange(points.shape[0])
        values = np.empty(points.shape[0])
        for root in self.roots.tolist():
            for node, segment in _node_segments(split_dim, threshold, right, root,
                                                columns, order):
                if split_dim[node] < 0:
                    values[segment] = value[node]
            total += values


def compile_index(trees: Iterable[tuple[PartitionTree, float, np.ndarray]]) -> QueryIndex:
    """The :class:`QueryIndex` of ``(partition, lambda, leaf values)`` triples."""
    trees = [(partition, _check_lambda(partition, lam), np.asarray(values, dtype=float))
             for partition, lam, values in trees]
    if not trees:
        raise InputError("a model needs at least one tree")
    dimension = trees[0][0].dimension
    if any(partition.dimension != dimension for partition, _, _ in trees):
        raise InputError("the trees of a model differ in dimension")
    for b, (partition, lam, v) in enumerate(trees):
        leaves = leaf_count_at(partition, lam)
        if v.shape != (leaves,):
            raise InputError(f"tree {b} has {v.size} values for {leaves} leaves")
    values = tuple(v for _, _, v in trees)
    if dimension == 1:
        edges = tuple(_edges_born_by(partition, lam) for partition, lam, _ in trees)
        return QueryIndex(dimension=1, tree_count=len(trees), edges=edges, leaf_values=values)
    parts = [prune(partition, lam)[0] for partition, lam, _ in trees]
    sizes = np.array([p.split_dim.shape[0] for p in parts])
    roots = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    split_dim = np.concatenate([p.split_dim for p in parts])
    leaf = split_dim < 0
    node = np.arange(split_dim.shape[0])
    right = np.concatenate([p.right for p in parts]) + np.repeat(roots, sizes)  # read at splits
    value = np.full(split_dim.shape[0], math.nan)
    value[leaf] = np.concatenate(values)
    # one level of every tree per step, until no split is left
    depth, level = 0, roots[split_dim[roots] >= 0]
    while level.size:
        depth += 1
        level = np.concatenate((level + 1, right[level]))
        level = level[split_dim[level] >= 0]
    return QueryIndex(
        dimension=dimension, tree_count=len(trees), roots=roots, split_dim=split_dim,
        threshold=np.concatenate([p.threshold for p in parts]), value=value,
        child=np.column_stack((np.where(leaf, node, node + 1),
                               np.where(leaf, node, right))).ravel(),
        depth=depth)


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
                             stream_id=_json_str(obj["stream_id"], "stream_id"))
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


def _json_str(value, what: str) -> str:
    """``value`` if JSON read a string for it; anything else is an :class:`InputError`."""
    if not isinstance(value, str):
        raise InputError(f"{what} must be a string, got {value!r}")
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
    checking that the values are finite and inside ``box`` if given;
    :func:`compile_index` checks that there is one value per leaf."""
    try:
        partition_obj = obj["partition"]
        values = np.asarray(obj["values"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed tree object: {exc!r}") from exc
    partition = partition_from_obj(partition_obj)
    if partition.dimension != dimension:
        raise InputError(f"tree dimension {partition.dimension} is not the model's {dimension}")
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
