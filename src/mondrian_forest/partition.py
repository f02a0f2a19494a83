"""Random recursive axis-aligned partitions of the unit cube.

A partition tree is grown by attaching an exponential clock to every cell:
a cell born at time ``tau`` waits an Exponential(rate = linear size) time,
and if the clock rings before the horizon the cell splits along dimension
``J`` (chosen with probability proportional to side length) at a threshold
drawn uniformly inside the side. Children inherit the ring time as their
birth time. The tree records the full genealogy up to the horizon, so the
coarser partition at any earlier time ``lam <= horizon`` can be read off by
ignoring splits born after ``lam``.

A genealogy is held as flat arrays over its nodes (see :class:`PartitionTree`).
One kernel checks every genealogy and derives its right children and cell
corners, a whole forest at a time: :func:`build_partitions` runs it over
the concatenated nodes of all trees (a sampled forest, a loaded model), and
a lone :class:`PartitionTree` is its one-tree case. :func:`sample_forest` is
the one place that turns a forest's master seed into per-tree streams.

Threshold ownership is half-open and matches :func:`mondrian_forest.core.contains`:
the left child is ``[lo, S)`` and the right child ``[S, hi]`` along the
split dimension.

The module also holds the codec of the model files: one JSON object per
file, and per tree ``{values, partition}`` with the arrays flat. A tree is
stored pruned at its horizon (:func:`prune`), so the stored genealogy's
horizon is the tree's ``lambda`` and no split born after it is kept.

A fitted model answers queries through one :class:`QueryIndex` over all of
its trees, compiled when the model is fitted or loaded; in d >= 2 its
:class:`SlabGrid` lookup table is built on the first query.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Sequence

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

# A d >= 2 index answers by table lookup (SlabGrid), built on its first
# query, when its grid cells plus slab steps come to at most this many
# entries, 8 bytes each; a larger one keeps the two walks. Measured (median
# of 5, a 2-vCPU Xeon host, 10^5 points; build + lookup against the walk):
# regress-d2's forest (d=2, lambda=10, 50 trees, 0.51 M entries) 16 + 45 vs
# 270 ms; d=2, lambda=15, 50 trees (1.43 M) 32 + 61 vs 377 ms; d=3,
# lambda=4, 10 trees (1.06 M) 20 + 32 vs 64 ms. Above the budget a first
# batch can lose: d=4, lambda=2, 10 trees (3.97 M) 73 + 45 vs 74 ms, d=3,
# lambda=5, 10 trees (5.16 M) 86 + 38 vs 80 ms. The build peaks near 20
# bytes per entry (tracemalloc), about 42 MB at the budget.
GRID_MAX_ENTRIES = 2**21

# SlabGrid.sums looks up a batch of at most this many points for every tree
# at once, and a larger one tree by tree. Measured as above: the two break
# even at 1 024 points on regress-d2's forest (1.15 vs 1.20 ms), on d=3,
# lambda=4, 10 trees (0.51 vs 0.51 ms) and on d=2, lambda=5, 100 trees
# (1.70 vs 1.86 ms); at 4 096 the tree-by-tree loop is faster (2.9 vs 6.5 ms
# on regress-d2), at 256 the all-pairs lookup (0.33 vs 0.64 ms).
GRID_PAIRS_MAX_POINTS = 1024

# group_forest reads the leaf ids of a fit's points from one SlabGrid per run
# of trees, each run as many trees as keep its cells plus slab steps within
# this many entries; the steps grow with the run's trees times its
# thresholds, so one grid for a whole forest grows quadratically. Measured on
# regress-d2's forest (d=2, lambda=10, 50 trees, 50 000 points; median of 7,
# a 2-vCPU Xeon host; tracemalloc peak of grouping every tree): the walk 274
# ms, 2.5 MB; one tree per run 69 ms, 3.0 MB; 2^15 (8 runs) 46 ms, 3.3 MB;
# 2^16 (5 runs) 42-46 ms, 3.6 MB; 2^17 (3 runs) 40-42 ms, 5.3 MB; one run
# (0.47 M entries) 45 ms, 11.2 MB. The CLI fit's peak RSS was 43.8-44.1 MB
# with the walk, 44.2-44.3 at 2^15, 45.0 at 2^16 and 45.6 at 2^17.
GROUP_BATCH_ENTRIES = 2**15

# sample_forest derives its trees in batches of at least this many nodes (or
# the rest of the forest), one kernel run each, whose arrays take about 110
# bytes per node. A forest of small trees is one batch (regress-d2: 50 trees,
# 11 700 nodes), while an auto fit prunes each full genealogy once its path
# is known, so it should not hold them all: the default `fit --auto` of 100
# trees of about 8 000 nodes (huber:0.5, n = 4 000, d = 1) peaked at 46.5 MB
# RSS, against 44.0 MB for one tree at a time and 158 MB for all at once.
SAMPLE_BATCH_NODES = 2**14


@dataclass(frozen=True, eq=False)
class PartitionTree:
    """A partition genealogy up to ``horizon``, as arrays over its nodes in pre-order.

    ``split_dim`` is -1 at a leaf, whose ``threshold`` is NaN and whose
    ``birth_time`` is infinite. The left child of split ``i`` is node
    ``i + 1``; its right child ``right[i]`` is derived from ``split_dim``,
    and so are the corners ``cell_lo[i]`` and ``cell_hi[i]`` of its cell.
    Construction checks that the arrays form a genealogy: split dimensions
    in ``[0, d)``, every threshold inside its node's cell, and split birth
    times in ``[0, horizon]``, never decreasing down a path. It is the
    one-tree case of :func:`build_partitions`.

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
        _derive_genealogies([self])


def build_partitions(trees: Iterable[tuple]) -> list[PartitionTree]:
    """``[PartitionTree(*args) for args in trees]``, checked and derived by one
    kernel run over the nodes of all trees, which must share one dimension.

    :data:`MAX_NODE_BOUND_ENTRIES` bounds the cell corners of all trees
    together, and is checked before any of them is allocated.
    """
    names = [f.name for f in fields(PartitionTree) if f.init]
    built = []
    for args in trees:
        tree = object.__new__(PartitionTree)
        for name, value in zip(names, args, strict=True):
            object.__setattr__(tree, name, value)
        built.append(tree)
    _derive_genealogies(built)
    return built


def _derive_genealogies(trees: list[PartitionTree]) -> None:
    """Check the genealogies of ``trees`` and set their ``right``,
    ``cell_lo`` and ``cell_hi``, with every tree's nodes concatenated.

    Let ``pending`` count the subtrees still to visit after each node: 1
    plus the running sum, within a tree, of +1 per split and -1 per leaf.
    The nodes form a tree when it stays >= 1 and reaches 0 at the last
    node. A split's left subtree starts one higher and ends where it
    started, so its right child is the next node of the same tree with
    the same count before it; one stable sort by (tree, count before,
    index) puts every right child just after its parent. The cell corners
    then come from one pass per level over the splits of every tree.
    """
    for tree in trees:
        for name, dtype in (("split_dim", np.int64), ("threshold", float),
                            ("birth_time", float)):
            arr = np.array(getattr(tree, name), dtype=dtype)
            arr.flags.writeable = False
            object.__setattr__(tree, name, arr)
        if not (tree.dimension >= 1 and 0.0 <= tree.horizon < math.inf):
            raise InputError("partition needs dimension >= 1 and a finite horizon >= 0")
        if tree.threshold.shape != tree.split_dim.shape or \
                tree.birth_time.shape != tree.split_dim.shape:
            raise InputError("partition node arrays have mismatched lengths")
        if tree.split_dim.ndim != 1 or tree.split_dim.size == 0:
            raise InputError("partition nodes do not form a binary tree")
    if not trees:
        return
    dimension = trees[0].dimension
    if any(tree.dimension != dimension for tree in trees):
        raise InputError("the trees of a model differ in dimension")
    sizes = np.array([tree.split_dim.size for tree in trees], dtype=np.int64)
    nodes = int(sizes.sum())
    if nodes * dimension > MAX_NODE_BOUND_ENTRIES:
        raise ResourceError(
            f"{nodes} nodes in dimension {dimension} exceed the budget of "
            f"{MAX_NODE_BOUND_ENTRIES} cell-corner entries")
    dims = np.concatenate([tree.split_dim for tree in trees])
    if np.any((dims < -1) | (dims >= dimension)):
        raise InputError(f"split dimension outside [0, {dimension})")
    splits = dims >= 0
    step = np.where(splits, 1, -1)
    total = np.cumsum(step)
    starts = np.cumsum(sizes) - sizes
    start = np.repeat(starts, sizes)
    pending = total - np.repeat(total[starts] - step[starts], sizes) + 1
    if np.any(pending[starts + sizes - 1] != 0) or \
            np.count_nonzero(pending <= 0) != len(trees):
        raise InputError("partition nodes do not form a binary tree")
    # the count before each node, offset per tree; a tree's counts lie in
    # [1, its size], so the keys of different trees never meet
    order = np.argsort(pending - step + start, kind="stable")
    right = np.full(nodes, -1, dtype=np.int64)
    right[order[:-1]] = order[1:]
    right[~splits] = -1
    births = np.concatenate([tree.birth_time for tree in trees])
    horizons = np.repeat([tree.horizon for tree in trees], sizes)
    if not np.all(np.where(splits, (births >= 0.0) & (births <= horizons),
                           births == math.inf)):
        raise InputError("split birth times must lie in [0, horizon]")
    parents = np.flatnonzero(splits)
    if np.any(births[parents + 1] < births[parents]) or \
            np.any(births[right[parents]] < births[parents]):
        raise InputError("split birth times decrease down a path")
    lo = np.zeros((nodes, dimension))
    hi = np.ones_like(lo)
    _cut_cells(starts, dims, np.concatenate([tree.threshold for tree in trees]), right, lo, hi)
    right[parents] -= start[parents]
    for arr in (right, lo, hi):
        arr.flags.writeable = False
    for tree, a, b in zip(trees, starts.tolist(), (starts + sizes).tolist()):
        object.__setattr__(tree, "right", right[a:b])
        object.__setattr__(tree, "cell_lo", lo[a:b])
        object.__setattr__(tree, "cell_hi", hi[a:b])


def _cut_cells(roots: np.ndarray, dims: np.ndarray, cuts: np.ndarray, right: np.ndarray,
               lo: np.ndarray, hi: np.ndarray) -> None:
    """Fill the corners ``lo`` and ``hi`` of every node below ``roots`` from
    the roots' own rows, in place: one level of every tree per step, both
    children of a split get its corners, cut at ``cuts`` along its dimension
    ``dims`` (-1 at a leaf). ``right`` holds the global right children, and
    a cut outside its node's cell is an :class:`InputError`."""
    level = roots[dims[roots] >= 0]
    while level.size:
        j, t = dims[level], cuts[level]
        if not np.all((lo[level, j] <= t) & (t <= hi[level, j])):
            raise InputError("split threshold outside its node's cell")
        left, rights = level + 1, right[level]
        lo[left] = lo[rights] = lo[level]
        hi[left] = hi[rights] = hi[level]
        hi[left, j] = lo[rights, j] = t
        level = np.concatenate((left, rights))
        level = level[dims[level] >= 0]


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


def _draw_nodes(dimension: int, horizon: float, rng: np.random.Generator,
                leaf_cap: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The split dimensions, thresholds and birth times of one genealogy
    of [0,1]^``dimension`` up to ``horizon``, drawn in pre-order."""
    nodes: list[tuple[int, float, float]] = []  # (split_dim, threshold, birth_time)
    leaves = 0
    # draws in pre-order: a node's wait, its split, its left subtree, its right
    # one; the stack holds (lo, hi, birth time) of the cells still to visit
    stack = [((0.0,) * dimension, (1.0,) * dimension, 0.0)]
    while stack:
        lo, hi, tau = stack.pop()
        # left to right from 0.0: the builtin sum compensates its rounding
        # from Python 3.12 on, which would change the draws with the interpreter
        size = 0.0
        for a, b in zip(lo, hi):
            size += b - a
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
    return (np.array(dims, dtype=np.int64), np.array(thresholds, dtype=float),
            np.array(births, dtype=float))


def _check_horizon(horizon: float) -> float:
    if not np.isfinite(horizon) or horizon < 0.0:
        raise InputError("horizon must be finite and >= 0")
    return float(horizon)


def sample_partition(dimension: int, horizon: float,
                     rng: np.random.Generator | int,
                     leaf_cap: int = DEFAULT_LEAF_CAP,
                     stream_id: str | None = None) -> PartitionTree:
    """Sample a partition tree of [0,1]^``dimension`` up to time ``horizon``.

    ``rng`` may be a seeded generator or a plain integer seed. The number of
    leaves is capped at ``leaf_cap``; exceeding it aborts with
    :class:`ResourceError` rather than consuming unbounded memory.
    """
    horizon = _check_horizon(horizon)
    if isinstance(rng, (int, np.integer)):
        if stream_id is None:
            stream_id = str(int(rng))
        rng = np.random.default_rng(int(rng))
    return PartitionTree(dimension, horizon, *_draw_nodes(dimension, horizon, rng, leaf_cap),
                         "anonymous" if stream_id is None else stream_id)


def sample_forest(dimension: int, horizon: float, seed: int, tree_count: int,
                  leaf_cap: int = DEFAULT_LEAF_CAP) -> Iterator[PartitionTree]:
    """The genealogies of a forest's ``tree_count`` trees, in tree order.

    Tree ``b`` draws from the ``b``-th of ``tree_count`` children of
    ``SeedSequence(seed)`` and is named ``"{seed}/{b}"``. A child does not
    depend on how many siblings it has, so tree ``b`` is the same in every
    forest of more than ``b`` trees. A tree over ``leaf_cap`` raises
    :class:`ResourceError` naming the tree. The trees are drawn in batches
    of at least :data:`SAMPLE_BATCH_NODES` nodes, and one
    :func:`build_partitions` call checks and derives each batch.
    """
    if not 0 <= int(seed) < 2**64:
        raise InputError("seed must be a 64-bit unsigned integer")
    horizon = _check_horizon(horizon)
    drawn, nodes = [], 0
    for b, child in enumerate(np.random.SeedSequence(int(seed)).spawn(tree_count)):
        try:
            arrays = _draw_nodes(dimension, horizon, np.random.default_rng(child), leaf_cap)
        except ResourceError as exc:
            raise ResourceError(f"tree {b}: {exc}") from exc
        drawn.append((dimension, horizon, *arrays, f"{seed}/{b}"))
        nodes += arrays[0].size
        if nodes >= SAMPLE_BATCH_NODES or b == tree_count - 1:
            yield from build_partitions(drawn)
            drawn, nodes = [], 0


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


def unique_inverse(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(values, return_inverse=True)`` for a 1-d float array
    without NaN, without the ``numpy.ma`` import that a first ``np.unique``
    call costs: the sorted distinct values, and where each value is among them."""
    order = np.argsort(values)
    ranked = values[order]
    first = np.ones(ranked.shape, dtype=bool)
    first[1:] = ranked[1:] != ranked[:-1]
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(first) - 1
    return ranked[first], inverse


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
    of points in leaf ``k`` (0 where no point lands). It is the one-tree
    case of :func:`group_forest`: the leaf ids from one binary search over
    the edges born by ``lam`` in d = 1, or from the tree's slab grid in
    d >= 2, then their stable argsort and their count per leaf. A tree whose
    grid would exceed :data:`GRID_MAX_ENTRIES` walks instead.
    """
    return next(group_forest([tree], lam, xs))


def group_forest(trees: Sequence[PartitionTree], lam: float,
                 xs) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """``group_points(tree, lam, xs)`` for each of ``trees``, in tree order.

    The trees share one dimension. In d >= 2 they are taken in runs whose
    :class:`SlabGrid` of leaf ids fits :data:`GROUP_BATCH_ENTRIES`; the
    points are searched once per dimension, then each tree's ids are one
    gather (see :func:`_leaf_ids`). A stable argsort of 8- or 16-bit ids is
    a radix sort. Trees are yielded one at a time, so one tree's ``order``
    is alive at a time.
    """
    points = as_points(xs, dimension=trees[0].dimension)
    for tree, ids in zip(trees, _leaf_ids(trees, lam, points)):
        if ids is None:
            yield _walk_groups(tree, lam, points)
        else:
            yield np.argsort(ids, kind="stable"), np.bincount(ids, minlength=leaf_count_at(tree, lam))


def _walk_groups(tree: PartitionTree, lam: float, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`group_points` by walking the tree: each split partitions its
    points in place, left child before right, by a boolean selection that
    keeps index order, so the walk's final order is the grouping; an empty
    half is not followed, so one point costs one root-to-leaf path."""
    split_dim = np.where(tree.birth_time <= lam, tree.split_dim, -1).tolist()
    order = np.arange(points.shape[0])
    counts = np.zeros(tree.split_dim.shape[0], dtype=np.int64)
    for node, segment in _node_segments(split_dim, tree.threshold.tolist(), tree.right.tolist(),
                                        0, _columns(points), order):
        counts[node] = segment.shape[0]
    return order, counts[leaf_nodes(tree, lam)]


def _leaf_ids(trees: Sequence[PartitionTree], lam: float,
              points: np.ndarray) -> Iterator[np.ndarray | None]:
    """For each of ``trees``, in tree order, the time-``lam`` leaf id of each
    of the checked ``points``.

    In d = 1, one binary search over the tree's edges born by ``lam``. In
    d >= 2, the ids are read from a :class:`SlabGrid` whose cells hold leaf
    ids, in the smallest unsigned type that holds every tree's, one grid per
    run of trees (see :func:`_grid_runs`); None for a tree whose own grid
    would exceed :data:`GRID_MAX_ENTRIES`, which is left to the walk. The
    points are searched once per dimension, among the union of every
    gridded tree's thresholds; a run's edges are among them, so a point's
    slab in a run's grid is read from a table indexed by its slab in the union.
    """
    d = points.shape[1]
    if d == 1:
        for tree in trees:
            yield _search_edges(_edges_born_by(tree, _check_lambda(tree, lam)), points[:, 0])
        return
    runs = list(_grid_runs(trees, lam, d))
    gridded = [tree for run in runs if run is not None for tree in run]
    unions = [unique_inverse(np.concatenate(
        [tree.threshold[(tree.split_dim == j) & (tree.birth_time <= lam)] for tree in gridded]))[0]
        for j in range(d)] if gridded else []
    slabs = [np.searchsorted(union, points[:, j], side="right") for j, union in enumerate(unions)]
    for run in runs:
        if run is None:
            yield None
            continue
        nodes = _concatenate([(tree, lam) for tree in run])
        edges, steps, cells = _leaf_grid(nodes, d)
        # each leaf's id within its tree: the leaves up to it, less one and
        # less those before its tree's root
        leaf = nodes.split_dim < 0
        seen = np.cumsum(leaf)
        before = seen[nodes.roots] - leaf[nodes.roots]
        local = seen - 1 - np.repeat(before, np.diff(np.append(nodes.roots, leaf.shape[0])))
        ids = local[cells].astype(np.min_scalar_type(local.max()))
        yield from SlabGrid(edges, steps, ids).tree_cells(
            [_run_slabs(e, u)[s] for e, u, s in zip(edges, unions, slabs)])


def _run_slabs(edges: np.ndarray, union: np.ndarray) -> np.ndarray:
    """Which slab of sorted ``edges`` holds each slab of their sorted
    superset ``union``: slab ``g > 0`` of the union starts at ``union[g - 1]``,
    so it lies in the slab of the edges at or below that."""
    starts = np.zeros(union.shape[0] + 1, dtype=np.int64)
    starts[np.searchsorted(union, edges) + 1] = 1
    return np.cumsum(starts)


def _grid_runs(trees: Sequence[PartitionTree], lam: float,
               dimension: int) -> Iterator[list[PartitionTree] | None]:
    """``trees`` in tree order, in runs that share one :class:`SlabGrid`:
    each run is one tree, or as many as keep the entries of its grid, counted
    by :func:`_grid_entries` from the splits born by ``lam`` before any grid
    array is allocated, within :data:`GROUP_BATCH_ENTRIES`. A tree whose own
    grid would exceed :data:`GRID_MAX_ENTRIES` is yielded as None."""
    run, cells, splits = [], 0.0, 0
    for tree in trees:
        count = np.bincount(tree.split_dim[tree.birth_time <= _check_lambda(tree, lam)],
                            minlength=dimension)
        own_cells, own_splits = float(np.prod(count + 1.0)), int(count.sum())
        over = _grid_entries(own_cells, own_splits, 1, dimension) > GRID_MAX_ENTRIES
        if run and (over or _grid_entries(cells + own_cells, splits + own_splits, len(run) + 1,
                                          dimension) > GROUP_BATCH_ENTRIES):
            yield run
            run, cells, splits = [], 0.0, 0
        if over:
            yield None
        else:
            run.append(tree)
            cells, splits = cells + own_cells, splits + own_splits
    if run:
        yield run


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

    The leaf ids that :func:`group_points` groups the points by: in d = 1,
    one binary search over the edges born by ``lam``, and in d >= 2 one
    lookup in the tree's slab grid, or the walk's grouping inverted when
    the grid would exceed :data:`GRID_MAX_ENTRIES`.
    """
    points = as_points(xs, dimension=tree.dimension)
    ids = next(_leaf_ids([tree], lam, points))
    if ids is None:
        order, counts = _walk_groups(tree, lam, points)
        ids = np.empty(order.shape[0], dtype=np.int64)
        ids[order] = np.repeat(np.arange(counts.shape[0]), counts)
    return ids.astype(np.int64, copy=False)


@dataclass(frozen=True, eq=False)
class QueryIndex:
    """Every tree of a model, at its lambda, in flat arrays; built by :func:`compile_index`.

    In d = 1, the trees are overlaid into one step function: ``edges`` holds
    the sorted, distinct inner leaf edges of all trees, and ``cell_mean[j]``
    the mean over trees on cell ``j``, the points ``x`` with
    ``searchsorted(edges, x, side="right") == j``. Every tree's edges are
    among ``edges``, so each cell lies inside one leaf of every tree. In
    d >= 2, the trees pruned at their lambdas are concatenated in tree
    order, each in pre-order, and ``roots[b]`` is tree ``b``'s first node.
    ``value`` inlines each leaf's fitted value (NaN at splits). ``child`` is
    the flattened ``(nodes, 2)`` table of global child indices, (left,
    right) at a split and (itself, itself) at a leaf, and ``depth`` is the
    longest root-to-leaf path in splits. The fields of the other case are
    unset.

    A d >= 2 index answers from :attr:`grid`, every tree's leaf values
    tabled over the product grid of its own thresholds: one search per
    dimension and one gather per tree. The grid is derived from the arrays
    above on the first query, so neither a fit nor a load builds it. An
    index whose grid would exceed :data:`GRID_MAX_ENTRIES` walks instead:
    every (point, tree) pair in lockstep for at most
    :data:`LOCKSTEP_MAX_POINTS` points, and otherwise each tree partitioning
    the points node by node.
    """

    dimension: int
    tree_count: int
    edges: np.ndarray | None = None
    cell_mean: np.ndarray | None = None
    roots: np.ndarray | None = None
    split_dim: np.ndarray | None = None
    threshold: np.ndarray | None = None
    value: np.ndarray | None = None
    child: np.ndarray | None = None
    depth: int = 0

    def mean(self, points: np.ndarray) -> np.ndarray:
        """The mean over trees of the value of the leaf holding each point.

        ``points`` is an already checked (n, d) array. Tree values are added
        in tree order to a zero total and divided by the tree count once, in
        d = 1 per overlay cell when the index is compiled, so a point's mean
        does not depend on the batch it comes in or on the kernel that
        answers it.
        """
        if self.dimension == 1:
            return self.cell_mean[_search_edges(self.edges, points[:, 0])]
        if self.grid is not None:
            return self.grid.sums(points) / self.tree_count
        total = np.zeros(points.shape[0])
        if points.shape[0] <= LOCKSTEP_MAX_POINTS:
            values = self.value[self._lockstep_leaves(points)]
            for b in range(self.tree_count):
                total += values[:, b]
        else:
            self._add_partitioned(points, total)
        return total / self.tree_count

    @cached_property
    def grid(self) -> SlabGrid | None:
        """In d >= 2, the :class:`SlabGrid` of the trees' leaf values, built on
        first use; None in d = 1 or when it would exceed :data:`GRID_MAX_ENTRIES`."""
        if self.dimension == 1:
            return None
        nodes = TreeNodes(self.roots, self.split_dim, self.threshold, self.child)
        trees, d = self.tree_count, self.dimension
        splits = np.flatnonzero(self.split_dim >= 0)
        counts = np.bincount(_node_trees(nodes)[splits] * d + self.split_dim[splits],
                             minlength=trees * d).reshape(trees, d)
        cells = float(np.prod(counts + 1.0, axis=1).sum())
        if _grid_entries(cells, splits.shape[0], trees, d) > GRID_MAX_ENTRIES:
            return None
        edges, steps, leaves = _leaf_grid(nodes, d)
        return SlabGrid(edges, steps, self.value[leaves])

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


class SlabGrid(NamedTuple):
    """Every tree of a run of d >= 2 trees as a table of their leaves.

    Along dimension ``j``, tree ``b``'s thresholds cut [0, 1] into local
    slabs, and its leaves tile the product grid of those slabs. ``cells``
    holds every tree's grid flattened in C order, one after the other in
    tree order, with the value of the leaf over each cell (a query's index)
    or its leaf id within its tree (a fit's grouping). ``edges[j]`` is
    the sorted union of all trees' thresholds on ``j``, and a point's global
    slab is ``searchsorted(edges[j], x_j, side="right")``: on an edge it is
    the slab that starts there, the half-open ``[lo, S)`` ownership. Each
    tree's thresholds are among ``edges[j]``, so a global slab lies in one
    local slab of every tree, and ``steps[j][b, g]`` is tree ``b``'s flat
    offset for global slab ``g`` along ``j``: the local slab times its
    stride, plus, along ``j = 0``, where the tree's grid starts in ``cells``.
    """

    edges: tuple[np.ndarray, ...]
    steps: tuple[np.ndarray, ...]
    cells: np.ndarray

    def sums(self, points: np.ndarray) -> np.ndarray:
        """The sum over trees, in tree order from a zero total, of the value
        of the leaf holding each point: for at most
        :data:`GRID_PAIRS_MAX_POINTS` points, every (tree, point) pair at
        once and a cumsum along a zero-led tree axis, which adds in that
        order; for more, tree by tree."""
        slabs = [np.searchsorted(e, points[:, j], side="right") for j, e in enumerate(self.edges)]
        if points.shape[0] <= GRID_PAIRS_MAX_POINTS:
            flat = _flat_cells(self.steps, slabs)
            values = np.zeros((flat.shape[0] + 1, flat.shape[1]))
            values[1:] = self.cells[flat]
            return np.cumsum(values, axis=0, out=values)[-1]
        total = np.zeros(points.shape[0])
        for values in self.tree_cells(slabs):
            total += values
        return total

    def tree_cells(self, slabs: list[np.ndarray]) -> Iterator[np.ndarray]:
        """For each tree, in tree order, the entry of ``cells`` at each point
        whose global slab along dimension ``j`` is ``slabs[j]``."""
        for rows in zip(*self.steps):
            yield self.cells[_flat_cells(rows, slabs)]


def _flat_cells(steps, slabs: list[np.ndarray]) -> np.ndarray:
    """The sum over dimensions ``j`` of ``steps[j]`` taken at ``slabs[j]``
    along its last axis: with one tree's rows of the steps, each point's
    cell in ``cells``; with the whole (trees, slabs) arrays, a (tree,
    point) table of them."""
    flat = np.take(steps[0], slabs[0], axis=-1)
    for step, slab in zip(steps[1:], slabs[1:]):
        flat += np.take(step, slab, axis=-1)
    return flat


def _grid_entries(cells: float, splits: int, trees: int, dimension: int) -> float:
    """The entries of a :class:`SlabGrid` over ``trees`` trees with ``cells``
    grid cells (per tree, the product over dimensions of its splits there
    plus one) and ``splits`` splits in all: its cells, plus per tree one
    step per global slab of each dimension, counted as if no two trees
    shared a threshold."""
    return cells + trees * (splits + dimension)


class TreeNodes(NamedTuple):
    """Trees pruned at their lambdas and concatenated in tree order, each in
    pre-order, as :class:`QueryIndex` holds them: ``roots[b]`` is tree
    ``b``'s first node, and ``child`` the flattened ``(nodes, 2)`` table of
    global child indices, (left, right) at a split and (itself, itself) at
    a leaf."""

    roots: np.ndarray
    split_dim: np.ndarray
    threshold: np.ndarray
    child: np.ndarray


def _concatenate(trees: Iterable[tuple[PartitionTree, float]]) -> TreeNodes:
    """The :class:`TreeNodes` of ``(partition, lambda)`` pairs."""
    parts = [prune(partition, lam)[0] for partition, lam in trees]
    sizes = np.array([p.split_dim.shape[0] for p in parts])
    roots = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    split_dim = np.concatenate([p.split_dim for p in parts])
    leaf = split_dim < 0
    node = np.arange(split_dim.shape[0])
    right = np.concatenate([p.right for p in parts]) + np.repeat(roots, sizes)  # read at splits
    return TreeNodes(roots, split_dim, np.concatenate([p.threshold for p in parts]),
                     np.column_stack((np.where(leaf, node, node + 1),
                                      np.where(leaf, node, right))).ravel())


def _node_trees(nodes: TreeNodes) -> np.ndarray:
    """The tree of each node."""
    sizes = np.diff(np.append(nodes.roots, nodes.split_dim.shape[0]))
    return np.repeat(np.arange(sizes.shape[0]), sizes)


def _leaf_grid(nodes: TreeNodes, d: int) -> tuple[tuple, tuple, np.ndarray]:
    """The ``edges`` and ``steps`` of the :class:`SlabGrid` of the trees in
    ``nodes``, and the leaf node over each of its cells; the caller checks
    :func:`_grid_entries` first.

    Tree ``b``'s local slab starting at split ``s``'s threshold is ``rank[s]``.
    Every node's box of local slabs comes from :func:`_cut_cells` in integers:
    the root spans every slab, a left child ends and a right child starts at
    its parent's rank. Float corners could not tell a leaf touching the top
    face from the left child of a split at 1.0. Each leaf then writes its
    node index over its box, one run along the last axis per row: +index at
    the run's start and -index just after it, and one cumsum of the runs
    gives every cell its leaf. A zero-width leaf owns no cell.
    """
    dims, threshold, roots = nodes.split_dim, nodes.threshold, nodes.roots
    trees, count = roots.shape[0], dims.shape[0]
    tree = _node_trees(nodes)
    rank = np.zeros(count, dtype=np.int64)
    edges, local = [], []
    for j in range(d):
        on = np.flatnonzero(dims == j)
        union, inverse = unique_inverse(threshold[on])
        # local[b, g]: how many of tree b's distinct thresholds on j lie
        # at or below global slab g's start, which is its local slab there
        starts = np.zeros((trees, union.shape[0] + 1), dtype=np.int64)
        starts[tree[on], inverse + 1] = 1
        local.append(np.cumsum(starts, axis=1))
        rank[on] = local[j][tree[on], inverse + 1]
        edges.append(union)
    shape = np.column_stack([slabs[:, -1] + 1 for slabs in local])
    stride = np.ones_like(shape)
    stride[:, :-1] = np.cumprod(shape[:, :0:-1], axis=1)[:, ::-1]
    size = shape.prod(axis=1)
    offset = np.cumsum(size) - size
    steps = [slabs * stride[:, [j]] for j, slabs in enumerate(local)]
    steps[0] += offset[:, None]
    lo = np.zeros((count, d), dtype=np.int64)
    hi = np.empty_like(lo)
    hi[roots] = shape
    _cut_cells(roots, dims, rank, nodes.child[1::2], lo, hi)
    width = hi - lo
    leaves = np.flatnonzero((dims < 0) & np.all(width > 0, axis=1))
    lo, width, tree = lo[leaves], width[leaves], tree[leaves]
    # one run per row of each leaf's box: the rows are the cells of its
    # first d - 1 dimensions, counted in mixed radix by k
    rows = width[:, :-1].prod(axis=1)
    leaf = np.repeat(np.arange(leaves.shape[0]), rows)
    k = np.arange(leaf.shape[0]) - np.repeat(np.cumsum(rows) - rows, rows)
    start = offset[tree[leaf]] + lo[leaf, -1]
    for j in range(d - 2, -1, -1):
        k, digit = np.divmod(k, width[leaf, j])
        start += (lo[leaf, j] + digit) * stride[tree[leaf], j]
    # runs tile the cells, so no two runs start, or end, at one cell
    runs = np.zeros(size.sum() + 1, dtype=np.int64)
    runs[start] += leaves[leaf]
    runs[start + width[leaf, -1]] -= leaves[leaf]
    return tuple(edges), tuple(steps), np.cumsum(runs, out=runs)[:-1]


def compile_index(trees: Iterable[tuple[PartitionTree, float, np.ndarray]]) -> QueryIndex:
    """The :class:`QueryIndex` of ``(partition, lambda, leaf values)`` triples."""
    # the splits born by a tree's lambda: its leaf count and, in d = 1, its edges
    trees = [(partition, lam, partition.birth_time <= _check_lambda(partition, lam),
              np.asarray(values, dtype=float)) for partition, lam, values in trees]
    if not trees:
        raise InputError("a model needs at least one tree")
    dimension = trees[0][0].dimension
    if any(partition.dimension != dimension for partition, _, _, _ in trees):
        raise InputError("the trees of a model differ in dimension")
    for b, (_, _, born, v) in enumerate(trees):
        leaves = 1 + int(np.count_nonzero(born))
        if v.shape != (leaves,):
            raise InputError(f"tree {b} has {v.size} values for {leaves} leaves")
    values = tuple(v for _, _, _, v in trees)
    if dimension == 1:
        edges, inverse = unique_inverse(np.concatenate(
            [np.sort(partition.threshold[born]) for partition, _, born, _ in trees]))
        cells = edges.shape[0] + 1
        # every leaf of every tree, in tree order, stops at the cell that
        # starts at its right edge (edges[p] starts cell p + 1), or at the
        # end for a tree's last leaf, and starts where the leaf before it
        # stops, or at cell 0 for a tree's first leaf; a zero-width leaf
        # runs over no cell
        leaf_counts = np.array([v.shape[0] for v in values])
        firsts = np.cumsum(leaf_counts) - leaf_counts
        has_right = np.ones(leaf_counts.sum(), dtype=bool)
        has_right[firsts + leaf_counts - 1] = False
        stops = np.full(has_right.shape, cells)
        stops[has_right] = inverse + 1
        runs = stops.copy()
        runs[1:] -= stops[:-1]
        runs[firsts] = stops[firsts]
        # per cell, the float operations of a per-point sum: tree values
        # added in tree order to a zero total, divided by T once
        total = np.zeros(cells)
        for v, first in zip(values, firsts.tolist()):
            total += v.repeat(runs[first:first + v.shape[0]])
        return QueryIndex(dimension=1, tree_count=len(trees), edges=edges,
                          cell_mean=total / len(trees))
    nodes = _concatenate((partition, lam) for partition, lam, _, _ in trees)
    value = np.full(nodes.split_dim.shape[0], math.nan)
    value[nodes.split_dim < 0] = np.concatenate(values)
    # one level of every tree per step, until no split is left
    right = nodes.child[1::2]
    depth, level = 0, nodes.roots[nodes.split_dim[nodes.roots] >= 0]
    while level.size:
        depth += 1
        level = np.concatenate((level + 1, right[level]))
        level = level[nodes.split_dim[level] >= 0]
    return QueryIndex(dimension=dimension, tree_count=len(trees), value=value, depth=depth,
                      **nodes._asdict())


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


def _partition_args(obj: dict) -> tuple:
    """The :class:`PartitionTree` arguments of :func:`partition_to_obj` output."""
    try:
        dims = np.asarray(obj["split_dim"])
        if dims.ndim != 1 or dims.dtype.kind not in "iu":
            raise TypeError("split dimensions must be a list of integers")
        splits = dims >= 0
        threshold = np.full(dims.shape, math.nan)
        birth_time = np.full(dims.shape, math.inf)
        for full, key in ((threshold, "threshold"), (birth_time, "birth_time")):
            values = json_floats(obj[key], key)
            if values.shape != (int(splits.sum()),):
                raise ValueError(f"{key} needs one entry per split")
            full[splits] = values
        return (json_int(obj["dimension"], "dimension"), json_float(obj["horizon"], "horizon"),
                dims, threshold, birth_time, _json_str(obj["stream_id"], "stream_id"))
    except InputError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed partition object: {exc!r}") from exc


def partition_from_obj(obj: dict) -> PartitionTree:
    """Read :func:`partition_to_obj` output; the constructor checks the genealogy."""
    return PartitionTree(*_partition_args(obj))


def json_int(value, what: str) -> int:
    """``value`` if JSON read an integer for it; a float, even an integral
    one, a boolean or anything else is an :class:`InputError`."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{what} must be an integer, got {value!r}")
    return value


def json_float(value, what: str) -> float:
    """``value`` as a float if JSON read a number for it; a boolean, a string,
    anything else or an integer beyond the float range is an :class:`InputError`."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise InputError(f"{what} is beyond the float range") from exc


def json_floats(values, what: str) -> np.ndarray:
    """``values`` as a float array if JSON read a list of numbers for it, the
    array twin of :func:`json_float`: anything else, a list holding a
    boolean, a string or anything but a number, or an integer beyond the
    float range is an :class:`InputError`."""
    if not isinstance(values, list):
        raise InputError(f"{what} must be a list of numbers, got {type(values).__name__}")
    kinds = set(map(type, values)) - {int, float}
    if kinds:
        raise InputError(f"{what} must be a list of numbers, got "
                         f"{', '.join(sorted(kind.__name__ for kind in kinds))}")
    try:
        return np.array(values, dtype=float)
    except OverflowError as exc:
        raise InputError(f"{what} holds a number beyond the float range") from exc


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


def trees_from_obj(objs: Iterable[dict], dimension: int,
                   box: ValueBox | None = None) -> list[tuple[PartitionTree, float, np.ndarray]]:
    """Read :func:`tree_to_obj` outputs as (partition, its horizon, values),
    checking that the values are finite and inside ``box`` if given, then
    every genealogy with one :func:`build_partitions` call;
    :func:`compile_index` checks that there is one value per leaf."""
    args, values = [], []
    for obj in objs:
        try:
            partition_obj = obj["partition"]
            tree_values = json_floats(obj["values"], "values")
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed tree object: {exc!r}") from exc
        args.append(_partition_args(partition_obj))
        if args[-1][0] != dimension:
            raise InputError(f"tree dimension {args[-1][0]} is not the model's {dimension}")
        if not np.all(np.isfinite(tree_values)) or \
                (box is not None and not box.holds(tree_values)):
            raise InputError("tree values must be finite and inside the value box")
        tree_values.flags.writeable = False
        values.append(tree_values)
    return [(partition, partition.horizon, v)
            for partition, v in zip(build_partitions(args), values)]


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
