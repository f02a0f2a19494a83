"""Brute-force reference implementations used to check the fast paths.

Everything here trades speed for obviousness: dense grids instead of
closed forms, full refits instead of incremental updates, linear scans
instead of tree descent. Tests compare the library against these.
"""

from __future__ import annotations

import numpy as np

from mondrian_forest import (
    Cell,
    Dataset,
    InputError,
    LossSpec,
    PartitionTree,
    ValueBox,
    contains,
    empirical_risk,
    fit_tree,
    leaves_at,
    locate_batch,
    loss_eval,
    split_times,
)
from mondrian_forest.partition import leaf_bounds


def unit_cell(dimension: int) -> Cell:
    if dimension < 1:
        raise InputError("dimension must be >= 1")
    return Cell(lo=(0.0,) * dimension, hi=(1.0,) * dimension)


def linear_size(cell: Cell) -> float:
    """Sum of the side lengths of ``cell`` (the split-rate measure of a cell)."""
    return float(sum(b - a for a, b in zip(cell.lo, cell.hi)))


def cell_of(tree: PartitionTree, lam: float, x) -> Cell:
    """The leaf cell of the time-``lam`` partition that ``locate_batch`` gives for ``x``."""
    lo, hi = leaf_bounds(tree, lam)
    k = int(locate_batch(tree, lam, np.array([x], dtype=float))[0])
    cell = Cell(lo=tuple(lo[k].tolist()), hi=tuple(hi[k].tolist()))
    if not contains(cell, x):
        raise AssertionError(f"descent for {x!r} reached a cell that does not contain it")
    return cell


def leaf_cells_walk(tree: PartitionTree, lam: float) -> list[Cell]:
    """The time-``lam`` leaf cells in pre-order, by a recursive walk of the
    node arrays that cuts each cell itself and finds each right child as the
    node after its left subtree."""
    cells: list[Cell] = []

    def walk(node: int, lo: list[float], hi: list[float], in_tree: bool) -> int:
        dim = int(tree.split_dim[node])
        splits = dim >= 0 and float(tree.birth_time[node]) <= lam
        if in_tree and not splits:
            cells.append(Cell(tuple(lo), tuple(hi)))
        if dim < 0:
            return node + 1
        t = float(tree.threshold[node])
        after_left = walk(node + 1, lo, hi[:dim] + [t] + hi[dim + 1:], in_tree and splits)
        return walk(after_left, lo[:dim] + [t] + lo[dim + 1:], hi, in_tree and splits)

    if walk(0, [0.0] * tree.dimension, [1.0] * tree.dimension, True) != tree.split_dim.size:
        raise AssertionError("the walk did not end at the last node")
    return cells


def brute_force_right_children(split_dim: np.ndarray) -> np.ndarray:
    """Right-child index of every split of a pre-order node sequence, -1 at
    leaves, from a stack of the splits still awaiting their right child."""
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
    return right


def brute_force_node_bounds(tree: PartitionTree) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper corners of every node's cell, as (nodes, d) arrays,
    cut node by node in pre-order and checking each threshold against its
    node's cell; right children come from :func:`brute_force_right_children`."""
    lo = np.zeros((tree.split_dim.shape[0], tree.dimension))
    hi = np.ones_like(lo)
    right = brute_force_right_children(tree.split_dim)
    for i, (j, t, r) in enumerate(zip(tree.split_dim.tolist(), tree.threshold.tolist(),
                                      right.tolist())):
        if j < 0:
            continue
        if not lo[i, j] <= t <= hi[i, j]:
            raise InputError("split threshold outside its node's cell")
        lo[i + 1], hi[i + 1], lo[r], hi[r] = lo[i], hi[i], lo[i], hi[i]
        hi[i + 1, j] = lo[r, j] = t
    return lo, hi


def group_by_ids(ids, group_count: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``(counts, order)`` that group responses with group ids ``ids``:
    ``ys[order]`` lists group 0's responses, then group 1's, each group's in
    its original order, and ``counts`` has one entry per group."""
    ids = np.asarray(ids)
    return np.bincount(ids, minlength=group_count), np.argsort(ids, kind="stable")


def grid_minimum(spec: LossSpec, ys, box: ValueBox,
                 points: int = 100_000) -> tuple[float, float]:
    """Minimize the summed leaf loss over a dense grid of candidate values.

    Returns (argmin, min) over `points` evenly spaced values in the box.
    """
    values = np.linspace(box.lo, box.hi, points)
    ys = np.asarray(ys, dtype=float)
    total = np.zeros(points)
    for y in ys:
        total += loss_eval(spec, values, y)
    best = int(np.argmin(total))
    return float(values[best]), float(total[best])


def leaf_loss_sum(spec: LossSpec, value: float, ys) -> float:
    """Plain-Python loop computing the summed leaf loss at one value."""
    total = 0.0
    for y in np.asarray(ys, dtype=float):
        total += float(loss_eval(spec, value, float(y)))
    return total


def brute_force_path(partition: PartitionTree, data: Dataset, spec: LossSpec,
                     box: ValueBox, alpha: float):
    """Refit the whole tree from scratch at every breakpoint.

    Returns (breakpoints, risks, lambda_star) with the same smallest-
    lambda tie-breaking used by the incremental path.
    """
    breakpoints = [0.0] + [t for t in split_times(partition)
                           if t <= partition.horizon]
    risks = []
    for lam in breakpoints:
        fitted = fit_tree(partition, lam, data, spec, box)
        risks.append(empirical_risk(fitted, data, spec))
    totals = np.asarray(risks) + alpha * np.asarray(breakpoints)
    lambda_star = breakpoints[int(np.argmin(totals))]
    return np.asarray(breakpoints), np.asarray(risks), float(lambda_star)


def locate_scan(tree: PartitionTree, lam: float, x) -> int:
    """Find the unique leaf containing x by scanning every leaf cell."""
    hits = [i for i, cell in enumerate(leaves_at(tree, lam))
            if contains(cell, x)]
    if len(hits) != 1:
        raise AssertionError(f"point {x!r} hit {len(hits)} leaves")
    return hits[0]


def density_opt_reference(counts, vols, n: int, box: ValueBox) -> float:
    """Best box-constrained density objective found by scipy's L-BFGS-B.

    Runs several starts and returns the smallest objective seen.
    """
    from scipy.optimize import minimize

    from mondrian_forest.density import density_objective

    counts = np.asarray(counts, dtype=float)
    vols = np.asarray(vols, dtype=float)
    k = counts.shape[0]
    bounds = [(box.lo, box.hi)] * k
    starts = [np.zeros(k), np.full(k, box.lo), np.full(k, box.hi)]
    with np.errstate(divide="ignore"):
        ratio = np.log(np.maximum(counts, 0.5) / (n * vols))
    starts.append(np.clip(ratio, box.lo, box.hi))
    best = np.inf
    for start in starts:
        res = minimize(density_objective, start, args=(counts, vols, n),
                       method="L-BFGS-B", bounds=bounds,
                       options={"ftol": 1e-16, "gtol": 1e-12, "maxiter": 5000})
        best = min(best, float(res.fun))
    return best
