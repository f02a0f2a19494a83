"""Single-tree piecewise-constant estimators on a pruned partition."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset, InputError, ValueBox, as_points
from .leaf_fit import fit_groups
from .losses import LossSpec, loss_eval
from .partition import PartitionTree, group_points, locate_batch


@dataclass(frozen=True)
class FittedTree:
    """A partition pruned at time ``lam`` with one fitted constant per leaf.

    The loss and the value box of the fit belong to the forest
    (``Forest.spec`` and ``Forest.config.value_box``).
    """

    partition: PartitionTree
    lam: float
    leaf_values: np.ndarray


def fit_tree(partition: PartitionTree, lam: float, data: Dataset,
             spec: LossSpec, box: ValueBox) -> FittedTree:
    """Fit the constant of every leaf of the time-``lam`` partition.

    :func:`group_points` groups the points by leaf (a binary search over
    the leaf edges in d = 1, a lookup in the tree's slab grid otherwise, or
    a walk for a tree over the grid budget); one :func:`fit_groups` call
    then solves every leaf's box-constrained scalar problem on the responses
    taken in that order. An empty dataset leaves every leaf at the empty
    default. :func:`mondrian_forest.forest.fit_forest` fits its trees the
    same way, grouping the points for a run of trees at a time.
    """
    if data.dimension != partition.dimension:
        raise InputError(
            f"data dimension {data.dimension} does not match partition "
            f"dimension {partition.dimension}")
    order, counts = group_points(partition, lam, data.points)
    values, _ = fit_groups(spec, counts, data.require_responses()[order], box)
    return FittedTree(partition=partition, lam=float(lam), leaf_values=values)


def predict_tree_batch(tree: FittedTree, xs) -> np.ndarray:
    points = as_points(xs, dimension=tree.partition.dimension)
    ids = locate_batch(tree.partition, tree.lam, points)
    return tree.leaf_values[ids]


def empirical_risk(tree: FittedTree, data: Dataset, spec: LossSpec) -> float:
    """Mean loss of ``tree`` over a nonempty dataset."""
    if data.n < 1:
        raise InputError("empirical risk requires at least one observation")
    preds = predict_tree_batch(tree, data.points)
    if spec.family == "density":
        losses = loss_eval(spec, preds)
    else:
        losses = loss_eval(spec, preds, data.require_responses())
    return float(np.mean(losses))
