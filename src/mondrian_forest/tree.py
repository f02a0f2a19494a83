"""Single-tree piecewise-constant estimators on a pruned partition."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset, InputError, ValueBox, as_points
from .leaf_fit import fit_groups
from .losses import LossSpec, loss_eval
from .partition import PartitionTree, leaf_count_at, locate, locate_batch


@dataclass(frozen=True)
class FittedTree:
    """A partition pruned at time ``lam`` with one fitted constant per leaf."""

    partition: PartitionTree
    lam: float
    leaf_values: np.ndarray
    loss: LossSpec
    box: ValueBox


def fit_tree(partition: PartitionTree, lam: float, data: Dataset,
             spec: LossSpec, box: ValueBox) -> FittedTree:
    """Fit the constant of every leaf of the time-``lam`` partition.

    Points are assigned to leaves in one vectorized descent; one
    :func:`fit_groups` call then solves every leaf's box-constrained scalar
    problem on the responses that landed in it. An empty dataset leaves
    every leaf at the empty default.
    """
    if data.dimension != partition.dimension:
        raise InputError(
            f"data dimension {data.dimension} does not match partition "
            f"dimension {partition.dimension}")
    leaf_count = leaf_count_at(partition, lam)
    if data.n == 0:
        values = np.full(leaf_count, box.clip(0.0))
    else:
        ids = locate_batch(partition, lam, data.points)
        values, _ = fit_groups(spec, ids, data.require_responses(), box, leaf_count)
    return FittedTree(partition=partition, lam=float(lam), leaf_values=values,
                      loss=spec, box=box)


def predict_tree(tree: FittedTree, x) -> float:
    return float(tree.leaf_values[locate(tree.partition, tree.lam, x)])


def predict_tree_batch(tree: FittedTree, xs) -> np.ndarray:
    points = as_points(xs, dimension=tree.partition.dimension)
    ids = locate_batch(tree.partition, tree.lam, points)
    return tree.leaf_values[ids]


def _predictions(estimator, xs) -> np.ndarray:
    """Batch predictions from a FittedTree, a Forest-like object, or a callable."""
    if isinstance(estimator, FittedTree):
        return predict_tree_batch(estimator, xs)
    if hasattr(estimator, "trees"):
        from .forest import predict_batch  # local import to avoid a cycle

        return predict_batch(estimator, xs)
    if callable(estimator):
        return np.asarray(estimator(xs), dtype=float).reshape(-1)
    raise InputError(f"cannot predict with object of type {type(estimator).__name__}")


def empirical_risk(estimator, data: Dataset, spec: LossSpec) -> float:
    """Mean loss of ``estimator`` over a nonempty dataset."""
    if data.n < 1:
        raise InputError("empirical risk requires at least one observation")
    preds = _predictions(estimator, data.points)
    if preds.shape[0] != data.n:
        raise InputError("estimator returned a wrong number of predictions")
    if spec.family == "density":
        losses = loss_eval(spec, preds)
    else:
        losses = loss_eval(spec, preds, data.require_responses())
    return float(np.mean(losses))
