"""Penalized stopping-time selection for individual trees.

For one partition genealogy, the in-sample risk of the fitted tree is a
piecewise-constant, non-increasing function of the horizon, jumping only
when a split is born. Adding the linear penalty ``alpha * lam`` makes the
objective increasing between jumps, so the exact minimizer over all
horizons lies on the finite set {0} U {split birth times}.

Every genealogy node holds a fixed set of points, hence a fixed fitted
value and summed loss L(node), and the tree at any horizon is a set of
nodes. So one grouped leaf fit over the points of every node (grouped by
``partition.node_groups``) gives every node's value and loss, and the
summed risk at each birth time is L(root) plus the running sum of
L(left) + L(right) - L(parent) over the splits born so far.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    AutoLambda,
    Dataset,
    FitConfig,
    InputError,
    ValueBox,
)
from .forest import Forest
from .leaf_fit import fit_groups
from .losses import LossSpec
from .partition import PartitionTree, node_groups, prune, sample_forest
from .tree import FittedTree

DEFAULT_ALPHA = 0.1


@dataclass(frozen=True)
class PenaltyPath:
    """Risk and penalty evaluated at every candidate horizon of one tree.

    ``node_values`` holds every genealogy node's fitted value. With
    ``pruned, kept = prune(partition, lam)``, the tree at horizon ``lam``
    has the leaf values ``node_values[kept][pruned.split_dim < 0]``.
    """

    breakpoints: np.ndarray
    risks: np.ndarray
    alpha: float
    lambda_star: float
    node_values: np.ndarray

    @property
    def pen_totals(self) -> np.ndarray:
        return self.risks + self.alpha * self.breakpoints


def default_lambda_max(n: int, dimension: int) -> float:
    """Horizon at which the expected leaf count reaches the sample size."""
    if n < 1 or dimension < 1:
        raise InputError("lambda_max default requires n >= 1 and dimension >= 1")
    return max(n ** (1.0 / dimension) - 1.0, 0.0)


def penalty_path(partition: PartitionTree, data: Dataset, spec: LossSpec,
                 box: ValueBox, alpha: float) -> PenaltyPath:
    if not (np.isfinite(alpha) and 0.0 < alpha <= 1.0):
        raise InputError("alpha must lie in (0, 1]")
    if data.n < 1:
        raise InputError("penalty path requires at least one observation")
    if data.dimension != partition.dimension:
        raise InputError("data dimension does not match partition dimension")
    if spec.family == "density":
        raise InputError("penalty path is defined for supervised families")
    order, counts = node_groups(partition, data.points)
    node_values, node_losses = fit_groups(spec, counts, data.require_responses()[order], box)

    splits = np.flatnonzero(partition.split_dim >= 0)
    # a parent is born no later than its children and precedes them in pre-order
    events = splits[np.argsort(partition.birth_time[splits], kind="stable")]
    # each split replaces its node's loss by the losses of its two children
    gains = (node_losses[events + 1] + node_losses[partition.right[events]]
             - node_losses[events])
    bp = np.concatenate(([0.0], partition.birth_time[events]))
    rk = np.cumsum(np.concatenate(([node_losses[0]], gains))) / data.n
    # first occurrence of the minimum = smallest minimizing horizon
    lambda_star = float(bp[int(np.argmin(rk + alpha * bp))])
    return PenaltyPath(breakpoints=bp, risks=rk, alpha=alpha,
                       lambda_star=lambda_star, node_values=node_values)


def fit_forest_auto(data: Dataset, spec: LossSpec, config: FitConfig) -> Forest:
    """Fit a forest whose trees each select their own horizon by penalty.

    Every tree's genealogy is sampled up to ``lambda_max``; the tree keeps
    it only up to its penalized-risk minimizer and takes its leaf values
    from the path's node fits, so the full genealogy is freed tree by tree.
    """
    if not isinstance(config.lambda_mode, AutoLambda):
        raise InputError("fit_forest_auto requires AutoLambda mode")
    mode = config.lambda_mode
    trees: list[FittedTree] = []
    for partition in sample_forest(data.dimension, mode.lambda_max, config.seed,
                                   config.tree_count, config.leaf_cap):
        path = penalty_path(partition, data, spec, config.value_box, mode.alpha)
        pruned, kept = prune(partition, path.lambda_star)
        values = path.node_values[kept][pruned.split_dim < 0]
        trees.append(FittedTree(partition=pruned, lam=path.lambda_star,
                                leaf_values=values))
    return Forest(trees=tuple(trees), spec=spec, config=config)
