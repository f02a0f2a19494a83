"""Penalized stopping-time selection for individual trees.

For one partition genealogy, the in-sample risk of the fitted tree is a
piecewise-constant, non-increasing function of the horizon, jumping only
when a split is born. Adding the linear penalty ``alpha * lam`` makes the
objective increasing between jumps, so the exact minimizer over all
horizons lies on the finite set {0} U {split birth times}. The path walks
those events in birth order, replacing one leaf's risk contribution with
its two refitted children at each step.
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
    ResourceError,
    ValueBox,
    tree_streams,
)
from .forest import Forest
from .leaf_fit import fit_leaf
from .losses import LossSpec
from .partition import PartitionTree, sample_partition
from .tree import FittedTree, fit_tree

DEFAULT_ALPHA = 0.1


@dataclass(frozen=True)
class PenaltyPath:
    """Risk and penalty evaluated at every candidate horizon of one tree."""

    breakpoints: np.ndarray
    risks: np.ndarray
    alpha: float
    lambda_star: float

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
    ys = data.require_responses()

    splits = np.flatnonzero(partition.split_dim >= 0)
    # a parent is born no later than its children and precedes them in pre-order
    events = splits[np.argsort(partition.birth_time[splits], kind="stable")]

    # per-active-leaf state, keyed by node: point indices and summed leaf loss
    member: dict[int, np.ndarray] = {0: np.arange(data.n)}
    loss_sum: dict[int, float] = {0: fit_leaf(spec, ys, box).achieved_loss}

    breakpoints = [0.0]
    risks = [sum(loss_sum.values()) / data.n]
    for node in events.tolist():
        idx = member.pop(node)
        loss_sum.pop(node)
        go_left = data.points[idx, partition.split_dim[node]] < partition.threshold[node]
        left, right = node + 1, int(partition.right[node])
        member[left], member[right] = idx[go_left], idx[~go_left]
        loss_sum[left] = fit_leaf(spec, ys[member[left]], box).achieved_loss
        loss_sum[right] = fit_leaf(spec, ys[member[right]], box).achieved_loss
        breakpoints.append(float(partition.birth_time[node]))
        risks.append(sum(loss_sum.values()) / data.n)

    bp = np.asarray(breakpoints)
    rk = np.asarray(risks)
    # first occurrence of the minimum = smallest minimizing horizon
    lambda_star = float(bp[int(np.argmin(rk + alpha * bp))])
    return PenaltyPath(breakpoints=bp, risks=rk, alpha=alpha,
                       lambda_star=lambda_star)


def fit_forest_auto(data: Dataset, spec: LossSpec, config: FitConfig) -> Forest:
    """Fit a forest whose trees each select their own horizon by penalty.

    Every tree's genealogy is sampled up to ``lambda_max``; the tree is
    then pruned at its penalized-risk minimizer.
    """
    if not isinstance(config.lambda_mode, AutoLambda):
        raise InputError("fit_forest_auto requires AutoLambda mode")
    mode = config.lambda_mode
    streams = tree_streams(config.seed, config.tree_count)
    trees: list[FittedTree] = []
    for b, rng in enumerate(streams):
        try:
            partition = sample_partition(
                data.dimension, mode.lambda_max, rng, leaf_cap=config.leaf_cap,
                stream_id=f"{config.seed}/{b}")
        except ResourceError as exc:
            raise ResourceError(f"tree {b}: {exc}") from exc
        path = penalty_path(partition, data, spec, config.value_box, mode.alpha)
        trees.append(fit_tree(partition, path.lambda_star, data, spec,
                              config.value_box))
    return Forest(trees=tuple(trees), spec=spec, config=config)
