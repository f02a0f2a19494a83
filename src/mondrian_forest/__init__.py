"""Mondrian-forest estimators for convex losses on [0,1]^d.

Random axis-aligned partitions are grown independently of the data, each
leaf solves a box-constrained scalar risk minimization, and trees are
averaged into an ensemble. Supported losses cover squared error, quantile
(pinball), Huber, exponential-family likelihoods, margin-based
classification surrogates, and log-density estimation. A per-tree
penalized selection rule chooses the partition horizon from data.
"""

from .core import (
    AutoLambda,
    Cell,
    Dataset,
    FitConfig,
    FixedLambda,
    InputError,
    NumericError,
    ResourceError,
    ValueBox,
    contains,
    diameter,
    load_dataset_csv,
    save_dataset_csv,
    volume,
)
from .density import (
    DensityModel,
    DensityTree,
    ExactOverlay,
    GridMC,
    density_eval,
    density_eval_batch,
    fit_density_forest,
    fit_density_tree,
    load_density_model,
    log_normalizer,
    recenter,
    save_density_model,
)
from .experiments import (
    AutoRule,
    ExperimentResult,
    ExperimentSpec,
    FixedRule,
    PaperRate,
    partition_stats,
    run_convergence,
)
from .forest import (
    Forest,
    classify,
    classify_batch,
    fit_forest,
    load_forest,
    predict,
    predict_batch,
    save_forest,
)
from .leaf_fit import LeafFitResult, fit_leaf, golden_section_min
from .losses import LossSpec, default_value_box, loss_eval
from .partition import (
    PartitionTree,
    leaf_count_at,
    leaves_at,
    locate_batch,
    sample_forest,
    sample_partition,
    split_times,
)
from .selection import PenaltyPath, default_lambda_max, fit_forest_auto, penalty_path
from .synth import TargetFunction, generate, true_excess_risk
from .tree import FittedTree, empirical_risk, fit_tree, predict_tree_batch

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
