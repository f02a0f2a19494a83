"""Ensembles of independently grown trees, averaged pointwise."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    Dataset,
    FitConfig,
    FixedLambda,
    AutoLambda,
    InputError,
    ValueBox,
    as_point,
    as_points,
)
from .leaf_fit import fit_groups
from .losses import LossSpec, is_surrogate
from .partition import (
    QueryIndex,
    compile_index,
    group_forest,
    json_float,
    json_int,
    load_model,
    sample_forest,
    save_model,
    tree_to_obj,
    trees_from_obj,
)
from .tree import FittedTree

DEFAULT_TREE_COUNT = 100

SERIAL_FORMAT = "mondrian-forest-v3"


@dataclass(frozen=True)
class Forest:
    """Fitted trees, their loss and their configuration; every query goes
    through ``index``, compiled from the trees when the forest is made."""

    trees: tuple[FittedTree, ...]
    spec: LossSpec
    config: FitConfig
    index: QueryIndex = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "index", compile_index(
            (tree.partition, tree.lam, tree.leaf_values) for tree in self.trees))

    @property
    def dimension(self) -> int:
        return self.trees[0].partition.dimension


def fit_forest(data: Dataset, spec: LossSpec, config: FitConfig) -> Forest:
    """Fit ``config.tree_count`` trees at a fixed horizon and ensemble them.

    Each tree's leaves are fitted as :func:`fit_tree` fits them, from the
    points that :func:`group_forest` groups for a run of trees at a time.
    """
    if not isinstance(config.lambda_mode, FixedLambda):
        raise InputError("fit_forest requires FixedLambda mode; use fit_forest_auto")
    lam = config.lambda_mode.value
    partitions = list(sample_forest(data.dimension, lam, config.seed, config.tree_count,
                                    config.leaf_cap))
    ys = data.require_responses()
    trees = []
    for partition, (order, counts) in zip(partitions, group_forest(partitions, lam, data.points)):
        values, _ = fit_groups(spec, counts, ys[order], config.value_box)
        trees.append(FittedTree(partition, lam, values))
    return Forest(trees=tuple(trees), spec=spec, config=config)


def predict_batch(forest: Forest, xs) -> np.ndarray:
    return forest.index.mean(as_points(xs, dimension=forest.dimension))


def predict(forest: Forest, x) -> float:
    point = as_point(x, dimension=forest.dimension)
    return float(forest.index.mean(point.reshape(1, -1))[0])


def _require_surrogate(forest: Forest) -> None:
    if not is_surrogate(forest.spec):
        raise InputError("classification requires a surrogate loss family")


def classify_batch(forest: Forest, xs) -> np.ndarray:
    """Labels in {-1,+1}; the decision boundary (prediction 0) maps to -1."""
    _require_surrogate(forest)
    preds = predict_batch(forest, xs)
    return np.where(preds > 0.0, 1, -1).astype(np.int64)


def classify(forest: Forest, x) -> int:
    """The label of :func:`classify_batch` for one point."""
    pred = predict(forest, x)
    _require_surrogate(forest)
    return 1 if pred > 0.0 else -1


def forest_to_obj(forest: Forest) -> dict:
    cfg = forest.config
    if isinstance(cfg.lambda_mode, FixedLambda):
        mode_obj = {"mode": "fixed", "value": cfg.lambda_mode.value}
    else:
        mode_obj = {"mode": "auto", "alpha": cfg.lambda_mode.alpha,
                    "lambda_max": cfg.lambda_mode.lambda_max}
    return {
        "format": SERIAL_FORMAT,
        "dimension": forest.dimension,
        "loss": {key: value for key, value in vars(forest.spec).items()
                 if value is not None},
        "box": [cfg.value_box.lo, cfg.value_box.hi],
        "seed": cfg.seed,
        "leaf_cap": cfg.leaf_cap,
        "lambda_mode": mode_obj,
        "trees": [tree_to_obj(tree.partition, tree.lam, tree.leaf_values)
                  for tree in forest.trees],
    }


def forest_from_obj(obj: dict) -> Forest:
    """Read :func:`forest_to_obj` output; every leaf value must lie in the box,
    and the trees must agree with the header: at a fixed lambda every tree's
    horizon is that lambda, at an auto one at most ``lambda_max``, tree
    ``b``'s stream id is ``"{seed}/{b}"``, as :func:`sample_forest` names
    it, and no tree has more leaves than ``leaf_cap``."""
    try:
        dimension = json_int(obj["dimension"], "dimension")
        tree_objs = list(obj["trees"])
        spec = LossSpec(**{key: value if key == "family" else json_float(value, f"loss {key}")
                           for key, value in obj["loss"].items()})
        box = ValueBox(json_float(obj["box"][0], "box"), json_float(obj["box"][1], "box"))
        mode_obj = obj["lambda_mode"]
        if mode_obj["mode"] == "fixed":
            mode = FixedLambda(json_float(mode_obj["value"], "lambda"))
        elif mode_obj["mode"] == "auto":
            mode = AutoLambda(json_float(mode_obj["alpha"], "alpha"),
                              json_float(mode_obj["lambda_max"], "lambda_max"))
        else:
            raise InputError(f"unknown lambda mode {mode_obj['mode']!r}")
        config = FitConfig(
            tree_count=len(tree_objs), lambda_mode=mode, value_box=box,
            seed=json_int(obj["seed"], "seed"), leaf_cap=json_int(obj["leaf_cap"], "leaf_cap"))
    except InputError:
        raise
    except (AttributeError, KeyError, TypeError, IndexError, ValueError) as exc:
        raise InputError(f"malformed forest object: {exc!r}") from exc
    trees = tuple(FittedTree(*tree) for tree in trees_from_obj(tree_objs, dimension, box))
    for b, tree in enumerate(trees):
        if isinstance(mode, FixedLambda) and tree.lam != mode.value:
            raise InputError(f"tree {b} has horizon {tree.lam}, not the fixed lambda {mode.value}")
        if isinstance(mode, AutoLambda) and tree.lam > mode.lambda_max:
            raise InputError(f"tree {b} has horizon {tree.lam}, above lambda_max {mode.lambda_max}")
        if tree.partition.stream_id != f"{config.seed}/{b}":
            raise InputError(f"tree {b} has stream id {tree.partition.stream_id!r}, "
                             f"not {config.seed}/{b} of seed {config.seed}")
        leaves = int(np.count_nonzero(tree.partition.split_dim < 0))
        if leaves > config.leaf_cap:
            raise InputError(f"tree {b} has {leaves} leaves, over the leaf cap {config.leaf_cap}")
    return Forest(trees=trees, spec=spec, config=config)


def save_forest(forest: Forest, path) -> None:
    save_model(forest_to_obj(forest), path)


def load_forest(path) -> Forest:
    return forest_from_obj(load_model(path, SERIAL_FORMAT))
