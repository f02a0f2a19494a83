"""Convergence-rate experiments and partition statistics.

``run_convergence`` sweeps sample sizes, fits a forest per replication
with a horizon rule (the rate schedule ``lambda_n = n^{1/(2(p+d))}``, a
fixed horizon, or penalized auto-selection), measures true excess risk on
a fresh uniform grid, and fits the log-log slope of the mean curve.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import IO

import numpy as np

from .core import Dataset, FitConfig, FixedLambda, AutoLambda, InputError
from .forest import Forest, fit_forest, predict_batch
from .losses import LossSpec, default_value_box
from .partition import leaf_bounds, leaf_count_at, locate_batch, sample_forest
from .selection import default_lambda_max, fit_forest_auto
from .synth import TargetFunction, generate, true_excess_risk


@dataclass(frozen=True)
class PaperRate:
    """Horizon schedule n^(1/(2(p+d))) for a target of smoothness p."""

    p: float

    def __post_init__(self) -> None:
        if not (0.0 < self.p <= 1.0):
            raise InputError("smoothness p must lie in (0, 1]")


@dataclass(frozen=True)
class FixedRule:
    value: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.value) and self.value >= 0.0):
            raise InputError("fixed horizon must be finite and >= 0")


@dataclass(frozen=True)
class AutoRule:
    alpha: float

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha <= 1.0):
            raise InputError("alpha must lie in (0, 1]")


LambdaRule = PaperRate | FixedRule | AutoRule

_TASK_LOSS = {
    "gaussian": lambda spec: LossSpec("squared"),
    "quantile": lambda spec: LossSpec("pinball", tau=spec.tau),
    "poisson": lambda spec: LossSpec("poisson"),
    "bernoulli": lambda spec: LossSpec("bernoulli"),
    "classify": lambda spec: LossSpec("phi5"),
    "geometric": lambda spec: LossSpec("geometric"),
}


@dataclass(frozen=True)
class ExperimentSpec:
    task: str
    target: TargetFunction
    dimension: int
    n_grid: tuple[int, ...]
    replications: int
    lambda_rule: LambdaRule
    tree_count: int
    seed: int
    sigma: float = 0.3
    tau: float | None = None
    loss: LossSpec | None = None
    test_points: int = 10_000

    def __post_init__(self) -> None:
        if self.task not in _TASK_LOSS:
            raise InputError(f"task {self.task!r} has no convergence harness")
        if len(self.n_grid) < 1 or any(b <= a for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise InputError("n_grid must be strictly ascending and nonempty")
        if min(self.n_grid) < 2:
            raise InputError("sample sizes must be >= 2")
        for count in ("replications", "tree_count", "test_points"):
            if getattr(self, count) < 1:
                raise InputError(f"{count} must be >= 1")
        if self.task == "quantile" and self.tau is None:
            raise InputError("quantile task requires tau")

    def loss_spec(self) -> LossSpec:
        return self.loss if self.loss is not None else _TASK_LOSS[self.task](self)


@dataclass(frozen=True)
class ExperimentResult:
    """A sweep's rows and the log-log slope of their mean curve (NaN for one n)."""

    rows: tuple[tuple[int, int, float, float], ...]  # (n, rep, excess, wall_ms)
    slope: float = field(init=False)
    slope_se: float = field(init=False)

    def __post_init__(self) -> None:
        curve = self.mean_curve()
        fit = slope_fit(list(curve), list(curve.values())) if len(curve) >= 2 else (math.nan,) * 2
        object.__setattr__(self, "slope", fit[0])
        object.__setattr__(self, "slope_se", fit[1])

    def mean_curve(self) -> dict[int, float]:
        sums: dict[int, list[float]] = {}
        for n, _, excess, _ in self.rows:
            sums.setdefault(n, []).append(excess)
        return {n: float(np.mean(v)) for n, v in sorted(sums.items())}


def _horizon_config(spec: ExperimentSpec, n: int, fit_seed: int,
                    loss: LossSpec) -> FitConfig:
    box = default_value_box(loss, n)
    if isinstance(spec.lambda_rule, PaperRate):
        lam = n ** (1.0 / (2.0 * (spec.lambda_rule.p + spec.dimension)))
        mode: FixedLambda | AutoLambda = FixedLambda(lam)
    elif isinstance(spec.lambda_rule, FixedRule):
        mode = FixedLambda(spec.lambda_rule.value)
    else:
        mode = AutoLambda(spec.lambda_rule.alpha,
                          default_lambda_max(n, spec.dimension))
    return FitConfig(tree_count=spec.tree_count, lambda_mode=mode,
                     value_box=box, seed=fit_seed)


def _fit(data: Dataset, loss: LossSpec, config: FitConfig) -> Forest:
    if isinstance(config.lambda_mode, AutoLambda):
        return fit_forest_auto(data, loss, config)
    return fit_forest(data, loss, config)


def slope_fit(ns, mean_excess) -> tuple[float, float]:
    """Least-squares slope (with standard error) of ln(excess) on ln(n)."""
    x = np.log(np.asarray(ns, dtype=float))
    y = np.log(np.asarray(mean_excess, dtype=float))
    if x.shape[0] < 2:
        raise InputError("slope needs at least two sample sizes")
    xc = x - x.mean()
    slope = float(np.dot(xc, y) / np.dot(xc, xc))
    intercept = float(y.mean() - slope * x.mean())
    if x.shape[0] == 2:
        return slope, 0.0
    resid = y - (intercept + slope * x)
    var = float(np.dot(resid, resid)) / (x.shape[0] - 2)
    return slope, math.sqrt(var / float(np.dot(xc, xc)))


def run_convergence(spec: ExperimentSpec, csv_out: IO[str] | None = None) -> ExperimentResult:
    """Run the sweep; optionally stream ``n,rep,excess_risk,wall_ms`` rows.

    Rows are written and flushed as they complete, so an aborted run still
    leaves its partial results on disk.
    """
    loss = spec.loss_spec()
    total_jobs = len(spec.n_grid) * spec.replications
    seeds = np.random.SeedSequence(spec.seed).generate_state(
        3 * total_jobs, dtype=np.uint64)
    if csv_out is not None:
        csv_out.write("n,rep,excess_risk,wall_ms\n")
        csv_out.flush()
    rows: list[tuple[int, int, float, float]] = []
    job = 0
    for n in spec.n_grid:
        for rep in range(spec.replications):
            data_seed = int(seeds[3 * job])
            fit_seed = int(seeds[3 * job + 1])
            grid_seed = int(seeds[3 * job + 2])
            job += 1
            data = generate(spec.task, spec.target, n, spec.dimension,
                            data_seed, sigma=spec.sigma)
            config = _horizon_config(spec, n, fit_seed, loss)
            start = time.perf_counter()
            forest = _fit(data, loss, config)
            wall_ms = (time.perf_counter() - start) * 1000.0
            grid = np.random.default_rng(grid_seed).random(
                (spec.test_points, spec.dimension))
            preds = predict_batch(forest, grid)
            excess = true_excess_risk(spec.task, preds, grid, spec.target,
                                      tau=spec.tau, sigma=spec.sigma)
            rows.append((n, rep, excess, wall_ms))
            if csv_out is not None:
                csv_out.write(f"{n},{rep},{repr(excess)},{repr(wall_ms)}\n")
                csv_out.flush()
    return ExperimentResult(rows=tuple(rows))


def partition_stats(dimension: int, lam: float, tree_count: int,
                    seed: int) -> tuple[float, float, float, float]:
    """Monte-Carlo leaf-count and center-cell-diameter statistics.

    Returns (mean leaf count, its SE, mean diameter of the cell containing
    the cube center, its SE) over ``tree_count`` independent partitions.
    """
    if tree_count < 100:
        raise InputError("partition statistics need at least 100 trees")
    center = np.full((1, dimension), 0.5)
    counts = np.empty(tree_count)
    diams = np.empty(tree_count)
    for b, tree in enumerate(sample_forest(dimension, lam, seed, tree_count)):
        counts[b] = leaf_count_at(tree, lam)
        lo, hi = leaf_bounds(tree, lam)
        diams[b] = np.sqrt(np.sum((hi - lo)[locate_batch(tree, lam, center)[0]] ** 2))
    def se(v: np.ndarray) -> float:
        return float(np.std(v, ddof=1) / math.sqrt(tree_count)) if tree_count > 1 else 0.0
    return (float(counts.mean()), se(counts), float(diams.mean()), se(diams))
