"""Log-density estimation with Mondrian-forest histograms.

Each tree fits box-constrained per-leaf log-heights by maximum likelihood
with a normalization penalty:

    minimize  -(1/n) sum_j c_j n_j + ln sum_j vol_j exp(c_j),   c_j in box.

The objective is invariant under adding one constant to all heights, so
the representative with unit mass (closed form ``c_j = ln(n_j/(n vol_j))``)
is taken, clamped into the box. When clamping binds, stationarity pins
every height to a common mass scale, c_j = clip(ln(n_j Z / (n vol_j))),
and the self-consistency equation for Z is piecewise linear between clamp
breakpoints, so the constrained minimizer is solved exactly by one
vectorised scan over the breakpoints. Heights are then recentered so the
piecewise-constant function integrates to zero, trees are averaged, and the
ensemble is exponentiated and renormalized into a density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import (
    DEFAULT_LEAF_CAP,
    InputError,
    NumericError,
    ValueBox,
    as_point,
    as_points,
)
from .partition import (
    PartitionTree,
    QueryIndex,
    compile_index,
    json_int,
    leaf_bounds,
    load_model,
    locate_batch,
    sample_forest,
    save_model,
    tree_from_obj,
    tree_to_obj,
)

DEFAULT_GRID_POINTS = 2**15

SERIAL_FORMAT = "mondrian-density-v3"


@dataclass(frozen=True)
class ExactOverlay:
    """Exact 1-d normalization over the union of all trees' breakpoints."""


@dataclass(frozen=True)
class GridMC:
    """Deterministic low-discrepancy integration grid for d >= 2."""

    point_count: int
    seed: int

    def __post_init__(self) -> None:
        if self.point_count < 1:
            raise InputError(f"integration grid needs >= 1 point, got {self.point_count}")


@dataclass(frozen=True)
class DensityTree:
    partition: PartitionTree  # sampled up to the horizon lam the tree is fitted at
    heights: np.ndarray  # recentered, indexed by leaf id at lam

    @property
    def lam(self) -> float:
        return self.partition.horizon


@dataclass(frozen=True)
class DensityModel:
    """Density trees and the ln Z of their ensemble; every evaluation goes
    through ``index``, compiled from the trees when the model is made unless
    given (a fit passes the index it integrated ln Z with)."""

    trees: tuple[DensityTree, ...]
    log_normalizer: float
    integration: ExactOverlay | GridMC
    index: QueryIndex | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.index is None:
            object.__setattr__(self, "index", density_index(self.trees))

    @property
    def dimension(self) -> int:
        return self.trees[0].partition.dimension


def leaf_volumes(partition: PartitionTree, lam: float) -> np.ndarray:
    """Volumes of the time-``lam`` leaf cells, in leaf-id order."""
    lo, hi = leaf_bounds(partition, lam)
    return np.prod(hi - lo, axis=1)


def fit_density_tree(partition: PartitionTree, lam: float, xs,
                     box: ValueBox) -> np.ndarray:
    """Per-leaf heights minimizing the penalized likelihood objective.

    Returned heights are NOT recentered; apply :func:`recenter`.
    """
    points = as_points(xs, dimension=partition.dimension)
    vols = leaf_volumes(partition, lam)
    if np.any(vols <= 0.0):
        raise NumericError("partition has a zero-volume leaf")
    n = points.shape[0]
    if n == 0:
        return np.full(vols.shape[0], box.lo)
    counts = np.bincount(locate_batch(partition, lam, points), minlength=vols.shape[0])

    # unit-mass stationary point, clamped into the box
    with np.errstate(divide="ignore"):
        heights = np.log(counts / (n * vols))
    heights = np.clip(heights, box.lo, box.hi)
    if np.all((heights > box.lo) & (heights < box.hi)):
        return heights
    return _scale_equation_heights(counts, vols, n, box)


def _scale_equation_heights(counts: np.ndarray, vols: np.ndarray, n: int,
                            box: ValueBox) -> np.ndarray:
    """Exact box-constrained minimizer via the stationarity scale equation.

    At the optimum there is a total mass Z with heights
    c_j = clip(a_j + t, lo, hi) where a_j = ln(n_j / (n vol_j)) and t = ln Z.
    The residual R(t) = sum_j vol_j e^{c_j(t)} - e^t is continuous,
    nonincreasing, positive as t -> -inf and negative as t -> +inf, and
    linear in e^t between the breakpoints where a clamp engages or releases,
    so its first zero is found by scanning breakpoints in increasing order.
    Empty cells (a_j = -inf) stay clamped at the lower edge throughout.
    """
    p = counts / n
    with np.errstate(divide="ignore"):
        a = np.log(p / vols)
    lo_mass = vols * math.exp(box.lo)
    clamped = float(lo_mass.sum())
    if not clamped > 0.0:
        # the clamped mass that fixes the scale below the first event is lost
        raise NumericError(f"exp of the value box bottom {box.lo} underflows")
    seen = np.isfinite(a)
    # each seen cell enters the interior at lo - a_j and leaves it at hi - a_j;
    # events are taken in time order, ties in the order cell by cell
    times = np.column_stack((box.lo - a[seen], box.hi - a[seen])).ravel()
    order = np.argsort(times, kind="stable")
    times = times[order]
    d_interior = np.column_stack((p[seen], -p[seen])).ravel()[order]
    d_fixed = np.column_stack((-lo_mass[seen], vols[seen] * math.exp(box.hi))).ravel()[order]
    # the interior share and the clamped mass before each event, and after the last
    interior = np.cumsum(np.concatenate(([0.0], d_interior)))
    fixed = np.cumsum(np.concatenate(([clamped], d_fixed)))
    # tied events are one breakpoint, so R is tested once per run of equal
    # times, at its first event, with the sums of every earlier event
    first = np.flatnonzero(np.diff(times, prepend=-math.inf) > 0.0)
    residual = (interior[first] - 1.0) * np.exp(times[first]) + fixed[first]
    roots = first[residual <= 0.0]
    if roots.size == 0:
        return np.clip(a + math.log(fixed[-1]), box.lo, box.hi)
    k = int(roots[0])
    t_prev = float(times[k - 1]) if k else -math.inf
    if interior[k] >= 1.0 or fixed[k] <= 0.0:
        # a flat stretch of zero residual, where every point is optimal, or a
        # segment whose rounded sums make R negative throughout
        t_star = t_prev
    else:
        # the root lies in this segment; clamping guards the closed form
        # against rounding in the running sums
        t_star = math.log(float(fixed[k]) / (1.0 - float(interior[k])))
        t_star = min(max(t_star, t_prev), float(times[k]))
    return np.clip(a + t_star, box.lo, box.hi)


def density_objective(heights, counts, vols, n: int) -> float:
    """The penalized likelihood objective (used by tests and sanity checks)."""
    h = np.asarray(heights, dtype=float)
    return float(-np.dot(h, counts) / n + math.log(np.dot(vols, np.exp(h))))


def recenter(heights, vols) -> np.ndarray:
    """Subtract the integral over leaves of volumes ``vols``, leaving mean zero."""
    h = np.asarray(heights, dtype=float)
    vols = np.asarray(vols, dtype=float)
    if vols.shape != h.shape:
        raise InputError("heights and leaf volumes have mismatched lengths")
    return h - float(np.dot(vols, h))


def density_index(trees: Sequence[DensityTree]) -> QueryIndex:
    """The query index whose mean is the ensemble's average log-height."""
    return compile_index((tree.partition, tree.lam, tree.heights) for tree in trees)


def overlay_breakpoints(trees: Sequence[DensityTree]) -> np.ndarray:
    """Sorted union of all 1-d trees' cell boundaries: 0, 1 and the thresholds in use."""
    edges = [np.array([0.0, 1.0])]
    for tree in trees:
        edges.append(tree.partition.threshold[tree.partition.split_dim >= 0])
    return np.unique(np.concatenate(edges))


def log_normalizer_for(trees: Sequence[DensityTree], index: QueryIndex,
                       integration: ExactOverlay | GridMC) -> float:
    """ln of the integral of exp(average tree log-density) over the cube;
    ``index`` is the trees' :func:`density_index`."""
    dimension = trees[0].partition.dimension
    if isinstance(integration, ExactOverlay):
        if dimension != 1:
            raise InputError("exact overlay normalization requires d = 1")
        edges = overlay_breakpoints(trees)
        mids = 0.5 * (edges[:-1] + edges[1:])
        widths = np.diff(edges)
        h_bar = index.mean(mids.reshape(-1, 1))
        return float(math.log(np.dot(widths, np.exp(h_bar))))
    from scipy.stats import qmc  # slow to import; only this branch needs it
    sampler = qmc.Sobol(d=dimension, scramble=True,
                        seed=np.random.default_rng(integration.seed))
    exponent = int(round(math.log2(integration.point_count)))
    if 2**exponent == integration.point_count:
        grid = sampler.random_base2(exponent)
    else:
        grid = sampler.random(integration.point_count)
    grid = np.clip(grid, 0.0, 1.0)
    h_bar = index.mean(grid)
    return float(math.log(np.mean(np.exp(h_bar))))


def log_normalizer(model: DensityModel) -> float:
    return log_normalizer_for(model.trees, model.index, model.integration)


def fit_density_forest(xs, lam: float, tree_count: int, seed: int,
                       box: ValueBox, grid_points: int = DEFAULT_GRID_POINTS,
                       leaf_cap: int = DEFAULT_LEAF_CAP) -> DensityModel:
    """Fit, recenter, and normalize a density forest on points ``xs``."""
    points = as_points(xs)
    if tree_count < 1:
        raise InputError("tree_count must be >= 1")
    dimension = points.shape[1]
    if dimension == 1:
        integration: ExactOverlay | GridMC = ExactOverlay()
    else:
        integration = GridMC(point_count=grid_points, seed=int(seed))
    trees = []
    for partition in sample_forest(dimension, lam, seed, tree_count, leaf_cap):
        heights = fit_density_tree(partition, lam, points, box)
        heights = recenter(heights, leaf_volumes(partition, lam))
        trees.append(DensityTree(partition=partition, heights=heights))
    index = density_index(trees)
    ln_z = log_normalizer_for(trees, index, integration)
    return DensityModel(trees=tuple(trees), log_normalizer=ln_z,
                        integration=integration, index=index)


def density_eval_batch(model: DensityModel, xs) -> np.ndarray:
    points = as_points(xs, dimension=model.dimension)
    h_bar = model.index.mean(points)
    return np.exp(h_bar - model.log_normalizer)


def density_eval(model: DensityModel, x) -> float:
    point = as_point(x, dimension=model.dimension)
    return float(density_eval_batch(model, point.reshape(1, -1))[0])


def density_model_to_obj(model: DensityModel) -> dict:
    if isinstance(model.integration, ExactOverlay):
        integration_obj: dict = {"method": "overlay"}
    else:
        integration_obj = {"method": "grid", "point_count": model.integration.point_count,
                           "seed": model.integration.seed}
    return {
        "format": SERIAL_FORMAT,
        "dimension": model.dimension,
        "log_normalizer": model.log_normalizer,
        "integration": integration_obj,
        "trees": [tree_to_obj(tree.partition, tree.lam, tree.heights)
                  for tree in model.trees],
    }


def density_model_from_obj(obj: dict) -> DensityModel:
    """Read :func:`density_model_to_obj` output; heights and ln Z must be finite."""
    try:
        integ_obj = obj["integration"]
        if integ_obj["method"] == "overlay":
            integration: ExactOverlay | GridMC = ExactOverlay()
        elif integ_obj["method"] == "grid":
            integration = GridMC(point_count=json_int(integ_obj["point_count"], "point_count"),
                                 seed=json_int(integ_obj["seed"], "seed"))
        else:
            raise InputError(f"unknown integration method {integ_obj['method']!r}")
        log_z = float(obj["log_normalizer"])
        dimension = json_int(obj["dimension"], "dimension")
        tree_objs = list(obj["trees"])
    except InputError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed density model object: {exc!r}") from exc
    if not math.isfinite(log_z):
        raise InputError("density log normalizer must be finite")
    if not tree_objs:
        raise InputError("density model has no trees")
    trees = tuple(DensityTree(partition, heights) for partition, _, heights in
                  (tree_from_obj(t, dimension) for t in tree_objs))
    if isinstance(integration, ExactOverlay) and dimension != 1:
        raise InputError(f"exact overlay normalization requires d = 1, not d = {dimension}")
    return DensityModel(trees=trees, log_normalizer=log_z, integration=integration)


def save_density_model(model: DensityModel, path) -> None:
    save_model(density_model_to_obj(model), path)


def load_density_model(path) -> DensityModel:
    return density_model_from_obj(load_model(path, SERIAL_FORMAT))
