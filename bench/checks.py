"""Correctness checks computed apart from the program.

Each check takes the loaded model and the values the public API returned,
recomputes what they must be from the inputs the benchmark drew, and
returns a list of problems (empty when the outputs are right). Leaf
membership is computed here with half-open bounds, leaf fits by the
benchmark's own closed forms, bisection and L-BFGS-B; only the cell list
(``leaves_at``) and split times (``split_times``) are read from the program.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import minimize

import mondrian_forest as mf

from workloads import AUTO_ALPHA, AUTO_LAMBDA_MAX, HUBER_DELTA

EXACT_TOL = 1e-12            # leaf means and tree averages: same arithmetic, rounding only
MSE_SHARE = 0.15             # regress-d2: MSE to the target below this share of its variance
PENALTY_TOL = 1e-9           # robust-auto-d1: penalised risk at lambda* over the minimum
SOLVER_TOL = 1e-9            # golden section brackets to 1e-10 of the box width
BISECTION_STEPS = 64         # halvings of the box; ends below double resolution
INTEGRAL_TOL = 1e-9          # density-d1: |integral - 1|
DENSITY_OBJECTIVE_TOL = 1e-9  # density-d1: |objective - L-BFGS-B minimum|


def leaf_ids(points: np.ndarray, cells) -> np.ndarray:
    """Index of the cell holding each point, or -1 where not exactly one does.

    A cell holds x when lo <= x < hi in every coordinate, with hi == 1
    inclusive, so a partition of the cube holds every point once.
    """
    ids = np.full(points.shape[0], -1)
    hits = np.zeros(points.shape[0], dtype=np.int64)
    for k, cell in enumerate(cells):
        lo, hi = np.asarray(cell.lo), np.asarray(cell.hi)
        upper = (points < hi) | ((hi == 1.0) & (points == 1.0))
        inside = np.all((points >= lo) & upper, axis=1)
        ids[inside] = k
        hits += inside
    ids[hits != 1] = -1
    return ids


def _ids_or_problem(points, cells, what: str, problems: list[str]):
    ids = leaf_ids(points, cells)
    if np.any(ids < 0):
        problems.append(f"{what}: {int(np.sum(ids < 0))} points not in exactly one leaf")
        return None
    return ids


def check_points_match_batch(point_values, batch_values) -> list[str]:
    """Single-point queries equal the batch results for the same points."""
    p = np.asarray(point_values, dtype=float)
    gap = np.abs(p - np.asarray(batch_values)[:p.shape[0]])
    if not np.all(gap <= EXACT_TOL * np.maximum(1.0, np.abs(p))):
        return [f"point queries differ from batch results by up to {gap.max():.3g}"]
    return []


def check_leaf_means(forest, points, responses, box, tree_ids) -> list[str]:
    """regress-d2: each leaf value is the box-clipped mean of its responses."""
    problems: list[str] = []
    lo, hi = box
    for b in tree_ids:
        tree = forest.trees[b]
        cells = mf.leaves_at(tree.partition, tree.lam)
        ids = _ids_or_problem(points, cells, f"tree {b}", problems)
        if ids is None:
            continue
        if len(tree.leaf_values) != len(cells):
            problems.append(f"tree {b}: {len(tree.leaf_values)} leaf values for {len(cells)} leaves")
            continue
        counts = np.bincount(ids, minlength=len(cells))
        sums = np.bincount(ids, responses, minlength=len(cells))
        with np.errstate(invalid="ignore"):
            expected = np.where(counts > 0, np.clip(sums / counts, lo, hi), min(max(0.0, lo), hi))
        gap = np.abs(np.asarray(tree.leaf_values) - expected)
        if np.any(gap > EXACT_TOL):
            problems.append(f"tree {b}: leaf values differ from clipped means by up to {gap.max():.3g}")
    return problems


def check_tree_average(forest, queries, batch_values, query_ids) -> list[str]:
    """Batch predictions equal the average over trees of the holding leaf's value."""
    problems: list[str] = []
    pts = queries[query_ids]
    total = np.zeros(pts.shape[0])
    for b, tree in enumerate(forest.trees):
        cells = mf.leaves_at(tree.partition, tree.lam)
        ids = _ids_or_problem(pts, cells, f"tree {b} queries", problems)
        if ids is None or len(tree.leaf_values) != len(cells):
            return problems or [f"tree {b}: leaf values do not match its leaves"]
        total += np.asarray(tree.leaf_values)[ids]
    expected = total / len(forest.trees)
    gap = np.abs(np.asarray(batch_values)[query_ids] - expected)
    if np.any(gap > EXACT_TOL):
        problems.append(f"batch predictions differ from the tree average by up to {gap.max():.3g}")
    return problems


def check_regression_error(batch_values, truth, dimension: int) -> list[str]:
    """The MSE to the known target is a small share of the target's variance."""
    mse = float(np.mean((np.asarray(batch_values) - truth) ** 2))
    variance = 1.0 / (2.0 * dimension)  # of the mean of d independent sin(2 pi U)
    if not mse < MSE_SHARE * variance:
        return [f"MSE {mse:.4g} is not below {MSE_SHARE} x target variance {variance:.4g}"]
    return []


def huber(r: np.ndarray) -> np.ndarray:
    a = np.abs(r)
    return np.where(a <= HUBER_DELTA, 0.5 * r * r, HUBER_DELTA * (a - 0.5 * HUBER_DELTA))


def huber_leaf_fit(ids: np.ndarray, ys: np.ndarray, k: int, box):
    """Per-leaf Huber minimisers in the box and their summed losses.

    Bisection on the slope sum_i clip(v - y_i, -delta, delta), which is
    nondecreasing in v, run for all leaves at once. Empty leaves take the
    box point nearest 0 and add no loss.
    """
    lo, hi = box
    a, b = np.full(k, lo), np.full(k, hi)
    for _ in range(BISECTION_STEPS):
        mid = 0.5 * (a + b)
        slope = np.bincount(ids, np.clip(mid[ids] - ys, -HUBER_DELTA, HUBER_DELTA), minlength=k)
        below = slope < 0.0
        a = np.where(below, mid, a)
        b = np.where(below, b, mid)
    values = 0.5 * (a + b)
    counts = np.bincount(ids, minlength=k)
    values = np.where(counts > 0, values, min(max(0.0, lo), hi))
    losses = np.bincount(ids, huber(values[ids] - ys), minlength=k)
    return values, losses


def check_lambda_star_candidates(forest) -> list[str]:
    """Every tree's lambda* is 0 or one of its split times, and at most lambda_max."""
    problems = []
    for b, tree in enumerate(forest.trees):
        if tree.lam != 0.0 and tree.lam not in set(mf.split_times(tree.partition)):
            problems.append(f"tree {b}: lambda* {tree.lam!r} is neither 0 nor a split time")
        if tree.lam > AUTO_LAMBDA_MAX:
            problems.append(f"tree {b}: lambda* {tree.lam!r} exceeds lambda_max")
    return problems


def check_penalised_choice(forest, points, responses, box, tree_ids) -> list[str]:
    """robust-auto-d1: lambda* minimises the penalised Huber risk, and the
    fitted leaf values are the Huber minimisers at lambda*."""
    problems: list[str] = []
    n = points.shape[0]
    width = box[1] - box[0]
    for b in tree_ids:
        tree = forest.trees[b]
        part = tree.partition
        breakpoints = [0.0] + [t for t in mf.split_times(part) if t <= part.horizon]
        if tree.lam not in breakpoints:
            problems.append(f"tree {b}: lambda* is not a breakpoint")
            continue
        totals = []
        for t in breakpoints:
            cells = mf.leaves_at(part, t)
            ids = _ids_or_problem(points, cells, f"tree {b} at {t:.4g}", problems)
            if ids is None:
                return problems
            values, losses = huber_leaf_fit(ids, responses, len(cells), box)
            totals.append(float(losses.sum()) / n + AUTO_ALPHA * t)
            if t == tree.lam:
                star_ids, star_values = ids, values
        excess = totals[breakpoints.index(tree.lam)] - min(totals)
        if excess > PENALTY_TOL:
            problems.append(f"tree {b}: penalised risk at lambda* exceeds the minimum by {excess:.3g}")
        fitted = np.asarray(tree.leaf_values)
        if fitted.shape != star_values.shape:
            problems.append(f"tree {b}: {fitted.shape[0]} leaf values for {star_values.shape[0]} leaves")
            continue
        off = np.abs(fitted - star_values) > SOLVER_TOL * width
        for k in np.flatnonzero(off):
            # a flat stretch of the objective: any point of it minimises
            ys = responses[star_ids == k]
            at_fit, at_ref = huber(fitted[k] - ys).sum(), huber(star_values[k] - ys).sum()
            if at_fit > at_ref + EXACT_TOL * max(1.0, at_ref):
                problems.append(f"tree {b} leaf {k}: value {fitted[k]!r} is not the Huber "
                                f"minimiser {star_values[k]!r}")
    return problems


def density_objective(heights, counts, vols, n: int) -> float:
    """-(1/n) sum_j c_j n_j + ln sum_j vol_j exp(c_j)."""
    h = np.asarray(heights, dtype=float)
    shift = h.max()
    return float(-np.dot(h, counts) / n + shift + math.log(np.dot(vols, np.exp(h - shift))))


def density_reference_minimum(counts, vols, n: int, box) -> float:
    """Box-constrained minimum of the density objective by L-BFGS-B, best of four starts."""
    counts = np.asarray(counts, dtype=float)

    def objective(c):
        w = vols * np.exp(c - c.max())
        return density_objective(c, counts, vols, n), -counts / n + w / w.sum()

    k = counts.shape[0]
    lo, hi = box
    starts = [np.zeros(k), np.full(k, lo), np.full(k, hi),
              np.clip(np.log((counts + 0.5) / (n * vols)), lo, hi)]
    best = math.inf
    for start in starts:
        res = minimize(objective, start, jac=True, method="L-BFGS-B", bounds=[box] * k,
                       options={"ftol": 1e-16, "gtol": 1e-13, "maxiter": 10_000})
        best = min(best, float(res.fun))
    return best


def check_density_values(batch_values) -> list[str]:
    v = np.asarray(batch_values)
    if not np.all(np.isfinite(v) & (v > 0.0)):
        return ["density is not finite and positive at every query point"]
    return []


def check_density_integral(model, eval_batch) -> list[str]:
    """The density integrates to 1: sum of width x value over the overlay of all leaf edges."""
    edges = {0.0, 1.0}
    for tree in model.trees:
        for cell in mf.leaves_at(tree.partition, tree.lam):
            edges.update((cell.lo[0], cell.hi[0]))
    edges = np.array(sorted(edges))
    mids = 0.5 * (edges[:-1] + edges[1:])
    integral = float(np.dot(np.diff(edges), eval_batch(model, mids.reshape(-1, 1))))
    if not abs(integral - 1.0) <= INTEGRAL_TOL:
        return [f"density integrates to {integral!r}, not 1"]
    return []


def check_density_trees(model, points, box, tree_ids) -> list[str]:
    """Heights spread within the box width and minimise the penalised likelihood."""
    problems: list[str] = []
    n = points.shape[0]
    for b in tree_ids:
        tree = model.trees[b]
        h = np.asarray(tree.heights, dtype=float)
        if h.max() - h.min() > box[1] - box[0] + EXACT_TOL:
            problems.append(f"tree {b}: heights spread {h.max() - h.min():.6g} exceeds the box width")
        cells = mf.leaves_at(tree.partition, tree.lam)
        ids = _ids_or_problem(points, cells, f"tree {b}", problems)
        if ids is None:
            continue
        if h.shape[0] != len(cells):
            problems.append(f"tree {b}: {h.shape[0]} heights for {len(cells)} leaves")
            continue
        counts = np.bincount(ids, minlength=len(cells))
        vols = np.array([np.prod(np.subtract(c.hi, c.lo)) for c in cells])
        gap = density_objective(h, counts, vols, n) - density_reference_minimum(counts, vols, n, box)
        if abs(gap) > DENSITY_OBJECTIVE_TOL:
            problems.append(f"tree {b}: objective differs from the box-constrained minimum by {gap:.3g}")
    return problems


def check_density_fit(model, fresh, eval_batch) -> list[str]:
    """On new draws the mean log-density beats the uniform density's 0."""
    mean_log = float(np.mean(np.log(eval_batch(model, fresh))))
    if not mean_log > 0.0:
        return [f"mean log-density {mean_log:.4g} on new draws is not above 0"]
    return []
