"""Per-leaf box-constrained scalar risk minimization.

Each leaf solves ``argmin_{z in box} sum_i loss(z, y_i)``. Families with a
known minimizer use it directly (projected onto the box, which is valid
because every loss here is convex in ``z``); the rest go through a golden
section search, which convexity makes reliable. Empty leaves get the value
0, or the box endpoint nearest 0 when the box excludes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import InputError, NumericError, ValueBox, clamp
from .losses import LossSpec, check_values, loss_eval, loss_values, validate_responses

CLOSED_FORM = "closed_form"
SOLVER = "solver"
EMPTY_DEFAULT = "empty_default"

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_min(f: Callable[[float], float], box: ValueBox,
                       tol_x: float | None = None, max_iter: int = 200) -> float:
    """Minimize a convex scalar function over a closed interval.

    Returns a point whose objective value is best among all evaluations,
    bracketing the minimizer to within ``tol_x`` (default 1e-10 of the box
    width). Flat stretches are fine: some point of the minimizing set is
    returned. Non-finite objective values raise :class:`NumericError`.
    """
    lo, hi = box.lo, box.hi
    if tol_x is None:
        tol_x = 1e-10 * box.width
    if not tol_x > 0.0:
        raise InputError("tol_x must be > 0")
    if max_iter < 1:
        raise InputError("max_iter must be >= 1")

    def ev(z: float) -> float:
        val = float(f(z))
        if not math.isfinite(val):
            raise NumericError(f"objective evaluated to {val} at z={z}")
        return val

    best_z, best_f = lo, ev(lo)
    f_hi = ev(hi)
    if f_hi < best_f:
        best_z, best_f = hi, f_hi

    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = ev(c), ev(d)
    for _ in range(max_iter):
        if fc < best_f:
            best_z, best_f = c, fc
        if fd < best_f:
            best_z, best_f = d, fd
        if b - a <= tol_x:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = ev(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = ev(d)
    mid = 0.5 * (a + b)
    fm = ev(mid)
    if fm < best_f:
        best_z, best_f = mid, fm
    return best_z


@dataclass(frozen=True)
class LeafFitResult:
    value: float
    achieved_loss: float
    method: str


def _counts_pm(ys: np.ndarray) -> tuple[int, int]:
    return int(np.sum(ys > 0)), int(np.sum(ys < 0))


def _closed_form(spec: LossSpec, ys: np.ndarray, box: ValueBox) -> float | None:
    fam = spec.family
    if fam in ("squared", "gaussian", "phi1"):
        return box.clip(float(np.mean(ys)))
    if fam == "pinball":
        k = math.ceil(spec.tau * ys.size)  # lower-interpolation order statistic
        k = max(k, 1)
        return box.clip(float(np.sort(ys)[k - 1]))
    if fam == "poisson":
        mean = float(np.mean(ys))
        return box.lo if mean <= 0.0 else box.clip(math.log(mean))
    if fam in ("phi5", "phi6"):
        n_pos, n_neg = _counts_pm(ys)
        if n_neg == 0:
            return box.hi
        if n_pos == 0:
            return box.lo
        scale = 1.0 if fam == "phi5" else 0.5
        return box.clip(scale * math.log(n_pos / n_neg))
    return None


def fit_leaf(spec: LossSpec, ys, box: ValueBox) -> LeafFitResult:
    """Fit one leaf's constant over ``box`` for responses ``ys``.

    An empty leaf yields the default value 0 (projected into the box) and
    zero achieved loss.
    """
    arr = np.asarray(ys, dtype=float).reshape(-1)
    if arr.size == 0:
        return LeafFitResult(value=box.clip(0.0), achieved_loss=0.0,
                             method=EMPTY_DEFAULT)
    arr = validate_responses(spec, arr)

    if spec.family == "density":
        # pseudo-loss -v is linear: the box's upper edge always minimizes
        value = box.hi
        method = CLOSED_FORM
    else:
        value = _closed_form(spec, arr, box)
        method = CLOSED_FORM
        if value is None:
            # value domains are intervals: the box's ends stand for every z
            check_values(spec, np.array([box.lo, box.hi]))
            value = golden_section_min(
                lambda z: float(np.sum(loss_values(spec, z, arr))), box)
            method = SOLVER
    achieved = float(np.sum(loss_eval(spec, value, arr)))
    if not math.isfinite(achieved):
        raise NumericError("leaf fit achieved a non-finite loss")
    return LeafFitResult(value=float(value), achieved_loss=achieved, method=method)
