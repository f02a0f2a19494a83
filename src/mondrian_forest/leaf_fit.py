"""Box-constrained scalar risk minimization, for many leaves at once.

Each leaf solves ``argmin_{z in box} sum_i loss(z, y_i)``. :func:`fit_groups`
solves every leaf of a fit in one pass over responses that arrive grouped:
leaf by leaf, with one count per leaf. Families with a known minimizer use
it directly (projected onto the box, which is valid because every loss here
is convex in ``z``), computed from per-group sums or order statistics; the
rest go through one golden section search run for all groups at once,
which convexity makes reliable. Empty groups get the value 0, or the box
endpoint nearest 0 when the box excludes it.

The solver's objective works on one padded layout built per call: the
responses with a 0 slot ahead of each non-empty group's run, and the group
of every slot. An evaluation writes each slot's loss into one work buffer,
``BLOCK`` slots at a time, zeroes the run heads and sums every run with one
``np.add.reduceat``. ``BLOCK`` is 8192 so that each float temporary of a
block is 64 KiB: below glibc's 128 KiB mmap threshold, so the allocator
reuses it instead of mapping and faulting in fresh pages, and small
enough to stay in L2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import InputError, NumericError, ValueBox
from .losses import LossSpec, check_values, loss_values, validate_responses

CLOSED_FORM = "closed_form"
SOLVER = "solver"
EMPTY_DEFAULT = "empty_default"

SOLVER_FAMILIES = ("huber", "bernoulli", "geometric", "phi2", "phi3", "phi4")

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# slots per block of an objective evaluation (see the module docstring)
BLOCK = 8192


def golden_section_min(f: Callable, box: ValueBox, tol_x: float | None = None,
                       max_iter: int = 200, groups: int | None = None):
    """Minimize a convex scalar function over a closed interval.

    Returns a point whose objective value is best among all evaluations,
    bracketing the minimizer to within ``tol_x`` (default 1e-10 of the box
    width). Flat stretches are fine: some point of the minimizing set is
    returned. Non-finite objective values raise :class:`NumericError`.

    With ``groups=k``, ``k`` objectives are minimized at once: ``f`` maps an
    array of ``k`` candidates, one per objective, to their ``k`` values, and
    the ``k`` minimizers come back as an array. Every bracket starts as the
    box and shrinks by the factor ``GOLDEN`` each step, so all reach
    ``tol_x`` on the same step, and each objective gets the brackets and
    the result of its own one-objective search.
    """
    if tol_x is None:
        tol_x = 1e-10 * box.width
    if not tol_x > 0.0:
        raise InputError("tol_x must be > 0")
    if max_iter < 1:
        raise InputError("max_iter must be >= 1")
    one = groups is None
    objective = (lambda z: [f(float(z[0]))]) if one else f

    def ev(z: np.ndarray) -> np.ndarray:
        vals = np.asarray(objective(z), dtype=float).reshape(-1)
        if not np.isfinite(vals).all():
            bad = np.argmin(np.isfinite(vals))
            raise NumericError(f"objective evaluated to {vals[bad]} at z={z[bad]}")
        return vals

    def keep_best(z: np.ndarray, fz: np.ndarray) -> None:
        better = fz < best_f
        best_z[better], best_f[better] = z[better], fz[better]

    a = np.full(1 if one else groups, box.lo)
    b = np.full_like(a, box.hi)
    best_z, best_f = a.copy(), ev(a)
    keep_best(b, ev(b))
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = ev(c), ev(d)
    for _ in range(max_iter):
        keep_best(c, fc)
        keep_best(d, fd)
        if np.all(b - a <= tol_x):
            break
        left = fc < fd  # the minimizer lies below d: keep [a, d], else [c, b]
        a, b = np.where(left, a, c), np.where(left, d, b)
        c, d = np.where(left, b - GOLDEN * (b - a), d), np.where(left, c, a + GOLDEN * (b - a))
        fz = ev(np.where(left, c, d))
        fc, fd = np.where(left, fz, fd), np.where(left, fc, fz)
    mid = 0.5 * (a + b)
    keep_best(mid, ev(mid))
    return float(best_z[0]) if one else best_z


def fit_groups(spec: LossSpec, counts, ys, box: ValueBox) -> tuple[np.ndarray, np.ndarray]:
    """Fit one constant over ``box`` to each group of responses.

    The responses come grouped: group ``k`` holds the ``counts[k]`` entries
    of ``ys`` that follow those of groups ``0..k-1``. Counts must be
    non-negative integers summing to the number of responses. Returns every
    group's value and its summed loss at that value. A group's result
    depends only on its own responses in their order, so it is the result
    of a one-group call on them, bit for bit. An empty group gets the value
    0 projected into the box and zero loss.
    """
    arr = validate_responses(spec, np.asarray(ys, dtype=float).reshape(-1))
    counts = np.asarray(counts)
    if counts.ndim != 1 or (counts.size and counts.dtype.kind not in "iu"):
        raise InputError("fit_groups needs a one-dimensional array of integer group counts")
    if counts.size and counts.min() < 0:
        raise InputError("group counts must be non-negative")
    counts = counts.astype(np.int64)
    if int(counts.sum()) != arr.size:
        raise InputError(f"group counts sum to {int(counts.sum())}, not to the "
                         f"{arr.size} responses")
    # value domains are intervals: the box's ends stand for every z
    check_values(spec, np.array([box.lo, box.hi]))
    group_count = counts.shape[0]
    filled = np.flatnonzero(counts)
    # np.add.reduceat starts a run's sum at its first element and np.sum at 0;
    # a 0 ahead of each filled group's run makes them agree, so a group's sums,
    # and so the solver's steps, are those of np.sum over the group alone
    runs = counts[filled] + 1
    heads = np.cumsum(runs) - runs
    first = heads - np.arange(filled.size)  # each filled group's first response
    padded = np.insert(arr, first, 0.0)
    group_of_slot = np.repeat(filled, runs)
    work = np.empty(padded.size)

    def sums(per_slot: np.ndarray) -> np.ndarray:
        """Each group's sum of a per-slot array that holds 0 at every run head."""
        out = np.zeros(group_count)
        if filled.size:
            out[filled] = np.add.reduceat(per_slot, heads)
        return out

    def total_loss(z: np.ndarray) -> np.ndarray:
        for start in range(0, work.size, BLOCK):
            block = slice(start, start + BLOCK)
            z_slots = z[group_of_slot[block]]
            if spec.family == "density":
                np.negative(z_slots, out=work[block])  # the pseudo-loss -v is linear
            else:
                work[block] = loss_values(spec, z_slots, padded[block])
        work[heads] = 0.0
        return sums(work)

    fam = spec.family
    if fam in SOLVER_FAMILIES:
        values = golden_section_min(total_loss, box, groups=group_count)
    elif fam == "density":
        values = np.full(group_count, box.hi)  # -v always falls toward the top
    elif fam == "pinball":
        # lower-interpolation order statistic of each group's sorted responses
        rank = np.maximum(np.ceil(spec.tau * counts[filled]).astype(np.int64), 1)
        ids = np.repeat(filled, counts[filled])
        values = np.zeros(group_count)
        values[filled] = np.clip(arr[np.lexsort((arr, ids))][first + rank - 1], box.lo, box.hi)
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            if fam in ("squared", "gaussian", "phi1"):
                values = sums(padded) / counts
            elif fam == "poisson":
                mean = sums(padded) / counts
                values = np.where(mean <= 0.0, box.lo, np.log(mean))
            else:  # phi5, phi6: the log-odds, scaled
                n_pos, n_neg = sums((padded > 0).astype(float)), sums((padded < 0).astype(float))
                scale = 1.0 if fam == "phi5" else 0.5
                values = np.where(n_neg == 0, box.hi, np.where(
                    n_pos == 0, box.lo, scale * np.log(n_pos / n_neg)))
        values = np.clip(values, box.lo, box.hi)
    values[counts == 0] = box.clip(0.0)
    losses = total_loss(values)
    if not np.all(np.isfinite(losses)):
        raise NumericError("leaf fit achieved a non-finite loss")
    return values, losses


@dataclass(frozen=True)
class LeafFitResult:
    value: float
    achieved_loss: float
    method: str


def fit_leaf(spec: LossSpec, ys, box: ValueBox) -> LeafFitResult:
    """Fit one leaf's constant over ``box`` for responses ``ys``: the
    one-group case of :func:`fit_groups`.

    An empty leaf yields the default value 0 (projected into the box) and
    zero achieved loss.
    """
    arr = np.asarray(ys, dtype=float).reshape(-1)
    values, losses = fit_groups(spec, [arr.size], arr, box)
    method = (EMPTY_DEFAULT if arr.size == 0
              else SOLVER if spec.family in SOLVER_FAMILIES else CLOSED_FORM)
    return LeafFitResult(value=float(values[0]), achieved_loss=float(losses[0]),
                         method=method)
