"""Box-constrained scalar risk minimization, for many leaves at once.

Each leaf solves ``argmin_{z in box} sum_i loss(z, y_i)``. Every loss here
is convex in ``z``, so :func:`fit_groups` takes each group's unconstrained
minimizer, clipped into the box, from one exact rule per family: per-group
sums (the mean; the Poisson log-mean; ``mean - 1/2`` for bernoulli and
``log1p(-1/mean)`` for geometric), per-group label counts (phi2 to phi6),
or sorted responses (the pinball order statistic; for Huber, the first
zero of ``sum_i clip(y_i - z, -delta, delta)``, found by a sweep over the
events ``y_i - delta`` and ``y_i + delta``). The density pseudo-loss ``-z``
takes the top of the box. Where a whole interval minimizes, the least point
of its part in the box is taken, but a phi2 to phi6 group with one label
takes the box edge on its label's side. An empty group gets 0, or the box
endpoint nearest 0 when the box excludes it.

The Huber sweep puts each group's events in one row, sorts each row and
sums along it, so its running sums restart at each group and each group's
value is that of a one-group fit, bit for bit (padding sorts last and
changes none of a group's sums). Groups whose ``2 * count`` has the same
power-of-two ceiling share blocks of about ``BLOCK`` slots; a group of
more than ``BLOCK / 4`` responses is a block of its own. The final loss
evaluation also runs ``BLOCK`` slots at a time. ``BLOCK`` is 8192 so that
each float temporary of a block is 64 KiB: below glibc's 128 KiB mmap
threshold, so the allocator reuses it instead of mapping and faulting in
fresh pages, and small enough to stay in L2.

:func:`golden_section_min` is no part of a fit: it is the generic
one-objective reference that the exact rules are checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import InputError, NumericError, ValueBox
from .losses import LossSpec, check_values, loss_values, validate_responses

CLOSED_FORM = "closed_form"
EMPTY_DEFAULT = "empty_default"

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# slots per block of the Huber sweep (see the module docstring)
BLOCK = 8192


def golden_section_min(f: Callable, box: ValueBox, tol_x: float | None = None,
                       max_iter: int = 200) -> float:
    """Minimize a convex scalar function over a closed interval.

    Returns a point whose objective value is best among all evaluations,
    bracketing the minimizer to within ``tol_x`` (default 1e-10 of the box
    width). Flat stretches are fine: some point of the minimizing set is
    returned. Non-finite objective values raise :class:`NumericError`.
    """
    if tol_x is None:
        tol_x = 1e-10 * box.width
    if not tol_x > 0.0:
        raise InputError("tol_x must be > 0")
    if max_iter < 1:
        raise InputError("max_iter must be >= 1")

    evals: list[tuple[float, float]] = []

    def ev(z: float) -> float:
        fz = float(f(z))
        if not math.isfinite(fz):
            raise NumericError(f"objective evaluated to {fz} at z={z}")
        evals.append((fz, z))
        return fz

    a, b = box.lo, box.hi
    ev(a)
    ev(b)
    c, d = b - GOLDEN * (b - a), a + GOLDEN * (b - a)
    fc, fd = ev(c), ev(d)
    for _ in range(max_iter):
        if b - a <= tol_x:
            break
        if fc < fd:  # the minimizer lies below d: keep [a, d]
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = ev(c)
        else:  # keep [c, b]
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = ev(d)
    ev(0.5 * (a + b))
    return min(evals, key=lambda e: e[0])[1]  # the first of the best


def _huber_sweep(ys: np.ndarray, first: np.ndarray, counts: np.ndarray,
                 delta: float) -> np.ndarray:
    """The first zero of ``sum_i clip(y_i - z, -delta, delta)`` for the
    groups in one row each: ``counts`` responses from ``first`` on.

    A response is pending (slope ``+delta``) below ``y - delta``, active
    (``y - z``) up to ``y + delta`` and done (``-delta``) above, so between
    events the slope is ``delta (pending - done) + sum(active y) - active z``.
    It is tested at the first event of each run of equal times, with the
    sums of every earlier event; the zero lies in the segment before the
    first event where it is <= 0, where it is linear.
    """
    c = counts[:, None]
    j = np.arange(2 * int(counts.max()))
    # slot j < c enters at y - delta, c <= j < 2c leaves at y + delta, later slots pad
    kind = np.where(j < c, 1.0, np.where(j < 2 * c, -1.0, 0.0))
    y = ys[first[:, None] + j % c]
    order = np.argsort(np.where(kind == 0.0, np.inf, y - kind * delta), axis=1, kind="stable")
    kind = np.take_along_axis(kind, order, 1)
    y = np.take_along_axis(y, order, 1)
    times = y - kind * delta
    active = np.cumsum(kind, axis=1)
    active_sum = np.cumsum(kind * y, axis=1)
    # event j sees the j events before it: pending - done = c - j; with no
    # active response the slope is that exact integer term, whatever the
    # rounding left in active_sum, so a flat gap is hit at its start
    slope = delta * (c - j[1:]) + np.where(
        active[:, :-1] == 0.0, 0.0, active_sum[:, :-1] - active[:, :-1] * times[:, 1:])
    hit = (slope <= 0.0) & (times[:, 1:] > times[:, :-1])
    rows = np.arange(counts.size)
    hit[rows, 2 * counts - 2] = True  # -delta * count at the last event, whatever the rounding
    k = np.argmax(hit, axis=1)  # the segment [times[k], times[k + 1]]
    start, stop, m = times[rows, k], times[rows, k + 1], active[rows, k]
    root = (delta * (counts - 1 - k) + active_sum[rows, k]) / m
    # no active response: the slope is flat, and zero from the segment's start
    return np.where(m > 0.0, np.minimum(np.maximum(root, start), stop), start)


def _huber_values(ys: np.ndarray, first: np.ndarray, counts: np.ndarray,
                  delta: float) -> np.ndarray:
    """:func:`_huber_sweep` over the groups whose ``2 * count`` has the
    same power-of-two ceiling, ``BLOCK`` slots (or one group) at a time."""
    out = np.empty(counts.size)
    width_exponents = np.frexp(2 * counts - 1)[1]  # 2**e >= 2 * count
    for e in np.flatnonzero(np.bincount(width_exponents)):
        members = np.flatnonzero(width_exponents == e)
        step = max(1, BLOCK >> int(e))
        for start in range(0, members.size, step):
            rows = members[start:start + step]
            out[rows] = _huber_sweep(ys, first[rows], counts[rows], delta)
    return out


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
    # a 0 ahead of each filled group's run makes them agree, so a group's sums
    # are those of np.sum over the group alone
    runs = counts[filled] + 1
    heads = np.cumsum(runs) - runs
    first = heads - np.arange(filled.size)  # each filled group's first response
    padded = np.insert(arr, first, 0.0)

    def sums(per_slot: np.ndarray) -> np.ndarray:
        """Each group's sum of a per-slot array that holds 0 at every run head."""
        out = np.zeros(group_count)
        if filled.size:
            out[filled] = np.add.reduceat(per_slot, heads)
        return out

    fam = spec.family
    values = np.zeros(group_count)
    with np.errstate(divide="ignore", invalid="ignore"):
        if fam == "density":
            values[:] = box.hi  # -v always falls toward the top
        elif fam == "pinball":
            # lower-interpolation order statistic of each group's sorted responses
            rank = np.maximum(np.ceil(spec.tau * counts[filled]).astype(np.int64), 1)
            ids = np.repeat(filled, counts[filled])
            values[filled] = arr[np.lexsort((arr, ids))][first + rank - 1]
        elif fam == "huber":
            values[filled] = _huber_values(arr, first, counts[filled], spec.delta)
        elif fam in ("phi2", "phi3", "phi4", "phi5", "phi6"):
            n_pos, n_neg = sums((padded > 0).astype(float)), sums((padded < 0).astype(float))
            if fam == "phi2":  # hinge: a tie is flat on [-1, 1], so it takes -1
                v = np.where(n_pos > n_neg, 1.0, -1.0)
            elif fam == "phi3":  # (2p - 1) / p above p = 1/2, (2p - 1) / (1 - p) below
                v = (n_pos - n_neg) / np.maximum(n_pos, n_neg)
            elif fam == "phi4":  # 2p - 1
                v = (n_pos - n_neg) / counts
            else:  # the log-odds, scaled
                v = (1.0 if fam == "phi5" else 0.5) * np.log(n_pos / n_neg)
            values = np.where(n_neg == 0, box.hi, np.where(n_pos == 0, box.lo, v))
        else:
            mean = sums(padded) / counts
            if fam == "poisson":
                values = np.where(mean <= 0.0, box.lo, np.log(mean))
            elif fam == "bernoulli":
                values = mean - 0.5
            elif fam == "geometric":
                values = np.log1p(-1.0 / mean)  # -inf at mean 1, clipped to box.lo
            else:  # squared, gaussian, phi1
                values = mean
    values = np.clip(values, box.lo, box.hi)
    values[counts == 0] = box.clip(0.0)
    group_of_slot = np.repeat(filled, runs)
    slot_loss = np.empty(padded.size)
    for start in range(0, padded.size, BLOCK):
        block = slice(start, start + BLOCK)
        z = values[group_of_slot[block]]
        slot_loss[block] = -z if fam == "density" else loss_values(spec, z, padded[block])
    slot_loss[heads] = 0.0
    losses = sums(slot_loss)
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
    return LeafFitResult(value=float(values[0]), achieved_loss=float(losses[0]),
                         method=EMPTY_DEFAULT if arr.size == 0 else CLOSED_FORM)
