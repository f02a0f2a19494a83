"""Convex per-observation losses and their default value boxes.

Every family exposes the same contract: ``loss_eval(spec, v, y)`` evaluates
the loss at a candidate leaf value ``v`` against a response ``y``, and is
convex in ``v`` on the admissible value range. Margin-based classification
families evaluate a cost ``phi_k(-y*v)`` with labels in {-1,+1};
exponential-family losses are negative log-likelihoods ``-B(v)*y + D(v)``
in a natural-parameter-like coordinate ``v``.

``default_value_box(spec, n)`` returns the sample-size-dependent constraint
interval for fitted leaf values. The widths follow per-family growth rates
(``ln n``, ``ln ln n``, ``sqrt(ln ln n)``) with unit constants, floored so
the boxes stay non-degenerate at small ``n``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import InputError, NumericError, ValueBox

LN2 = math.log(2.0)

REGRESSION_FAMILIES = ("squared", "pinball", "huber")
EXPFAMILY_FAMILIES = ("gaussian", "poisson", "bernoulli", "geometric")
SURROGATE_FAMILIES = ("phi1", "phi2", "phi3", "phi4", "phi5", "phi6")
SUPERVISED_FAMILIES = REGRESSION_FAMILIES + EXPFAMILY_FAMILIES + SURROGATE_FAMILIES
ALL_FAMILIES = SUPERVISED_FAMILIES + ("density",)


@dataclass(frozen=True)
class LossSpec:
    """A loss family plus its parameters.

    Values are checked against the family's natural domain: open
    (-1/2, 1/2) for the shifted Bernoulli, negative reals for the
    geometric, all reals otherwise.
    """

    family: str
    tau: float | None = None
    delta: float | None = None

    def __post_init__(self) -> None:
        if self.family not in ALL_FAMILIES:
            raise InputError(f"unknown loss family {self.family!r}")
        if self.family == "pinball":
            if self.tau is None or not (0.0 < self.tau < 1.0):
                raise InputError("pinball requires tau strictly in (0,1)")
            object.__setattr__(self, "tau", float(self.tau))
        elif self.tau is not None:
            raise InputError(f"tau is only valid for the pinball family")
        if self.family == "huber":
            if self.delta is None or not (np.isfinite(self.delta) and self.delta > 0.0):
                raise InputError("huber requires delta > 0")
            object.__setattr__(self, "delta", float(self.delta))
        elif self.delta is not None:
            raise InputError(f"delta is only valid for the huber family")


def is_surrogate(spec: LossSpec) -> bool:
    return spec.family in SURROGATE_FAMILIES


def validate_responses(spec: LossSpec, ys) -> np.ndarray:
    """Check that responses are admissible for the family; return as floats."""
    arr = np.atleast_1d(np.asarray(ys, dtype=float))
    if arr.ndim != 1:
        raise InputError("responses must be one-dimensional")
    if not np.all(np.isfinite(arr)):
        raise InputError("responses must be finite")
    fam = spec.family
    if fam == "poisson":
        if arr.size and (np.any(arr < 0) or np.any(arr != np.floor(arr))):
            raise InputError("poisson responses must be nonnegative integers")
    elif fam == "geometric":
        if arr.size and (np.any(arr < 1) or np.any(arr != np.floor(arr))):
            raise InputError("geometric responses must be integers >= 1")
    elif fam == "bernoulli":
        if arr.size and not np.all(np.isin(arr, (0.0, 1.0))):
            raise InputError("bernoulli responses must lie in {0,1}")
    elif fam in SURROGATE_FAMILIES:
        if arr.size and not np.all(np.isin(arr, (-1.0, 1.0))):
            raise InputError("classification labels must lie in {-1,+1}")
    return arr


def check_values(spec: LossSpec, v: np.ndarray) -> None:
    """Check that candidate values lie in the family's value domain."""
    if not np.all(np.isfinite(v)):
        raise InputError("loss evaluated at non-finite value")
    fam = spec.family
    if fam == "bernoulli":
        if v.size and (np.any(v <= -0.5) or np.any(v >= 0.5)):
            raise InputError("bernoulli values must lie strictly inside (-1/2, 1/2)")
    elif fam == "geometric":
        if v.size and np.any(v >= 0.0):
            raise InputError("geometric values must be strictly negative")


def _phi(k: int, u: np.ndarray) -> np.ndarray:
    """Surrogate cost at ``u = -y*v``, minus the margin."""
    if k == 1:
        return (1.0 + u) ** 2
    if k == 2:
        return np.maximum(1.0 + u, 0.0)
    if k == 3:
        return np.where(u >= 0.0, 0.5 + u,
                        np.where(u >= -1.0, 0.5 * (1.0 + u) ** 2, 0.0))
    if k == 4:
        return np.maximum(1.0 + u, 0.0) ** 2
    if k == 5:
        return np.logaddexp(0.0, u) / LN2
    if k == 6:
        return np.exp(u)
    raise InputError(f"unknown surrogate index {k}")


def loss_eval(spec: LossSpec, v, y=None):
    """Evaluate the loss at value(s) ``v`` against response(s) ``y``.

    ``v`` and ``y`` broadcast against each other; scalars in give a scalar
    back. The density pseudo-loss ignores ``y`` entirely.
    """
    v_arr = np.asarray(v, dtype=float)
    check_values(spec, np.atleast_1d(v_arr))
    fam = spec.family
    if fam == "density":
        # the pseudo-loss is -v for every observation; broadcasting against
        # y keeps per-observation sums meaningful for the other callers
        if y is None:
            out = -v_arr
            return float(out) if np.isscalar(v) or v_arr.ndim == 0 else out
        y_arr = np.asarray(y, dtype=float)
        shape = np.broadcast_shapes(v_arr.shape, y_arr.shape)
        out = np.broadcast_to(-v_arr, shape)
        if (np.isscalar(v) or v_arr.ndim == 0) and (np.isscalar(y) or y_arr.ndim == 0):
            return float(out)
        return out.copy()
    if y is None:
        raise InputError(f"family {fam!r} requires a response")
    y_arr = np.asarray(y, dtype=float)
    validate_responses(spec, np.atleast_1d(y_arr))
    out = loss_values(spec, v_arr, y_arr)
    if not np.all(np.isfinite(np.atleast_1d(out))):
        raise NumericError(f"{fam} loss evaluated to a non-finite value")
    if (np.isscalar(v) or v_arr.ndim == 0) and (np.isscalar(y) or y_arr.ndim == 0):
        return float(out)
    return out


def loss_values(spec: LossSpec, v, y: np.ndarray) -> np.ndarray:
    """The loss of a supervised family with no checks; :func:`loss_eval` checks."""
    fam = spec.family
    # overflow here is deliberate: non-finite results become NumericError
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if fam == "squared":
            return (v - y) ** 2
        if fam == "pinball":
            u = y - v
            return (spec.tau - (u < 0.0)) * u
        if fam == "huber":
            r = np.abs(v - y)
            # written into one array: a grouped fit evaluates n x depth points
            out = np.asarray(spec.delta * (r - 0.5 * spec.delta))
            np.copyto(out, 0.5 * r**2, where=r <= spec.delta)
            return out
        if fam == "gaussian":
            return -v * y + 0.5 * v**2
        if fam == "poisson":
            return -v * y + np.exp(v)
        if fam == "bernoulli":
            b = np.log(0.5 + v) - np.log(0.5 - v)
            d = -np.log(0.5 - v)
            return -b * y + d
        if fam == "geometric":
            return -v * y - np.log(np.expm1(-v))
        if fam in SURROGATE_FAMILIES:
            return _phi(int(fam[3]), -y * v)
    # unreachable: families validated at construction
    raise InputError(f"unknown loss family {fam!r}")


def default_value_box(spec: LossSpec, n: int) -> ValueBox:
    """Default fitted-value box for sample size ``n`` (requires ``n >= 2``).

    Growth rates per family, with floors against degeneracy at small n:
    squared/huber/gaussian and surrogates 1-5 use ``ln n``; poisson,
    surrogate 6 and the density pseudo-loss use ``max(1, ln ln n)``; the
    shifted Bernoulli uses ``0.5 - 1/ln n``; the geometric family uses the
    asymmetric negative box ``[-max(1, ln ln n), -1/max(1, ln ln n)]``;
    pinball uses ``sqrt(max(e, ln ln n))``.
    """
    if n < 2:
        raise InputError("default value box requires n >= 2")
    ln_n = math.log(n)
    lnln_n = math.log(ln_n) if ln_n > 0 else -math.inf
    fam = spec.family
    if fam in ("squared", "huber", "gaussian", "phi1", "phi2", "phi3", "phi4", "phi5"):
        return ValueBox(-ln_n, ln_n)
    if fam in ("poisson", "phi6", "density"):
        b = max(1.0, lnln_n)
        return ValueBox(-b, b)
    if fam == "bernoulli":
        b = max(0.5 - 1.0 / ln_n, 0.125)
        return ValueBox(-b, b)
    if fam == "geometric":
        b = max(1.0, lnln_n)
        if b <= 1.0:
            # formula degenerates to [-1,-1] for n <= e^e; widen to a fixed box
            return ValueBox(-2.0, -0.5)
        return ValueBox(-b, -1.0 / b)
    if fam == "pinball":
        b = math.sqrt(max(math.e, lnln_n))
        return ValueBox(-b, b)
    raise InputError(f"unknown loss family {fam!r}")
