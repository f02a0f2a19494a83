"""Seeded synthetic data with known smooth targets and ground truth.

Targets are smooth functions on [0,1]^d with hand-computable Hölder
exponents and sup-norm bounds, so convergence experiments can measure true
excess risk instead of holdout proxies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Dataset, InputError, as_points

TWO_PI = 2.0 * math.pi

TASKS = ("gaussian", "quantile", "poisson", "bernoulli", "classify",
         "geometric", "density")

TARGET_KINDS = ("sine", "additive_sine", "sqrt_bump", "constant")


@dataclass(frozen=True)
class TargetFunction:
    """A named smooth target ``m(x) = offset + amplitude * base(x)``.

    kinds: ``sine`` = sin(2 pi x_1); ``additive_sine`` = mean_j sin(2 pi x_j);
    ``sqrt_bump`` = sqrt(|x_1 - 1/2|) (Hölder exponent 1/2); ``constant`` = 1.
    """

    kind: str
    amplitude: float = 0.5
    offset: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in TARGET_KINDS:
            raise InputError(f"unknown target kind {self.kind!r}")
        if not (np.isfinite(self.amplitude) and np.isfinite(self.offset)):
            raise InputError("target parameters must be finite")

    @property
    def smoothness(self) -> float:
        """Hölder exponent p of the target class."""
        return 0.5 if self.kind == "sqrt_bump" else 1.0

    @property
    def holder_radius(self) -> float:
        """A constant C with sup|m| <= C and |m(x)-m(y)| <= C ||x-y||^p."""
        a, c = abs(self.amplitude), abs(self.offset)
        if self.kind in ("sine", "additive_sine"):
            return max(TWO_PI * a, c + a)
        if self.kind == "sqrt_bump":
            return max(a, c + a * math.sqrt(0.5))
        return max(abs(self.offset + self.amplitude), 1e-12)

    def range(self) -> tuple[float, float]:
        """Exact (min, max) of m over [0,1]^d."""
        if self.kind == "constant":
            value = self.offset + self.amplitude
            return (value, value)
        if self.kind == "sqrt_bump":
            ends = (self.offset, self.offset + self.amplitude * math.sqrt(0.5))
        else:
            ends = (self.offset - abs(self.amplitude),
                    self.offset + abs(self.amplitude))
        return (min(ends), max(ends))

    def __call__(self, xs) -> np.ndarray:
        points = as_points(xs)
        if self.kind == "sine":
            base = np.sin(TWO_PI * points[:, 0])
        elif self.kind == "additive_sine":
            base = np.mean(np.sin(TWO_PI * points), axis=1)
        elif self.kind == "sqrt_bump":
            base = np.sqrt(np.abs(points[:, 0] - 0.5))
        else:
            base = np.ones(points.shape[0])
        return self.offset + self.amplitude * base


def _check_admissible(task: str, target: TargetFunction) -> None:
    lo, hi = target.range()
    if task in ("bernoulli", "classify"):
        if lo <= -0.5 or hi >= 0.5:
            raise InputError(
                f"target range [{lo}, {hi}] not inside (-1/2, 1/2) for {task}")
    elif task == "geometric":
        if hi >= 0.0:
            raise InputError(f"geometric task requires a negative target, max is {hi}")


def generate(task: str, target: TargetFunction, n: int, dimension: int,
             seed, sigma: float = 0.3) -> Dataset:
    """Draw X uniform on [0,1]^``dimension`` and Y from the task's model.

    ``sigma`` is the noise scale for the gaussian and quantile tasks and is
    ignored elsewhere. The density task returns points only, sampled by
    rejection from the density proportional to exp(m).
    """
    if task not in TASKS:
        raise InputError(f"unknown task {task!r}")
    if n < 0 or dimension < 1:
        raise InputError("need n >= 0 and dimension >= 1")
    if not (np.isfinite(sigma) and sigma >= 0.0):
        raise InputError("sigma must be finite and >= 0")
    _check_admissible(task, target)
    rng = np.random.default_rng(seed)

    if task == "density":
        points = _rejection_sample(target, n, dimension, rng)
        return Dataset(points=points)

    points = rng.random((n, dimension))
    m = target(points) if n else np.empty(0)
    if task in ("gaussian", "quantile"):
        ys = m + sigma * rng.standard_normal(n)
    elif task == "poisson":
        ys = rng.poisson(np.exp(m)).astype(float)
    elif task == "bernoulli":
        ys = (rng.random(n) < 0.5 + m).astype(float)
    elif task == "classify":
        ys = np.where(rng.random(n) < 0.5 + m, 1.0, -1.0)
    else:  # geometric: success probability 1 - e^m, support {1, 2, ...}
        ys = rng.geometric(1.0 - np.exp(m)).astype(float) if n else np.empty(0)
    return Dataset(points=points, responses=ys)


def _rejection_sample(target: TargetFunction, n: int, dimension: int,
                      rng: np.random.Generator) -> np.ndarray:
    _, hi = target.range()
    accepted: list[np.ndarray] = []
    have = 0
    while have < n:
        batch = max(2 * (n - have), 256)
        proposal = rng.random((batch, dimension))
        keep = rng.random(batch) < np.exp(target(proposal) - hi)
        chunk = proposal[keep]
        accepted.append(chunk)
        have += chunk.shape[0]
    return np.concatenate(accepted, axis=0)[:n] if accepted else np.empty((0, dimension))


def conditional_probability(target: TargetFunction, xs) -> np.ndarray:
    """eta(x) = P(Y=+1 | x) = 1/2 + m(x) for the classification tasks."""
    eta = 0.5 + target(xs)
    if np.any(eta <= 0.0) or np.any(eta >= 1.0):
        raise InputError("target range is inadmissible for classification")
    return eta


def classification_error(decisions, target: TargetFunction, xs) -> float:
    """Exact conditional 0-1 risk of {-1,+1} decisions averaged over ``xs``."""
    dec = np.asarray(decisions)
    eta = conditional_probability(target, xs)
    if dec.shape != eta.shape:
        raise InputError("decisions and grid have mismatched lengths")
    return float(np.mean(np.where(dec > 0, 1.0 - eta, eta)))


def bayes_error(target: TargetFunction, xs) -> float:
    """Monte-Carlo 0-1 risk of the Bayes rule over ``xs``."""
    eta = conditional_probability(target, xs)
    return float(np.mean(np.minimum(eta, 1.0 - eta)))


def true_excess_risk(task: str, predictions, xs, target: TargetFunction,
                     tau: float | None = None, sigma: float = 1.0) -> float:
    """Ground-truth error of predictions on a test grid (use >= 10^4 points).

    Regression-style tasks report the mean squared distance to the target
    (for the quantile task, to the true conditional quantile
    ``m + sigma * q_tau``). The classification task reports the excess 0-1
    risk of the sign decision over the Bayes rule.
    """
    preds = np.asarray(predictions, dtype=float).reshape(-1)
    points = as_points(xs)
    if preds.shape[0] != points.shape[0]:
        raise InputError("predictions and grid have mismatched lengths")
    if task not in TASKS or task == "density":
        raise InputError(f"no excess-risk ground truth for task {task!r}")
    if task == "classify":
        decisions = np.where(preds > 0.0, 1, -1)
        return classification_error(decisions, target, points) - bayes_error(target, points)
    truth = target(points)
    if task == "quantile":
        if tau is None:
            raise InputError("quantile task requires tau")
        from scipy.stats import norm  # slow to import; only quantile truth needs it
        truth = truth + sigma * float(norm.ppf(tau))
    return float(np.mean((preds - truth) ** 2))
