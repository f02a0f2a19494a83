"""Workload definitions and their seeded inputs.

Every input is drawn here with numpy from the run's seed; the program only
ever sees the CSV file written from it and the query arrays passed to its
public API.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "forest" or "density"
    n: int
    dimension: int
    trees: int
    cli_args: tuple[str, ...]  # the fit command and its model flags
    batch_points: int
    point_queries: int
    loads_per_round: int
    batches_per_round: int
    fresh_points: int = 0  # density only: new draws from the true density

    def fit_argv(self, data_csv: str, model_path: str) -> list[str]:
        # The forest seed stays at the CLI default 0: every run samples the
        # same partitions, so the work does not change with --seed, which
        # draws the data and the queries.
        return [*self.cli_args, "--trees", str(self.trees),
                "--input", data_csv, "--out", model_path]

    @property
    def ops_per_round(self) -> int:
        """The set-up, the fit, the loads, the batch queries and the point queries."""
        return 2 + self.loads_per_round + self.batches_per_round + self.point_queries


HUBER_DELTA = 0.5
AUTO_ALPHA = 5e-4
AUTO_LAMBDA_MAX = 100.0

WORKLOADS = {
    wl.name: wl for wl in (
        Workload(
            name="regress-d2", kind="forest", n=50_000, dimension=2, trees=50,
            cli_args=("fit", "--loss", "l2", "--lambda", "10"),
            batch_points=100_000, point_queries=60,
            loads_per_round=3, batches_per_round=1),
        Workload(
            name="robust-auto-d1", kind="forest", n=4000, dimension=1, trees=10,
            cli_args=("fit", "--loss", f"huber:{HUBER_DELTA}", "--auto",
                      "--alpha", repr(AUTO_ALPHA), "--lambda-max", repr(AUTO_LAMBDA_MAX)),
            batch_points=100_000, point_queries=700,
            loads_per_round=20, batches_per_round=8),
        Workload(
            name="density-d1", kind="density", n=20_000, dimension=1, trees=25,
            cli_args=("density", "--lambda", "200"),
            batch_points=100_000, point_queries=50,
            loads_per_round=4, batches_per_round=2, fresh_points=20_000),
    )
}


def tiny(wl: Workload) -> Workload:
    """The same workload at a size that runs in a few seconds (self-test)."""
    return replace(wl, n=min(wl.n, 2000), trees=3, batch_points=500,
                   point_queries=100, loads_per_round=1, batches_per_round=1,
                   fresh_points=min(wl.fresh_points, 2000))


def additive_sine(points: np.ndarray) -> np.ndarray:
    """Mean over coordinates of sin(2 pi x_j); its variance on the cube is 1/(2d)."""
    return np.mean(np.sin(TWO_PI * points), axis=1)


def sine(points: np.ndarray) -> np.ndarray:
    return np.sin(TWO_PI * points[:, 0])


def _rejection_draws(rng: np.random.Generator, n: int) -> np.ndarray:
    """n points on [0, 1] from the density proportional to exp(sin 2 pi x)."""
    chunks, have = [], 0
    while have < n:
        proposal = rng.random((2 * (n - have) + 64, 1))
        keep = rng.random(proposal.shape[0]) < np.exp(sine(proposal) - 1.0)
        chunks.append(proposal[keep])
        have += int(keep.sum())
    return np.concatenate(chunks)[:n]


@dataclass
class Inputs:
    points: np.ndarray           # training points, (n, d)
    responses: np.ndarray | None  # training responses, (n,)
    queries: np.ndarray          # batch query points; the first rows are the point queries
    truth: np.ndarray | None     # regression target at the queries
    fresh: np.ndarray | None     # new draws from the true density


def draw_inputs(wl: Workload, seed: int) -> Inputs:
    rng = np.random.default_rng(seed)
    d = wl.dimension
    truth = fresh = responses = None
    if wl.name == "regress-d2":
        points = rng.random((wl.n, d))
        responses = additive_sine(points) + 0.3 * rng.standard_normal(wl.n)
        queries = rng.random((wl.batch_points, d))
        truth = additive_sine(queries)
    elif wl.name == "robust-auto-d1":
        points = rng.random((wl.n, d))
        # heavy-tailed noise, so Huber's linear branch is exercised
        responses = sine(points) + 0.3 * rng.standard_t(3, wl.n)
        queries = rng.random((wl.batch_points, d))
    else:
        points = _rejection_draws(rng, wl.n)
        queries = rng.random((wl.batch_points, d))
        fresh = _rejection_draws(rng, wl.fresh_points)
    return Inputs(points, responses, queries, truth, fresh)


def write_csv(path, points: np.ndarray, responses: np.ndarray | None) -> None:
    """Write ``x1,...,xd[,y]`` rows with shortest round-trip float text."""
    cols = [points[:, j].tolist() for j in range(points.shape[1])]
    header = [f"x{j + 1}" for j in range(points.shape[1])]
    if responses is not None:
        cols.append(responses.tolist())
        header.append("y")
    rows = (",".join(map(repr, row)) for row in zip(*cols))
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join(header) + "\n")
        fh.write("\n".join(rows) + "\n")


def default_box(wl: Workload) -> tuple[float, float]:
    """The documented default value box for the workload's loss at its n.

    Squared and Huber losses use +-ln n, the density pseudo-loss
    +-max(1, ln ln n).
    """
    ln_n = math.log(wl.n)
    b = max(1.0, math.log(ln_n)) if wl.kind == "density" else ln_n
    return -b, b
