"""The benchmark's rounds, metrics and trace; started by run.py."""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import mondrian_forest as mf
from mondrian_forest import cli

import checks
from reference import Reference, timed
from tracing import Tracer, layer_metrics
from workloads import WORKLOADS, Inputs, Workload, default_box, draw_inputs, tiny, write_csv

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = BENCH / "runs"
CLI_START_REPEATS = 3
SAMPLED_TREES = 3
SAMPLED_QUERIES = 64
# enough point queries for a 90th percentile with 10 samples beyond it
MIN_POINT_SAMPLES = 100
# The reference that each timed operation is scaled by, and its walks on
# each side of the operation, which take 3-10 % of the operation's time on
# regress-d2 (see reference.py).
POINT_WALK = Reference(points=1, nominal_s=0.001)
BATCH_WALK = Reference(points=20_000, nominal_s=0.003)
WALKS = {"setup": (POINT_WALK, 20), "load": (POINT_WALK, 20),
         "batch": (BATCH_WALK, 20), "point": (POINT_WALK, 2)}

API = {
    "forest": ("load_forest", "predict_batch", "predict"),
    "density": ("load_density_model", "density_eval_batch", "density_eval"),
}
clock = time.perf_counter


@dataclass
class Samples:
    """Times at reference speed by operation, and the wall times beside them."""
    scaled: dict[str, list[float]] = field(default_factory=dict)
    wall: dict[str, list[float]] = field(default_factory=dict)
    rss_mb: list[float] = field(default_factory=list)

    def add(self, op: str, wall: float, slowdown: float) -> None:
        self.wall.setdefault(op, []).append(wall)
        self.scaled.setdefault(op, []).append(wall / slowdown)

    def time(self, op: str, fn, *args):
        """Call ``fn(*args)`` as a timed ``op`` and return its value."""
        value, wall, slowdown = timed(*WALKS[op], fn, *args)
        self.add(op, wall, slowdown)
        return value


@dataclass
class Outputs:
    model: object
    batch_values: np.ndarray
    point_values: list[float]


def query_round(wl: Workload, model_path: Path, inputs: Inputs, samples: Samples) -> Outputs:
    """Load the model, score the batch query set and score single points one by one.

    The three are interleaved in steps, so that each kind of sample is
    spread over the round rather than bunched in one stretch of time. A
    full collection before each load and batch starts them from the same
    heap, so whether the collector runs inside them does not depend on
    what came before.
    """
    # looked up on every round, so the tracer's wrappers are used when installed
    load, batch, point = (getattr(mf, name) for name in API[wl.kind])
    steps = max(wl.loads_per_round, wl.batches_per_round)
    points = np.array_split(inputs.queries[:wl.point_queries], steps)
    point_values = []
    for step in range(steps):
        if step < wl.loads_per_round:
            model = None  # free the previous copy before the next load
            gc.collect()
            model = samples.time("load", load, model_path)
        if step < wl.batches_per_round:
            gc.collect()
            batch_values = samples.time("batch", batch, model, inputs.queries)
        for x in points[step]:
            point_values.append(samples.time("point", point, model, x))
    return Outputs(model, batch_values, point_values)


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def upper_percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``share`` of samples at or below it."""
    ordered = sorted(values)
    return ordered[max(math.ceil(share * len(ordered)) - 1, 0)]


def run_checks(wl: Workload, inputs: Inputs, out: Outputs, seed: int) -> list[str]:
    rng = np.random.default_rng([seed, 1])
    tree_ids = sorted(rng.choice(wl.trees, size=min(SAMPLED_TREES, wl.trees), replace=False))
    box = default_box(wl)
    problems = checks.check_points_match_batch(out.point_values, out.batch_values)
    if wl.name == "regress-d2":
        query_ids = rng.choice(inputs.queries.shape[0], size=SAMPLED_QUERIES, replace=False)
        problems += checks.check_leaf_means(out.model, inputs.points, inputs.responses, box, tree_ids)
        problems += checks.check_tree_average(out.model, inputs.queries, out.batch_values, query_ids)
        problems += checks.check_regression_error(out.batch_values, inputs.truth, wl.dimension)
    elif wl.name == "robust-auto-d1":
        problems += checks.check_lambda_star_candidates(out.model)
        problems += checks.check_penalised_choice(out.model, inputs.points, inputs.responses,
                                                  box, tree_ids)
    else:
        problems += checks.check_density_values(out.batch_values)
        problems += checks.check_density_integral(out.model, mf.density_eval_batch)
        problems += checks.check_density_trees(out.model, inputs.points, box, tree_ids)
        problems += checks.check_density_fit(out.model, inputs.fresh, mf.density_eval_batch)
    return problems


class Run:
    """One benchmark run: counts operations and collects problems."""

    def __init__(self, wl: Workload, seed: int, seconds: float, work: Path, spawner):
        self.wl, self.seed, self.seconds, self.work = wl, seed, seconds, work
        self.spawner = spawner
        self.data_csv = work / "data.csv"
        self.model_path = work / "model.txt"
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.digests: set[str] = set()
        self.inputs: Inputs | None = None
        self.last: Outputs | None = None

    def setup(self) -> None:
        """Draw the inputs and write the dataset CSV; every round does it again."""
        self.inputs = draw_inputs(self.wl, self.seed)
        write_csv(self.data_csv, self.inputs.points, self.inputs.responses)

    def fit_argv(self) -> list[str]:
        return self.wl.fit_argv(str(self.data_csv), str(self.model_path))

    def attempt(self, round_fn) -> None:
        """Run one whole round; a round that raises counts all its operations as failed."""
        self.attempted += self.wl.ops_per_round
        self.last = None  # a round starts without the previous round's model
        try:
            self.last = round_fn()
            self.digests.add(digest(self.model_path))
        except Exception:  # a failing operation is counted, and the run goes on
            self.failed += self.wl.ops_per_round
            traceback.print_exc(file=sys.stderr)

    def rounds(self, round_fn) -> None:
        deadline = clock() + self.seconds
        done = 0
        while done * self.wl.point_queries < MIN_POINT_SAMPLES or clock() < deadline:
            self.attempt(round_fn)
            done += 1

    def finish(self) -> None:
        if len(self.digests) > 1:
            self.problems.append("the model file differs between rounds of one seed")
        if self.last is None:
            self.problems.append("no round completed")
        else:
            self.problems += run_checks(self.wl, self.inputs, self.last, self.seed)


def timed_run(run: Run) -> dict[str, float]:
    samples = Samples()

    def fit() -> None:
        """Run the CLI fit, walking once every 20 ms on the same CPU meanwhile.

        Walks around a fit of seconds say little about the host's speed
        during it, so the walks are taken while the child runs, and their
        time, in which the child waits, comes off the child's wall time.
        """
        slowdowns, walking = [], []

        def walk() -> None:
            start = clock()
            slowdowns.append(POINT_WALK.slowdown(1))
            walking.append(clock() - start)

        wall, rss_mb, code = run.spawner.run(run.fit_argv(), run.work / "fit.log", idle=walk)
        if code != 0:
            log = (run.work / "fit.log").read_text(errors="replace")
            raise RuntimeError(f"fit exited with {code}: {log[-2000:]}")
        waited = sum(walking)
        if not slowdowns:  # a fit shorter than one interval
            walk()
        samples.add("fit", wall - waited, statistics.mean(slowdowns))
        samples.rss_mb.append(rss_mb)

    def round_fn() -> Outputs:
        samples.time("setup", run.setup)
        fit()
        return query_round(run.wl, run.model_path, run.inputs, samples)

    run.rounds(round_fn)
    run.finish()
    if run.last is None:
        return {}
    for op, walls in samples.wall.items():
        sys.stderr.write(f"{op}: {len(walls)} samples, median wall {statistics.median(walls):.4g} s, "
                         f"at reference speed {statistics.median(samples.scaled[op]):.4g} s\n")
    scaled = samples.scaled
    return {
        "setup_s": statistics.median(scaled["setup"]),
        "fit_s": statistics.median(scaled["fit"]),
        "fit_peak_rss_mb": statistics.median(samples.rss_mb),
        "model_bytes": run.model_path.stat().st_size,
        "load_s": statistics.median(scaled["load"]),
        "batch_query_s": statistics.median(scaled["batch"]),
        "point_query_p50_ms": 1e3 * statistics.median(scaled["point"]),
        "point_query_p90_ms": 1e3 * upper_percentile(scaled["point"], 0.9),
    }


def kept_split_share(model) -> float:
    """Splits born at or before each tree's horizon, over the splits stored."""
    stored = kept = 0
    for tree in model.trees:
        times = mf.split_times(tree.partition)
        stored += len(times)
        kept += sum(t <= tree.lam for t in times)
    return kept / stored if stored else 1.0


def traced_run(run: Run) -> dict[str, float]:
    starts = []
    for _ in range(CLI_START_REPEATS):
        wall, _, code = run.spawner.run(["--help"], run.work / "help.log")
        if code != 0:
            run.problems.append(f"`--help` exited with {code}")
        starts.append(wall)

    def in_process_round() -> Outputs:
        run.setup()
        code = cli.main(run.fit_argv())
        if code != 0:
            raise RuntimeError(f"cli.main exited with {code}")
        return query_round(run.wl, run.model_path, run.inputs, samples)

    samples = Samples()  # the traced run reports no end-to-end metric
    # untraced and traced rounds alternate, so the overhead compares like with like
    walls: dict[bool, list[float]] = {False: [], True: []}
    tracers: list[Tracer] = []

    def alternating_round() -> Outputs:
        traced = len(walls[False]) > len(walls[True])
        start = clock()
        if traced:
            with Tracer() as tracer:
                out = in_process_round()
            tracers.append(tracer)
        else:
            out = in_process_round()
        walls[traced].append(clock() - start)
        return out

    run.rounds(alternating_round)
    if not tracers:
        run.attempt(alternating_round)
    run.finish()
    if not tracers:
        return {}
    per_round = [layer_metrics(tracer) for tracer in tracers]
    metrics = {}
    for name, first in per_round[0].items():
        values = [m[name] for m in per_round]
        if name.endswith("_s"):
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = first
            if any(v != first for v in values):
                run.problems.append(f"{name} differs between traced rounds: {values}")
    metrics["cli.start_s"] = statistics.median(starts)
    metrics["selection.kept_split_share"] = kept_split_share(run.last.model)

    traced_s, untraced_s = statistics.median(walls[True]), statistics.median(walls[False])
    overhead = traced_s / untraced_s - 1.0
    sys.stderr.write(f"tracing overhead: {overhead:+.1%} "
                     f"({traced_s:.3f} s traced, {untraced_s:.3f} s untraced)\n")
    trace = {
        "workload": run.wl.name, "seed": run.seed,
        "untraced_round_s": walls[False], "traced_round_s": walls[True],
        "overhead_share": overhead,
        "rounds": [{"metrics": m, "spans": t.spans} for m, t in zip(per_round, tracers)],
    }
    RUNS.mkdir(exist_ok=True)
    with open(RUNS / f"trace-{run.wl.name}-s{run.seed}.json", "w", encoding="ascii") as fh:
        json.dump(trace, fh)
    return metrics


def main(args, spawner) -> int:
    """Run one workload as ``args`` asks and print its result line; 0 if correct."""
    if args.workload not in WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    wl = WORKLOADS[args.workload]
    if args.tiny:
        wl = tiny(wl)

    work = RUNS / f"{wl.name}-s{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        run = Run(wl, args.seed, args.seconds, work, spawner)
        metrics = (traced_run if args.trace else timed_run)(run)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if metrics and set(metrics) != set(units):
        run.problems.append(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")
    for problem in run.problems:
        sys.stderr.write(f"check failed: {problem}\n")
    correct = not run.problems
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }
    print(json.dumps(result))
    return 0 if correct else 1
