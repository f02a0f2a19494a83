"""Self-test of the benchmark, run from the root of a checkout with

    python3 -m pytest bench/selftest.py

Every workload runs at a tiny size; the result lines are checked against
BENCHMARK.json, and each correctness check is shown to reject a corrupted
output. The file is named so that the repository's own test run does not
collect it.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import mondrian_forest as mf  # noqa: E402

import checks  # noqa: E402
from reference import timed  # noqa: E402
from workloads import (  # noqa: E402
    AUTO_ALPHA, AUTO_LAMBDA_MAX, HUBER_DELTA, WORKLOADS, default_box, draw_inputs, tiny)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-")


def run_bench(workload: str, trace: int, root: Path = ROOT, seed: int = 7):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=170)


def result_line(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_holds_only_the_fixed_form():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert SPEC["paths"] == ["bench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == ["regress-d2", "robust-auto-d1", "density-d1"]
    assert set(WORKLOADS) == {w["name"] for w in SPEC["workloads"]}
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and "\n" not in w["why"] and len(w["why"]) <= 200
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25 and m["better"] in ("lower", "higher")
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and m["better"] in ("lower", "higher")
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in SPEC["end_to_end"]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"] + SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(set(n) <= NAME_CHARS and len(n) <= 64 and n[0].isalnum() for n in names)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_end_to_end_result_line(workload):
    result = result_line(run_bench(workload, trace=0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_repeat_for_one_seed(workload):
    first, second = (result_line(run_bench(workload, trace=1)) for _ in range(2))
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == units
    counts = [name for name, unit in units.items() if unit != "s"]
    assert {n: first["metrics"][n] for n in counts} == {n: second["metrics"][n] for n in counts}
    solver_used = first["metrics"]["leaf_fit.golden_section_calls"]["value"] > 0
    path_used = first["metrics"]["selection.path_events"]["value"] > 0
    assert solver_used == path_used == (workload == "robust-auto-d1")


def test_slowdown_is_the_mean_of_the_walks_around_the_call():
    class TwiceAsSlow:
        def slowdown(self, walks):
            return 2.0

    value, wall, slowdown = timed(TwiceAsSlow(), 3, sum, [1, 2])
    assert value == 3 and wall > 0 and slowdown == 2.0


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("runs", "__pycache__"))
    proc = run_bench("regress-d2", trace=0, root=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""


def _tiny_data(name: str):
    wl = tiny(WORKLOADS[name])
    inputs = draw_inputs(wl, 3)
    return wl, inputs, mf.ValueBox(*default_box(wl))


def test_leaf_mean_check_rejects_a_nudged_leaf():
    wl, inputs, box = _tiny_data("regress-d2")
    config = mf.FitConfig(tree_count=2, lambda_mode=mf.FixedLambda(10.0), value_box=box, seed=3)
    forest = mf.fit_forest(mf.Dataset(inputs.points, inputs.responses), mf.LossSpec("squared"), config)
    bounds = (box.lo, box.hi)
    assert checks.check_leaf_means(forest, inputs.points, inputs.responses, bounds, [0, 1]) == []
    values = forest.trees[1].leaf_values.copy()
    values[len(values) // 2] += 1e-6
    nudged = dataclasses.replace(forest, trees=(forest.trees[0],
                                                dataclasses.replace(forest.trees[1], leaf_values=values)))
    assert checks.check_leaf_means(nudged, inputs.points, inputs.responses, bounds, [0, 1])


def test_penalty_check_rejects_a_non_minimising_lambda():
    wl, inputs, box = _tiny_data("robust-auto-d1")
    data = mf.Dataset(inputs.points, inputs.responses)
    spec = mf.LossSpec("huber", delta=HUBER_DELTA)
    config = mf.FitConfig(tree_count=1, lambda_mode=mf.AutoLambda(AUTO_ALPHA, AUTO_LAMBDA_MAX),
                          value_box=box, seed=3)
    forest = mf.fit_forest_auto(data, spec, config)
    bounds = (box.lo, box.hi)
    assert checks.check_lambda_star_candidates(forest) == []
    assert checks.check_penalised_choice(forest, inputs.points, inputs.responses, bounds, [0]) == []
    partition = forest.trees[0].partition
    path = mf.penalty_path(partition, data, spec, box, AUTO_ALPHA)
    worst = float(path.breakpoints[int(np.argmax(path.pen_totals))])
    swapped = dataclasses.replace(forest, trees=(mf.fit_tree(partition, worst, data, spec, box),))
    assert checks.check_lambda_star_candidates(swapped) == []
    problems = checks.check_penalised_choice(swapped, inputs.points, inputs.responses, bounds, [0])
    assert any("penalised risk" in p for p in problems)


def test_integral_check_rejects_a_scaled_density():
    wl, inputs, box = _tiny_data("density-d1")
    model = mf.fit_density_forest(inputs.points, 50.0, 2, 3, box)
    bounds = (box.lo, box.hi)
    assert checks.check_density_integral(model, mf.density_eval_batch) == []
    assert checks.check_density_trees(model, inputs.points, bounds, [0, 1]) == []
    assert checks.check_density_fit(model, inputs.fresh, mf.density_eval_batch) == []

    def scaled(m, xs):
        return 1.01 * mf.density_eval_batch(m, xs)

    assert checks.check_density_integral(model, scaled)
