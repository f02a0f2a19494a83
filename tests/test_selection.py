"""Tests for penalized stopping-time selection along the split path."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mondrian_forest import (
    AutoLambda,
    Dataset,
    FitConfig,
    FixedLambda,
    InputError,
    LossSpec,
    ValueBox,
    default_lambda_max,
    default_value_box,
    empirical_risk,
    fit_forest,
    fit_forest_auto,
    fit_tree,
    load_dataset_csv,
    load_forest,
    penalty_path,
    predict_batch,
    sample_forest,
    sample_partition,
    split_times,
)
from mondrian_forest.cli import main
from mondrian_forest.partition import partition_to_obj, prune

from oracles import brute_force_path


def noisy_data(seed: int, n: int, d: int = 1, signal: float = 0.0,
               noise: float = 1.0) -> Dataset:
    rng = np.random.default_rng(seed)
    xs = rng.random((n, d))
    ys = signal * np.sin(2 * np.pi * xs[:, 0]) + noise * rng.normal(size=n)
    return Dataset(xs, ys)


def test_default_lambda_max():
    assert default_lambda_max(100, 1) == 99.0
    assert default_lambda_max(100, 2) == 9.0
    assert default_lambda_max(8, 3) == 1.0
    assert default_lambda_max(1, 1) == 0.0


def test_alpha_validation_and_density_rejection():
    part = sample_partition(1, 2.0, 1)
    data = noisy_data(2, 50)
    spec = LossSpec("squared")
    box = ValueBox(-5, 5)
    with pytest.raises(InputError):
        penalty_path(part, data, spec, box, 0.0)
    with pytest.raises(InputError):
        penalty_path(part, data, spec, box, 1.0001)
    with pytest.raises(InputError):
        penalty_path(part, Dataset(data.points), LossSpec("density"), box, 0.5)


def test_huge_alpha_picks_single_leaf():
    part = sample_partition(1, 3.0, 3)
    xs = np.linspace(0.05, 0.95, 40).reshape(-1, 1)
    ys = 1e-6 * np.sin(2 * np.pi * xs[:, 0])
    path = penalty_path(part, Dataset(xs, ys), LossSpec("squared"),
                        ValueBox(-5, 5), 1.0)
    assert path.lambda_star == 0.0


def test_path_matches_brute_force_refit():
    spec = LossSpec("squared")
    box = ValueBox(-6, 6)
    for seed in (10, 11, 12):
        part = sample_partition(2, 3.0, seed)
        data = noisy_data(seed + 100, 150, d=2, signal=1.0, noise=0.3)
        path = penalty_path(part, data, spec, box, 0.15)
        bps, risks, lam_star = brute_force_path(part, data, spec, box, 0.15)
        assert np.array_equal(np.asarray(path.breakpoints), bps)
        assert np.allclose(np.asarray(path.risks), risks, atol=1e-10)
        assert path.lambda_star == lam_star


def test_path_shape_and_monotonicity():
    part = sample_partition(1, 4.0, 13)
    data = noisy_data(14, 200, signal=1.5, noise=0.2)
    path = penalty_path(part, data, LossSpec("squared"), ValueBox(-6, 6), 0.05)
    bps = np.asarray(path.breakpoints)
    risks = np.asarray(path.risks)
    assert bps[0] == 0.0
    assert np.all(np.diff(bps) > 0)
    assert np.all(np.diff(risks) <= 1e-12)
    totals = np.asarray(path.pen_totals)
    assert np.allclose(totals, risks + 0.05 * bps, atol=1e-15)
    k = int(np.argmin(totals))
    assert path.lambda_star == bps[k]


def test_lambda_star_nonincreasing_in_alpha():
    part = sample_partition(1, 4.0, 15)
    data = noisy_data(16, 300, signal=1.0, noise=0.4)
    spec = LossSpec("squared")
    box = ValueBox(-6, 6)
    stars = [penalty_path(part, data, spec, box, a).lambda_star
             for a in np.linspace(0.001, 1.0, 40)]
    assert all(b <= a for a, b in zip(stars, stars[1:]))
    assert stars[0] > stars[-1]


def test_breakpoint_minimum_matches_lambda_grid():
    part = sample_partition(1, 1.5, 17)
    data = noisy_data(18, 25, signal=1.0, noise=0.3)
    spec = LossSpec("squared")
    box = ValueBox(-6, 6)
    alpha = 0.2
    path = penalty_path(part, data, spec, box, alpha)
    best_path = min(np.asarray(path.pen_totals))
    grid = np.linspace(0.0, part.horizon, 10_000)
    best_grid = np.inf
    for lam in grid:
        fitted = fit_tree(part, lam, data, spec, box)
        pen = empirical_risk(fitted, data, spec) + alpha * lam
        best_grid = min(best_grid, pen)
    assert abs(best_path - best_grid) <= 1e-9


def test_auto_forest_selects_per_tree():
    data = noisy_data(19, 250, signal=1.2, noise=0.3)
    spec = LossSpec("squared")
    config = FitConfig(tree_count=8,
                       lambda_mode=AutoLambda(0.05, default_lambda_max(250, 1)),
                       value_box=ValueBox(-6, 6), seed=20)
    forest = fit_forest_auto(data, spec, config)
    lams = [t.lam for t in forest.trees]
    assert len(set(lams)) > 1
    assert all(0.0 <= lam <= config.lambda_mode.lambda_max for lam in lams)
    again = fit_forest_auto(data, spec, config)
    xs = np.random.default_rng(21).random((400, 1))
    assert np.array_equal(predict_batch(forest, xs), predict_batch(again, xs))


def test_auto_and_fixed_modes_are_exclusive():
    data = noisy_data(22, 60)
    spec = LossSpec("squared")
    box = ValueBox(-5, 5)
    fixed = FitConfig(tree_count=2, lambda_mode=FixedLambda(1.0),
                      value_box=box, seed=1)
    auto = FitConfig(tree_count=2, lambda_mode=AutoLambda(0.5, 10.0),
                     value_box=box, seed=1)
    with pytest.raises(InputError):
        fit_forest_auto(data, spec, fixed)
    with pytest.raises(InputError):
        fit_forest(data, spec, auto)


def test_noise_selects_smaller_horizons_than_structure():
    n = 400
    spec = LossSpec("squared")
    box = ValueBox(-8, 8)
    config = FitConfig(tree_count=20,
                       lambda_mode=AutoLambda(0.5, default_lambda_max(n, 1)),
                       value_box=box, seed=31415)
    noise = noisy_data(6000, n, signal=0.0, noise=1.0)
    struct = noisy_data(6000, n, signal=2.0, noise=0.05)
    noise_lams = np.array([t.lam for t in fit_forest_auto(noise, spec, config).trees])
    struct_lams = np.array([t.lam for t in fit_forest_auto(struct, spec, config).trees])
    assert np.median(noise_lams) <= np.quantile(struct_lams, 0.9)
    assert np.median(noise_lams) < np.median(struct_lams)


@given(st.sampled_from([LossSpec("squared"), LossSpec("pinball", tau=0.7),
                        LossSpec("huber", delta=1.0), LossSpec("phi5")]),
       st.integers(1, 2), st.floats(0.0, 3.0), st.integers(1, 80),
       st.floats(0.005, 0.5), st.integers(0, 2**32 - 1))
def test_property_path_matches_brute_force_refit(spec, d, horizon, n, alpha, seed):
    rng = np.random.default_rng(seed)
    points = rng.random((n, d))
    if spec.family == "phi5":
        ys = rng.choice([-1.0, 1.0], n)
    else:
        ys = np.sin(4.0 * points[:, 0]) + rng.normal(0.0, 0.5, n)
    data = Dataset(points, ys)
    box = default_value_box(spec, max(n, 2))
    partition = sample_partition(d, horizon, rng)
    path = penalty_path(partition, data, spec, box, alpha)
    bps, risks, lam_star = brute_force_path(partition, data, spec, box, alpha)
    assert np.array_equal(path.breakpoints, bps)
    assert np.allclose(path.risks, risks, rtol=0.0, atol=1e-10)
    assert path.lambda_star == lam_star


def test_saved_auto_model_is_each_full_genealogy_pruned_at_its_minimiser(tmp_path):
    # a saved auto model keeps each path only up to lambda*, so the rest of
    # the path is checked on the genealogy re-sampled from the model header
    data_csv, model_path = tmp_path / "data.csv", tmp_path / "model.txt"
    assert main(["gen", "--task", "gaussian", "--n", "200", "--seed", "31",
                 "--out", str(data_csv)]) == 0
    assert main(["fit", "--input", str(data_csv), "--loss", "huber:0.5", "--auto",
                 "--alpha", "0.005", "--lambda-max", "40", "--trees", "3", "--seed", "5",
                 "--out", str(model_path)]) == 0
    forest, data = load_forest(str(model_path)), load_dataset_csv(str(data_csv))
    mode, box = forest.config.lambda_mode, forest.config.value_box
    fulls = sample_forest(forest.dimension, mode.lambda_max, forest.config.seed,
                          forest.config.tree_count)
    dropped = 0
    for tree, full in zip(forest.trees, fulls):
        assert brute_force_path(full, data, forest.spec, box, mode.alpha)[2] == tree.lam
        assert partition_to_obj(tree.partition) == partition_to_obj(prune(full, tree.lam)[0])
        assert tree.partition.horizon == tree.lam
        assert all(t <= tree.lam for t in split_times(tree.partition))
        dropped += len(split_times(full)) - len(split_times(tree.partition))
    assert dropped > 0


def test_auto_forest_leaf_values_are_a_refit_at_lambda_star():
    data = noisy_data(23, 300, signal=1.0, noise=0.5)
    signs = np.where(data.responses > 0, 1.0, -1.0)
    responses = {"bernoulli": (data.responses > 0).astype(float),
                 "geometric": np.floor(2.0 * np.abs(data.responses)) + 1.0,
                 "phi2": signs, "phi3": signs, "phi4": signs}
    for spec in (LossSpec("squared"), LossSpec("huber", delta=0.5),
                 LossSpec("pinball", tau=0.3), LossSpec("bernoulli"), LossSpec("geometric"),
                 LossSpec("phi2"), LossSpec("phi3"), LossSpec("phi4")):
        ys = responses.get(spec.family, data.responses)
        fit_data = Dataset(data.points, ys)
        box = default_value_box(spec, data.n)
        config = FitConfig(tree_count=4, lambda_mode=AutoLambda(0.005, 30.0),
                           value_box=box, seed=24)
        trees = fit_forest_auto(fit_data, spec, config).trees
        assert any(tree.leaf_values.size > 1 for tree in trees)
        for tree in trees:
            refit = fit_tree(tree.partition, tree.lam, fit_data, spec, box)
            assert tree.leaf_values.tobytes() == refit.leaf_values.tobytes(), spec.family
