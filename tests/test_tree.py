"""Tests for single-tree fitting, prediction, and empirical risk."""

import numpy as np
import pytest

from mondrian_forest import (
    Dataset,
    InputError,
    LossSpec,
    ValueBox,
    empirical_risk,
    fit_tree,
    leaves_at,
    locate_batch,
    predict_tree_batch,
    sample_partition,
    split_times,
)
from mondrian_forest.leaf_fit import fit_groups, fit_leaf

from oracles import group_by_ids, leaf_loss_sum


def make_data(seed: int, n: int, d: int = 1):
    rng = np.random.default_rng(seed)
    xs = rng.random((n, d))
    ys = rng.normal(size=n)
    return Dataset(xs, ys)


def test_fit_groups_matches_brute_force_grouping():
    rng = np.random.default_rng(12)
    ids = rng.integers(0, 7, size=300)
    ys = rng.normal(size=300)
    spec, box = LossSpec("squared"), ValueBox(-10, 10)
    counts, order = group_by_ids(ids, 8)  # group 7 is empty
    values, losses = fit_groups(spec, counts, ys[order], box)
    for leaf in range(8):
        members = ys[np.flatnonzero(ids == leaf)]
        one = fit_leaf(spec, members, box)
        assert (values[leaf], losses[leaf]) == (one.value, one.achieved_loss)
        assert values[leaf] == pytest.approx(np.mean(members) if members.size else 0.0,
                                             abs=1e-12)
        assert losses[leaf] == pytest.approx(leaf_loss_sum(spec, values[leaf], members))


def test_single_leaf_mean():
    part = sample_partition(1, 0.0, 1)
    data = Dataset(np.array([[0.1], [0.5], [0.9]]), np.array([1.0, 2.0, 3.0]))
    tree = fit_tree(part, 0.0, data, LossSpec("squared"), ValueBox(-10, 10))
    assert tree.leaf_values.shape == (1,)
    assert tree.leaf_values[0] == pytest.approx(2.0, abs=1e-12)
    assert predict_tree_batch(tree, np.array([[0.77]])).tolist() == [tree.leaf_values[0]]


def test_empty_dataset_gives_default_values():
    part = sample_partition(2, 3.0, 21)
    data = Dataset(np.empty((0, 2)), np.empty(0))
    tree = fit_tree(part, 3.0, data, LossSpec("squared"), ValueBox(-5, 5))
    assert np.all(tree.leaf_values == 0.0)
    tree = fit_tree(part, 3.0, data, LossSpec("geometric"), ValueBox(-2.0, -0.5))
    assert np.all(tree.leaf_values == -0.5)


def test_leaves_see_only_their_points():
    part = sample_partition(1, 3.0, 33)
    data = make_data(34, 400)
    spec = LossSpec("squared")
    box = ValueBox(-10, 10)
    lam = 2.0
    tree = fit_tree(part, lam, data, spec, box)
    ids = locate_batch(part, lam, data.points)
    for leaf in range(len(leaves_at(part, lam))):
        ys = data.responses[ids == leaf]
        if ys.size == 0:
            assert tree.leaf_values[leaf] == 0.0
        else:
            assert tree.leaf_values[leaf] == pytest.approx(
                box.clip(float(ys.mean())), abs=1e-12)


def test_risk_is_mean_of_leaf_losses():
    part = sample_partition(1, 2.0, 44)
    data = make_data(45, 120)
    spec = LossSpec("squared")
    tree = fit_tree(part, 2.0, data, spec, ValueBox(-10, 10))
    ids = locate_batch(part, 2.0, data.points)
    total = 0.0
    for leaf in range(tree.leaf_values.shape[0]):
        ys = data.responses[ids == leaf]
        if ys.size:
            total += leaf_loss_sum(spec, float(tree.leaf_values[leaf]), ys)
    assert empirical_risk(tree, data, spec) == pytest.approx(total / data.n,
                                                             abs=1e-12)


def test_predictions_piecewise_constant():
    part = sample_partition(2, 3.0, 55)
    data = make_data(56, 300, d=2)
    tree = fit_tree(part, 3.0, data, LossSpec("squared"), ValueBox(-10, 10))
    rng = np.random.default_rng(57)
    cells = leaves_at(part, 3.0)
    for leaf, cell in enumerate(cells):
        lo = np.asarray(cell.lo)
        hi = np.asarray(cell.hi)
        pts = lo + rng.random((100, 2)) * (hi - lo) * 0.999
        preds = predict_tree_batch(tree, pts)
        assert np.all(preds == tree.leaf_values[leaf])


def test_predictions_stay_in_box():
    part = sample_partition(1, 4.0, 66)
    data = make_data(67, 50)
    box = ValueBox(-0.1, 0.1)
    tree = fit_tree(part, 4.0, data, LossSpec("squared"), box)
    rng = np.random.default_rng(68)
    preds = predict_tree_batch(tree, rng.random((500, 1)))
    assert np.all((preds >= box.lo) & (preds <= box.hi) | (preds == 0.0))


def test_out_of_domain_rejected():
    part = sample_partition(1, 1.0, 70)
    data = make_data(71, 20)
    tree = fit_tree(part, 1.0, data, LossSpec("squared"), ValueBox(-5, 5))
    with pytest.raises(InputError):
        predict_tree_batch(tree, np.array([[1.2]]))
    with pytest.raises(InputError):
        predict_tree_batch(tree, np.array([[0.5], [-0.1]]))


def test_empirical_risk_examples():
    data = Dataset(np.array([[0.2], [0.5], [0.8]]), np.array([1.0, 2.0, 3.0]))
    spec = LossSpec("squared")
    part = sample_partition(1, 0.0, 72)
    tree = fit_tree(part, 0.0, data, spec, ValueBox(-10, 10))
    assert empirical_risk(tree, data, spec) == pytest.approx(2.0 / 3.0, abs=1e-12)

    with pytest.raises(InputError):
        empirical_risk(tree, Dataset(np.empty((0, 1)), np.empty(0)), spec)


def test_empirical_risk_matches_double_loop():
    part = sample_partition(2, 2.5, 73)
    data = make_data(74, 90, d=2)
    spec = LossSpec("huber", delta=1.0)
    tree = fit_tree(part, 2.5, data, spec, ValueBox(-5, 5))
    preds = predict_tree_batch(tree, data.points)
    total = 0.0
    for i in range(data.n):
        total += leaf_loss_sum(spec, float(preds[i]), [data.responses[i]])
    assert empirical_risk(tree, data, spec) == pytest.approx(total / data.n,
                                                             abs=1e-12)


def test_risk_nonincreasing_in_lambda():
    part = sample_partition(1, 5.0, 75)
    data = make_data(76, 250)
    spec = LossSpec("squared")
    box = ValueBox(-10, 10)
    lams = [0.0] + split_times(part) + [5.0]
    risks = [empirical_risk(fit_tree(part, lam, data, spec, box), data, spec)
             for lam in lams]
    for r1, r2 in zip(risks, risks[1:]):
        assert r2 <= r1 + 1e-12


def test_permutation_invariance():
    part = sample_partition(1, 3.0, 77)
    data = make_data(78, 150)
    spec = LossSpec("squared")
    box = ValueBox(-10, 10)
    tree = fit_tree(part, 3.0, data, spec, box)
    perm = np.random.default_rng(79).permutation(data.n)
    shuffled = Dataset(data.points[perm], data.responses[perm])
    tree2 = fit_tree(part, 3.0, shuffled, spec, box)
    assert np.allclose(tree.leaf_values, tree2.leaf_values, atol=1e-12)


def test_dimension_mismatch_rejected():
    part = sample_partition(2, 1.0, 80)
    data = make_data(81, 10, d=1)
    with pytest.raises(InputError):
        fit_tree(part, 1.0, data, LossSpec("squared"), ValueBox(-5, 5))
