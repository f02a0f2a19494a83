"""Tests for the per-leaf constrained scalar fit and its closed forms."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from mondrian_forest import (
    InputError,
    LossSpec,
    ValueBox,
    default_value_box,
    fit_leaf,
    golden_section_min,
    loss_eval,
)
from mondrian_forest import leaf_fit
from mondrian_forest.leaf_fit import CLOSED_FORM, EMPTY_DEFAULT, fit_groups
from mondrian_forest.losses import ALL_FAMILIES, SUPERVISED_FAMILIES

from oracles import group_by_ids, grid_minimum, leaf_loss_sum


def test_squared_mean_and_projection():
    res = fit_leaf(LossSpec("squared"), [1.0, 2.0, 3.0], ValueBox(-10, 10))
    assert res.value == pytest.approx(2.0, abs=1e-12)
    assert res.method == CLOSED_FORM
    res = fit_leaf(LossSpec("squared"), [100.0], ValueBox(-5, 5))
    assert res.value == 5.0


def test_empty_leaf_defaults():
    res = fit_leaf(LossSpec("squared"), [], ValueBox(-5, 5))
    assert res.value == 0.0
    assert res.achieved_loss == 0.0
    assert res.method == EMPTY_DEFAULT
    res = fit_leaf(LossSpec("geometric"), [], ValueBox(-2.0, -0.5))
    assert res.value == -0.5
    res = fit_leaf(LossSpec("squared"), [], ValueBox(3.0, 7.0))
    assert res.value == 3.0


def test_pinball_order_statistic():
    res = fit_leaf(LossSpec("pinball", tau=0.5), [1.0, 2.0, 9.0], ValueBox(-10, 10))
    assert res.value == 2.0
    res = fit_leaf(LossSpec("pinball", tau=0.9), [4.0, 1.0, 2.0, 9.0, 3.0],
                   ValueBox(-10, 10))
    assert res.value == 9.0
    res = fit_leaf(LossSpec("pinball", tau=0.05), [4.0, 1.0, 2.0], ValueBox(-10, 10))
    assert res.value == 1.0


def test_pinball_monotone_in_tau():
    rng = np.random.default_rng(8)
    ys = rng.normal(size=21)
    box = ValueBox(-10, 10)
    values = [fit_leaf(LossSpec("pinball", tau=t), ys, box).value
              for t in np.linspace(0.05, 0.95, 19)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_log_odds_closed_forms():
    ys = [1.0, 1.0, -1.0]
    box = ValueBox(-4, 4)
    res = fit_leaf(LossSpec("phi5"), ys, box)
    assert res.value == pytest.approx(math.log(2.0), abs=1e-12)
    assert res.method == CLOSED_FORM
    res = fit_leaf(LossSpec("phi6"), ys, box)
    assert res.value == pytest.approx(0.5 * math.log(2.0), abs=1e-12)
    assert fit_leaf(LossSpec("phi5"), [1.0, 1.0], box).value == 4.0
    assert fit_leaf(LossSpec("phi5"), [-1.0], box).value == -4.0
    assert fit_leaf(LossSpec("phi6"), [1.0, 1.0], box).value == 4.0


def test_poisson_log_mean():
    box = ValueBox(-3, 3)
    res = fit_leaf(LossSpec("poisson"), [1.0, 2.0, 3.0], box)
    assert res.value == pytest.approx(math.log(2.0), abs=1e-12)
    res = fit_leaf(LossSpec("poisson"), [0.0, 0.0], box)
    assert res.value == -3.0


def test_huber_wide_delta_matches_mean():
    res = fit_leaf(LossSpec("huber", delta=10.0), [1.0, 2.0, 3.0], ValueBox(-10, 10))
    assert res.value == pytest.approx(2.0, abs=1e-7)
    assert res.method == CLOSED_FORM


def test_gaussian_and_squared_share_minimizer():
    rng = np.random.default_rng(9)
    box = ValueBox(-6, 6)
    for _ in range(50):
        ys = rng.normal(scale=2.0, size=rng.integers(1, 20))
        a = fit_leaf(LossSpec("squared"), ys, box).value
        b = fit_leaf(LossSpec("gaussian"), ys, box).value
        assert abs(a - b) <= 1e-8


def test_translation_equivariance_squared():
    rng = np.random.default_rng(10)
    for _ in range(20):
        ys = rng.normal(size=7)
        c = float(rng.uniform(-3, 3))
        base = fit_leaf(LossSpec("squared"), ys, ValueBox(-5, 5)).value
        moved = fit_leaf(LossSpec("squared"), ys + c, ValueBox(-5 + c, 5 + c)).value
        assert moved == pytest.approx(base + c, abs=1e-9)


def test_achieved_loss_is_recomputed_sum():
    ys = [1.0, 4.0, 5.0]
    res = fit_leaf(LossSpec("squared"), ys, ValueBox(-10, 10))
    assert res.achieved_loss == pytest.approx(leaf_loss_sum(LossSpec("squared"),
                                                            res.value, ys))


def test_golden_section_known_minima():
    box = ValueBox(0.0, 10.0)
    z = golden_section_min(lambda v: (v - 3.0) ** 2, box)
    assert abs(z - 3.0) <= 1e-6
    assert (z - 3.0) ** 2 <= 1e-9
    z = golden_section_min(abs, ValueBox(-1.0, 2.0))
    assert abs(z) <= 1e-6
    z = golden_section_min(lambda v: math.exp(v), ValueBox(-2.0, 2.0))
    assert z == pytest.approx(-2.0, abs=1e-6)


def test_surrogates_fit_the_label_side_of_the_box():
    # phi1 = (1 - margin)^2 is least at the label itself; phi2..phi6 never
    # increase in the margin, so with one label the box edge on its side is optimal
    box = ValueBox(-3.0, 3.0)
    for k in range(1, 7):
        spec = LossSpec(f"phi{k}")
        hi, lo = (1.0, -1.0) if k == 1 else (box.hi, box.lo)
        assert fit_leaf(spec, np.ones(10), box).value == pytest.approx(hi, abs=1e-8), k
        assert fit_leaf(spec, -np.ones(10), box).value == pytest.approx(lo, abs=1e-8), k


def test_flat_minimising_sets_take_their_least_point():
    # every z in [0.5, 2.5] minimises; the box cuts the set from below or above
    spec = LossSpec("huber", delta=0.5)
    assert fit_leaf(spec, [0.0, 3.0], ValueBox(-5.0, 5.0)).value == 0.5
    assert fit_leaf(spec, [0.0, 3.0], ValueBox(1.0, 5.0)).value == 1.0
    assert fit_leaf(spec, [0.0, 3.0], ValueBox(3.0, 5.0)).value == 3.0
    # the running sums of 0.1 and 0.2 leave a rounding residue in the gap [0.7, 9.5]
    assert fit_leaf(spec, [0.1, 0.2, 10.0, 11.0], ValueBox(-20.0, 20.0)).value == 0.7
    rng = np.random.default_rng(0)
    for _ in range(200):  # equal halves either side of a gap wider than 2 delta
        low, high = rng.uniform(0.0, 1.0, 3), rng.uniform(2.5, 3.5, 3)
        ys = rng.permutation(np.concatenate([low, high]))
        # the zero's rounding may land an ulp short of the gap's start
        value = fit_leaf(spec, ys, ValueBox(-5.0, 5.0)).value
        assert value == pytest.approx(low.max() + 0.5, rel=0.0, abs=1e-12)
    # a hinge tie is flat on [-1, 1]
    spec = LossSpec("phi2")
    assert fit_leaf(spec, [1.0, 1.0, -1.0, -1.0], ValueBox(-5.0, 5.0)).value == -1.0
    assert fit_leaf(spec, [1.0, 1.0, -1.0, -1.0], ValueBox(-0.5, 5.0)).value == -0.5
    # tau * n = 2 puts the pinball minimisers between the 2nd and 3rd order statistics
    spec = LossSpec("pinball", tau=0.5)
    assert fit_leaf(spec, [4.0, 1.0, 2.0, 9.0], ValueBox(-10.0, 10.0)).value == 2.0


def test_hinge_tie_matches_grid_value():
    spec = LossSpec("phi2")
    ys = [1.0, 1.0, -1.0, -1.0]
    box = ValueBox(-1.0, 1.0)
    res = fit_leaf(spec, ys, box)
    _, grid_min = grid_minimum(spec, ys, box)
    assert res.achieved_loss <= grid_min + 1e-6 * (1.0 + abs(grid_min))


def test_non_finite_responses_rejected():
    with pytest.raises(InputError):
        fit_leaf(LossSpec("squared"), [1.0, float("nan")], ValueBox(-5, 5))


def random_instance(family: str, rng):
    if family == "pinball":
        spec = LossSpec(family, tau=float(rng.uniform(0.1, 0.9)))
    elif family == "huber":
        spec = LossSpec(family, delta=float(rng.uniform(0.5, 3.0)))
    else:
        spec = LossSpec(family)
    n = int(rng.integers(1, 30))
    if family in ("squared", "pinball", "huber", "gaussian"):
        ys = rng.normal(scale=2.0, size=n)
    elif family == "poisson":
        ys = rng.integers(0, 8, size=n).astype(float)
    elif family == "geometric":
        ys = rng.integers(1, 8, size=n).astype(float)
    elif family == "bernoulli":
        ys = rng.integers(0, 2, size=n).astype(float)
    else:
        ys = rng.choice([-1.0, 1.0], size=n)
    return spec, ys, default_value_box(spec, max(n, 2))


def test_every_family_close_to_grid_minimum():
    rng = np.random.default_rng(11)
    for family in SUPERVISED_FAMILIES:
        for _ in range(3):
            spec, ys, box = random_instance(family, rng)
            res = fit_leaf(spec, ys, box)
            assert box.holds(res.value), family
            _, grid_min = grid_minimum(spec, ys, box, points=50_000)
            assert res.achieved_loss <= grid_min + 1e-6 * (1.0 + abs(grid_min)), family


def test_density_leaf_uses_box_top():
    res = fit_leaf(LossSpec("density"), [0.3, 0.4], ValueBox(-2.0, 2.0))
    assert res.value == 2.0
    assert res.achieved_loss == -4.0
    assert res.method == CLOSED_FORM


def test_group_sums_are_taken_as_np_sum_takes_them():
    # a group's value and loss come from such sums, as a one-leaf fit takes them
    rng = np.random.default_rng(13)
    sizes = [1, 2, 7, 8, 9, 127, 128, 129, 1000, 9000]
    ids = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    ys = rng.standard_t(3, ids.size)
    spec = LossSpec("squared")
    counts, order = group_by_ids(ids, len(sizes))
    values, losses = fit_groups(spec, counts, ys[order], ValueBox(-50, 50))
    for g in range(len(sizes)):
        members = ys[ids == g]
        assert values[g] == np.mean(members)
        assert losses[g] == np.sum(loss_eval(spec, values[g], members))


def family_responses(family: str, raw: np.ndarray) -> np.ndarray:
    """Admissible responses for ``family`` made from arbitrary numbers."""
    if family == "poisson":
        return np.floor(np.abs(raw))
    if family == "geometric":
        return np.floor(np.abs(raw)) + 1.0
    if family == "bernoulli":
        return (raw > 0).astype(float)
    if family.startswith("phi"):
        return np.where(raw > 0, 1.0, -1.0)
    return raw


def every_family(test):
    """Add one explicit example per family to a property test over families."""
    for family in ALL_FAMILIES:
        test = example(family, [(0, 1.5), (1, -0.5), (0, -2.0), (1, 3.0)], 0.3, 1.0)(test)
    return test


def check_one_fit_per_group(family, rows, tau, delta, block):
    spec = LossSpec(family, tau=tau if family == "pinball" else None,
                    delta=delta if family == "huber" else None)
    ids = np.array([g for g, _ in rows])
    ys = family_responses(family, np.array([y for _, y in rows]))
    box = default_value_box(spec, max(ys.size, 2))
    ones = [fit_leaf(spec, ys[ids == g], box) for g in range(4)]
    counts, order = group_by_ids(ids, 4)  # group 3 stays empty
    with mock.patch.object(leaf_fit, "BLOCK", block):
        values, losses = fit_groups(spec, counts, ys[order], box)
    for g, one in enumerate(ones):
        assert (values[g], losses[g]) == (one.value, one.achieved_loss)
        assert box.holds(values[g])
        if np.any(ids == g):
            # criterion 3's tolerance
            _, grid_min = grid_minimum(spec, ys[ids == g], box)
            assert losses[g] <= grid_min + 1e-6 * (1.0 + abs(grid_min))


@every_family
@given(st.sampled_from(ALL_FAMILIES),
       st.lists(st.tuples(st.integers(0, 2), st.floats(-4.0, 4.0)), min_size=1, max_size=10),
       st.floats(0.05, 0.95), st.floats(0.2, 3.0))
def test_property_fit_groups_is_one_fit_per_group(family, rows, tau, delta):
    check_one_fit_per_group(family, rows, tau, delta, leaf_fit.BLOCK)


@every_family
@given(st.sampled_from(ALL_FAMILIES),
       st.lists(st.tuples(st.integers(0, 2), st.floats(-4.0, 4.0)), min_size=1, max_size=10),
       st.floats(0.05, 0.95), st.floats(0.2, 3.0))
def test_property_fit_groups_in_blocks_of_three(family, rows, tau, delta):
    # runs cut by many block edges, against one-group fits in one block
    check_one_fit_per_group(family, rows, tau, delta, 3)


@pytest.mark.parametrize("family", SUPERVISED_FAMILIES)
@pytest.mark.parametrize("first", [leaf_fit.BLOCK - 2, leaf_fit.BLOCK - 1, leaf_fit.BLOCK])
def test_solver_groups_straddling_block_edges(family, first):
    # groups of about BLOCK responses and more are Huber sweep blocks of their
    # own, and the last two groups, of different sizes, share one block
    spec = LossSpec(family, tau=0.3 if family == "pinball" else None,
                    delta=0.5 if family == "huber" else None)
    quarter = leaf_fit.BLOCK // 4
    counts = np.array([first, 0, 2 * leaf_fit.BLOCK + 50, 1, 3, quarter, quarter - 1])
    ys = family_responses(family, np.random.default_rng(first).standard_t(3, counts.sum()))
    box = default_value_box(spec, ys.size)
    values, losses = fit_groups(spec, counts, ys, box)
    ends = np.cumsum(counts)
    for g, (start, stop) in enumerate(zip(ends - counts, ends)):
        one = fit_leaf(spec, ys[start:stop], box)
        assert (values[g], losses[g]) == (one.value, one.achieved_loss), g


@pytest.mark.parametrize("counts,why", [
    (np.array([1.0, 2.0]), "float counts"),
    (np.array([True, True, True]), "boolean counts"),
    (np.array([[1, 2]]), "two-dimensional counts"),
    (np.array([4, -1]), "a negative count"),
    (np.array([1, 1]), "counts summing below the responses"),
    (np.array([2, 2]), "counts summing above the responses"),
    (np.array([], dtype=np.int64), "no groups for some responses"),
])
def test_fit_groups_rejects_bad_counts(counts, why):
    with pytest.raises(InputError):
        fit_groups(LossSpec("squared"), counts, [1.0, 2.0, 3.0], ValueBox(-5, 5))
