"""Tests for partition sampling, pruning, point location, serialization."""

import gc
import hashlib
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mondrian_forest import (
    Cell,
    InputError,
    PartitionTree,
    ResourceError,
    contains,
    leaf_count_at,
    leaves_at,
    locate_batch,
    sample_partition,
    split_times,
    volume,
)
import mondrian_forest.partition as partition_module
from mondrian_forest.partition import (
    build_partitions,
    group_forest,
    group_points,
    leaf_nodes,
    load_model,
    node_groups,
    partition_from_obj,
    prune,
    partition_to_obj,
    sample_forest,
    sample_split,
    save_model,
    tree_to_obj,
    trees_from_obj,
)

from oracles import (
    brute_force_node_bounds,
    brute_force_right_children,
    cell_of,
    leaf_cells_walk,
    locate_scan,
    unit_cell,
)


def two_leaf_tree(threshold: float = 0.5, birth: float = 1.2) -> PartitionTree:
    return PartitionTree(1, 2.0, [0, -1, -1], [threshold, math.nan, math.nan],
                         [birth, math.inf, math.inf], "manual")


def walk_splits(tree, node=0):
    """Split nodes reached from ``node`` by following child links."""
    if tree.split_dim[node] >= 0:
        yield node
        yield from walk_splits(tree, node + 1)
        yield from walk_splits(tree, tree.right[node])


def test_horizon_zero_single_leaf():
    tree = sample_partition(2, 0.0, 123)
    assert leaf_count_at(tree, 0.0) == 1
    assert leaves_at(tree, 0.0) == [unit_cell(2)]
    assert split_times(tree) == []


def test_invalid_arguments():
    with pytest.raises(InputError):
        sample_partition(0, 1.0, 5)
    with pytest.raises(InputError):
        sample_partition(1, -0.5, 5)
    tree = sample_partition(1, 2.0, 5)
    with pytest.raises(InputError):
        leaves_at(tree, 3.0)
    with pytest.raises(InputError):
        leaves_at(tree, -0.1)
    with pytest.raises(InputError):
        locate_batch(tree, 2.0, np.array([[1.4]]))


def test_leaf_cap_enforced():
    with pytest.raises(ResourceError):
        sample_partition(1, 50.0, 99, leaf_cap=4)


def test_sample_forest_streams():
    # tree b draws from the b-th spawned child and does not depend on the tree count
    three, six = list(sample_forest(2, 3.0, 17, 3)), list(sample_forest(2, 3.0, 17, 6))
    assert [t.stream_id for t in six] == [f"17/{b}" for b in range(6)]
    child = np.random.SeedSequence(17).spawn(6)[4]
    by_hand = sample_partition(2, 3.0, np.random.default_rng(child), stream_id="17/4")
    for a, b in [*zip(three, six), (by_hand, six[4])]:
        assert a.stream_id == b.stream_id
        for name in ("split_dim", "threshold", "birth_time"):
            assert np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True)
    for seed in (-1, 2**64):
        with pytest.raises(InputError):
            next(sample_forest(1, 1.0, seed, 2))
    with pytest.raises(ResourceError, match=r"^tree 0: partition exceeded leaf cap 4$"):
        next(sample_forest(1, 50.0, 99, 2, leaf_cap=4))


def test_sampled_draws_do_not_change_with_the_interpreter():
    # a cell's rate is its sides summed left to right; Python 3.12's builtin
    # sum compensates, and sums 55 of this forest's 512 cells differently
    digest = hashlib.sha256()
    for tree in sample_forest(3, 3.0, 5, 4):
        for arr in (tree.split_dim, tree.threshold, tree.birth_time):
            digest.update(arr.tobytes())
    assert digest.hexdigest() == \
        "a7fdc386408a1568db85e490786751e67a0c699a2d02cdb5c416ca1615e79f1a"


def test_sample_forest_batches_leave_the_trees_unchanged(monkeypatch):
    whole = list(sample_forest(2, 3.0, 17, 6))
    for batch_nodes in (1, 40):
        monkeypatch.setattr(partition_module, "SAMPLE_BATCH_NODES", batch_nodes)
        batched = list(sample_forest(2, 3.0, 17, 6))
        assert [t.stream_id for t in batched] == [t.stream_id for t in whole]
        for a, b in zip(whole, batched):
            for name in ("split_dim", "threshold", "birth_time", "right", "cell_lo", "cell_hi"):
                assert np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True)


def test_split_dimension_proportional_to_side_length():
    cell = Cell((0.0, 0.0), (1.0, 0.5))
    rng = np.random.default_rng(2024)
    draws = 20_000
    hits = 0
    for _ in range(draws):
        dim, threshold = sample_split(cell.lo, cell.hi, rng)
        if dim == 0:
            hits += 1
            assert 0.0 < threshold < 1.0
        else:
            assert 0.0 < threshold < 0.5
    freq = hits / draws
    se = math.sqrt((2 / 3) * (1 / 3) / draws)
    assert abs(freq - 2 / 3) <= 4 * se


def test_mean_leaf_count_small_scale():
    lam = 2.0
    counts = np.array([leaf_count_at(sample_partition(1, lam, seed), lam)
                       for seed in range(1000)], dtype=float)
    se = counts.std(ddof=1) / math.sqrt(counts.size)
    assert abs(counts.mean() - (1 + lam)) <= 4 * se


def test_leaves_at_pruning_thresholds():
    tree = two_leaf_tree(birth=1.2)
    assert leaf_count_at(tree, 1.0) == 1
    assert leaf_count_at(tree, 1.2) == 2
    assert leaf_count_at(tree, 1.5) == 2
    assert split_times(tree) == [1.2]


def test_split_times_match_node_walk():
    tree = sample_partition(2, 4.0, 31)
    times = split_times(tree)
    walked = sorted(float(tree.birth_time[node]) for node in walk_splits(tree))
    assert times == walked
    assert all(t2 > t1 for t1, t2 in zip(times, times[1:]))


def test_birth_times_increase_down_every_path():
    tree = sample_partition(3, 2.5, 7)

    def check(node, floor):
        if tree.split_dim[node] >= 0:
            birth = tree.birth_time[node]
            assert birth > floor
            assert birth <= tree.horizon
            check(node + 1, birth)
            check(tree.right[node], birth)

    check(0, 0.0)


def test_children_tile_parent():
    tree = sample_partition(2, 3.0, 99)
    lo, hi = tree.cell_lo, tree.cell_hi
    oracle_lo, oracle_hi = brute_force_node_bounds(tree)
    assert np.array_equal(lo, oracle_lo) and np.array_equal(hi, oracle_hi)
    assert list(lo[0]) == [0.0, 0.0] and list(hi[0]) == [1.0, 1.0]
    for node in walk_splits(tree):
        j, t = tree.split_dim[node], tree.threshold[node]
        left, right = node + 1, tree.right[node]
        assert lo[node, j] < t < hi[node, j]
        assert np.array_equal(lo[left], lo[node])
        assert np.array_equal(hi[right], hi[node])
        assert hi[left, j] == t
        assert lo[right, j] == t


def test_partition_tiles_unit_cube():
    tree = sample_partition(2, 4.0, 616)
    rng = np.random.default_rng(0)
    xs = rng.random((10_000, 2))
    for lam in [0.0, 1.0, 2.5, 4.0]:
        cells = leaves_at(tree, lam)
        vols = sum(volume(c) for c in cells)
        assert abs(vols - 1.0) < 1e-12
        membership = np.zeros(xs.shape[0], dtype=int)
        for cell in cells:
            lo = np.asarray(cell.lo)
            hi = np.asarray(cell.hi)
            inside = np.all((xs >= lo) & ((xs < hi) | (hi == 1.0)), axis=1)
            membership += inside.astype(int)
        assert np.all(membership == 1)


def test_locate_agrees_with_scan():
    tree = sample_partition(2, 4.0, 57)
    rng = np.random.default_rng(1)
    xs = rng.random((2000, 2))
    lam = 3.0
    ids = locate_batch(tree, lam, xs)
    cells = leaves_at(tree, lam)
    for i in range(0, xs.shape[0], 97):
        assert locate_scan(tree, lam, xs[i]) == ids[i]
    for i in range(xs.shape[0]):
        cell = cells[ids[i]]
        lo = np.asarray(cell.lo)
        hi = np.asarray(cell.hi)
        assert np.all((xs[i] >= lo) & ((xs[i] < hi) | (hi == 1.0)))


@given(st.integers(1, 3), st.floats(0.0, 8.0), st.floats(0.0, 1.0),
       st.integers(0, 2**32 - 1), st.integers(0, 60))
def test_property_group_points_groups_the_leaf_ids(dimension, horizon, share, seed, n):
    tree = sample_partition(dimension, horizon, seed)
    lam = share * horizon
    rng = np.random.default_rng(seed)
    xs = rng.random((n, dimension))
    # about half the points get one coordinate exactly on a split's threshold
    splits = np.flatnonzero(tree.split_dim >= 0)
    if splits.size:
        on = splits[rng.integers(0, splits.size, n)]
        rows = np.flatnonzero(rng.random(n) < 0.5)
        xs[rows, tree.split_dim[on[rows]]] = tree.threshold[on[rows]]
    ids = locate_batch(tree, lam, xs)
    order, counts = group_points(tree, lam, xs)
    assert np.array_equal(order, np.argsort(ids, kind="stable"))
    assert np.array_equal(counts, np.bincount(ids, minlength=leaf_count_at(tree, lam)))
    for i in range(0, n, 7):
        assert ids[i] == locate_scan(tree, lam, xs[i])


@pytest.mark.parametrize("budget", ["shipped", "tree per run", "mixed", "walk"])
@settings(max_examples=30)
@given(st.sampled_from([2, 3]), st.integers(1, 8), st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
       st.integers(0, 2**32 - 1), st.integers(0, 40), st.integers(10, 400), st.integers(0, 20))
@example(dimension=2, tree_count=4, share=1.0, seed=1, n=0, grid_max=100, runs=3)
def test_property_group_forest_is_the_walk(budget, dimension, tree_count, share, seed, n,
                                           grid_max, runs):
    # runs of trees as shipped; one tree per run; runs among walking trees,
    # at budgets near these trees' own grids; every tree walking
    patches = {"shipped": {}, "tree per run": {"GROUP_BATCH_ENTRIES": 0},
               "mixed": {"GRID_MAX_ENTRIES": grid_max, "GROUP_BATCH_ENTRIES": runs * grid_max},
               "walk": {"GRID_MAX_ENTRIES": 0}}[budget]
    horizon = 6.0 / dimension
    lam = share * horizon
    trees = list(sample_forest(dimension, horizon, seed, tree_count))
    # thresholds in use or not, the cube's faces and the last float below 1,
    # and a third of the points twice
    special = [0.0, np.nextafter(1.0, 0.0), 1.0] + [
        t for tree in trees for t in tree.threshold[tree.split_dim >= 0]]
    rng = np.random.default_rng(seed)
    xs = np.where(rng.random((n, dimension)) < 0.5, rng.choice(special, (n, dimension)),
                  rng.random((n, dimension)))
    xs = np.concatenate((xs, xs[:n // 3]))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(partition_module, "GRID_MAX_ENTRIES", 0)
        walked = [group_points(tree, lam, xs) for tree in trees]
    with pytest.MonkeyPatch.context() as patch:
        for name, value in patches.items():
            patch.setattr(partition_module, name, value)
        grouped = list(group_forest(trees, lam, xs))
    for (order, counts), (walk_order, walk_counts) in zip(grouped, walked, strict=True):
        assert order.tobytes() == walk_order.tobytes()
        assert counts.tobytes() == walk_counts.tobytes()


def test_grouping_a_forest_holds_one_run_of_trees_at_a_time():
    # regress-d2's shape; one slab grid for all 50 trees peaks near 11 MB
    trees = list(sample_forest(2, 10.0, 0, 50))
    xs = np.random.default_rng(7).random((50_000, 2))
    tracemalloc.start()
    try:
        for _, counts in group_forest(trees, 10.0, xs):
            assert counts.sum() == xs.shape[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6


def test_group_points_keeps_empty_leaves_and_empty_batches():
    manual = two_leaf_tree(threshold=0.5)
    order, counts = group_points(manual, 2.0, np.array([[0.9], [0.5], [0.7]]))
    assert order.tolist() == [0, 1, 2] and counts.tolist() == [0, 3]
    # x < 0.5 is leaf 0; the right half splits at y = 0.5 into leaves 1 and 2
    square = PartitionTree(2, 2.0, [0, -1, 1, -1, -1], [0.5, math.nan, 0.5, math.nan, math.nan],
                           [0.5, math.inf, 1.0, math.inf, math.inf], "manual")
    order, counts = group_points(square, 2.0, np.array([[0.2, 0.9], [0.7, 0.5], [0.1, 0.1]]))
    assert order.tolist() == [0, 2, 1] and counts.tolist() == [2, 0, 1]
    for dimension in (1, 2):
        tree = sample_partition(dimension, 5.0, 3)
        order, counts = group_points(tree, 5.0, np.empty((0, dimension)))
        assert order.shape == (0,)
        assert counts.tolist() == [0] * leaf_count_at(tree, 5.0)


def test_locate_batch_leaves_no_reference_cycle():
    # a cycle would hold the call's arrays until the next garbage collection
    tree = sample_partition(2, 10.0, 12)
    xs = np.random.default_rng(13).random((1000, 2))
    gc.collect()
    gc.disable()
    try:
        locate_batch(tree, 10.0, xs)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_locate_single_leaf_and_left_descent():
    tree = sample_partition(3, 0.0, 5)
    assert locate_batch(tree, 0.0, np.array([[0.9, 0.1, 0.4]])).tolist() == [0]
    manual = two_leaf_tree(threshold=0.5)
    assert locate_batch(manual, 2.0, np.array([[0.25]])).tolist() == [0]
    assert locate_batch(manual, 2.0, np.array([[0.75]])).tolist() == [1]
    assert cell_of(manual, 2.0, [0.25]) == Cell((0.0,), (0.5,))


def test_threshold_point_descends_right():
    manual = two_leaf_tree(threshold=0.5)
    assert locate_batch(manual, 2.0, np.array([[0.5]])).tolist() == [1]
    ids = locate_batch(manual, 2.0, np.array([[0.5], [0.4999999], [1.0]]))
    assert list(ids) == [1, 0, 1]


def save_partition(tree, path):
    save_model({"format": "test", **partition_to_obj(tree)}, path)
    return path.read_bytes()


def test_determinism_same_seed(tmp_path):
    a = sample_partition(2, 3.0, 4242)
    b = sample_partition(2, 3.0, 4242)
    assert save_partition(a, tmp_path / "a") == save_partition(b, tmp_path / "b")
    c = sample_partition(2, 3.0, 4243)
    assert save_partition(a, tmp_path / "a") != save_partition(c, tmp_path / "c")


def test_serialization_round_trip(tmp_path):
    tree = sample_partition(2, 3.5, 88)
    text = save_partition(tree, tmp_path / "tree")
    back = partition_from_obj(load_model(tmp_path / "tree", "test"))
    assert back.dimension == tree.dimension
    assert back.horizon == tree.horizon
    assert back.stream_id == tree.stream_id
    assert save_partition(back, tmp_path / "again") == text
    assert leaves_at(back, 3.5) == leaves_at(tree, 3.5)
    assert split_times(back) == split_times(tree)


def test_deserialization_rejects_garbage(tmp_path):
    path = tmp_path / "garbage"
    path.write_text("not json at all")
    with pytest.raises(InputError):
        load_model(path, "test")
    path.write_text("{\"format\": \"something-else\"}")
    with pytest.raises(InputError):
        load_model(path, "test")
    with pytest.raises(InputError):
        partition_from_obj({"format": "something-else"})


# Properties of the flat representation over random genealogies; the
# settings are the suite's profile in conftest.py.


@st.composite
def genealogies(draw):
    """A sampled tree in d = 1..3 and a horizon lam in [0, tree horizon]."""
    d = draw(st.integers(1, 3))
    horizon = draw(st.floats(0.0, 6.0 / d))
    tree = sample_partition(d, horizon, draw(st.integers(0, 2**32 - 1)))
    return tree, draw(st.floats(0.0, horizon))


@given(genealogies())
def test_property_leaf_volumes_sum_to_one(case):
    tree, lam = case
    assert math.fsum(volume(c) for c in leaves_at(tree, lam)) == pytest.approx(1.0, abs=1e-12)


@given(genealogies(), st.data())
def test_property_each_point_in_exactly_one_leaf(case, data):
    tree, lam = case
    # corners and thresholds too, where half-open ownership decides
    coordinate = st.one_of(st.floats(0.0, 1.0), st.sampled_from(
        [0.0, 1.0] + tree.threshold[tree.split_dim >= 0].tolist()))
    xs = np.array(data.draw(st.lists(
        st.lists(coordinate, min_size=tree.dimension, max_size=tree.dimension),
        min_size=1, max_size=20)))
    cells = leaves_at(tree, lam)
    ids = locate_batch(tree, lam, xs)
    for x, k in zip(xs, ids):
        assert [i for i, cell in enumerate(cells) if contains(cell, x)] == [k]
        assert cell_of(tree, lam, x) == cells[k]


@given(genealogies(), st.floats(0.0, 1.0))
def test_property_leaf_count_monotone_in_lambda(case, share):
    tree, lam = case
    later = min(lam + share * (tree.horizon - lam), tree.horizon)
    assert leaf_count_at(tree, lam) <= leaf_count_at(tree, later)
    assert leaf_count_at(tree, lam) == len(leaves_at(tree, lam)) == len(leaf_nodes(tree, lam))


@given(genealogies(), st.data())
def test_property_prune_keeps_the_time_lam_partition(case, data):
    tree, lam = case
    assert prune(tree, tree.horizon)[0] is tree
    pruned, kept = prune(tree, lam)
    assert pruned.horizon == lam and pruned.stream_id == tree.stream_id
    assert np.all(pruned.birth_time[pruned.split_dim >= 0] <= lam)
    cells = leaf_cells_walk(tree, lam)
    assert leaves_at(pruned, lam) == leaves_at(tree, lam) == cells
    splits = pruned.split_dim >= 0
    assert np.array_equal(tree.split_dim[kept][splits], pruned.split_dim[splits])
    assert np.array_equal(tree.threshold[kept][splits], pruned.threshold[splits])
    xs = np.array(data.draw(st.lists(
        st.lists(st.floats(0.0, 1.0), min_size=tree.dimension, max_size=tree.dimension),
        min_size=1, max_size=20)))
    ids = locate_batch(pruned, lam, xs)
    assert np.array_equal(ids, locate_batch(tree, lam, xs))
    assert all(contains(cells[k], x) for k, x in zip(ids, xs))
    with pytest.raises(InputError):
        prune(tree, tree.horizon + 1.0)


@given(genealogies(), st.data())
def test_property_codec_text_round_trips_bit_for_bit(case, data):
    tree, lam = case
    values = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                min_size=leaf_count_at(tree, lam),
                                max_size=leaf_count_at(tree, lam)))
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first", Path(tmp) / "second"
        save_model({"format": "test", "tree": tree_to_obj(tree, lam, values)}, first)
        [back] = trees_from_obj([load_model(first, "test")["tree"]], tree.dimension)
        save_model({"format": "test", "tree": tree_to_obj(*back)}, second)
        assert first.read_bytes() == second.read_bytes()
    assert back[1] == lam and back[2].tolist() == values


@given(genealogies(), st.data())
def test_property_node_groups_are_every_leaf_holding_each_point(case, data):
    tree, _ = case
    coordinate = st.one_of(st.floats(0.0, 1.0), st.sampled_from(
        [0.0, 1.0] + tree.threshold[tree.split_dim >= 0].tolist()))
    xs = np.array(data.draw(st.lists(
        st.lists(coordinate, min_size=tree.dimension, max_size=tree.dimension),
        min_size=1, max_size=15)))
    points, counts = node_groups(tree, xs)
    assert counts.shape == tree.split_dim.shape
    nodes = np.repeat(np.arange(counts.shape[0]), counts)
    # the nodes on a point's path are its leaves at time 0 and at every birth
    expected = sorted({(int(leaf_nodes(tree, lam)[locate_scan(tree, lam, x)]), i)
                       for i, x in enumerate(xs) for lam in [0.0] + split_times(tree)})
    assert list(zip(nodes.tolist(), points.tolist())) == expected


def test_node_groups_of_no_points_are_empty():
    tree = sample_partition(2, 3.0, 8)
    order, counts = node_groups(tree, np.empty((0, 2)))
    assert order.dtype == np.int64 and order.shape == (0,)
    assert counts.tolist() == [0] * tree.split_dim.shape[0]


# The genealogy kernel derives every tree of a forest in one run over the
# concatenated node arrays; the per-node loops of tests/oracles.py are the
# reference, tree by tree.


def left_spine(splits: int, dimension: int = 1) -> tuple:
    """Constructor arguments of a genealogy whose every left child splits
    again, ``splits`` times, cycling through the dimensions."""
    dims = [k % dimension for k in range(splits)] + [-1] * (splits + 1)
    # every cut keeps the lower part of its side: thresholds fall along each dimension
    thresholds = [1.0 - (k // dimension + 1) / (splits + 2) for k in range(splits)]
    births = np.linspace(0.0, 1.0, splits).tolist()
    return (dimension, 1.0, dims, thresholds + [math.nan] * (splits + 1),
            births + [math.inf] * (splits + 1), f"spine/{splits}")


def assert_matches_oracles(tree: PartitionTree) -> None:
    right = brute_force_right_children(tree.split_dim)
    lo, hi = brute_force_node_bounds(tree)
    assert tree.right.dtype == np.int64 and np.array_equal(tree.right, right)
    # bit for bit: the corners are copies of 0, 1 and the thresholds
    assert tree.cell_lo.tobytes() == lo.tobytes() and tree.cell_hi.tobytes() == hi.tobytes()


@given(st.integers(1, 3), st.lists(st.tuples(st.sampled_from([0.0, 0.0, 0.5, 2.0, 6.0]),
                                             st.integers(0, 2**32 - 1)),
                                   min_size=1, max_size=6))
def test_property_forest_kernel_matches_the_oracles_tree_by_tree(dimension, draws):
    trees = [sample_partition(dimension, horizon / dimension, seed) for horizon, seed in draws]
    built = build_partitions((t.dimension, t.horizon, t.split_dim, t.threshold,
                              t.birth_time, t.stream_id) for t in trees)
    for tree, alone in zip(built, trees):
        assert_matches_oracles(tree)
        assert_matches_oracles(alone)
        assert np.array_equal(tree.right, alone.right)
        assert np.array_equal(tree.cell_lo, alone.cell_lo)
        assert np.array_equal(tree.cell_hi, alone.cell_hi)
        assert not tree.right.flags.writeable and not tree.cell_lo.flags.writeable


def test_left_spine_of_two_thousand_splits_matches_the_oracles():
    single_leaf = (2, 0.0, [-1], [math.nan], [math.inf], "leaf")
    built = build_partitions([single_leaf, left_spine(2000, 2), left_spine(5, 2), single_leaf])
    assert [t.split_dim.size for t in built] == [1, 4001, 11, 1]
    for tree in built:
        assert_matches_oracles(tree)
    spine = built[1]
    # split k's right child is a leaf, reached after the k + 1 deeper splits' left leaves
    assert spine.right[:3].tolist() == [4000, 3999, 3998] and spine.right[1999] == 2001
    # the spine's cells share their lower corner with the cube
    assert np.array_equal(spine.cell_lo[:2001], np.zeros((2001, 2)))
    [alone] = build_partitions([left_spine(2000, 1)])
    assert alone.split_dim.size == 4001
    assert_matches_oracles(alone)


def test_forest_kernel_keeps_every_check_within_its_own_tree():
    good = (1, 2.0, [0, -1, -1], [0.5, math.nan, math.nan], [1.0, math.inf, math.inf], "ok")
    cases = [
        ((1, 2.0, [0, -1], [0.5, math.nan], [1.0, math.inf], "short"),
         "do not form a binary tree"),
        ((1, 2.0, [-1, 0, -1], [math.nan, 0.5, math.nan], [math.inf, 1.0, math.inf], "early"),
         "do not form a binary tree"),
        ((1, 2.0, [0, 0, -1, -1, -1], [0.5, 0.7, math.nan, math.nan, math.nan],
          [1.0, 1.5, math.inf, math.inf, math.inf], "cell"), "outside its node's cell"),
        ((1, 2.0, [0, 0, -1, -1, -1], [0.5, 0.3, math.nan, math.nan, math.nan],
          [1.0, 0.5, math.inf, math.inf, math.inf], "decrease"), "decrease down a path"),
        ((1, 2.0, [0, -1, -1], [0.5, math.nan, math.nan], [2.5, math.inf, math.inf], "late"),
         r"lie in \[0, horizon\]"),
        ((1, 2.0, [1, -1, -1], [0.5, math.nan, math.nan], [1.0, math.inf, math.inf], "dim"),
         r"split dimension outside \[0, 1\)"),
        ((1, 2.0, [], [], [], "empty"), "do not form a binary tree"),
    ]
    for bad, message in cases:
        for forest in ([bad], [good, bad], [bad, good], [good, bad, good]):
            with pytest.raises(InputError, match=message):
                build_partitions(forest)
    # a tree that ends early is not mended by the tree after it
    with pytest.raises(InputError, match="do not form a binary tree"):
        build_partitions([(1, 2.0, [0, -1], [0.5, math.nan], [1.0, math.inf], "a"),
                          (1, 2.0, [-1], [math.nan], [math.inf], "b")])
    with pytest.raises(InputError, match="differ in dimension"):
        build_partitions([good, (2, *good[1:])])
