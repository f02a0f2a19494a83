"""Tests for ensemble fitting, prediction, classification, serialization."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mondrian_forest import (
    AutoLambda,
    Dataset,
    FitConfig,
    FittedTree,
    FixedLambda,
    Forest,
    InputError,
    LossSpec,
    PartitionTree,
    ResourceError,
    ValueBox,
    classify,
    classify_batch,
    density_eval,
    density_eval_batch,
    fit_density_forest,
    fit_forest,
    fit_forest_auto,
    fit_tree,
    leaf_count_at,
    load_forest,
    log_normalizer,
    predict,
    predict_batch,
    predict_tree_batch,
    sample_forest,
    sample_partition,
    save_forest,
)
from mondrian_forest.density import overlay_breakpoints
import mondrian_forest.partition as partition_module
from mondrian_forest.partition import (
    GRID_PAIRS_MAX_POINTS,
    LOCKSTEP_MAX_POINTS,
    compile_index,
    prune,
)

from oracles import locate_scan


def gaussian_data(seed: int, n: int, d: int = 1) -> Dataset:
    rng = np.random.default_rng(seed)
    xs = rng.random((n, d))
    ys = np.sin(2 * np.pi * xs[:, 0]) + 0.2 * rng.normal(size=n)
    return Dataset(xs, ys)


def label_data(seed: int, n: int) -> Dataset:
    rng = np.random.default_rng(seed)
    xs = rng.random((n, 1))
    ys = np.where(rng.random(n) < 0.5 + 0.4 * np.sin(2 * np.pi * xs[:, 0]),
                  1.0, -1.0)
    return Dataset(xs, ys)


def config_for(seed: int, trees: int = 5, lam: float = 2.0) -> FitConfig:
    return FitConfig(tree_count=trees, lambda_mode=FixedLambda(lam),
                     value_box=ValueBox(-5, 5), seed=seed)


def test_single_tree_forest_equals_tree():
    data = gaussian_data(101, 200)
    forest = fit_forest(data, LossSpec("squared"), config_for(5, trees=1))
    xs = np.random.default_rng(3).random((300, 1))
    assert np.array_equal(predict_batch(forest, xs),
                          predict_tree_batch(forest.trees[0], xs))


def test_every_fit_draws_tree_b_from_the_same_stream():
    data = gaussian_data(7, 200)
    spec, box, h, seed = LossSpec("squared"), ValueBox(-5, 5), 4.0, 23
    forests = [
        fit_forest(data, spec, FitConfig(3, FixedLambda(h), box, seed)),
        fit_forest_auto(data, spec, FitConfig(3, AutoLambda(0.1, h), box, seed)),
        fit_density_forest(data.points, h, 3, seed, box),
    ]
    alone = list(sample_forest(1, h, seed, 5))
    for forest in forests:
        for tree, full in zip(forest.trees, alone):
            # an auto fit keeps its genealogy up to the lambda it selects
            expected = prune(full, tree.lam)[0]
            assert tree.partition.stream_id == expected.stream_id
            for name in ("horizon", "split_dim", "threshold", "birth_time"):
                assert np.array_equal(getattr(tree.partition, name), getattr(expected, name),
                                      equal_nan=True)
    capped = [
        lambda: fit_forest(data, spec, FitConfig(3, FixedLambda(20.0), box, seed, leaf_cap=4)),
        lambda: fit_forest_auto(data, spec,
                                FitConfig(3, AutoLambda(0.1, 20.0), box, seed, leaf_cap=4)),
        lambda: fit_density_forest(data.points, 20.0, 3, seed, box, leaf_cap=4),
    ]
    for fit in capped:
        with pytest.raises(ResourceError, match=r"^tree 0: "):
            fit()


def test_same_seed_identical_predictions():
    data = gaussian_data(102, 200)
    spec = LossSpec("squared")
    a = fit_forest(data, spec, config_for(77))
    b = fit_forest(data, spec, config_for(77))
    xs = np.random.default_rng(4).random((1000, 1))
    assert np.array_equal(predict_batch(a, xs), predict_batch(b, xs))
    c = fit_forest(data, spec, config_for(78))
    assert not np.array_equal(predict_batch(a, xs), predict_batch(c, xs))


def test_forest_averages_trees():
    data = Dataset(np.array([[0.5]]), np.array([1.0]))
    spec = LossSpec("squared")
    box = ValueBox(-5, 5)
    part = sample_partition(1, 0.0, 1)
    t1 = fit_tree(part, 0.0, Dataset(np.array([[0.5]]), np.array([1.0])),
                  spec, box)
    t2 = fit_tree(part, 0.0, Dataset(np.array([[0.5]]), np.array([3.0])),
                  spec, box)
    config = config_for(1, trees=2, lam=0.0)
    forest = Forest(trees=(t1, t2), spec=spec, config=config)
    assert predict(forest, [0.25]) == 2.0


def test_ensemble_linearity_exact():
    data = gaussian_data(103, 300)
    forest = fit_forest(data, LossSpec("squared"), config_for(11, trees=7))
    xs = np.random.default_rng(5).random((1000, 1))
    batch = predict_batch(forest, xs)
    per_tree = np.stack([predict_tree_batch(t, xs) for t in forest.trees])
    assert np.array_equal(batch, per_tree.sum(axis=0) / len(forest.trees))
    for i in range(0, 1000, 211):
        assert predict(forest, xs[i]) == batch[i]


def test_predictions_in_convex_hull_of_leaf_values():
    data = gaussian_data(104, 100)
    box = ValueBox(-0.25, 0.25)
    config = FitConfig(tree_count=9, lambda_mode=FixedLambda(3.0),
                       value_box=box, seed=6)
    forest = fit_forest(data, LossSpec("squared"), config)
    xs = np.random.default_rng(7).random((800, 1))
    preds = predict_batch(forest, xs)
    assert np.all(preds >= box.lo - 1e-15)
    assert np.all(preds <= box.hi + 1e-15)


def test_permutation_invariance_of_fit():
    data = gaussian_data(105, 150)
    perm = np.random.default_rng(8).permutation(data.n)
    shuffled = Dataset(data.points[perm], data.responses[perm])
    spec = LossSpec("squared")
    a = fit_forest(data, spec, config_for(9))
    b = fit_forest(shuffled, spec, config_for(9))
    xs = np.random.default_rng(10).random((500, 1))
    assert np.allclose(predict_batch(a, xs), predict_batch(b, xs), atol=1e-12)


def test_classification_sign_convention():
    data = label_data(106, 400)
    forest = fit_forest(data, LossSpec("phi5"), config_for(12))
    xs = np.random.default_rng(13).random((500, 1))
    preds = predict_batch(forest, xs)
    labels = classify_batch(forest, xs)
    assert set(np.unique(labels)) <= {-1, 1}
    assert np.array_equal(labels, np.where(preds > 0.0, 1, -1))
    assert classify(forest, xs[0]) == labels[0]


def test_boundary_tie_goes_negative():
    part = sample_partition(1, 0.0, 14)
    spec = LossSpec("phi5")
    box = ValueBox(-4, 4)
    tied = Dataset(np.array([[0.2], [0.8]]), np.array([1.0, -1.0]))
    tree = fit_tree(part, 0.0, tied, spec, box)
    config = config_for(15, trees=1, lam=0.0)
    forest = Forest(trees=(tree,), spec=spec, config=config)
    assert predict(forest, [0.5]) == 0.0
    assert classify(forest, [0.5]) == -1


def test_classify_requires_surrogate():
    data = gaussian_data(107, 50)
    forest = fit_forest(data, LossSpec("squared"), config_for(16))
    with pytest.raises(InputError):
        classify_batch(forest, np.array([[0.5]]))
    with pytest.raises(InputError, match="^classification requires a surrogate loss family$"):
        classify(forest, [0.5])
    # a single point is checked before the loss
    with pytest.raises(InputError, match=r"^point lies outside \[0,1\]\^d$"):
        classify(forest, [1.5])


def test_label_flip_flips_decisions():
    data = label_data(108, 300)
    flipped = Dataset(data.points, -data.responses)
    xs = np.random.default_rng(17).random((400, 1))
    for family in ("phi1", "phi5", "phi6"):
        spec = LossSpec(family)
        a = fit_forest(data, spec, config_for(18))
        b = fit_forest(flipped, spec, config_for(18))
        pa = predict_batch(a, xs)
        pb = predict_batch(b, xs)
        assert np.allclose(pa, -pb, atol=1e-12), family
        la = classify_batch(a, xs)
        lb = classify_batch(b, xs)
        ties = pa == 0.0
        assert np.array_equal(la[~ties], -lb[~ties]), family


def test_serialization_round_trip(tmp_path):
    data = gaussian_data(109, 250)
    forest = fit_forest(data, LossSpec("pinball", tau=0.7), config_for(19))
    path = tmp_path / "model.json"
    save_forest(forest, path)
    text = path.read_text()
    back = load_forest(path)
    save_forest(back, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_text() == text
    xs = np.random.default_rng(20).random((1000, 1))
    assert np.array_equal(predict_batch(forest, xs), predict_batch(back, xs))
    assert back.spec == forest.spec
    assert back.config.seed == forest.config.seed


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{\"format\": \"unexpected\"}")
    with pytest.raises(InputError):
        load_forest(path)
    path.write_text("not json")
    with pytest.raises(InputError):
        load_forest(path)


@st.composite
def refit_forests(draw, d):
    """A forest in dimension ``d`` of ``fit_tree`` trees, each fitted at a
    lambda up to its sampled horizon, so the query index has to prune them."""
    horizon = 6.0 / d
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    data = Dataset(rng.random((60, d)), rng.standard_normal(60))
    spec, box = LossSpec("squared"), ValueBox(-3.0, 3.0)
    trees = tuple(fit_tree(partition, draw(st.floats(0.0, horizon)), data, spec, box)
                  for partition in sample_forest(d, horizon, seed, draw(st.integers(1, 4))))
    config = FitConfig(tree_count=len(trees), lambda_mode=FixedLambda(horizon),
                       value_box=box, seed=seed)
    return Forest(trees=trees, spec=spec, config=config)


# (dimension, kernel): the d = 1 overlay; in d >= 2 the slab grid, and the
# walks under a zero grid budget
KERNELS = [(1, "overlay"), (2, "grid"), (2, "walk"), (3, "grid"), (3, "walk")]


def answer(forest, query, points, kernel):
    """``query(forest, points)``, answered by ``kernel``; the grid is built
    on a model's first query, so the budget in force then decides."""
    with pytest.MonkeyPatch.context() as patch:
        if kernel == "walk":
            patch.setattr(partition_module, "GRID_MAX_ENTRIES", 0)
        got = query(forest, points)
    assert (forest.index.grid is not None) == (kernel == "grid")
    return got


# batch sizes on both sides of the crossovers between the d >= 2 kernels
@pytest.mark.parametrize("size", [None, GRID_PAIRS_MAX_POINTS, GRID_PAIRS_MAX_POINTS + 1,
                                  LOCKSTEP_MAX_POINTS, LOCKSTEP_MAX_POINTS + 1])
@pytest.mark.parametrize("d, kernel", KERNELS)
@settings(max_examples=20)
@given(data=st.data())
def test_property_compiled_mean_is_the_tree_order_sum(d, kernel, size, data):
    forest = data.draw(refit_forests(d))
    # thresholds, in use or not, and the cube's faces, where ownership decides
    special = [0.0, 1.0] + [t for tree in forest.trees
                            for t in tree.partition.threshold[tree.partition.split_dim >= 0]]
    coordinate = st.one_of(st.floats(0.0, 1.0), st.sampled_from(special))
    drawn = data.draw(st.lists(st.lists(coordinate, min_size=d, max_size=d),
                               min_size=1, max_size=20))
    size = size or len(drawn)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    fill = np.where(rng.random((size, d)) < 0.5, rng.choice(special, (size, d)),
                    rng.random((size, d)))
    xs = np.concatenate((np.array(drawn, dtype=float), fill))[:size]
    expected = np.zeros(size)
    for tree in forest.trees:
        expected += predict_tree_batch(tree, xs)
    expected /= len(forest.trees)
    got = answer(forest, predict_batch, xs, kernel)
    assert np.array_equal(got, expected)
    # byte for byte, so a -0.0 against a 0.0 shows
    assert got.tobytes() == expected.tobytes()


def assert_overlay_is_tree_order_sum(index, trees):
    """In d = 1, ``index.mean`` at every overlay edge, just below each edge
    and at 0 and 1 is the tree-order sum of the leaf values over the trees
    ``(partition, lambda, values)``, divided once, bit for bit; the leaf
    holding each point is found by a scan of the leaf cells."""
    edges = index.edges
    xs = np.concatenate((edges, np.nextafter(edges, -1.0), [0.0, 1.0]))
    expected = np.zeros(xs.shape[0])
    for partition, lam, values in trees:
        expected += values[[locate_scan(partition, lam, [x]) for x in xs]]
    expected /= len(trees)
    assert index.mean(xs.reshape(-1, 1)).tobytes() == expected.tobytes()


@given(data=st.data())
def test_property_overlay_cells_hold_the_tree_order_sum(data):
    horizon = 6.0
    seed = data.draw(st.integers(0, 2**32 - 1))
    drawn = [(partition, data.draw(st.floats(0.0, horizon)))
             for partition in sample_forest(1, horizon, seed, data.draw(st.integers(1, 3)))]
    # the first tree again, so every edge it has is shared, and a tree
    # at lambda 0, which has no edges
    drawn += [drawn[0], (drawn[-1][0], 0.0)]
    # sums of up to five values of at most 1e300 stay finite
    value = st.one_of(st.sampled_from([0.0, -0.0, 1e300, -1e300]), st.floats(-1e300, 1e300))
    trees = [(partition, lam, np.array(data.draw(st.lists(
        value, min_size=leaf_count_at(partition, lam), max_size=leaf_count_at(partition, lam)))))
        for partition, lam in drawn]
    index = compile_index(trees)
    assert np.array_equal(index.edges, np.unique(np.concatenate(
        [partition.threshold[partition.birth_time <= lam] for partition, lam in drawn])))
    assert_overlay_is_tree_order_sum(index, trees)
    rng = np.random.default_rng(seed)
    model = fit_density_forest(rng.random((80, 1)), data.draw(st.floats(0.0, horizon)),
                               data.draw(st.integers(1, 4)), seed, ValueBox(-3.0, 3.0))
    assert_overlay_is_tree_order_sum(
        model.index, [(tree.partition, tree.lam, tree.heights) for tree in model.trees])
    # ln Z read off the index is the integral over a mesh built apart from
    # it, searched at the mesh's midpoints, bit for bit
    ln_z = log_normalizer(model)
    assert ln_z == model.log_normalizer
    cuts = overlay_breakpoints(model.trees)
    mids = (0.5 * (cuts[:-1] + cuts[1:])).reshape(-1, 1)
    assert ln_z == math.log(np.dot(np.diff(cuts), np.exp(model.index.mean(mids))))


@pytest.mark.parametrize("d, kernel", KERNELS[:3])
def test_point_query_is_exactly_its_batch_row(d, kernel):
    data = gaussian_data(110, 400, d)
    forest = fit_forest(data, LossSpec("squared"), config_for(21, trees=6, lam=4.0))
    xs = np.random.default_rng(22).random((LOCKSTEP_MAX_POINTS + 1, d))
    xs[:3] = np.array([[forest.trees[0].partition.threshold[0]], [0.0], [1.0]])
    batch = answer(forest, predict_batch, xs, kernel)
    for i in [0, 1, 2, 3, 1000, LOCKSTEP_MAX_POINTS]:
        assert predict(forest, xs[i]).hex() == batch[i].hex()


def hand_made_forest(sign: float = 1.0) -> Forest:
    """Three d = 2 trees with thresholds on 0.0 and 1.0, a threshold
    repeated on one dimension, and zero-width leaves, plus a single leaf.
    Leaf values are powers of two times ``sign``, so every sum names its
    leaves; at ``sign`` -0.0 every value is -0.0 and every mean +0.0."""
    def tree(split_dim, threshold, values):
        splits = np.array(split_dim) >= 0
        birth = np.where(splits, 0.5, math.inf)
        partition = PartitionTree(2, 1.0, split_dim, np.where(splits, threshold, math.nan),
                                  birth, "hand")
        return FittedTree(partition, 1.0, np.array(values, dtype=float) * sign)

    nan = math.nan
    trees = (
        # x0 at 1.0: [0, 1) and the face [1, 1]; below, x1 at 0.0 and 0.5
        tree([0, 1, -1, -1, 1, -1, -1], [1.0, 0.0, nan, nan, 0.5, nan, nan], [1, 2, 4, 8]),
        # x0 at 0.5 twice: a zero-width [0.5, 0.5); then x1 at 1.0
        tree([0, -1, 0, -1, 1, -1, -1], [0.5, nan, 0.5, nan, 1.0, nan, nan],
             [16, 32, 64, 128]),
        # x1 at 0.0, then x0 at 0.0: two zero-width leaves at the origin faces
        tree([1, -1, 0, -1, -1], [0.0, nan, 0.0, nan, nan], [256, 512, 1024]),
        tree([-1], [nan], [2048]),
    )
    return Forest(trees, LossSpec("squared"),
                  FitConfig(len(trees), FixedLambda(1.0), ValueBox(0.0, 4096.0), seed=0))


@pytest.mark.parametrize("sign", [1.0, -0.0])
@pytest.mark.parametrize("kernel", ["grid", "walk"])
def test_hand_made_trees_answer_at_edges_and_faces(kernel, sign):
    forest = hand_made_forest(sign)
    # edges, faces, and just below each edge
    grid = [0.0, 5e-324, 0.25, np.nextafter(0.5, 0.0), 0.5, 0.75, np.nextafter(1.0, 0.0), 1.0]
    xs = np.array([[a, b] for a in grid for b in grid])
    got = answer(forest, predict_batch, xs, kernel)
    expected = np.zeros(xs.shape[0])
    for tree in forest.trees:
        expected += predict_tree_batch(tree, xs)
    assert got.tobytes() == (expected / 4).tobytes()
    for x, value in zip(xs, got):
        assert predict(forest, x).hex() == value.hex()
    if sign != 1.0:
        assert not np.any(np.signbit(got))
        return
    # a point on x0 = 1 is in the face leaf of tree 0, on x0 = 0.5 past both
    # splits of tree 1, and on x1 = 1 in the face leaf of tree 1
    assert predict(forest, [1.0, 0.25]) * 4 == 4 + 64 + 1024 + 2048
    assert predict(forest, [0.5, 1.0]) * 4 == 2 + 128 + 1024 + 2048
    assert predict(forest, [0.0, 0.0]) * 4 == 2 + 16 + 1024 + 2048


def test_the_grid_is_built_on_the_first_query_only(tmp_path):
    forest = fit_forest(gaussian_data(32, 300, 2), LossSpec("squared"),
                        config_for(33, trees=4, lam=4.0))
    save_forest(forest, tmp_path / "model.json")
    back = load_forest(tmp_path / "model.json")
    for model in (forest, back):
        assert "grid" not in vars(model.index)
        predict(model, [0.5, 0.5])
        assert "grid" in vars(model.index) and model.index.grid is not None


def test_an_over_budget_model_answers_by_the_walk_and_allocates_no_grid():
    # d = 5, lambda = 3: about 10^13 grid cells, far over the budget
    forest = fit_forest(gaussian_data(34, 200, 5), LossSpec("squared"),
                        config_for(35, trees=20, lam=3.0))
    xs = np.random.default_rng(36).random((50, 5))
    nodes = forest.index.split_dim.shape[0]
    tracemalloc.start()
    try:
        first = predict(forest, xs[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert forest.index.grid is None
    # less than the integer slab corners of the nodes, the build's first
    # arrays, would take
    assert peak < 2 * nodes * 5 * 8
    expected = np.zeros(xs.shape[0])
    for tree in forest.trees:
        expected += predict_tree_batch(tree, xs)
    batch = predict_batch(forest, xs)
    assert batch.tobytes() == (expected / 20).tobytes()
    assert first.hex() == batch[0].hex()


@pytest.mark.parametrize("query", ["predict", "classify", "density_eval"])
@pytest.mark.parametrize("x, message", [
    ([[0.5]], "expected a 1-d point, got shape (1, 1)"),
    ([0.5, 0.5], "point has dimension 2, expected 1"),
    ([float("nan")], "point has non-finite coordinates"),
    ([-0.1], "point lies outside [0,1]^d"),
    ([1.1], "point lies outside [0,1]^d"),
])
def test_point_queries_name_what_is_wrong_with_the_point(query, x, message):
    if query == "density_eval":
        model = fit_density_forest(np.random.default_rng(23).random((100, 1)), 3.0, 2, 24,
                                   ValueBox(-3, 3))
    else:
        model = fit_forest(label_data(25, 100), LossSpec("phi1"), config_for(26, trees=2))
    with pytest.raises(InputError) as caught:
        {"predict": predict, "classify": classify, "density_eval": density_eval}[query](model, x)
    assert str(caught.value) == message


@pytest.mark.parametrize("trees", [1, 30])
def test_one_dimensional_queries_search_once(trees, monkeypatch):
    forest = fit_forest(gaussian_data(27, 200), LossSpec("squared"),
                        config_for(28, trees=trees, lam=6.0))
    model = fit_density_forest(gaussian_data(29, 200).points, 6.0, trees, 30, ValueBox(-3, 3))
    xs = np.random.default_rng(31).random((500, 1))
    calls = []
    searchsorted = np.searchsorted

    def counting(*args, **kwargs):
        calls.append(1)
        return searchsorted(*args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", counting)
    for query, fitted, points in ((predict_batch, forest, xs), (predict, forest, xs[0]),
                                  (density_eval_batch, model, xs), (density_eval, model, xs[0])):
        calls.clear()
        query(fitted, points)
        assert len(calls) == 1, query.__name__
