"""Tests for log-density tree fitting, normalization, and evaluation."""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from mondrian_forest import (
    Cell,
    DensityModel,
    DensityTree,
    ExactOverlay,
    FittedTree,
    NumericError,
    PartitionTree,
    ValueBox,
    density_eval,
    density_eval_batch,
    fit_density_forest,
    fit_density_tree,
    leaves_at,
    load_density_model,
    locate_batch,
    log_normalizer,
    predict_tree_batch,
    recenter,
    sample_partition,
    save_density_model,
    volume,
)
from mondrian_forest import density as density_module
from mondrian_forest.density import (
    _scale_equation_heights,
    density_objective,
    overlay_breakpoints,
)
from mondrian_forest.partition import LOCKSTEP_MAX_POINTS, compile_index

from oracles import density_opt_reference


def split_at_half() -> PartitionTree:
    return PartitionTree(1, 1.0, [0, -1, -1], [0.5, math.nan, math.nan],
                         [0.5, math.inf, math.inf], "manual")


def beta_like_points(seed: int, n: int):
    rng = np.random.default_rng(seed)
    return (rng.random((n, 1)) + rng.random((n, 1))) / 2.0


def test_two_cell_closed_form():
    part = split_at_half()
    xs = np.array([[0.1], [0.2], [0.3], [0.7]])
    heights = fit_density_tree(part, 1.0, xs, ValueBox(-10, 10))
    assert heights == pytest.approx([math.log(1.5), math.log(0.5)], abs=1e-12)


def test_uniform_single_cell_is_flat():
    xs = np.random.default_rng(23).random((200, 1))
    model = fit_density_forest(xs, 0.0, 3, 24, ValueBox(-5, 5))
    assert log_normalizer(model) == pytest.approx(0.0, abs=1e-15)
    grid = np.linspace(0, 1, 50).reshape(-1, 1)
    assert np.allclose(density_eval_batch(model, grid), 1.0, atol=1e-15)


def test_empty_leaf_pinned_to_box_bottom():
    part = split_at_half()
    xs = np.array([[0.1], [0.2], [0.3], [0.4]])
    box = ValueBox(-10.0, 10.0)
    heights = fit_density_tree(part, 1.0, xs, box)
    assert heights[1] == box.lo
    assert heights[0] == box.hi


def test_recenter_examples():
    vols = [volume(Cell((0.0,), (0.5,))), volume(Cell((0.5,), (1.0,)))]
    heights = np.array([math.log(1.5), math.log(0.5)])
    centered = recenter(heights, vols)
    shift = 0.5 * math.log(0.75)
    assert centered == pytest.approx(heights - shift, abs=1e-15)
    assert recenter(centered, vols) == pytest.approx(centered, abs=1e-15)
    assert recenter(np.array([2.5, 2.5]), vols) == pytest.approx([0.0, 0.0],
                                                                  abs=1e-15)


def test_per_tree_centering_invariant():
    xs = beta_like_points(25, 600)
    model = fit_density_forest(xs, 3.0, 5, 26, ValueBox(-4, 4))
    for tree in model.trees:
        cells = leaves_at(tree.partition, tree.lam)
        vols = np.array([volume(c) for c in cells])
        assert abs(float(vols @ tree.heights)) < 1e-12


def test_single_tree_normalizer_is_closed_sum():
    xs = beta_like_points(27, 400)
    model = fit_density_forest(xs, 2.0, 1, 28, ValueBox(-4, 4))
    tree = model.trees[0]
    cells = leaves_at(tree.partition, tree.lam)
    vols = np.array([volume(c) for c in cells])
    closed = math.log(float(vols @ np.exp(tree.heights)))
    assert log_normalizer(model) == pytest.approx(closed, abs=1e-12)


def test_overlay_integral_is_one():
    xs = beta_like_points(29, 800)
    model = fit_density_forest(xs, 3.0, 3, 30, ValueBox(-4, 4))
    cuts = overlay_breakpoints(model.trees)
    assert cuts[0] == 0.0 and cuts[-1] == 1.0
    mids = (cuts[:-1] + cuts[1:]) / 2.0
    widths = np.diff(cuts)
    integral = float(widths @ density_eval_batch(model, mids.reshape(-1, 1)))
    assert abs(integral - 1.0) < 1e-12


def test_density_positive_and_finite():
    xs = beta_like_points(31, 500)
    model = fit_density_forest(xs, 4.0, 4, 32, ValueBox(-3, 3))
    pts = np.random.default_rng(33).random((10_000, 1))
    vals = density_eval_batch(model, pts)
    assert np.all(vals > 0.0)
    assert np.all(np.isfinite(vals))
    assert density_eval(model, [0.5]) == pytest.approx(
        float(density_eval_batch(model, np.array([[0.5]]))[0]), abs=0.0)


@pytest.mark.parametrize("d", [1, 2])
def test_point_evaluation_is_exactly_its_batch_row(d):
    xs = np.random.default_rng(38).random((400, d)) ** 2
    model = fit_density_forest(xs, 3.0, 4, 39, ValueBox(-3, 3), grid_points=2**10)
    pts = np.random.default_rng(40).random((LOCKSTEP_MAX_POINTS + 1, d))
    pts[:3] = np.array([[model.trees[0].partition.threshold[0]], [0.0], [1.0]])
    batch = density_eval_batch(model, pts)
    for i in [0, 1, 2, 3, 1000, LOCKSTEP_MAX_POINTS]:
        assert density_eval(model, pts[i]) == batch[i]


def test_grid_normalizer_2d():
    xs = np.random.default_rng(34).random((300, 2))
    flat = fit_density_forest(xs, 0.0, 3, 35, ValueBox(-4, 4))
    assert log_normalizer(flat) == pytest.approx(0.0, abs=1e-12)

    rng = np.random.default_rng(36)
    bumpy = (rng.random((500, 2)) + rng.random((500, 2))) / 2.0
    small = fit_density_forest(bumpy, 2.0, 3, 37, ValueBox(-4, 4),
                               grid_points=2**12)
    big = fit_density_forest(bumpy, 2.0, 3, 37, ValueBox(-4, 4),
                             grid_points=2**13)
    assert abs(log_normalizer(small) - log_normalizer(big)) < 1e-3


def test_fitted_heights_beat_random_feasible_vectors():
    part = sample_partition(1, 3.0, 38)
    xs = beta_like_points(39, 300)
    box = ValueBox(-2.0, 2.0)
    lam = 3.0
    heights = fit_density_tree(part, lam, xs, box)
    cells = leaves_at(part, lam)
    vols = np.array([volume(c) for c in cells])
    counts = np.bincount(locate_batch(part, lam, xs), minlength=len(cells))
    achieved = density_objective(heights, counts.astype(float), vols, 300)
    rng = np.random.default_rng(40)
    for _ in range(100):
        candidate = rng.uniform(box.lo, box.hi, size=len(cells))
        assert achieved <= density_objective(candidate, counts.astype(float),
                                             vols, 300) + 1e-12


def test_clamped_solutions_match_generic_solver():
    rng = np.random.default_rng(41)
    for trial in range(40):
        k = int(rng.integers(2, 12))
        raw = rng.random(k) + 1e-3
        vols = raw / raw.sum()
        counts = rng.integers(0, 30, size=k).astype(float)
        if counts.sum() == 0:
            counts[0] = 5.0
        n = int(counts.sum())
        box = ValueBox(-float(rng.uniform(0.3, 1.5)), float(rng.uniform(0.3, 1.5)))
        heights = _scale_equation_heights(counts, vols, n, box)
        assert box.holds(heights), trial
        ours = density_objective(heights, counts, vols, n)
        ref = density_opt_reference(counts, vols, n, box)
        assert ours <= ref + 1e-8 * (1.0 + abs(ref)), trial


def test_tiny_empty_cell_with_binding_box():
    # a sliver cell with no data once stalled plain coordinate descent; it
    # stays because its clamped mass is tiny next to the others', so the scan
    # must still find the root and leave the empty cell at the box bottom
    vols = np.array([2e-5, 0.4, 0.3, 0.2, 0.09998])
    counts = np.array([0.0, 9000.0, 4000.0, 2500.0, 500.0])
    n = int(counts.sum())
    box = ValueBox(-math.log(math.log(n)), math.log(math.log(n)))
    heights = _scale_equation_heights(counts, vols, n, box)
    ours = density_objective(heights, counts, vols, n)
    ref = density_opt_reference(counts, vols, n, box)
    assert ours <= ref + 1e-8 * (1.0 + abs(ref))
    assert heights[0] == box.lo


def kkt_residual(heights, counts, vols, n: int, box: ValueBox) -> float:
    """Largest violation of the box-constrained stationarity conditions."""
    mass = vols * np.exp(heights)
    grad = mass / mass.sum() - counts / n
    violation = np.where(heights <= box.lo, np.maximum(-grad, 0.0),
                         np.where(heights >= box.hi, np.maximum(grad, 0.0), np.abs(grad)))
    return float(violation.max())


@st.composite
def scale_equation_cases(draw):
    k = draw(st.integers(1, 10))
    # few distinct weights and counts, so cells share event times
    weights = np.array(draw(st.lists(st.sampled_from([1.0, 1.0, 2.0, 3.0, 0.01]),
                                     min_size=k, max_size=k)))
    counts = np.array(draw(st.lists(st.sampled_from([0, 0, 1, 5, 24, 300]),
                                    min_size=k, max_size=k)), dtype=float)
    if counts.sum() == 0:
        counts[draw(st.integers(0, k - 1))] = 24.0
    lo = draw(st.one_of(st.floats(-8.0, -0.01), st.sampled_from([-0.5, -1.0])))
    hi = draw(st.one_of(st.floats(0.01, 8.0), st.sampled_from([0.5, 1.0])))
    return counts, weights / weights.sum(), ValueBox(lo, hi)


# equal counts and volumes, where the old scalar scan took the log of a
# rounded, non-positive clamped mass
@example((np.full(10, 24.0), np.full(10, 0.1),
          ValueBox(-0.7030593952942144, 1.163202714003167)))
@given(scale_equation_cases())
def test_property_scale_equation_heights_are_optimal(case):
    counts, vols, box = case
    n = int(counts.sum())
    heights = _scale_equation_heights(counts, vols, n, box)
    assert box.holds(heights)
    assert np.all(heights[counts == 0] == box.lo)
    assert kkt_residual(heights, counts, vols, n, box) <= 1e-12
    ref = density_opt_reference(counts, vols, n, box)
    assert density_objective(heights, counts, vols, n) <= ref + 1e-12 * (1.0 + abs(ref))


def test_underflowing_box_bottom_is_a_numeric_error():
    # exp(-800) is 0, so no clamped mass is left to fix the scale: the scan
    # would otherwise put every height at the box bottom
    xs = np.array([[0.1], [0.2], [0.3], [0.4]])
    with pytest.raises(NumericError):
        fit_density_tree(split_at_half(), 1.0, xs, ValueBox(-800.0, 5.0))
    with pytest.raises(NumericError):
        _scale_equation_heights(np.array([4.0, 0.0]), np.array([0.5, 0.5]), 4,
                                ValueBox(-800.0, 5.0))


def one_dimensional_model(trees) -> DensityModel:
    """A hand-made d = 1 model of ``(split_dim, threshold, birth_time, heights)``
    trees, each at horizon 1, whose stored ln Z is a placeholder 0."""
    return DensityModel(
        trees=tuple(DensityTree(PartitionTree(1, 1.0, dims, thresholds, births, "manual"),
                                np.array(heights, dtype=float))
                    for dims, thresholds, births, heights in trees),
        log_normalizer=0.0, integration=ExactOverlay())


def test_normalizer_reads_the_cells_between_adjacent_float_edges():
    # the cell [a, b) between two adjacent floats carries the mean 350;
    # the midpoint of a and b rounds onto an edge, so a mesh searched at
    # its midpoints misses that cell
    a = 0.3
    b = np.nextafter(a, 1.0)
    model = one_dimensional_model([
        ([0, -1, -1], [a, math.nan, math.nan], [0.5, math.inf, math.inf], [0.0, 700.0]),
        ([0, -1, -1], [b, math.nan, math.nan], [0.5, math.inf, math.inf], [0.0, -700.0]),
    ])
    widths = np.array([a, b - a, 1.0 - b])
    exact = math.log(float(np.dot(widths, np.exp([0.0, 350.0, 0.0]))))
    assert exact == 312.57005224976297
    assert log_normalizer(model) == exact


def test_thresholds_on_the_cube_edges_go_through_the_overlay():
    nan, inf = math.nan, math.inf
    model = one_dimensional_model([
        # a split at 0, whose left leaf [0, 0) has no width
        ([0, -1, -1], [0.0, nan, nan], [0.3, inf, inf], [700.0, 0.25]),
        # a split at 1, whose right leaf [1, 1] has no width
        ([0, -1, -1], [1.0, nan, nan], [0.6, inf, inf], [-0.5, 700.0]),
        # a split at 0.5 whose left child splits at 0.5 again: [0.5, 0.5) has no width
        ([0, 0, -1, -1, -1], [0.5, 0.5, nan, nan, nan], [0.2, 0.4, inf, inf, inf],
         [1.5, 700.0, -2.0]),
    ])
    xs = np.array([[0.0], [0.25], [0.5], [0.75], [1.0]])
    expected = np.zeros(xs.shape[0])
    for tree in model.trees:
        expected += predict_tree_batch(FittedTree(tree.partition, tree.lam, tree.heights), xs)
    expected /= len(model.trees)
    assert model.index.mean(xs).tobytes() == expected.tobytes()
    # the zero-width leaves hold 700, which would show at any width; the
    # overlay's zero-width end cells hold two of them and add exact zeros
    cuts = overlay_breakpoints(model.trees)
    mids = (0.5 * (cuts[:-1] + cuts[1:])).reshape(-1, 1)
    mesh = math.log(float(np.dot(np.diff(cuts), np.exp(model.index.mean(mids)))))
    assert abs(log_normalizer(model) - mesh) < 1e-12


def test_full_pipeline_handles_binding_boxes():
    rng = np.random.default_rng(42)
    xs = (rng.random((16_000, 1)) + rng.random((16_000, 1))) / 2.0
    model = fit_density_forest(xs, 16_000 ** 0.25, 10, 43, ValueBox(-2.3, 2.3))
    cuts = overlay_breakpoints(model.trees)
    mids = (cuts[:-1] + cuts[1:]) / 2.0
    integral = float(np.diff(cuts) @ density_eval_batch(model, mids.reshape(-1, 1)))
    assert abs(integral - 1.0) < 1e-12


def test_zero_volume_leaf_rejected():
    # the left cell [0, 0.5) x [0, 1] splits at its upper edge, leaving the
    # right leaf [0.5, 0.5) x [0, 1] with no volume
    broken = PartitionTree(2, 1.0, [0, 0, -1, -1, -1],
                           [0.5, 0.5, math.nan, math.nan, math.nan],
                           [0.5, 0.7, math.inf, math.inf, math.inf], "manual")
    with pytest.raises(NumericError):
        fit_density_tree(broken, 1.0, np.array([[0.1, 0.1]]), ValueBox(-3, 3))


def test_density_model_round_trip(tmp_path):
    xs = beta_like_points(44, 350)
    model = fit_density_forest(xs, 2.5, 4, 45, ValueBox(-3, 3))
    path = tmp_path / "density.json"
    save_density_model(model, path)
    text = path.read_text()
    back = load_density_model(path)
    save_density_model(back, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_text() == text
    grid = np.linspace(0, 1, 500).reshape(-1, 1)
    assert np.array_equal(density_eval_batch(model, grid),
                          density_eval_batch(back, grid))
    assert back.log_normalizer == model.log_normalizer


@pytest.mark.parametrize("dimension", [1, 2])
def test_density_fit_compiles_its_query_index_once(dimension, monkeypatch):
    # ln Z is integrated with the index the returned model keeps
    calls = []

    def counting(trees):
        calls.append(1)
        return compile_index(trees)

    monkeypatch.setattr(density_module, "compile_index", counting)
    xs = np.random.default_rng(41).random((300, dimension))
    model = fit_density_forest(xs, 3.0, 4, 42, ValueBox(-3, 3), grid_points=256)
    assert len(calls) == 1
    assert log_normalizer(model) == model.log_normalizer
