"""Tests for the shared domain types and the dataset CSV format."""

import math
import re

import numpy as np
import pytest

from mondrian_forest import (
    AutoLambda,
    Cell,
    Dataset,
    FitConfig,
    FixedLambda,
    InputError,
    ValueBox,
    contains,
    diameter,
    load_dataset_csv,
    save_dataset_csv,
    volume,
)
from mondrian_forest.core import as_point, as_points, clamp, read_csv_columns

from oracles import linear_size, unit_cell


def test_clamp():
    assert clamp(5.0, 0.0, 1.0) == 1.0
    assert clamp(-2.0, 0.0, 1.0) == 0.0
    assert clamp(0.25, 0.0, 1.0) == 0.25


def test_as_point_accepts_sequences_and_validates():
    p = as_point([0.2, 0.8])
    assert p.shape == (2,)
    assert as_point([]).shape == (0,)
    with pytest.raises(InputError):
        as_point([[0.2, 0.8]])
    with pytest.raises(InputError):
        as_point([0.2, 0.8], dimension=3)
    with pytest.raises(InputError):
        as_point([0.2, float("nan")])
    with pytest.raises(InputError):
        as_point([0.2, 1.5])


def test_as_points_shapes():
    pts = as_points([[0.1], [0.9]])
    assert pts.shape == (2, 1)
    flat = as_points(np.array([0.1, 0.5, 0.9]))
    assert flat.shape == (3, 1)
    single = as_points(np.array([0.1, 0.5]), dimension=2)
    assert single.shape == (1, 2)
    with pytest.raises(InputError):
        as_points([[0.1, 0.5]], dimension=3)
    with pytest.raises(InputError):
        as_points([[0.1, -0.2]])


def test_cell_validation():
    cell = Cell((0.0, 0.25), (0.5, 1.0))
    assert cell.dimension == 2
    assert np.allclose(cell.side_lengths(), [0.5, 0.75])
    with pytest.raises(InputError):
        Cell((0.6,), (0.4,))
    with pytest.raises(InputError):
        Cell((0.0,), (1.5,))
    with pytest.raises(InputError):
        Cell((0.0, 0.0), (1.0,))
    with pytest.raises(InputError):
        Cell((), ())


def test_linear_size_examples():
    assert linear_size(unit_cell(2)) == 2.0
    assert linear_size(Cell((0.0, 0.0), (1.0, 0.5))) == 1.5
    assert linear_size(Cell((0.3, 0.3), (0.3, 0.3))) == 0.0


def test_volume_and_diameter():
    assert volume(unit_cell(3)) == 1.0
    assert volume(Cell((0.0, 0.0), (0.5, 0.5))) == 0.25
    assert diameter(unit_cell(2)) == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert diameter(unit_cell(3)) == pytest.approx(math.sqrt(3.0), abs=1e-15)


def test_contains_half_open_convention():
    left = Cell((0.0,), (0.5,))
    right = Cell((0.5,), (1.0,))
    assert contains(left, [0.25])
    assert not contains(left, [0.5])
    assert contains(right, [0.5])
    assert contains(right, [1.0])
    with pytest.raises(InputError):
        contains(left, [0.25, 0.5])


def test_value_box():
    box = ValueBox(-2.0, 3.0)
    assert box.width == 5.0
    assert box.clip(10.0) == 3.0
    assert box.clip(-10.0) == -2.0
    assert box.holds(0.0)
    assert not box.holds(3.0001)
    with pytest.raises(InputError):
        ValueBox(1.0, 1.0)
    with pytest.raises(InputError):
        ValueBox(2.0, -2.0)
    with pytest.raises(InputError):
        ValueBox(0.0, float("inf"))


def test_lambda_modes():
    assert FixedLambda(0.0).value == 0.0
    with pytest.raises(InputError):
        FixedLambda(-1.0)
    auto = AutoLambda(0.5, 10.0)
    assert auto.alpha == 0.5
    with pytest.raises(InputError):
        AutoLambda(0.0, 10.0)
    with pytest.raises(InputError):
        AutoLambda(1.5, 10.0)
    with pytest.raises(InputError):
        AutoLambda(0.5, 0.0)


def test_fit_config_validation():
    box = ValueBox(-1.0, 1.0)
    config = FitConfig(tree_count=10, lambda_mode=FixedLambda(2.0),
                       value_box=box, seed=7)
    assert config.leaf_cap == 10**6
    with pytest.raises(InputError):
        FitConfig(tree_count=0, lambda_mode=FixedLambda(2.0),
                  value_box=box, seed=7)
    with pytest.raises(InputError):
        FitConfig(tree_count=1, lambda_mode=FixedLambda(2.0),
                  value_box=box, seed=-1)
    with pytest.raises(InputError):
        FitConfig(tree_count=1, lambda_mode=FixedLambda(2.0),
                  value_box=box, seed=7, leaf_cap=0)


def test_dataset_copies_and_freezes():
    pts = np.array([[0.1], [0.9]])
    ys = np.array([1.0, 2.0])
    data = Dataset(pts, ys)
    pts[0, 0] = 0.5
    ys[0] = 99.0
    assert data.points[0, 0] == 0.1
    assert data.responses[0] == 1.0
    with pytest.raises(ValueError):
        data.points[0, 0] = 0.3
    assert data.n == 2
    assert data.dimension == 1


def test_dataset_validation():
    with pytest.raises(InputError):
        Dataset(np.array([[0.1], [1.2]]))
    with pytest.raises(InputError):
        Dataset(np.array([[0.1], [0.2]]), np.array([1.0]))
    with pytest.raises(InputError):
        Dataset(np.array([[0.1]]), np.array([float("inf")]))
    with pytest.raises(InputError):
        Dataset(np.array([0.1, 0.2]))
    data = Dataset(np.array([[0.1], [0.2]]))
    with pytest.raises(InputError):
        data.require_responses()


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    pts = rng.random((25, 3))
    ys = rng.normal(size=25)
    data = Dataset(pts, ys)
    path = tmp_path / "data.csv"
    save_dataset_csv(data, path)
    text = path.read_text()
    assert text.splitlines()[0] == "x1,x2,x3,y"
    back = load_dataset_csv(path)
    assert np.array_equal(back.points, data.points)
    assert np.array_equal(back.responses, data.responses)
    save_dataset_csv(back, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_text() == text


def test_csv_without_responses(tmp_path):
    data = Dataset(np.array([[0.25], [0.75]]))
    path = tmp_path / "points.csv"
    save_dataset_csv(data, path)
    assert path.read_text().splitlines()[0] == "x1"
    back = load_dataset_csv(path)
    assert back.responses is None
    assert np.array_equal(back.points, data.points)


def test_csv_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x1,z\n0.1,2.0\n")
    with pytest.raises(InputError):
        load_dataset_csv(path)
    path.write_text("x1,y\n0.1\n")
    with pytest.raises(InputError):
        load_dataset_csv(path)
    path.write_text("x1,y\n0.1,apple\n")
    with pytest.raises(InputError):
        load_dataset_csv(path)
    path.write_text("x1,y\n1.7,2.0\n")
    with pytest.raises(InputError):
        load_dataset_csv(path)
    path.write_text("")
    with pytest.raises(InputError):
        load_dataset_csv(path)


def test_csv_fields_parse_as_python_floats_and_the_first_bad_row_is_named(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text("x1,x2,y\n0.25,1e-3,-2\n  \n0.5, 0.75 ,1_0\n0.1,nan,-inf\n")
    points, responses = read_csv_columns(path)
    assert points.dtype == float and points.shape == (3, 2)
    assert points.tolist()[:2] == [[0.25, 0.001], [0.5, 0.75]] and math.isnan(points[2, 1])
    assert responses.tolist() == [-2.0, 10.0, -math.inf]
    path.write_text("x1,y\n")
    points, responses = read_csv_columns(path)
    assert points.shape == (0, 1) and responses.shape == (0,)
    for body, message in (("0.1,0.2\n0.3\n", "row has 1 fields, expected 2"),
                          ("0.1,0.2\n0.3,0.4,0.5\n", "row has 3 fields, expected 2"),
                          ("0.1,0.2\n0.3,x\n0.4\n", "non-numeric field in row '0.3,x'"),
                          ("0.1\n0.3,x\n", "row has 1 fields, expected 2")):
        path.write_text("x1,y\n" + body)
        with pytest.raises(InputError, match=f"^{re.escape(f'{path}: {message}')}$"):
            read_csv_columns(path)
