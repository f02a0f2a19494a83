"""End-to-end tests for the command-line interface."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from mondrian_forest import (
    InputError,
    LossSpec,
    ResourceError,
    ValueBox,
    load_dataset_csv,
    load_forest,
    predict_batch,
)
from mondrian_forest import cli
from mondrian_forest.cli import main, parse_box, parse_loss
from mondrian_forest.density import load_density_model


def read_csv_rows(path):
    lines = path.read_text().strip().splitlines()
    return lines[0], [ln.split(",") for ln in lines[1:]]


def test_parse_loss_valid():
    assert parse_loss("l2") == LossSpec("squared")
    assert parse_loss("pinball:0.9") == LossSpec("pinball", tau=0.9)
    assert parse_loss("huber:2.5") == LossSpec("huber", delta=2.5)
    assert parse_loss("gaussian") == LossSpec("gaussian")
    assert parse_loss("phi3") == LossSpec("phi3")
    assert parse_loss("density") == LossSpec("density")


def test_parse_loss_errors():
    with pytest.raises(InputError):
        parse_loss("pinball")
    with pytest.raises(InputError):
        parse_loss("huber")
    with pytest.raises(InputError):
        parse_loss("l2:3")
    with pytest.raises(InputError):
        parse_loss("pinball:abc")
    with pytest.raises(InputError):
        parse_loss("absolute")


def test_parse_box():
    assert parse_box("-2,3") == ValueBox(-2.0, 3.0)
    with pytest.raises(InputError):
        parse_box("1")
    with pytest.raises(InputError):
        parse_box("a,b")
    with pytest.raises(InputError):
        parse_box("3,1")


def test_gen_fit_predict_roundtrip(tmp_path):
    data_csv = tmp_path / "data.csv"
    model = tmp_path / "model.txt"
    preds_csv = tmp_path / "preds.csv"
    assert main(["gen", "--task", "gaussian", "--n", "200", "--d", "2",
                 "--sigma", "0.1", "--seed", "3", "--out", str(data_csv)]) == 0
    data = load_dataset_csv(str(data_csv))
    assert data.n == 200 and data.dimension == 2
    assert main(["fit", "--input", str(data_csv), "--loss", "l2",
                 "--lambda", "3.0", "--trees", "5", "--seed", "1",
                 "--out", str(model)]) == 0
    assert main(["predict", "--model", str(model), "--input", str(data_csv),
                 "--out", str(preds_csv)]) == 0
    header, rows = read_csv_rows(preds_csv)
    assert header == "x1,x2,pred"
    assert len(rows) == 200
    preds = np.array([float(r[2]) for r in rows])
    forest = load_forest(str(model))
    np.testing.assert_array_equal(preds, predict_batch(forest, data.points))


def test_fit_needs_lambda_or_auto(tmp_path):
    data_csv = tmp_path / "data.csv"
    main(["gen", "--task", "gaussian", "--n", "50", "--out", str(data_csv)])
    code = main(["fit", "--input", str(data_csv), "--loss", "l2",
                 "--out", str(tmp_path / "m.txt")])
    assert code == 2


def test_auto_fit_runs(tmp_path):
    data_csv = tmp_path / "data.csv"
    model = tmp_path / "model.txt"
    main(["gen", "--task", "gaussian", "--n", "120", "--seed", "8",
          "--out", str(data_csv)])
    assert main(["fit", "--input", str(data_csv), "--loss", "l2", "--auto",
                 "--alpha", "0.4", "--trees", "3", "--seed", "2",
                 "--out", str(model)]) == 0
    assert len(load_forest(str(model)).trees) == 3


def test_predict_clamp(tmp_path):
    data_csv = tmp_path / "data.csv"
    model = tmp_path / "model.txt"
    query = tmp_path / "query.csv"
    out = tmp_path / "out.csv"
    main(["gen", "--task", "gaussian", "--n", "60", "--seed", "4",
          "--out", str(data_csv)])
    main(["fit", "--input", str(data_csv), "--loss", "l2", "--lambda", "2.0",
          "--trees", "2", "--out", str(model)])
    query.write_text("x1\n-0.25\n0.5\n1.3\n")
    assert main(["predict", "--model", str(model), "--input", str(query),
                 "--out", str(out)]) == 2
    assert main(["predict", "--model", str(model), "--input", str(query),
                 "--clamp", "--out", str(out)]) == 0
    _, rows = read_csv_rows(out)
    xs = [float(r[0]) for r in rows]
    assert xs == [0.0, 0.5, 1.0]
    # clamping projects coordinates but still checks the file's shape
    for text in ("z1\n0.5\n", "x1\n0.5,0.5\n0.5\n"):
        query.write_text(text)
        assert main(["predict", "--model", str(model), "--input", str(query),
                     "--clamp", "--out", str(out)]) == 2


def test_classify_flow(tmp_path):
    data_csv = tmp_path / "data.csv"
    model = tmp_path / "model.txt"
    labels_csv = tmp_path / "labels.csv"
    main(["gen", "--task", "classify", "--amplitude", "0.4", "--n", "300",
          "--seed", "6", "--out", str(data_csv)])
    assert main(["fit", "--input", str(data_csv), "--loss", "phi5",
                 "--lambda", "3.0", "--trees", "5", "--seed", "9",
                 "--out", str(model)]) == 0
    assert main(["classify", "--model", str(model), "--input", str(data_csv),
                 "--out", str(labels_csv)]) == 0
    header, rows = read_csv_rows(labels_csv)
    assert header == "x1,label"
    assert set(r[1] for r in rows) <= {"1", "-1"}


def test_classify_rejects_regression_model(tmp_path):
    data_csv = tmp_path / "data.csv"
    model = tmp_path / "model.txt"
    main(["gen", "--task", "gaussian", "--n", "50", "--seed", "1",
          "--out", str(data_csv)])
    main(["fit", "--input", str(data_csv), "--loss", "l2", "--lambda", "1.0",
          "--trees", "2", "--out", str(model)])
    assert main(["classify", "--model", str(model), "--input", str(data_csv),
                 "--out", str(tmp_path / "x.csv")]) == 2


def test_select_lambda_stdout(tmp_path, capsys):
    data_csv = tmp_path / "data.csv"
    main(["gen", "--task", "gaussian", "--n", "80", "--seed", "5",
          "--out", str(data_csv)])
    capsys.readouterr()
    assert main(["select-lambda", "--input", str(data_csv), "--loss", "l2",
                 "--alpha", "0.1", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "lambda,risk,penalty,pen_total"
    assert lines[-1].startswith("lambda_star=")
    for ln in lines[1:-1]:
        lam, risk, pen, total = (float(v) for v in ln.split(","))
        assert total == pytest.approx(risk + pen, rel=1e-12)
        assert pen == pytest.approx(0.1 * lam, rel=1e-12)
    star = float(lines[-1].split("=")[1])
    best = min(lines[1:-1], key=lambda ln: (float(ln.split(",")[3]),
                                            float(ln.split(",")[0])))
    assert star == float(best.split(",")[0])


def test_select_lambda_file_output(tmp_path, capsys):
    data_csv = tmp_path / "data.csv"
    path_csv = tmp_path / "path.csv"
    main(["gen", "--task", "gaussian", "--n", "80", "--seed", "5",
          "--out", str(data_csv)])
    capsys.readouterr()
    assert main(["select-lambda", "--input", str(data_csv), "--loss", "l2",
                 "--seed", "2", "--out", str(path_csv)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("lambda_star=")
    header, rows = read_csv_rows(path_csv)
    assert header == "lambda,risk,penalty,pen_total"
    assert rows


def test_select_lambda_prints_the_auto_fit_first_tree_lambda(tmp_path, capsys):
    data_csv, model = tmp_path / "data.csv", tmp_path / "model.txt"
    main(["gen", "--task", "gaussian", "--n", "150", "--seed", "12", "--out", str(data_csv)])
    flags = ["--input", str(data_csv), "--loss", "huber:0.5", "--alpha", "0.01", "--seed", "4"]
    capsys.readouterr()
    assert main(["select-lambda", *flags]) == 0
    star = float(capsys.readouterr().out.strip().splitlines()[-1].split("=")[1])
    assert main(["fit", "--auto", "--trees", "3", "--out", str(model), *flags]) == 0
    assert load_forest(str(model)).trees[0].lam == star


def test_density_cli(tmp_path):
    data_csv = tmp_path / "points.csv"
    model = tmp_path / "dens.txt"
    eval_csv = tmp_path / "eval.csv"
    assert main(["gen", "--task", "density", "--amplitude", "0.8",
                 "--n", "500", "--seed", "11", "--out", str(data_csv)]) == 0
    data = load_dataset_csv(str(data_csv))
    assert data.responses is None
    assert main(["density", "--input", str(data_csv), "--lambda", "2.0",
                 "--trees", "3", "--seed", "7", "--out", str(model),
                 "--eval-grid", "50", "--eval-out", str(eval_csv)]) == 0
    loaded = load_density_model(str(model))
    assert len(loaded.trees) == 3
    header, rows = read_csv_rows(eval_csv)
    assert header == "x1,fhat"
    assert len(rows) == 50
    assert all(float(r[1]) > 0.0 for r in rows)


def test_converge_cli(tmp_path, capsys):
    out_csv = tmp_path / "rate.csv"
    capsys.readouterr()
    assert main(["converge", "--task", "gaussian", "--n-grid", "100,200",
                 "--reps", "1", "--trees", "2", "--test-points", "500",
                 "--seed", "5", "--out", str(out_csv)]) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("slope=") and " se=" in printed
    header, rows = read_csv_rows(out_csv)
    assert header == "n,rep,excess_risk,wall_ms"
    assert len(rows) == 2
    assert [int(r[0]) for r in rows] == [100, 200]


def test_partition_stats_cli(capsys):
    capsys.readouterr()
    assert main(["partition-stats", "--d", "1", "--lambda", "2.0",
                 "--m-trees", "300", "--seed", "7"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "mean_leaves,se_leaves,mean_diameter,se_diameter"
    mean_k, se_k, mean_diam, se_diam = (float(v) for v in lines[1].split(","))
    assert abs(mean_k - 3.0) <= 5 * se_k
    assert 0.0 < mean_diam <= 1.0
    assert se_diam >= 0.0


def test_exit_code_input_errors(tmp_path, capsys):
    data_csv = tmp_path / "data.csv"
    main(["gen", "--task", "gaussian", "--n", "30", "--out", str(data_csv)])
    assert main(["fit", "--input", str(data_csv), "--loss", "nope",
                 "--lambda", "1.0", "--out", str(tmp_path / "m.txt")]) == 2
    assert main(["fit", "--input", str(tmp_path / "missing.csv"),
                 "--loss", "l2", "--lambda", "1.0",
                 "--out", str(tmp_path / "m.txt")]) == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("x1,y\n0.5,oops\n")
    assert main(["fit", "--input", str(bad), "--loss", "l2",
                 "--lambda", "1.0", "--out", str(tmp_path / "m.txt")]) == 2
    points_2d = tmp_path / "points.csv"
    points_2d.write_text("x1,x2\n0.2,0.3\n0.7,0.6\n")
    density = ["density", "--input", str(points_2d), "--lambda", "1.0", "--trees", "2",
               "--out", str(tmp_path / "d.txt")]
    assert main([*density, "--grid-points", "0"]) == 2
    assert main([*density, "--eval-grid", "-1", "--eval-out", str(tmp_path / "e.csv")]) == 2
    capsys.readouterr()
    assert main(["select-lambda", "--input", str(data_csv), "--loss", "l2",
                 "--lambda-max", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: lambda_max must be finite and > 0")
    assert "Traceback" not in err
    converge = ["converge", "--task", "gaussian", "--n-grid", "20,40", "--reps", "1",
                "--trees", "1", "--out", str(tmp_path / "c.csv")]
    capsys.readouterr()
    assert main([*converge, "--test-points", "-3"]) == 2
    assert main([*converge, "--test-points", "0"]) == 2
    err = capsys.readouterr().err
    assert err.count("input error: test_points must be >= 1") == 2
    assert "Traceback" not in err


SEED_COMMANDS = {
    "gen": ["gen", "--task", "gaussian", "--n", "20", "--out", "{out}"],
    "converge": ["converge", "--task", "gaussian", "--n-grid", "20,40", "--reps", "1",
                 "--trees", "1", "--test-points", "10", "--out", "{out}"],
    "density": ["density", "--input", "{points}", "--lambda", "1.0", "--trees", "2",
                "--out", "{out}"],
    "partition-stats": ["partition-stats", "--d", "1", "--lambda", "1.0", "--m-trees", "100"],
    "select-lambda": ["select-lambda", "--input", "{data}", "--loss", "l2"],
    "fit": ["fit", "--input", "{data}", "--loss", "l2", "--lambda", "1.0", "--trees", "2",
            "--out", "{out}"],
}
BAD_SEEDS = [(command, "-1") for command in SEED_COMMANDS if command != "fit"] + \
    [("density", str(2**64)), ("fit", str(2**64))]


@pytest.mark.parametrize("command,seed", BAD_SEEDS, ids=[f"{c} {s}" for c, s in BAD_SEEDS])
def test_seed_outside_64_bits_is_an_input_error(tmp_path, command, seed):
    paths = {"out": tmp_path / "out", "points": tmp_path / "points.csv",
             "data": tmp_path / "data.csv"}
    paths["points"].write_text("x1\n0.2\n0.7\n")
    paths["data"].write_text("x1,y\n0.2,1.0\n0.7,2.0\n")
    argv = [arg.format(**paths) for arg in SEED_COMMANDS[command]]
    proc = subprocess.run([sys.executable, "-m", "mondrian_forest", *argv, "--seed", seed],
                          capture_output=True, text=True, env=os.environ.copy())
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "--seed" in proc.stderr


# counts that no address space holds (2**55 float64 values are 256 PiB), so
# a build without the count check fails at its first allocation, at once
COUNT_COMMANDS = {
    "--n": ["gen", "--task", "gaussian", "--out", "{out}"],
    "--eval-grid": ["density", "--input", "{points}", "--lambda", "1.0", "--trees", "2",
                    "--out", "{out}", "--eval-out", "{out}.csv"],
    "--grid-points": ["density", "--input", "{points2}", "--lambda", "1.0", "--trees", "2",
                      "--out", "{out}"],
    "--test-points": ["converge", "--task", "gaussian", "--n-grid", "20,40", "--reps", "1",
                      "--trees", "1", "--out", "{out}"],
}
HUGE_COUNTS = [(flag, count) for flag in COUNT_COMMANDS for count in (2**55, 2**62)] + \
    [("--eval-grid", 10**20)]


@pytest.mark.parametrize("flag,count", HUGE_COUNTS, ids=[f"{f} {c}" for f, c in HUGE_COUNTS])
def test_counts_beyond_any_address_space_are_input_errors(tmp_path, flag, count):
    paths = {"out": tmp_path / "out", "points": tmp_path / "points.csv",
             "points2": tmp_path / "points2.csv"}
    paths["points"].write_text("x1\n0.2\n0.7\n")
    paths["points2"].write_text("x1,x2\n0.2,0.4\n0.7,0.1\n")
    argv = [arg.format(**paths) for arg in COUNT_COMMANDS[flag]]
    proc = subprocess.run([sys.executable, "-m", "mondrian_forest", *argv, flag, str(count)],
                          capture_output=True, text=True, env=os.environ.copy())
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert flag in proc.stderr and "2**53" in proc.stderr


def test_failed_allocation_is_a_resource_error(tmp_path, monkeypatch, capsys):
    def huge_gen(args):
        np.zeros((2**55, 1))  # 256 PiB: no address space holds it, so it fails at once

    monkeypatch.setattr(cli, "_cmd_gen", huge_gen)
    capsys.readouterr()
    assert main(["gen", "--task", "gaussian", "--n", "5",
                 "--out", str(tmp_path / "data.csv")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("resource error:") and "Traceback" not in err


def test_exit_code_numeric_error(tmp_path):
    huge = tmp_path / "huge.csv"
    huge.write_text("x1,y\n0.25,1e200\n0.75,-1e200\n")
    assert main(["fit", "--input", str(huge), "--loss", "l2",
                 "--lambda", "1.0", "--trees", "1",
                 "--out", str(tmp_path / "m.txt")]) == 4


def test_exit_code_resource_error(tmp_path, monkeypatch):
    def fake_fit(args):
        raise ResourceError("leaf budget exhausted")

    monkeypatch.setattr(cli, "_cmd_fit", fake_fit)
    data_csv = tmp_path / "data.csv"
    main(["gen", "--task", "gaussian", "--n", "30", "--out", str(data_csv)])
    assert main(["fit", "--input", str(data_csv), "--loss", "l2",
                 "--lambda", "1.0", "--out", str(tmp_path / "m.txt")]) == 3


def test_unknown_command_exits_via_argparse():
    with pytest.raises(SystemExit):
        main(["bogus"])


def test_fit_output_is_byte_deterministic(tmp_path):
    data_csv = tmp_path / "data.csv"
    main(["gen", "--task", "gaussian", "--n", "100", "--seed", "13",
          "--out", str(data_csv)])
    m1 = tmp_path / "m1.txt"
    m2 = tmp_path / "m2.txt"
    args = ["fit", "--input", str(data_csv), "--loss", "l2",
            "--lambda", "2.5", "--trees", "4", "--seed", "21"]
    assert main(args + ["--out", str(m1)]) == 0
    assert main(args + ["--out", str(m2)]) == 0
    assert m1.read_bytes() == m2.read_bytes()


def test_module_entrypoint_help():
    proc = subprocess.run([sys.executable, "-m", "mondrian_forest", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "fit" in proc.stdout and "density" in proc.stdout


def test_import_leaves_scipy_stats_unloaded():
    code = "import sys, mondrian_forest; print('scipy.stats' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=os.environ.copy())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _first_tree(model):
    return model["trees"][0], model["trees"][0]["partition"]


def _second_threshold_outside_its_cell(model):
    # the second split is the root's left child [0, t) when node 1 splits,
    # else its right child [t, 1]; move its threshold into the sibling cell
    _, part = _first_tree(model)
    t = part["threshold"][0]
    part["threshold"][1] = (t + 1.0) / 2.0 if part["split_dim"][1] >= 0 else t / 2.0
    return model


def _edit(fn):
    def mutate(model):
        fn(*_first_tree(model))
        return model
    return mutate


def _as_v2(model, kind):
    # v2 stored each tree's lambda beside its genealogy's horizon
    for tree in model["trees"]:
        tree["lambda"] = tree["partition"]["horizon"]
    return {**model, "format": f"mondrian-{kind}-v2"}


MALFORMED_MODELS = [
    ("forest", "v1 format", lambda m: {**m, "format": "mondrian-forest-v1"}),
    ("forest", "v2 file", lambda m: _as_v2(m, "forest")),
    ("forest", "values cut short", _edit(lambda t, p: t.update(values=t["values"][:-1]))),
    ("forest", "one value too many", _edit(lambda t, p: t["values"].append(0.0))),
    ("forest", "value outside the box", _edit(lambda t, p: t["values"].__setitem__(0, 1e300))),
    ("forest", "value not finite", _edit(lambda t, p: t["values"].__setitem__(0, math.nan))),
    ("forest", "values not numbers", _edit(lambda t, p: t.update(values="abc"))),
    ("forest", "split dimension out of range", _edit(lambda t, p: p["split_dim"].__setitem__(0, 1))),
    ("forest", "threshold outside the cube", _edit(lambda t, p: p["threshold"].__setitem__(0, 1.5))),
    ("forest", "threshold outside its cell", _second_threshold_outside_its_cell),
    ("forest", "split born after the horizon",
     _edit(lambda t, p: p["birth_time"].__setitem__(-1, p["horizon"] + 1.0))),
    ("forest", "tree dimension differs from the header", _edit(lambda t, p: p.update(dimension=2))),
    ("forest", "nodes do not form a tree", _edit(lambda t, p: p["split_dim"].append(-1))),
    ("forest", "box not numbers", lambda m: {**m, "box": ["a", 1.0]}),
    ("forest", "seed not finite", lambda m: {**m, "seed": math.inf}),
    ("forest", "leaf cap not an integer", lambda m: {**m, "leaf_cap": 7.9}),
    ("forest", "partition dimension not finite", _edit(lambda t, p: p.update(dimension=math.inf))),
    ("forest", "stream id not a string",
     _edit(lambda t, p: p.update(stream_id=None))),
    ("forest", "not an object", lambda m: [1, 2]),
    ("forest", "not ASCII", lambda m: b"\xff\xfe"),
    ("density", "v1 format", lambda m: {**m, "format": "mondrian-density-v1"}),
    ("density", "v2 file", lambda m: _as_v2(m, "density")),
    ("density", "heights cut short", _edit(lambda t, p: t.update(values=t["values"][:-1]))),
    ("density", "height not finite", _edit(lambda t, p: t["values"].__setitem__(0, math.inf))),
    ("density", "log normalizer not finite", lambda m: {**m, "log_normalizer": math.nan}),
    ("density", "threshold outside its cell", _second_threshold_outside_its_cell),
    ("density", "integration grid of -5 points",
     lambda m: {**m, "integration": {"method": "grid", "point_count": -5, "seed": 0}}),
    ("density", "integration grid of infinitely many points",
     lambda m: {**m, "integration": {"method": "grid", "point_count": math.inf, "seed": 0}}),
    ("density", "integration grid of 8.7 points",
     lambda m: {**m, "integration": {"method": "grid", "point_count": 8.7, "seed": 0}}),
    ("density-d2", "overlay integration in 2-d",
     lambda m: {**m, "integration": {"method": "overlay"}}),
    ("dataset", "not ASCII", lambda m: b"x1,y\n\xff,1\n"),
]


def _model_file(tmp_path, kind):
    """A fitted forest (or, for "density", a 1-d density and for
    "density-d2" a 2-d density) model of two trees, its training data and
    its JSON object."""
    data_csv, model_path = tmp_path / "data.csv", tmp_path / "model.txt"
    if not kind.startswith("density"):
        assert main(["gen", "--task", "gaussian", "--n", "60", "--out", str(data_csv)]) == 0
        assert main(["fit", "--input", str(data_csv), "--loss", "l2", "--lambda", "6",
                     "--trees", "2", "--out", str(model_path)]) == 0
    else:
        d = "2" if kind == "density-d2" else "1"
        assert main(["gen", "--task", "density", "--n", "60", "--d", d,
                     "--out", str(data_csv)]) == 0
        assert main(["density", "--input", str(data_csv), "--lambda", "6", "--trees", "2",
                     "--grid-points", "256", "--out", str(model_path)]) == 0
    model = json.loads(model_path.read_text())
    assert model["trees"][0]["partition"]["split_dim"][0] >= 0  # the cases need two splits
    assert len(model["trees"][0]["partition"]["threshold"]) >= 2
    return data_csv, model


def _write(path, model):
    if isinstance(model, bytes):
        path.write_bytes(model)
    else:
        path.write_text(json.dumps(model))
    return path


@pytest.mark.parametrize("kind,case,mutate", MALFORMED_MODELS,
                         ids=[f"{kind}: {case}" for kind, case, _ in MALFORMED_MODELS])
def test_malformed_model_files_are_input_errors(tmp_path, capsys, kind, case, mutate):
    data_csv, model = _model_file(tmp_path, kind)
    bad_path = _write(tmp_path / "bad.txt", mutate(model))
    if kind == "forest":
        capsys.readouterr()
        assert main(["predict", "--model", str(bad_path), "--input", str(data_csv),
                     "--out", str(tmp_path / "pred.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:")
    elif kind == "dataset":
        capsys.readouterr()
        assert main(["fit", "--input", str(bad_path), "--loss", "l2", "--lambda", "6",
                     "--out", str(tmp_path / "refit.txt")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and str(bad_path) in err
    else:
        # no command loads a density model, so the loader is called directly
        with pytest.raises(InputError) as raised:
            load_density_model(str(bad_path))
        err = str(raised.value)
    if case == "v2 file":
        assert f"mondrian-{kind}-v3" in err
    if case in ("values cut short", "one value too many", "heights cut short"):
        leaves = len(model["trees"][0]["partition"]["threshold"]) + 1
        assert "tree 0 has" in err and f"values for {leaves} leaves" in err


def _huge_dimension(model):
    model["dimension"] = 10**13
    for tree in model["trees"]:
        tree["partition"]["dimension"] = 10**13
    return model


OVERSIZED_MODELS = [
    ("forest", "dimension of 10**13", _huge_dimension),
    ("density", "dimension of 10**13", _huge_dimension),
]


@pytest.mark.parametrize("kind,case,mutate", OVERSIZED_MODELS,
                         ids=[f"{kind}: {case}" for kind, case, _ in OVERSIZED_MODELS])
def test_oversized_model_files_are_resource_errors(tmp_path, kind, case, mutate):
    data_csv, model = _model_file(tmp_path, kind)
    bad_path = _write(tmp_path / "bad.txt", mutate(model))
    if kind == "forest":
        proc = subprocess.run([sys.executable, "-m", "mondrian_forest", "predict",
                               "--model", str(bad_path), "--input", str(data_csv),
                               "--out", str(tmp_path / "pred.csv")],
                              capture_output=True, text=True, env=os.environ.copy())
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.startswith("resource error:") and "Traceback" not in proc.stderr
    else:
        # no command loads a density model, so the loader is called directly
        with pytest.raises(ResourceError):
            load_density_model(str(bad_path))


def test_fifty_dimensional_model_loads_and_predicts(tmp_path):
    data_csv, model_path = tmp_path / "data.csv", tmp_path / "model.txt"
    assert main(["gen", "--task", "gaussian", "--n", "80", "--d", "50",
                 "--out", str(data_csv)]) == 0
    assert main(["fit", "--input", str(data_csv), "--loss", "l2", "--lambda", "0.05",
                 "--trees", "3", "--out", str(model_path)]) == 0
    forest = load_forest(model_path)
    assert forest.dimension == 50
    assert max(tree.partition.split_dim.size for tree in forest.trees) > 1
    assert main(["predict", "--model", str(model_path), "--input", str(data_csv),
                 "--out", str(tmp_path / "pred.csv")]) == 0
    _, rows = read_csv_rows(tmp_path / "pred.csv")
    assert len(rows) == 80
