"""Command-line interface.

Exit codes: 0 on success, 2 for input errors, 3 for resource-budget
errors and failed allocations, 4 for numeric failures. All outputs are
byte-deterministic for a fixed seed, except the wall_ms column of `converge`.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .core import (
    Dataset,
    FitConfig,
    FixedLambda,
    AutoLambda,
    InputError,
    NumericError,
    ResourceError,
    ValueBox,
    load_dataset_csv,
    read_csv_columns,
    save_dataset_csv,
)
from .density import (
    DEFAULT_GRID_POINTS,
    density_eval_batch,
    fit_density_forest,
    save_density_model,
)
from .forest import (
    DEFAULT_TREE_COUNT,
    classify_batch,
    fit_forest,
    load_forest,
    predict_batch,
    save_forest,
)
from .losses import EXPFAMILY_FAMILIES, SURROGATE_FAMILIES, LossSpec, default_value_box
from .experiments import (
    AutoRule,
    ExperimentSpec,
    FixedRule,
    PaperRate,
    partition_stats,
    run_convergence,
)
from .partition import sample_forest
from .selection import DEFAULT_ALPHA, default_lambda_max, fit_forest_auto, penalty_path
from .synth import TARGET_KINDS, TASKS, TargetFunction, generate


def parse_loss(text: str) -> LossSpec:
    """Parse `--loss` values: l2, pinball:TAU, huber:DELTA, gaussian,
    poisson, bernoulli, geometric, phi1..phi6, density."""
    name, _, arg = text.partition(":")
    name = name.strip().lower()
    if name == "pinball":
        if not arg:
            raise InputError("pinball requires a quantile level, e.g. pinball:0.9")
        return LossSpec("pinball", tau=_parse_float(arg, "pinball level"))
    if name == "huber":
        if not arg:
            raise InputError("huber requires a scale, e.g. huber:1.0")
        return LossSpec("huber", delta=_parse_float(arg, "huber scale"))
    if arg:
        raise InputError(f"loss {name!r} takes no parameter")
    if name == "l2":
        return LossSpec("squared")
    if name in EXPFAMILY_FAMILIES + SURROGATE_FAMILIES + ("density",):
        return LossSpec(name)
    raise InputError(f"unknown loss {text!r}")


def _parse_float(text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise InputError(f"{what} must be numeric: {text!r}") from exc


def parse_box(text: str) -> ValueBox:
    parts = text.split(",")
    if len(parts) != 2:
        raise InputError("--box expects two comma-separated numbers: lo,hi")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise InputError(f"--box values must be numeric: {text!r}") from exc
    return ValueBox(lo, hi)


def _write_predictions(path: str, points: np.ndarray, values: np.ndarray,
                       value_name: str, integer_values: bool = False) -> None:
    d = points.shape[1]
    header = ",".join(f"x{j + 1}" for j in range(d)) + f",{value_name}"
    lines = [header]
    for i in range(points.shape[0]):
        row = [repr(float(v)) for v in points[i]]
        row.append(str(int(values[i])) if integer_values else repr(float(values[i])))
        lines.append(",".join(row))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_raw_points(path: str, clamp_points: bool) -> np.ndarray:
    """Read query points; with clamping, project coordinates onto [0,1] first."""
    if not clamp_points:
        return load_dataset_csv(path).points
    points, _ = read_csv_columns(path)
    if not np.all(np.isfinite(points)):
        raise InputError(f"{path}: non-finite coordinates")
    return np.clip(points, 0.0, 1.0)


def _cmd_gen(args: argparse.Namespace) -> int:
    _check_cells(args.n, args.d, "--n x --d")
    target = TargetFunction(kind=args.target, amplitude=args.amplitude,
                            offset=args.offset)
    data = generate(args.task, target, args.n, args.d, args.seed,
                    sigma=args.sigma)
    save_dataset_csv(data, args.out)
    return 0


def _value_box(args: argparse.Namespace, data: Dataset, spec: LossSpec) -> ValueBox:
    """``--box``, or the loss's default box at the data's size."""
    return parse_box(args.box) if args.box else default_value_box(spec, max(data.n, 2))


def _auto_lambda(args: argparse.Namespace, data: Dataset) -> AutoLambda:
    """``--alpha`` and ``--lambda-max``, by default the data's expected-leaf horizon."""
    lam_max = default_lambda_max(data.n, data.dimension) if args.lambda_max is None \
        else args.lambda_max
    return AutoLambda(args.alpha, lam_max)


def _fit_config(args: argparse.Namespace, data: Dataset, spec: LossSpec) -> FitConfig:
    box = _value_box(args, data, spec)
    if args.auto:
        mode: FixedLambda | AutoLambda = _auto_lambda(args, data)
    else:
        if args.lam is None:
            raise InputError("either --lambda or --auto is required")
        mode = FixedLambda(args.lam)
    return FitConfig(tree_count=args.trees, lambda_mode=mode, value_box=box,
                     seed=args.seed)


def _cmd_fit(args: argparse.Namespace) -> int:
    spec = parse_loss(args.loss)
    if spec.family == "density":
        raise InputError("use the `density` command for density estimation")
    data = load_dataset_csv(args.input)
    if data.responses is None:
        raise InputError(f"{args.input}: fit requires a response column")
    config = _fit_config(args, data, spec)
    forest = fit_forest_auto(data, spec, config) if args.auto else \
        fit_forest(data, spec, config)
    save_forest(forest, args.out)
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    forest = load_forest(args.model)
    points = _read_raw_points(args.input, args.clamp)
    preds = predict_batch(forest, points)
    _write_predictions(args.out, points, preds, "pred")
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    forest = load_forest(args.model)
    points = _read_raw_points(args.input, args.clamp)
    labels = classify_batch(forest, points)
    _write_predictions(args.out, points, labels, "label", integer_values=True)
    return 0


def _cmd_select_lambda(args: argparse.Namespace) -> int:
    spec = parse_loss(args.loss)
    data = load_dataset_csv(args.input)
    if data.responses is None:
        raise InputError(f"{args.input}: selection requires a response column")
    mode = _auto_lambda(args, data)
    partition = next(sample_forest(data.dimension, mode.lambda_max, args.seed, 1))
    path = penalty_path(partition, data, spec, _value_box(args, data, spec), mode.alpha)
    lines = ["lambda,risk,penalty,pen_total"]
    for lam, risk, pen in zip(path.breakpoints, path.risks, path.pen_totals):
        lines.append(f"{repr(float(lam))},{repr(float(risk))},"
                     f"{repr(float(mode.alpha * lam))},{repr(float(pen))}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    sys.stdout.write(f"lambda_star={repr(path.lambda_star)}\n")
    return 0


def _cmd_density(args: argparse.Namespace) -> int:
    if args.eval_grid < 0:
        raise InputError(f"--eval-grid must be >= 0, got {args.eval_grid}")
    data = load_dataset_csv(args.input)
    _check_cells(args.grid_points, data.dimension, "--grid-points x the dimension of --input")
    _check_cells(args.eval_grid, data.dimension, "--eval-grid x the dimension of --input")
    model = fit_density_forest(data.points, args.lam, args.trees, args.seed,
                               _value_box(args, data, LossSpec("density")),
                               grid_points=args.grid_points)
    save_density_model(model, args.out)
    if args.eval_out:
        grid_rng = np.random.default_rng(args.seed)
        pts = grid_rng.random((args.eval_grid, data.dimension))
        vals = density_eval_batch(model, pts)
        _write_predictions(args.eval_out, pts, vals, "fhat")
    return 0


def _cmd_converge(args: argparse.Namespace) -> int:
    target = TargetFunction(kind=args.target, amplitude=args.amplitude,
                            offset=args.offset)
    try:
        n_grid = tuple(int(v) for v in args.n_grid.split(","))
    except ValueError as exc:
        raise InputError("--n-grid must be comma-separated integers") from exc
    _check_cells(max(n_grid), args.d, "--n-grid x --d")
    _check_cells(args.test_points, args.d, "--test-points x --d")
    if args.auto:
        rule: PaperRate | FixedRule | AutoRule = AutoRule(args.alpha)
    elif args.lam is not None:
        rule = FixedRule(args.lam)
    else:
        rule = PaperRate(args.p)
    loss = parse_loss(args.loss) if args.loss else None
    spec = ExperimentSpec(
        task=args.task, target=target, dimension=args.d, n_grid=n_grid,
        replications=args.reps, lambda_rule=rule, tree_count=args.trees,
        seed=args.seed, sigma=args.sigma, tau=args.tau, loss=loss,
        test_points=args.test_points)
    with open(args.out, "w", encoding="ascii") as fh:
        result = run_convergence(spec, csv_out=fh)
    sys.stdout.write(f"slope={repr(result.slope)} se={repr(result.slope_se)}\n")
    return 0


def _cmd_partition_stats(args: argparse.Namespace) -> int:
    mean_k, se_k, mean_diam, se_diam = partition_stats(
        args.d, args.lam, args.m_trees, args.seed)
    sys.stdout.write("mean_leaves,se_leaves,mean_diameter,se_diameter\n")
    sys.stdout.write(f"{repr(mean_k)},{repr(se_k)},{repr(mean_diam)},{repr(se_diam)}\n")
    return 0


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None


def _seed(text: str) -> int:
    """A ``--seed`` value: an integer in [0, 2**64), the range numpy seeds take."""
    seed = _integer(text)
    if not 0 <= seed < 2**64:
        raise argparse.ArgumentTypeError(f"must lie in [0, 2**64), got {seed}")
    return seed


def _count(text: str) -> int:
    """A count flag's value: an integer below 2**53, as many float64s as fill
    the 64 PiB an x86-64 process can address at most. Commands check lower bounds."""
    count = _integer(text)
    if count >= 2**53:
        raise argparse.ArgumentTypeError(f"must be below 2**53, got {count}")
    return count


def _check_cells(rows: int, columns: int, what: str) -> None:
    """Bound an array of rows x columns float64s as :func:`_count` bounds one
    count; commands check lower bounds."""
    if min(rows, columns) > 0 and rows * columns >= 2**53:
        raise InputError(f"{what} must be below 2**53, got {rows} x {columns}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mondrian-forest",
        description="Mondrian-forest estimators for convex losses")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, trees: bool = True) -> None:
        p.add_argument("--seed", type=_seed, default=0)
        if trees:
            p.add_argument("--trees", type=_count, default=DEFAULT_TREE_COUNT)

    p = sub.add_parser("gen", help="generate a synthetic dataset CSV")
    p.add_argument("--task", required=True, choices=TASKS)
    p.add_argument("--target", default="sine", choices=TARGET_KINDS)
    p.add_argument("--amplitude", type=float, default=0.5)
    p.add_argument("--offset", type=float, default=0.0)
    p.add_argument("--n", type=_count, required=True)
    p.add_argument("--d", type=_count, default=1)
    p.add_argument("--sigma", type=float, default=0.3)
    p.add_argument("--out", required=True)
    add_common(p, trees=False)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("fit", help="fit a forest to a dataset CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--loss", required=True)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--auto", action="store_true",
                   help="select each tree's horizon by penalized risk")
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    p.add_argument("--lambda-max", dest="lambda_max", type=float)
    p.add_argument("--box")
    p.add_argument("--out", required=True)
    add_common(p)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("predict", help="evaluate a fitted forest on points")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--clamp", action="store_true",
                   help="project query points onto [0,1]^d")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("classify", help="label points with a surrogate-loss forest")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--clamp", action="store_true")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("select-lambda", help="print one tree's penalty path")
    p.add_argument("--input", required=True)
    p.add_argument("--loss", required=True)
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    p.add_argument("--lambda-max", dest="lambda_max", type=float)
    p.add_argument("--box")
    p.add_argument("--out")
    add_common(p, trees=False)
    p.set_defaults(func=_cmd_select_lambda)

    p = sub.add_parser("density", help="fit a density forest to points")
    p.add_argument("--input", required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--box")
    p.add_argument("--out", required=True)
    p.add_argument("--grid-points", dest="grid_points", type=_count, default=DEFAULT_GRID_POINTS)
    p.add_argument("--eval-grid", dest="eval_grid", type=_count, default=1000)
    p.add_argument("--eval-out", dest="eval_out")
    add_common(p)
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("converge", help="sweep n and fit the rate slope")
    p.add_argument("--task", required=True, choices=[t for t in TASKS if t != "density"])
    p.add_argument("--target", default="sine", choices=TARGET_KINDS)
    p.add_argument("--amplitude", type=float, default=0.5)
    p.add_argument("--offset", type=float, default=0.0)
    p.add_argument("--d", type=_count, default=1)
    p.add_argument("--n-grid", dest="n_grid", required=True,
                   help="comma-separated ascending sample sizes")
    p.add_argument("--reps", type=_count, default=5)
    p.add_argument("--p", type=float, default=1.0,
                   help="smoothness for the horizon schedule")
    p.add_argument("--lambda", dest="lam", type=float,
                   help="fixed horizon overriding the schedule")
    p.add_argument("--auto", action="store_true")
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    p.add_argument("--sigma", type=float, default=0.3)
    p.add_argument("--tau", type=float)
    p.add_argument("--loss", help="override the task's default loss")
    p.add_argument("--test-points", dest="test_points", type=_count, default=10_000)
    p.add_argument("--out", required=True)
    add_common(p)
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("partition-stats", help="leaf-count and diameter statistics")
    p.add_argument("--d", type=_count, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--m-trees", dest="m_trees", type=_count, default=2000)
    add_common(p, trees=False)
    p.set_defaults(func=_cmd_partition_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except InputError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2
    except (ResourceError, MemoryError) as exc:
        sys.stderr.write(f"resource error: {exc}\n")
        return 3
    except (NumericError, FloatingPointError, OverflowError, ZeroDivisionError) as exc:
        sys.stderr.write(f"numeric error: {exc}\n")
        return 4
    except OSError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
