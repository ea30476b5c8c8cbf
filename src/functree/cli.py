"""Command-line frontend: generators, fitting, effect search, grids,
model differencing, bootstrap comparison, and surrogate fitting.

All randomness flows from --seed, and every command writes byte-identical
outputs for identical flags and inputs. Progress goes to stderr, results to
stdout and the requested files. Exit codes: 0 success, 1 stdout closed
before the output was written (as by ``| head``), 2 bad flags, 3 data or
model-file errors.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from dataclasses import replace

import numpy as np

from .data import (
    Dataset,
    SplitSpec,
    gen_friedman,
    gen_hu,
    load_csv,
    rmse_target,
    split_indices,
    write_csv,
)
from .interactions import (bootstrap_compare, conditional_interaction, pure_interaction,
                           pure_interaction_brute, search_effects)
from .pdengine import MAX_ORDER, MAX_PA_VARS, pd_brute, pd_fast, write_effect_csv
from .pdengine import pa as pa_effect
from .smoothers import SmootherSpec
from .tree import (
    FitConfig,
    FunctionTree,
    difference,
    fit,
    load,
    save,
)

# DataError, SchemaMismatchError and FormatVersionError are ValueErrors; any
# other OSError than a closed stdout is a file that cannot be read or written
_DATA_ERRORS = (OSError, ValueError)


def _checked(kind, ok, what: str):
    """An argparse type: ``kind(text)`` where ``ok`` holds of it, otherwise
    an error (which argparse prefixes with the flag) saying what was
    expected."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value
    return parse


_positive_int = _checked(int, lambda v: v >= 1, "a positive integer")
_nonnegative_int = _checked(int, lambda v: v >= 0, "a nonnegative integer")
_two_or_more = _checked(int, lambda v: v >= 2, "an integer of at least 2")
_span = _checked(float, lambda v: 0.0 < v <= 1.0, "a number in (0, 1]")
_fraction = _checked(float, lambda v: 0.0 < v < 1.0, "a number strictly between 0 and 1")
_snr = _checked(float, lambda v: v >= 0.0, "a nonnegative number")
_scale = _checked(float, lambda v: 0.0 < v < math.inf, "a finite positive number")
_orders = _checked(lambda text: [int(tok) for tok in text.split(",")],
                   lambda v: min(v) >= 0, "a comma list of nonnegative integers")


def _condition(text: str) -> tuple[str, str]:
    name, sep, value = text.partition("=")
    if not (sep and name.strip() and value):
        raise argparse.ArgumentTypeError(f"expected NAME=VALUE, got {text!r}")
    return name, value


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr)


def _column_names(text: str) -> tuple[str, ...]:
    """A comma list of column names, each stripped; empty names are
    dropped."""
    return tuple(name for name in (tok.strip() for tok in text.split(",")) if name)


def _load_data(args, target: str | None = None, exclude: tuple[str, ...] = ()) -> Dataset:
    return load_csv(
        args.data,
        target=target if target is not None else args.target,
        categorical_override=_column_names(args.categorical),
        cat_threshold=args.cat_threshold,
        exclude=exclude,
    )


def _model_and_data(args) -> tuple[FunctionTree, Dataset]:
    """The --model tree and the --data rows, checked to share one schema."""
    tree = load(args.model)
    data = _load_data(args)
    tree.check_schema(data.variables)
    return tree, data


def _var_indices(names_arg: str, variables, flag: str, limit: int | None = None) -> tuple[int, ...]:
    """The indices of a comma list of variable names; an unknown or repeated
    name, or more than ``limit`` names, raises ArgumentTypeError naming
    ``flag``."""
    lut = {v.name: j for j, v in enumerate(variables)}
    out = []
    for name in names_arg.split(","):
        name = name.strip()
        if name not in lut or lut[name] in out:
            problem = "repeated" if name in lut else "unknown"
            raise argparse.ArgumentTypeError(f"argument {flag}: {problem} variable {name!r}")
        out.append(lut[name])
    if limit is not None and len(out) > limit:
        raise argparse.ArgumentTypeError(
            f"argument {flag}: expected at most {limit} variables, got {len(out)}")
    return tuple(out)


def _fit_config(args, variables) -> FitConfig:
    """The fit flags as a FitConfig; --forbid names resolve against the
    loaded data's variables."""
    return FitConfig(
        max_nodes=args.max_nodes,
        max_order=args.max_order,
        numeric_smoother=SmootherSpec(args.numeric_method, span=args.span),
        split=SplitSpec(args.test_fraction, args.seed),
        backfit_passes=args.backfit_passes,
        patience=args.patience,
        forbidden_subsets=tuple(frozenset(_var_indices(spec, variables, "--forbid")) for spec in args.forbid),
    )


def _varies(truth) -> bool:
    """Whether a hidden truth is present with the variance that the
    truth-based summary lines divide by; without it they are left out."""
    return truth is not None and float(np.var(truth)) > 0.0


def _print_fit_summary(tree: FunctionTree, data: Dataset) -> None:
    stats = tree.train_stats or {}
    print(f"nodes: {tree.n_nodes}")
    print(f"max interaction order: {tree.max_interaction_order()}")
    print(f"train rmse: {stats.get('train_rmse', float('nan')):.6g}")
    print(f"test rmse: {stats.get('test_rmse', float('nan')):.6g}")
    if _varies(data.truth):
        r2 = 1.0 - rmse_target(data.truth, tree.predict(data.X)) ** 2
        print(f"target variance explained: {r2:.6g}")
    print("node influences:")
    print("  id parent var order influence")
    for node in tree.nodes[1:]:
        name = data.variables[node.var].name
        print(
            f"  {node.id:>3} {node.parent:>6} {name:>4} "
            f"{tree.interaction_order(node.id):>5} {node.influence:.6g}"
        )


def cmd_gen(args) -> int:
    # a flag left out keeps its generator's default; one the chosen example
    # does not read is an error
    read = ("snr", "sd_x") if args.example == "friedman" else ("mode",)
    kwargs = {}
    for dest in ("snr", "sd_x", "mode"):
        value = getattr(args, dest)
        if value is None:
            continue
        if dest not in read:
            flag = "--" + dest.replace("_", "-")
            raise argparse.ArgumentTypeError(f"argument {flag}: not read by --example {args.example}")
        kwargs[dest] = math.inf if dest == "snr" and value == 0 else value
    data = (gen_friedman if args.example == "friedman" else gen_hu)(args.n, seed=args.seed, **kwargs)
    write_csv(data, args.out)
    _progress(f"wrote {data.n} rows x {data.p} predictors to {args.out}")
    return 0


def cmd_fit(args) -> int:
    data = _load_data(args)
    config = _fit_config(args, data.variables)
    _progress(f"fitting on {data.n} rows, {data.p} predictors")
    tree = fit(data, config)
    save(tree, args.out)
    _print_fit_summary(tree, data)
    _progress(f"model written to {args.out}")
    return 0


def cmd_predict(args) -> int:
    tree, data = _model_and_data(args)
    pred = tree.predict(data.X)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["prediction"])
        writer.writerows(zip(map(repr, pred.tolist())))
    _progress(f"wrote {len(pred)} predictions to {args.out}")
    return 0


def cmd_effects(args) -> int:
    tree, data = _model_and_data(args)
    report = search_effects(
        tree,
        data,
        max_order=args.max_order,
        use_screens=not args.no_screen,
        with_pa=args.pa,
        strength_rows=args.strength_rows,
        seed=args.seed,
    )
    report.to_csv(args.out)
    if args.log:
        with open(args.log, "w", encoding="utf-8") as fh:
            fh.write(report.screening_text())
    _progress(f"evaluation cost: fast {report.fast_evals:.4g}, brute-equivalent {report.brute_equiv:.4g}")
    print("top effects:")
    for e in report.top(k=10):
        extra = "" if e.strength_pa is None else f" (pa {e.strength_pa:.4g})"
        print(f"  {{{','.join(e.names)}}}: {e.strength:.4g}{extra}")
    _progress(f"report written to {args.out}")
    return 0


def cmd_pd(args) -> int:
    tree, data = _model_and_data(args)
    subset = _var_indices(args.vars, data.variables, "--vars", MAX_PA_VARS if args.pa else None)
    if args.pa:
        grid = pa_effect(tree, subset, None, data, resolution=args.grid)
    elif args.brute:
        grid = pd_brute(tree.predict, subset, None, data, resolution=args.grid)
    else:
        grid = pd_fast(tree, subset, None, data, resolution=args.grid)
    write_effect_csv(grid, args.out)
    _progress(f"{grid.kind} grid with {grid.n_points} points written to {args.out}")
    return 0


def _pinned_values(pairs, variables, subset) -> dict[int, float]:
    """``--cond NAME=VALUE`` pairs as {variable index: pinned value}. A
    variable also in ``--vars``, an unknown level or a numeric value that is
    not a finite number raises ArgumentTypeError naming --cond and the pair."""
    cond = {}
    for name, value in pairs:
        j = _var_indices(name, variables, "--cond")[0]
        var = variables[j]
        if j in subset:
            problem = f"variable {var.name!r} is also in --vars"
        elif var.is_categorical:
            if value in var.levels:
                cond[j] = float(var.levels.index(value))
                continue
            problem = f"categorical variable {var.name!r} has no level {value!r}"
        else:
            try:
                number = float(value)
            except ValueError:
                number = math.nan
            if math.isfinite(number):
                cond[j] = number
                continue
            problem = f"numeric variable {var.name!r} needs a finite number"
        raise argparse.ArgumentTypeError(f"argument --cond: {name}={value}: {problem}")
    return cond


def cmd_interact(args) -> int:
    tree, data = _model_and_data(args)
    # pure and conditional interactions are capped; brute-force pure ones not
    limit = None if args.brute and not args.cond else MAX_ORDER
    subset = _var_indices(args.vars, data.variables, "--vars", limit)
    method = "brute" if args.brute else "fast"
    if args.cond:
        cond = _pinned_values(args.cond, data.variables, subset)
        grid = conditional_interaction(tree, subset, cond, None, data,
                                       resolution=args.grid, method=method)
    elif args.brute:
        grid = pure_interaction_brute(tree.predict, subset, None, data, resolution=args.grid)
    else:
        grid = pure_interaction(tree, subset, None, data, resolution=args.grid)
    write_effect_csv(grid, args.out)
    _progress(f"{grid.kind} grid with {grid.n_points} points written to {args.out}")
    return 0


def cmd_diff(args) -> int:
    a = load(args.model_a)
    b = load(args.model_b)
    save(difference(a, b), args.out)
    _progress(f"difference model written to {args.out}")
    return 0


def cmd_bootstrap(args) -> int:
    data = _load_data(args)
    base = _fit_config(args, data.variables)
    configs = [replace(base, max_order=order) for order in args.max_orders]
    labels = ["unconstrained" if order == 0 else f"max_order={order}" for order in args.max_orders]
    _progress(f"bootstrap: {args.reps} replicates x {len(configs)} configs")
    result = bootstrap_compare(data, configs, reps=args.reps, seed=args.seed, labels=labels)
    result.to_csv(args.out)
    qs = result.quantiles()
    print("config,q25,median,q75")
    for label, row in zip(result.labels, qs):
        print(f"{label},{row[0]:.6g},{row[1]:.6g},{row[2]:.6g}")
    _progress(f"replicate table written to {args.out}")
    return 0


def cmd_surrogate(args) -> int:
    data = _load_data(args, target=args.pred, exclude=_column_names(args.exclude))
    config = _fit_config(args, data.variables)
    _progress(f"fitting surrogate to column {args.pred!r}")
    tree = fit(data, config)
    save(tree, args.out)
    _print_fit_summary(tree, data)
    stats = tree.train_stats or {}
    print(f"fidelity rmse (vs predictions): {stats.get('test_rmse', float('nan')):.6g}")
    _, te = split_indices(data.n, config.split)
    truth = None if data.truth is None else data.truth[te]
    if _varies(truth):
        fidelity = rmse_target(truth, tree.predict(data.X[te]))
        print(f"target rmse (vs truth, test rows): {fidelity:.6g}")
    _progress(f"surrogate model written to {args.out}")
    return 0


def _add_data_flags(p, target_default="y"):
    p.add_argument("--data", required=True, help="input CSV file")
    p.add_argument("--target", default=target_default, help="outcome column name")
    p.add_argument("--categorical", default="", help="comma list of columns to force categorical")
    p.add_argument("--cat-threshold", dest="cat_threshold", type=_nonnegative_int, default=10,
                   help="max distinct values for automatic categorical typing")


def _add_fit_flags(p):
    default = FitConfig()
    p.add_argument("--max-nodes", dest="max_nodes", type=_positive_int, default=default.max_nodes)
    p.add_argument("--max-order", dest="max_order", type=_nonnegative_int, default=default.max_order,
                   help="interaction-order cap (0 = unlimited, 1 = additive)")
    p.add_argument("--forbid", action="append", default=[],
                   help="comma list of variables no single path may jointly contain (repeatable)")
    p.add_argument("--numeric-method", dest="numeric_method", default=default.numeric_smoother.method,
                   choices=["local_linear", "near_neighbor"])
    p.add_argument("--span", type=_span, default=default.numeric_smoother.span,
                   help="smoother neighborhood fraction")
    p.add_argument("--test-fraction", dest="test_fraction", type=_fraction,
                   default=default.split.test_fraction)
    p.add_argument("--backfit-passes", dest="backfit_passes", type=_nonnegative_int,
                   default=default.backfit_passes)
    p.add_argument("--patience", type=_nonnegative_int, default=default.patience)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="functree",
        description="Fit function-tree models and analyze their interaction structure.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=_nonnegative_int, default=0, help="seed for every random choice")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=argparse.ArgumentParser)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser("gen", help="write a synthetic benchmark dataset")
    p.add_argument("--example", choices=["friedman", "hu"], required=True)
    p.add_argument("--n", type=_two_or_more, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--snr", type=_snr, help="signal/noise ratio (friedman only; default 2, 0 = noiseless)")
    p.add_argument("--sd-x", dest="sd_x", type=_scale, help="predictor scale (friedman only; default 0.5)")
    p.add_argument("--mode", choices=["regression", "classification"],
                   help="hu outcome (hu only): target plus noise (regression, the default), "
                        "or a 0/1 draw with the target as log-odds")
    p.set_defaults(func=cmd_gen)

    p = add_parser("fit", help="fit a function tree to a CSV dataset")
    _add_data_flags(p)
    _add_fit_flags(p)
    p.add_argument("--out", required=True, help="model JSON path")
    p.set_defaults(func=cmd_fit)

    p = add_parser("predict", help="evaluate a model on a dataset")
    p.add_argument("--model", required=True)
    _add_data_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = add_parser("effects", help="search and rank main and interaction effects")
    p.add_argument("--model", required=True)
    _add_data_flags(p)
    p.add_argument("--out", required=True)
    p.add_argument("--max-order", dest="max_order", type=int, default=3, choices=range(1, MAX_ORDER + 1))
    p.add_argument("--no-screen", dest="no_screen", action="store_true")
    p.add_argument("--pa", action="store_true", help="add a partial-association strength column")
    p.add_argument("--strength-rows", dest="strength_rows", type=_positive_int, default=None,
                   help="row subsample for strength evaluation")
    p.add_argument("--log", default=None, help="write the screening log to this file")
    p.set_defaults(func=cmd_effects)

    p = add_parser("pd", help="export a partial dependence (or association) grid")
    p.add_argument("--model", required=True)
    _add_data_flags(p)
    p.add_argument("--vars", required=True, help="comma list of variable names")
    p.add_argument("--grid", type=_positive_int, default=50, help="points per numeric variable")
    p.add_argument("--out", required=True)
    how = p.add_mutually_exclusive_group()
    how.add_argument("--pa", action="store_true", help="partial association instead of dependence")
    how.add_argument("--brute", action="store_true",
                     help="brute-force averaging instead of the fast path: N x (grid points + "
                          "distinct data values) model evaluations, about N^2 on a numeric column")
    p.set_defaults(func=cmd_pd)

    p = add_parser("interact", help="export a pure-interaction grid")
    p.add_argument("--model", required=True)
    _add_data_flags(p)
    p.add_argument("--vars", required=True)
    p.add_argument("--cond", action="append", default=[], type=_condition,
                   help="pin a variable, e.g. x6=2 (repeatable)")
    p.add_argument("--grid", type=_positive_int, default=50)
    p.add_argument("--out", required=True)
    p.add_argument("--brute", action="store_true")
    p.set_defaults(func=cmd_interact)

    p = add_parser("diff", help="write the difference model of two fits")
    p.add_argument("--model-a", dest="model_a", required=True)
    p.add_argument("--model-b", dest="model_b", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_diff)

    p = add_parser("bootstrap", help="compare constrained refits over bootstrap replicates")
    _add_data_flags(p)
    _add_fit_flags(p)
    p.add_argument("--reps", type=_two_or_more, default=20)
    p.add_argument("--max-orders", dest="max_orders", type=_orders, default="0,2,1",
                   help="comma list of interaction-order caps, one config each")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bootstrap)

    p = add_parser("surrogate", help="fit a tree to another model's predictions")
    _add_data_flags(p)
    _add_fit_flags(p)
    p.add_argument("--pred", required=True, help="column holding the black-box predictions")
    p.add_argument("--exclude", default="", help="comma list of columns to drop (e.g. the raw outcome)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_surrogate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except argparse.ArgumentTypeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader of stdout has gone (as ``head`` does); stdout now points
        # at devnull so that the flush at shutdown stays silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
