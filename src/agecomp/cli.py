"""Command-line front end for the age-schedule component model pipeline.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
Each warning prints as one "warning: ..." line on stderr.
"""

import argparse
import csv
import functools
import json
import shlex
import sys
import warnings
from dataclasses import replace

import numpy as np

from . import cluster as cluster_mod
from . import io, linalg, measures, regress, schedule
from .errors import DataError, NumericalError


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _load_matrix(paths, log, concat) -> schedule.ScheduleMatrix:
    if concat and len(paths) != 2:
        raise _UsageError("--concat-sexes needs exactly two inputs (female male)")
    if not concat and len(paths) != 1:
        raise _UsageError("expected one input file (or two with --concat-sexes)")
    matrices = [io.load_schedule_csv(p, log=log) for p in paths]
    if concat:
        return schedule.concat_sexes(matrices[0], matrices[1])
    return matrices[0]


def _check_labels(what, got, want):
    """Raise a DataError naming the first position where two label sequences differ."""
    got, want = tuple(got), tuple(want)
    if got != want:
        i = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), None)
        where = (f"at position {i + 1}: {got[i]!r} vs {want[i]!r}" if i is not None
                 else f"in count: {len(got)} vs {len(want)}")
        raise DataError(f"{what} do not match {where}")


def _component_count(args):
    """--components, checked; None (the numerical rank) with --full."""
    if getattr(args, "full", False):
        return None
    if args.components < 1:
        raise _UsageError("--components must be >= 1")
    return args.components


def _cmd_decompose(args):
    matrix = _load_matrix(args.inputs, args.log, args.concat_sexes)
    basis = schedule.build_basis(matrix, _component_count(args), args.source_id)
    with io.writing(args.out) as fh:
        fh.write(io.basis_to_json(basis))
    if args.weights:
        weights = schedule.svd_weights(matrix, basis.c)
        io.write_weights_csv(matrix.schedule_labels, weights, args.weights)
    share = linalg.explained_share(matrix.factors)[: basis.c].sum()
    print(
        f"decomposed {matrix.data.shape[0]}x{matrix.data.shape[1]} matrix; "
        f"kept {basis.c} components explaining {100 * share:.4f}% of squared magnitude"
    )


def _cmd_reconstruct(args):
    basis = io.basis_from_json(io.read_text(args.basis))
    labels, weights = io.load_weights_csv(args.weights)
    io.write_schedule_csv(schedule.reconstruct_matrix(basis, labels, weights), args.out)


def _cmd_smooth(args):
    matrix = _load_matrix(args.inputs, args.log, args.concat_sexes)
    io.write_schedule_csv(schedule.smooth_matrix(matrix, _component_count(args)), args.out)


def _cmd_fit(args):
    matrix = _load_matrix(args.inputs, args.log, args.concat_sexes)
    basis = io.basis_from_json(io.read_text(args.basis))
    _check_labels("schedule and basis age-group labels", matrix.group_labels, basis.group_labels)
    weights, residual_norms = schedule.fit_matrix(matrix, basis)
    io.write_weights_csv(matrix.schedule_labels, weights, args.out, residual_norms)


def _cmd_regress(args):
    labels, weights = io.load_weights_csv(args.weights)
    covariates = io.load_covariates_csv(args.covariates)
    _check_labels("weight labels and covariate labels", labels, covariates.labels)
    predictors = [p.strip() for p in args.predictors.split(",") if p.strip()]
    if not predictors:
        raise _UsageError("--predictors must name at least one covariate column")
    models = regress.fit_weight_models(weights, covariates, predictors)
    with io.writing(args.out) as fh:
        fh.write(io.models_to_json(models))
    for i, model in enumerate(models):
        names = ("intercept", *model.predictor_names)
        terms = ", ".join(f"{name}={coef:.6g}" for name, coef in zip(names, model.coefficients))
        print(f"v{i + 1}: {terms}; R^2={model.r_squared:.4f}")


def _cmd_predict(args):
    basis = io.basis_from_json(io.read_text(args.basis))
    models = io.models_from_json(io.read_text(args.models))
    covariates = io.load_covariates_csv(args.covariates)
    if any("delta" in m.predictor_names for m in models):
        covariates = covariates.with_delta()
    # every model on whole columns; an intercept-only model's constant holds at every row
    n = len(covariates.labels)
    weights = np.transpose([np.broadcast_to(m.predict_one(covariates.columns), n) for m in models])
    io.write_schedule_csv(schedule.reconstruct_matrix(basis, covariates.labels, weights), args.out)


def _parse_k_range(text):
    try:
        if ":" in text:
            lo, hi = text.split(":")
            ks = range(int(lo), int(hi) + 1)
        else:
            ks = [int(text)]
    except ValueError:
        raise _UsageError(f"bad --k-range {text!r}, expected K or LO:HI") from None
    if not ks:
        raise _UsageError(f"--k-range {text!r} is empty")
    if ks[0] < 1:
        raise _UsageError("--k-range must cover k >= 1")
    return ks


def _cmd_cluster(args):
    labels, weights = io.load_weights_csv(args.weights)
    families = cluster_mod.FAMILIES if args.family == "all" else (args.family,)
    ks = _parse_k_range(args.k_range)
    # no k past the row count can be fitted: keep the first, for its error
    model = cluster_mod.select_by_bic(weights, ks[:max(1, len(labels) + 1 - ks[0])], families)
    pairs = list(zip(labels, cluster_mod.assign(model, weights).labels.tolist()))
    payload = {
        "family": model.family,
        "k": model.k,
        "bic": io.fmt_number(model.bic),
        "log_likelihood": io.fmt_number(model.log_likelihood),
        "mixing_weights": [io.fmt_number(w) for w in model.mixing_weights],
        "means": [[io.fmt_number(v) for v in row] for row in np.ldexp(model.means, model.scale)],
        "labels": dict(pairs),
    }
    with io.writing(args.out) as fh:
        if args.format == "json":
            fh.write(json.dumps(payload, indent=2))
        else:
            csv.writer(fh, lineterminator="\n").writerows([("schedule", "cluster"), *pairs])
    print(f"selected {model.family} mixture with k={model.k} (BIC {model.bic:.2f})")


def _cmd_metrics(args):
    predicted = io.load_schedule_csv(args.predicted)
    observed = io.load_schedule_csv(args.observed, log=args.log)
    _check_labels("predicted and observed age-group labels",
                  predicted.group_labels, observed.group_labels)
    _check_labels("predicted and observed schedule labels",
                  predicted.schedule_labels, observed.schedule_labels)
    # CSVs carry no scale: the predicted file is on the scale that --log states
    m = schedule.error_metrics(replace(predicted, scale=observed.scale), observed)
    mae = io.fmt_number(m.mae)
    quantiles = {f"p{int(100 * p)}": io.fmt_number(q) for p, q in zip(m.probs, m.quantiles)}
    if args.format == "json":
        text = json.dumps({"mae": mae, "quantiles": quantiles}, indent=2)
    else:
        text = ",".join(["mae", *quantiles]) + "\n" + ",".join([mae, *quantiles.values()])
    if args.out:
        with io.writing(args.out) as fh:
            fh.write(text + "\n")
    else:
        print(text)


def image_rank_approx(in_path, k: int, out_path) -> None:
    """Truncate each RGB channel of a PPM image to rank k."""
    pixels, magic = io.read_ppm(in_path)
    out = np.empty_like(pixels)
    for ch in range(3):
        f = linalg.svd(pixels[:, :, ch])
        # an all-zero channel has rank 0, and its rank-k approximation is itself
        out[:, :, ch] = linalg.reconstruct_rank(f, min(k, f.rank)) if f.rank else 0.0
    io.write_ppm(out, out_path, magic)


def _cmd_image(args):
    image_rank_approx(args.input, _component_count(args), args.out)


def _parse_age_start(label: str) -> float:
    text = label.strip().rstrip("+")
    text = text.split("-")[0]
    try:
        return float(text)
    except ValueError:
        raise DataError(f"cannot parse age-group label {label!r}") from None


def _cmd_lifetable(args):
    matrix = io.load_schedule_csv(args.input)
    label = args.column if args.column is not None else matrix.schedule_labels[0]
    starts = [_parse_age_start(g) for g in matrix.group_labels]
    lt = measures.life_table_from_mx(matrix, starts, label)
    table = np.column_stack([lt.mx, lt.ax, lt.qx, lt.lx, lt.Lx, lt.Tx, lt.ex])
    with io.writing(args.out) as fh:
        fh.write("age,mx,ax,qx,lx,Lx,Tx,ex\n")
        fh.writelines(io.format_rows(matrix.group_labels, table, lineterminator="\n"))
    print(f"life expectancy at birth for {label!r}: {lt.e0:.2f} years")


def _cmd_run(args):
    r"""Run each line of a script that is not blank and does not start with '#'
    as a command, split as a POSIX shell splits it, in this one interpreter;
    stop at the first command that fails, with its exit code and its message
    after 'line N: '.  '\n', '\r\n' and '\r' end a line, and nothing else
    does: str.splitlines would also break at '\f', '\x85', U+2028 and others,
    which a quoted argument may hold."""
    if args.script == "-":
        with io._reading("stdin"):
            text = sys.stdin.buffer.read().decode("utf-8")
    else:
        text = io.read_text(args.script)
    for n, line in enumerate(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"), 1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        try:
            argv = shlex.split(line)
        except ValueError as exc:
            return 1, f"line {n}: usage error: {exc}"
        if argv[0] == "run":
            return 1, f"line {n}: usage error: a script cannot run a script"
        code, message = _run(argv)
        if code:
            return code, f"line {n}: {message}"


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="agecomp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def matrix_input(p):
        p.add_argument("inputs", nargs="+", help="schedule CSV file(s)")
        p.add_argument("--log", action="store_true", help="log-transform on load")
        p.add_argument(
            "--concat-sexes", action="store_true",
            help="stack two inputs (female male) into one matrix",
        )

    p = sub.add_parser("decompose", help="build a component basis from schedules")
    matrix_input(p)
    p.add_argument("--components", "-c", type=int, default=2, help="component count (default 2)")
    p.add_argument("--full", action="store_true", help="keep all components")
    p.add_argument("--source-id", default="")
    p.add_argument("--out", required=True, help="basis JSON path")
    p.add_argument("--weights", help="also write the per-schedule weight CSV here")

    p = sub.add_parser("reconstruct", help="rebuild schedules from basis + weights")
    p.add_argument("--basis", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("smooth", help="replace schedules by low-rank reconstructions")
    matrix_input(p)
    p.add_argument("--components", "-c", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("fit", help="fit basis weights to observed schedules")
    matrix_input(p)
    p.add_argument("--basis", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("regress", help="model weight series on covariates")
    p.add_argument("--weights", required=True)
    p.add_argument("--covariates", required=True)
    p.add_argument("--predictors", required=True, help="comma-separated column names")
    p.add_argument("--out", required=True, help="models JSON path")

    p = sub.add_parser("predict", help="predict schedules from covariates")
    p.add_argument("--basis", required=True)
    p.add_argument("--models", required=True)
    p.add_argument("--covariates", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("cluster", help="cluster schedules by their weights")
    p.add_argument("--weights", required=True)
    p.add_argument("--k-range", default="1:6")
    p.add_argument("--family", default="all", choices=("all", *cluster_mod.FAMILIES))
    p.add_argument("--seed", type=int, default=0,
                   help="accepted and ignored: the fit is deterministic, with no random start")
    p.add_argument("--out", required=True)
    p.add_argument("--format", default="json", choices=("json", "csv"))

    p = sub.add_parser("metrics", help="absolute-error summary of two matrices")
    p.add_argument("predicted")
    p.add_argument("observed")
    p.add_argument("--log", action="store_true", help="log-transform the observed file")
    p.add_argument("--format", default="json", choices=("json", "csv"))
    p.add_argument("--out")

    p = sub.add_parser("image", help="rank-k approximation of a PPM image")
    p.add_argument("input")
    p.add_argument("--components", "-c", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("lifetable", help="abridged life table from mortality rates")
    p.add_argument("input")
    p.add_argument("--column", help="schedule label to use (default: first)")
    p.add_argument("--out", required=True)

    p = sub.add_parser("run", help="run a script of commands in one process")
    p.add_argument("script", help="one command per line, without 'agecomp'; '-' reads stdin")

    return parser


def _parse(argv) -> argparse.Namespace:
    """argv parsed in one pass: after a command name, by that command's parser.
    The top-level parser holds only -h and the subcommands and hands every
    argument after the command to it untouched, so both give the same
    namespace, help and errors.  Anything else (no arguments, -h, an unknown
    command) goes to the top-level parser."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    commands = next(a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    if argv and argv[0] in commands:
        return commands[argv[0]].parse_args(argv[1:], argparse.Namespace(command=argv[0]))
    return parser.parse_args(argv)


def _run(argv) -> tuple:
    """(exit code, the one error line or None) of one command."""
    with warnings.catch_warnings():
        warnings.simplefilter("default")
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            args = _parse(argv)
            # looked up per call, so a replaced _cmd_* is the one that runs
            return globals()[f"_cmd_{args.command}"](args) or (0, None)
        except _UsageError as exc:
            return 1, f"usage error: {exc}"
        except (DataError, OSError) as exc:  # io reads raise DataError; OSError is from writes
            return 2, f"data error: {exc}"
        except NumericalError as exc:
            return 3, f"numerical failure: {exc}"
        except SystemExit as exc:  # argparse's, after it has printed --help
            return exc.code, None


def main(argv=None) -> int:
    code, message = _run(argv)
    if message:
        print(message, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
