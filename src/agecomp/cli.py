"""Command-line front end for the age-schedule component model pipeline.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
Each warning prints as one "warning: ..." line on stderr.
"""

import argparse
import csv
import functools
import json
import sys
import warnings
from dataclasses import replace
from pathlib import Path

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


def _component_count(args):
    """--components, checked; None (the numerical rank) with --full."""
    if getattr(args, "full", False):
        return None
    if args.components < 1:
        raise _UsageError("--components must be >= 1")
    return args.components


def _cmd_decompose(args):
    matrix = _load_matrix(args.inputs, args.log, args.concat_sexes)
    d = schedule.decompose(matrix, _component_count(args))
    Path(args.out).write_text(io.basis_to_json(d.basis(args.source_id)), encoding="utf-8")
    if args.weights:
        io.write_weights_csv(matrix.schedule_labels, d.weights(), args.weights)
    print(
        f"decomposed {matrix.data.shape[0]}x{matrix.data.shape[1]} matrix; "
        f"kept {d.c} components explaining {100 * d.shares().sum():.4f}% of squared magnitude"
    )


def _cmd_reconstruct(args):
    basis = io.basis_from_json(io.read_text(args.basis))
    labels, weights = io.load_weights_csv(args.weights)
    io.write_schedule_csv(schedule.reconstruct_matrix(basis, labels, weights), args.out)


def _cmd_smooth(args):
    matrix = _load_matrix(args.inputs, args.log, args.concat_sexes)
    io.write_schedule_csv(schedule.decompose(matrix, _component_count(args)).smoothed(), args.out)


def _cmd_fit(args):
    matrix = _load_matrix(args.inputs, args.log, args.concat_sexes)
    basis = io.basis_from_json(io.read_text(args.basis))
    weights, residual_norms = schedule.fit_matrix(matrix, basis)
    io.write_weights_csv(matrix.schedule_labels, weights, args.out, residual_norms)


def _cmd_regress(args):
    labels, weights = io.load_weights_csv(args.weights)
    covariates = io.load_covariates_csv(args.covariates)
    if tuple(labels) != covariates.labels:
        raise DataError("weight labels and covariate labels do not match")
    predictors = [p.strip() for p in args.predictors.split(",") if p.strip()]
    if not predictors:
        raise _UsageError("--predictors must name at least one covariate column")
    models = regress.fit_weight_models(weights, covariates, predictors)
    Path(args.out).write_text(io.models_to_json(models), encoding="utf-8")
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
    if not ks or min(ks) < 1:
        raise _UsageError("--k-range must cover k >= 1")
    return ks


def _cmd_cluster(args):
    labels, weights = io.load_weights_csv(args.weights)
    families = cluster_mod.FAMILIES if args.family == "all" else (args.family,)
    ks = _parse_k_range(args.k_range)
    model = cluster_mod.select_by_bic(weights, ks, families, seed=args.seed)
    pairs = list(zip(labels, cluster_mod.assign(model, weights).labels.tolist()))
    payload = {
        "family": model.family,
        "k": model.k,
        "bic": io.fmt_number(model.bic),
        "log_likelihood": io.fmt_number(model.log_likelihood),
        "mixing_weights": [io.fmt_number(w) for w in model.mixing_weights],
        "means": [[io.fmt_number(v) for v in row] for row in model.means],
        "labels": dict(pairs),
    }
    if args.format == "json":
        Path(args.out).write_text(json.dumps(payload, indent=2), encoding="utf-8")
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows([("schedule", "cluster"), *pairs])
    print(f"selected {model.family} mixture with k={model.k} (BIC {model.bic:.2f})")


def _cmd_metrics(args):
    predicted = io.load_schedule_csv(args.predicted)
    observed = io.load_schedule_csv(args.observed, log=args.log)
    # CSVs carry no scale: the predicted file is on the scale that --log states
    m = schedule.error_metrics(replace(predicted, scale=observed.scale), observed)
    mae = io.fmt_number(m.mae)
    quantiles = {f"p{int(100 * p)}": io.fmt_number(q) for p, q in zip(m.probs, m.quantiles)}
    if args.format == "json":
        text = json.dumps({"mae": mae, "quantiles": quantiles}, indent=2)
    else:
        text = ",".join(["mae", *quantiles]) + "\n" + ",".join([mae, *quantiles.values()])
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def image_rank_approx(in_path, k: int, out_path) -> None:
    """Truncate each RGB channel of a PPM image to rank k."""
    pixels, magic = io.read_ppm(in_path)
    out = np.empty_like(pixels)
    for ch in range(3):
        f = linalg.svd(pixels[:, :, ch])
        out[:, :, ch] = linalg.reconstruct_rank(f, min(k, f.rank))
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
    label = args.column if args.column else matrix.schedule_labels[0]
    starts = [_parse_age_start(g) for g in matrix.group_labels]
    lt = measures.life_table_from_mx(matrix.column(label), starts)
    table = np.column_stack([lt.mx, lt.ax, lt.qx, lt.lx, lt.Lx, lt.Tx, lt.ex])
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("age,mx,ax,qx,lx,Lx,Tx,ex\n")
        fh.writelines(io.format_rows(matrix.group_labels, table, lineterminator="\n"))
    print(f"life expectancy at birth for {label!r}: {lt.e0:.2f} years")


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
    p.add_argument("--seed", type=int, default=0)
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

    return parser


def main(argv=None) -> int:
    with warnings.catch_warnings():
        warnings.simplefilter("default")
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            args = _build_parser().parse_args(argv)
            # looked up per call, so a replaced _cmd_* is the one that runs
            globals()[f"_cmd_{args.command}"](args)
        except _UsageError as exc:
            print(f"usage error: {exc}", file=sys.stderr)
            return 1
        except (DataError, OSError) as exc:  # io reads raise DataError; OSError is from writes
            print(f"data error: {exc}", file=sys.stderr)
            return 2
        except NumericalError as exc:
            print(f"numerical failure: {exc}", file=sys.stderr)
            return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
