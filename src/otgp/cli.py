"""Command line interface.

Subcommands: barycenter, kernel-matrix, diagnose-psd, fit, predict, and
experiment {consistency, gaussian-regression, psd, disks}. Exit codes:
0 success, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import dataio
from .barycenter import gaussian_barycenter_measure, grid_barycenter
from .errors import NumericalError, ValidationError
from .experiments import CONFIG_TYPES, RUNNERS, build_config
from .gp import gp_fit_cv, gp_fit_mle, gp_predict
from .kernels import KernelParams, embed, gram_matrix, naive_w2_gram, psd_diagnostic
from .measures import GaussianMeasure, GridDensity

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _load_inputs(path: str, grid_size: int):
    """Distribution collection from a Gaussian-set JSON, a directory of grid
    CSVs, or a JSON list of disk configs."""
    p = Path(path)
    if p.is_dir():
        return dataio.load_grid_dir(p)
    payload = dataio.read_file(p)
    if isinstance(payload, dict) and "items" in payload:
        return dataio.gaussian_set_from_json(payload)
    if isinstance(payload, list):
        return dataio.dataset_to_grids(dataio.disk_configs(payload), grid_size)
    raise ValidationError(f"unrecognized input file {path}")


def _parse_theta(text: str) -> KernelParams:
    try:
        parts = [float(x) for x in text.split(",")]
    except ValueError:
        parts = []
    if len(parts) != 4:
        raise ValidationError(f"theta must be 4 comma-separated numbers "
                              f"(amplitude,rate,exponent,nugget), got {text!r}")
    return KernelParams(*parts)


def _load_reference(path: str):
    if Path(path).suffix == ".csv":
        return dataio.load_grid_csv(path)
    items = dataio.load_gaussian_set(path)
    if len(items) != 1:
        raise ValidationError("reference file must hold exactly one measure")
    return items[0]


def cmd_barycenter(args) -> int:
    out = Path(args.out)
    inputs = _load_inputs(args.input, args.grid_size)
    tol = {} if args.tol is None else {"tol": args.tol}  # else each solver's default
    if all(isinstance(x, GaussianMeasure) for x in inputs):
        measure, report = gaussian_barycenter_measure(inputs, max_iter=args.max_iter, **tol)
        out.mkdir(parents=True, exist_ok=True)
        dataio.save_gaussian_set(out / "barycenter.json", [measure])
    else:
        report = grid_barycenter(inputs, lam=args.lam, max_iter=args.max_iter, **tol)
        out.mkdir(parents=True, exist_ok=True)
        dataio.save_grid_csv(out / "barycenter.csv", report.result)
    (out / "report.json").write_text(json.dumps(
        {"iterations": report.iterations, "residual": report.residual}))
    print(f"barycenter written to {out} "
          f"(iterations={report.iterations}, residual={report.residual:.3e})")
    return EXIT_OK


def cmd_kernel_matrix(args) -> int:
    inputs = _load_inputs(args.input, args.grid_size)
    theta = _parse_theta(args.theta)
    reference = None if args.reference == "barycenter" else _load_reference(args.reference)
    gram = gram_matrix(embed(inputs, reference=reference, lam=args.lam, warm=False), theta)
    dataio.save_gram_csv(args.out, gram)
    print(f"{gram.shape[0]}x{gram.shape[1]} Gram matrix written to {args.out}")
    return EXIT_OK


def cmd_diagnose_psd(args) -> int:
    out = Path(args.out)
    if args.naive_w2:
        gram = naive_w2_gram(dataio.load_gaussian_set(args.naive_w2))
    else:
        gram = dataio.read_file(args.gram, csv=True)
    report = psd_diagnostic(gram, tol=args.tol)
    out.mkdir(parents=True, exist_ok=True)
    dataio.save_eigenvalues_csv(out / "eigenvalues.csv", report.eigenvalues)
    (out / "report.json").write_text(json.dumps({
        "negatives": report.negatives,
        "min_eigenvalue": report.min_eigenvalue,
        "max_abs_eigenvalue": report.max_abs_eigenvalue,
        "threshold": report.threshold,
    }))
    print(f"{report.negatives} eigenvalue(s) below -{args.tol:g}*max|eig| "
          f"(min eigenvalue {report.min_eigenvalue:.3e})")
    return EXIT_OK


def cmd_fit(args) -> int:
    inputs, responses = dataio.load_dataset(args.data)
    if not all(isinstance(x, GaussianMeasure) for x in inputs):
        inputs = dataio.dataset_to_grids(inputs, args.grid_size)
    # cold solves, so that fit and predict embed a training input alike
    features = embed(inputs, lam=args.lam, warm=False)
    fitter = gp_fit_mle if args.method == "mle" else gp_fit_cv
    model = fitter(features, responses)
    dataio.save_model(args.out, model)
    theta = model.theta
    print(f"fitted theta: amplitude={theta.amplitude:.4g} rate={theta.rate:.4g} "
          f"exponent={theta.exponent:.4g} nugget={theta.nugget:.4g} -> {args.out}")
    return EXIT_OK


def cmd_predict(args) -> int:
    model = dataio.load_model(args.model)
    inputs, _ = dataio.load_dataset(args.data, require_y=False)
    reference = model.features.reference
    if isinstance(reference, GridDensity):
        inputs = dataio.dataset_to_grids(inputs, reference.grid_size)
    features = embed(inputs, reference=reference, lam=model.features.lam)
    result = gp_predict(model, features)
    dataio.save_predictions_csv(args.out, result)
    print(f"{len(features)} predictions written to {args.out}")
    return EXIT_OK


def cmd_experiment(args) -> int:
    overrides = dataio.read_file(args.config) if args.config else {}
    cfg = build_config(args.name, seed=args.seed, out_dir=args.out, overrides=overrides)
    report = RUNNERS[args.name](cfg)
    # the headline is every field the experiment adds to write_report's own
    headline = {k: v for k, v in report.items()
                if k not in ("experiment", "config", "seeds", "per_seed")}
    print(json.dumps(headline, indent=2, sort_keys=True))
    print(f"report written to {Path(args.out) / 'report.json'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="otgp",
        description="Gaussian processes on distribution inputs via optimal transport")
    sub = parser.add_subparsers(dest="command", required=True)
    # the entropic penalty and the grid side of the commands that rasterize and embed
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--lam", type=float, default=20.0)
    grid.add_argument("--grid-size", type=int, default=50)

    p = sub.add_parser("barycenter", parents=[grid],
                       help="Wasserstein barycenter of a distribution set")
    p.add_argument("--input", required=True,
                   help="Gaussian-set JSON or a directory of grid CSVs")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--max-iter", type=int, default=1000)
    p.set_defaults(func=cmd_barycenter)

    p = sub.add_parser("kernel-matrix", parents=[grid], help="Gram matrix of the transport kernel")
    p.add_argument("--input", required=True)
    p.add_argument("--theta", required=True,
                   help="amplitude,rate,exponent,nugget")
    p.add_argument("--reference", default="barycenter",
                   help="'barycenter' or a reference file")
    p.add_argument("--out", required=True, help="output CSV")
    p.set_defaults(func=cmd_kernel_matrix)

    p = sub.add_parser("diagnose-psd", help="eigenvalue spectrum of a Gram matrix")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--gram", help="Gram matrix CSV")
    group.add_argument("--naive-w2",
                       help="Gaussian-set JSON; diagnose the exp(-W2^2) Gram")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=cmd_diagnose_psd)

    p = sub.add_parser("fit", parents=[grid], help="fit a GP model to a dataset JSON")
    p.add_argument("--data", required=True)
    p.add_argument("--method", choices=("mle", "cv"), default="mle")
    p.add_argument("--out", required=True, help="model JSON path")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="predict with a fitted model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True, help="dataset JSON of inputs")
    p.add_argument("--out", required=True, help="predictions CSV")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("experiment", help="run a reproduction experiment")
    p.add_argument("name", choices=sorted(CONFIG_TYPES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", help="JSON file overriding config defaults")
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
