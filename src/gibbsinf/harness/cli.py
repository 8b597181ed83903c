"""Command-line interface.

    gibbsinf experiment run <config.json> --out <dir> [--full] [--timings]
                                                      [--workers N]
    gibbsinf sample <config.json> [--out <dir>]
    gibbsinf diagnose mgf <config.json>
    gibbsinf diagnose rate <results.csv>

Exit codes: 0 on success, 1 on configuration/input errors (missing or
malformed files, bad schema), 2 on runtime errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

import numpy as np

from ..diagnostics import (AbsScalarDistance, EuclideanDistance,
                           concentration_slope, mgf_condition_check)
from ..errors import ConfigError, GibbsInfError, PreconditionError
from ..sampler import chain_summary, make_rng, write_chain_csv
from .config import (_MGF, _read_text, _typed, build_generator, build_loss,
                     check_data_kinds, load_config, parameter_dim,
                     validate_experiment_config)
from .runner import (fit_cell, row_seed, run_experiment, shutdown_pool,
                     write_outputs, write_summary_json)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gibbsinf",
        description="Gibbs-posterior experiment runner and diagnostics")
    sub = parser.add_subparsers(dest="command", required=True)

    experiment = sub.add_parser("experiment", help="replication experiments")
    exp_sub = experiment.add_subparsers(dest="subcommand", required=True)
    run_p = exp_sub.add_parser("run", help="run a replication experiment")
    run_p.add_argument("config", help="experiment config JSON")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument("--full", action="store_true",
                       help="use the config's fullReplications count")
    run_p.add_argument("--timings", action="store_true",
                       help="record wall-clock times (makes outputs "
                            "non-reproducible byte-for-byte)")
    run_p.add_argument("--workers", type=int, default=None,
                       help="worker process count (default: GIBBS_WORKERS "
                            "or hardware parallelism)")

    sample_p = sub.add_parser("sample", help="run a single chain")
    sample_p.add_argument("config", help="experiment config JSON")
    sample_p.add_argument("--out", default=None,
                          help="directory for draws.csv and chain.json "
                               "(default: print the summary only)")

    diagnose = sub.add_parser("diagnose", help="diagnostics")
    diag_sub = diagnose.add_subparsers(dest="subcommand", required=True)
    mgf_p = diag_sub.add_parser("mgf", help="annealed-moment condition check")
    mgf_p.add_argument("config", help="diagnostic config JSON with an 'mgf' section")
    rate_p = diag_sub.add_parser("rate", help="log-log rate fit from a results CSV")
    rate_p.add_argument("results", help="results.csv or radii.csv path")
    return parser


def _check_out(path) -> None:
    """--out must name a directory, or a path where one can be made.
    Checked before any work, so a bad path does not cost the run."""
    probe = os.path.abspath(path)
    while not os.path.lexists(probe):
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe):
        raise ConfigError(f"--out {path}: {probe} is not a directory")


def _cmd_experiment_run(args) -> int:
    cfg = load_config(args.config)
    _check_out(args.out)
    # run_experiment checks the worker count and validates the config
    # before any cell runs
    result = run_experiment(cfg, workers=args.workers, timings=args.timings,
                            full=args.full)
    # the one call is made: the pool's workers go now, which is quicker
    # than leaving them to the interpreter's exit
    shutdown_pool()
    paths = write_outputs(result, args.out)
    print(json.dumps({"out": paths, "rows": result.summary["rowCount"],
                      "errors": result.summary["errorCount"]},
                     sort_keys=True))
    return 0


def _cmd_sample(args) -> int:
    cfg = load_config(args.config)
    validate_experiment_config(cfg)
    if args.out:
        _check_out(args.out)
    n = cfg["nGrid"][0]
    seed = row_seed(cfg["baseSeed"], 0, 0)
    fit = fit_cell(cfg, n, seed)
    summary = chain_summary(fit.chain)
    summary["n"] = n
    summary["omega"] = fit.omega
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        draws_path = os.path.join(args.out, "draws.csv")
        summary_path = os.path.join(args.out, "chain.json")
        write_chain_csv(fit.chain, draws_path)
        write_summary_json(summary, summary_path)
        print(json.dumps({"out": {"draws": draws_path, "summary": summary_path}},
                         sort_keys=True))
    else:
        print(json.dumps(summary, sort_keys=True, indent=2))
    return 0


def _mgf_point(value, dim: int, key: str) -> np.ndarray:
    """A parameter point of an mgf section: `dim` numbers, or one bare
    number when dim is 1."""
    entries = value if isinstance(value, list) else [value]
    if len(entries) != dim:
        raise ConfigError(f"mgf {key} must be a point of {dim} finite "
                          f"numbers; got {value!r}")
    return np.asarray(entries, dtype=float)


def _cmd_diagnose_mgf(args) -> int:
    cfg = load_config(args.config)
    if not isinstance(cfg.get("mgf"), dict):
        raise ConfigError("config needs an 'mgf' object")
    spec = _typed(_MGF, cfg["mgf"], "mgf")
    generator = build_generator(spec["generator"])
    loss = build_loss(spec["loss"], generator)
    check_data_kinds(spec)
    dim = parameter_dim(loss, generator)
    grid = [_mgf_point(g, dim, "grid point") for g in spec["grid"]]
    theta_star = spec["thetaStar"]
    if theta_star == "auto":
        if generator.theta_star is None:
            raise ConfigError("generator has no intrinsic thetaStar; "
                              "give one explicitly")
        theta_star = np.asarray(generator.theta_star, dtype=float).tolist()
    star = _mgf_point(theta_star, dim, "thetaStar")
    div = AbsScalarDistance() if dim == 1 else EuclideanDistance()
    if any(div.between(g, star) == 0.0 for g in grid):
        raise ConfigError(f"mgf grid must exclude thetaStar {star.tolist()}")
    report = mgf_condition_check(
        loss, grid, star, omega=spec["omega"], div=div, r=spec["r"],
        generator=generator.mc_sample, n_draws=spec["nDraws"],
        rng=make_rng(spec["seed"]))
    print(json.dumps(report.to_json(), sort_keys=True, indent=2))
    return 0


def _cmd_diagnose_rate(args) -> int:
    reader = csv.DictReader(io.StringIO(_read_text(args.results, "results")))
    if reader.fieldnames is None or "n" not in reader.fieldnames:
        raise ConfigError("results CSV needs an 'n' column")
    if "radius_q90" not in reader.fieldnames:
        raise ConfigError("results CSV needs a 'radius_q90' column")
    pairs = []
    for row in reader:
        raw = (row.get("radius_q90") or "").strip()
        if not raw:
            continue
        try:
            n, radius = float(row["n"]), float(raw)
        except (TypeError, ValueError):
            n = radius = math.nan
        if not (math.isfinite(n) and math.isfinite(radius)):
            raise ConfigError(f"{args.results} line {reader.line_num}: n "
                              "and radius_q90 must be finite numbers")
        pairs.append((n, radius))
    try:
        fit = concentration_slope(pairs)
    except PreconditionError as exc:
        raise ConfigError(str(exc)) from None
    print(json.dumps({"slope": fit.slope, "intercept": fit.intercept,
                      "nPairs": len(fit.pairs)}, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "experiment":
            return _cmd_experiment_run(args)
        if args.command == "sample":
            return _cmd_sample(args)
        if args.command == "diagnose" and args.subcommand == "mgf":
            return _cmd_diagnose_mgf(args)
        if args.command == "diagnose" and args.subcommand == "rate":
            return _cmd_diagnose_rate(args)
        parser.error("unknown command")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (GibbsInfError, ValueError, OSError) as exc:
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
