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
import json
import os
import sys

import numpy as np

from ..diagnostics import (AbsScalarDistance, EuclideanDistance,
                           concentration_slope, mgf_condition_check)
from ..errors import ConfigError, GibbsInfError, PreconditionError
from ..sampler import chain_summary, make_rng, write_chain_csv
from .config import (build_generator, build_loss, load_config,
                     validate_experiment_config)
from .runner import (fit_cell, row_seed, run_experiment, shutdown_pool,
                     write_outputs)


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


def _cmd_experiment_run(args) -> int:
    cfg = load_config(args.config)
    validate_experiment_config(cfg)
    if args.workers is not None and args.workers < 1:
        raise ConfigError("--workers must be at least 1")
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
    n = int(cfg["nGrid"][0])
    seed = row_seed(int(cfg["baseSeed"]), 0, 0)
    fit = fit_cell(cfg, n, seed)
    summary = chain_summary(fit.chain)
    summary["n"] = n
    summary["omega"] = fit.omega
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        draws_path = os.path.join(args.out, "draws.csv")
        summary_path = os.path.join(args.out, "chain.json")
        write_chain_csv(fit.chain, draws_path)
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, sort_keys=True, indent=2)
            fh.write("\n")
        print(json.dumps({"out": {"draws": draws_path, "summary": summary_path}},
                         sort_keys=True))
    else:
        print(json.dumps(summary, sort_keys=True, indent=2))
    return 0


def _cmd_diagnose_mgf(args) -> int:
    cfg = load_config(args.config)
    spec = cfg.get("mgf")
    if not isinstance(spec, dict):
        raise ConfigError("config needs an 'mgf' object")
    for key in ("generator", "loss", "grid", "omega"):
        if key not in spec:
            raise ConfigError(f"mgf section needs field {key!r}")
    generator = build_generator(spec["generator"])
    loss = build_loss(spec["loss"], generator)
    theta_star = spec.get("thetaStar", "auto")
    if theta_star == "auto":
        theta_star = generator.theta_star
        if theta_star is None:
            raise ConfigError("generator has no intrinsic thetaStar; "
                              "give one explicitly")
    grid = [np.atleast_1d(np.asarray(g, dtype=float)) for g in spec["grid"]]
    star = np.atleast_1d(np.asarray(theta_star, dtype=float))
    div = AbsScalarDistance() if star.size == 1 else EuclideanDistance()
    report = mgf_condition_check(
        loss, grid, star, omega=float(spec["omega"]), div=div,
        r=float(spec.get("r", 2.0)), generator=generator.mc_sample,
        n_draws=int(spec.get("nDraws", 100_000)),
        rng=make_rng(int(spec.get("seed", 0))))
    print(json.dumps(report.to_json(), sort_keys=True, indent=2))
    return 0


def _cmd_diagnose_rate(args) -> int:
    try:
        fh = open(args.results, "r", encoding="utf-8", newline="")
    except FileNotFoundError:
        raise ConfigError(f"results file not found: {args.results}") from None
    with fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "n" not in reader.fieldnames:
            raise ConfigError("results CSV needs an 'n' column")
        radius_col = next((c for c in ("radius_q90", "radius")
                           if c in reader.fieldnames), None)
        if radius_col is None:
            raise ConfigError("results CSV needs a 'radius_q90' or 'radius' column")
        pairs = []
        for row in reader:
            raw = (row.get(radius_col) or "").strip()
            if not raw:
                continue
            pairs.append((float(row["n"]), float(raw)))
    try:
        fit = concentration_slope(pairs)
    except PreconditionError as exc:
        raise ConfigError(str(exc)) from None
    print(json.dumps({"slope": fit.slope, "intercept": fit.intercept,
                      "nPairs": len(pairs)}, sort_keys=True))
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
    except GibbsInfError as exc:
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
