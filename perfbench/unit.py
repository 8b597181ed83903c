"""One child process of the benchmark, always a fresh interpreter.

    unit.py setup --config C --spawn T
        import gibbsinf, load and validate the config, build the components;
        report the time since the parent spawned this process and a speed
        factor from probes (calib.py) before and after.
    unit.py measure --kind experiment|cli --config C --out DIR --workers W
                    --seconds S --trace 0|1
        repeat the workload until S seconds have gone, with a speed probe
        (calib.py) between repetitions: `run_experiment` + `write_outputs`
        for experiments, the CLI's `gibbsinf sample C --out DIR` for cli.
        With --trace 1 every second repetition runs instrumented.

The last line of stdout is one JSON object for the parent (perfbench/run.py).
T is the parent's time.monotonic() just before the spawn; on Linux that clock
is shared by all processes.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import sys
import time

import calib
import check
import tracer as tr
from workloads import nproc


def emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def build_components(config, cfg: dict) -> None:
    """Build every component of the config once, as a cell would at the
    first n, without drawing data."""
    n = int(cfg["nGrid"][0])
    generator = config.build_generator(cfg["generator"])
    schedule = config.build_rate(cfg["rate"])
    loss = config.build_loss(cfg["loss"], generator, schedule=schedule, n=n)
    basis = getattr(loss, "basis", None) or getattr(loss, "features", None)
    dim = 0 if cfg["prior"].get("name") == "spikeslab" \
        else config.parameter_dim(loss, generator)
    config.build_prior(cfg["prior"], dim=dim)
    config.build_divergence(cfg["divergence"], generator, loss, basis=basis)
    config.build_mh(cfg["mh"], n, seed=0)


def cmd_setup(args) -> None:
    # the speed probes bracket the set-up inside this process; the first one
    # runs once NumPy is loaded, and its own duration is not set-up time
    before = calib.probe_seconds()
    from gibbsinf.harness import cli  # noqa: F401  (everything the CLI imports)
    imported = time.monotonic() - before
    from gibbsinf.harness import config
    cfg = config.load_config(args.config)
    config.validate_experiment_config(cfg)
    build_components(config, cfg)
    done = time.monotonic() - before
    emit({"setup_s": done - args.spawn, "startup_s": imported - args.spawn,
          "scale": calib.scale(before, calib.probe_seconds()), "env": environment()})


def _experiment(cfg: dict, workers: int):
    """Repetition function of an experiment workload, and its output files."""
    from gibbsinf.harness import runner

    def once(out: str) -> list[dict]:
        result = runner.run_experiment(cfg, workers=workers)
        runner.write_outputs(result, out)
        return result.rows
    return once, check.EXPERIMENT_FILES


def _cli_sample(config_path: str):
    """Repetition function running `gibbsinf sample` through the CLI entry
    point (one cell), and its output files."""
    from gibbsinf.harness import cli

    def once(out: str) -> list[dict]:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["sample", config_path, "--out", out])
        return [{"error": None if rc == 0 else f"exit {rc}"}]
    return once, check.CLI_FILES


def cmd_measure(args) -> None:
    from gibbsinf.harness import config
    cfg = config.load_config(args.config)
    steps = int(cfg["mh"]["steps"])
    if args.kind == "cli":
        once, files = _cli_sample(args.config)
    else:
        once, files = _experiment(cfg, args.workers)
    tracer = tr.Tracer()
    units = []
    deadline = time.monotonic() + args.seconds
    # a pool spreads the work over every CPU: probe each of them
    cpus = sorted(os.sched_getaffinity(0)) if args.workers > 1 else None
    probe = calib.probe_seconds(cpus)
    while True:
        traced = bool(args.trace) and len(units) % 2 == 1
        out = os.path.join(args.out, f"unit-{len(units)}")
        uninstall = tr.instrument(tracer) if traced else None
        try:
            t0 = time.perf_counter()
            rows = once(out)
            wall = time.perf_counter() - t0
        finally:
            if uninstall is not None:
                uninstall()
        before, probe = probe, calib.probe_seconds(cpus)
        tracer.collect_rows(rows)
        failed = sum(r["error"] is not None for r in rows)
        units.append({"wall_s": wall, "scale": calib.scale(before, probe),
                      "traced": traced, "cells": len(rows), "failed": failed,
                      "steps": steps * (len(rows) - failed), "out": out,
                      "hash": check.digest(out, files) if not failed else None})
        enough = len(units) >= (2 if args.trace else 1)
        typical = statistics.median(u["wall_s"] for u in units)
        if enough and time.monotonic() + typical > deadline:
            break
    emit({"units": units, "spans": tracer.spans})


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--config", required=True)
    parser.add_argument("--kind", choices=("experiment", "cli"))
    parser.add_argument("--out")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spawn", type=float, required=True)
    args = parser.parse_args()
    {"setup": cmd_setup, "measure": cmd_measure}[args.mode](args)


if __name__ == "__main__":
    main()
