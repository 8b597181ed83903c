"""gibbsinf benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from `src/`.
With --trace 0 the last line of stdout reports the end-to-end metrics, with
--trace 1 the per-layer metrics (BENCHMARK.json lists both), as

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

A run has three phases:

1. set-up: SETUP_REPEATS fresh interpreters each import gibbsinf, load and
   validate the workload config and build its components (`setup_s`);
2. measurement: one fresh child repeats the workload for S seconds --
   `run_experiment` + `write_outputs`, or the CLI's `gibbsinf sample` --
   with the same inputs every time.  With --trace 1 every second
   repetition runs with spans around each module's calls (tracer.py);
3. correctness check of the outputs (check.py).

Times are scaled by a speed probe run between repetitions (calib.py).

Each child runs with OPENBLAS/OMP/MKL_NUM_THREADS=1, so pool workers times
threads never exceed the usable cores.  Scratch files go to WORK_DIR in the
checkout and are removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

import check
import tracer as tr
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
UNIT = os.path.join(HERE, "unit.py")
WORK_DIR = ".perfbench_work"
SETUP_REPEATS = 5
TIME_LIMIT_S = 170.0          # every child is killed past this point

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "steps_per_s": "steps/s",
                    "peak_rss_mb": "MB", "cell_ok_frac": "fraction"}
PER_LAYER_UNITS = {
    "losses.risk_us": "us", "losses.risk_evals": "count", "losses.prepare_ms": "ms",
    "priors.log_density_us": "us", "priors.evals": "count",
    "sampler.step_us": "us", "sampler.self_us": "us", "sampler.accept_frac": "fraction",
    "diagnostics.divergence_ms": "ms", "generators.sample_ms": "ms",
    "generators.holdout_ms": "ms", "config.build_ms": "ms",
    "runner.cell_ms.p50": "ms", "runner.cell_ms.tail": "ms", "runner.write_ms": "ms",
    "runner.pool_eff": "fraction", "cli.startup_ms": "ms", "cli.write_ms": "ms",
    "trace.overhead_frac": "fraction", "trace.uncovered_frac": "fraction",
}


class BenchError(Exception):
    pass


class Children:
    """Starts children in their own process group and waits for each."""

    def __init__(self, root: str, deadline: float):
        self.root = root
        self.deadline = deadline
        src = os.path.join(root, "src")
        self.env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                        MKL_NUM_THREADS="1", PYTHONPATH=src)

    def unit(self, *args: str) -> dict:
        """Run unit.py and return its last stdout line, parsed as JSON."""
        argv = [sys.executable, UNIT, *args, "--spawn", repr(time.monotonic())]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("time limit reached before a child could start")
        proc = subprocess.Popen(argv, cwd=self.root, env=self.env, text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                start_new_session=True)
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"unit.py {args[0]} timed out") from None
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if proc.returncode != 0 or not out.strip():
            raise BenchError(f"unit.py {args[0]} exited {proc.returncode}:\n{err[-3000:]}")
        return json.loads(out.strip().splitlines()[-1])


def run(args, root: str, work: str) -> int:
    started = time.monotonic()
    workload = WORKLOADS[args.workload]
    children = Children(root, started + TIME_LIMIT_S)
    cfg = workload.build_config(root, args.seed)
    cfg_path = os.path.join(work, "config.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=2)

    setups = [children.unit("setup", "--config", cfg_path)
              for _ in range(SETUP_REPEATS)]
    measured = children.unit("measure", "--kind", workload.kind, "--config", cfg_path,
                             "--out", os.path.join(work, "out"),
                             "--workers", str(workload.worker_count()),
                             "--seconds", repr(args.seconds), "--trace", str(args.trace))
    units, spans = measured["units"], measured["spans"]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    attempted = sum(u["cells"] for u in units)
    failed = sum(u["failed"] for u in units)
    good = [u for u in units if not u["failed"]]
    reference = check.load_reference()["workloads"][workload.name]
    if good:
        result = check.check_outputs(workload.kind, good[-1]["out"], cfg,
                                     [u["hash"] for u in good], reference)
    else:
        result = {"correct": False, "problems": ["no repetition succeeded"]}
    if not result["correct"]:
        failed = attempted     # a run that fails its check fails every cell

    plain = [u for u in units if not u["traced"]]
    traced = [u for u in units if u["traced"]]
    if args.trace:
        metrics, cells = tr.layer_metrics(
            spans, [u["wall_s"] for u in traced],
            [u["wall_s"] * u["scale"] for u in traced],
            [u["wall_s"] * u["scale"] for u in plain], workload.worker_count(),
            [s["startup_s"] for s in setups])
        units_of = PER_LAYER_UNITS
    else:
        metrics = {
            "setup_s": statistics.median(s["setup_s"] * s["scale"] for s in setups),
            "wall_s": statistics.median(u["wall_s"] * u["scale"] for u in plain),
            "steps_per_s": statistics.median(u["steps"] / (u["wall_s"] * u["scale"])
                                             for u in plain),
            "peak_rss_mb": peak_rss_mb,
            "cell_ok_frac": (attempted - failed) / attempted,
        }
        cells = None
        units_of = END_TO_END_UNITS

    report = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "env": setups[0]["env"], "workers": workload.worker_count(),
        "repetitions": {"plain": len(plain), "traced": len(traced)},
        "raw_walls_s": [u["wall_s"] for u in plain],
        "raw_setups_s": [s["setup_s"] for s in setups],
        "scales": [u["scale"] for u in units],
        "cell_fail_frac": failed / attempted,
        "check": result,
    }
    if cells is not None:
        report["tail_percentile"] = (100.0 * (tr.tail_rank(len(cells)) + 1)
                                     / max(len(cells), 1))
        report["cells"] = cells
    print(json.dumps(report))
    for name, value in metrics.items():
        print(f"{name:28s} {value:14.6g} {units_of[name]}")
    print(json.dumps({
        "correct": bool(result["correct"]), "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units_of[k]} for k, v in metrics.items()},
    }))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description="gibbsinf benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # SIGTERM unwinds like an exception, so children are killed and the
    # scratch directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gibbsinf", "__init__.py")):
        print("error: run from a gibbsinf checkout (src/gibbsinf not found)",
              file=sys.stderr)
        return 2
    work = os.path.join(root, WORK_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        return run(args, root, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, WORK_DIR))
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
