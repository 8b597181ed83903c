"""Record perfbench/reference.json from the current checkout's outputs.

    python3 perfbench/record_reference.py

For every workload and every reference seed (SEEDS) this runs the workload
once, serially (one process, no pool, no instrumentation), and records the
sha256 of its output files and its summary statistics.  The tolerance band
of each statistic is its mean over the seeds plus or minus K sample
standard deviations.  Rates and radii are positive and skewed across seeds,
so their bands are taken of the logarithm.  The file committed with the
benchmark was recorded on the commit that introduced it; re-record only on
purpose, and say so.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import sys
import tempfile

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import check  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = range(1, 17)
K = 10.0


def run_once(workload, cfg: dict, tmp: str) -> str:
    from gibbsinf.harness import cli, runner
    out = os.path.join(tmp, "out")
    if workload.kind == "cli":
        cfg_path = os.path.join(tmp, "config.json")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        if cli.main(["sample", cfg_path, "--out", out]) != 0:
            raise SystemExit(f"{workload.name}: gibbsinf sample failed")
    else:
        runner.write_outputs(runner.run_experiment(cfg, workers=1), out)
    return out


def main() -> None:
    ref = {"seeds": [SEEDS[0], SEEDS[-1]], "k": K, "workloads": {}}
    for name, workload in sorted(WORKLOADS.items()):
        hashes, per_stat = {}, {}
        for seed in SEEDS:
            cfg = workload.build_config(ROOT, seed)
            with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench_ref") as tmp:
                out = run_once(workload, cfg, tmp)
                files = check.CLI_FILES if workload.kind == "cli" else check.EXPERIMENT_FILES
                stats_fn = check.cli_stats if workload.kind == "cli" else check.experiment_stats
                stats, problems = stats_fn(out, cfg)
                if problems:
                    raise SystemExit(f"{name} seed {seed}: {problems}")
                hashes[str(seed)] = check.digest(out, files)
            for stat, value in stats.items():
                per_stat.setdefault(stat, []).append(value)
            print(name, seed, json.dumps(stats), flush=True)
        bands = {}
        for stat, values in per_stat.items():
            log = check.log_scaled(stat)
            xs = [math.log(v) for v in values] if log else values
            center = statistics.fmean(xs)
            bands[stat] = {"scale": "log" if log else "linear", "center": center,
                           "halfwidth": K * statistics.stdev(xs)
                           + 1e-9 * max(abs(center), 1.0),
                           "min": min(values), "max": max(values)}
        ref["workloads"][name] = {"hashes": hashes, "bands": bands}
    with open(check.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
