"""The benchmark's workloads: which bundled protocol, at what size, how run.

Each workload starts from a config in `configs/` and changes only the
replication count, the chain length and `baseSeed` (which is the
benchmark's `--seed`).  The model, loss, prior, rate, divergence and n grid
stay those of the bundled protocol.  Why each workload is there is written
in BENCHMARK.json and perfbench/README.md.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    config: str              # bundled config the protocol comes from
    kind: str                # "experiment" (run_experiment) or "cli" (gibbsinf sample)
    workers: str | int       # worker processes; "nproc" for all usable cores
    overrides: dict = field(default_factory=dict)

    def build_config(self, root: str, seed: int) -> dict:
        with open(os.path.join(root, self.config), encoding="utf-8") as fh:
            cfg = json.load(fh)
        for key, value in self.overrides.items():
            if isinstance(value, dict):
                cfg[key] = {**cfg[key], **value}
            else:
                cfg[key] = value
        cfg["baseSeed"] = int(seed)
        return cfg

    def worker_count(self) -> int:
        return nproc() if self.workers == "nproc" else int(self.workers)


def nproc() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


WORKLOADS = {w.name: w for w in (
    Workload(
        "mcid-reps", "configs/mcid1.json", "experiment", 1,
        {"replications": 8, "mh": {"steps": 2500, "burnIn": 500}}),
    Workload(
        "quantile-grid-par", "configs/quantile_rootn.json", "experiment", "nproc",
        {"replications": 4, "mh": {"steps": 2500, "burnIn": 500}}),
    Workload(
        "sparse", "configs/sparse_trend.json", "experiment", 1,
        {"replications": 1, "mh": {"steps": 3000, "burnIn": 600}}),
    Workload(
        "cli-sample", "configs/mcid2.json", "cli", 1,
        {"mh": {"steps": 20000, "burnIn": 4000}}),
)}
