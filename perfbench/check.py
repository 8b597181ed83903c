"""Correctness check of a workload's outputs.

The check has three parts:

1. determinism -- every repetition in a run wrote byte-identical outputs,
   instrumented or not, serial or on a pool;
2. consistency -- the files are well formed and agree with each other: row
   count and order, the documented row seeds, no failed rows, summary means
   recomputed from the rows, chain summary recomputed from the draws;
3. reference -- the output hash equals the one recorded from the seed
   commit for this seed (for `quantile-grid-par` that reference is the
   serial run, so a pool run must match it byte for byte).  Where the hash
   differs, or no hash was recorded for the seed, the summary statistics
   must lie inside the tolerance bands recorded from the seed commit's
   outputs over the reference seeds (see record_reference.py).

The outputs are correct when parts 1 and 2 pass and part 3 passes by hash
or by tolerance.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

EXPERIMENT_FILES = ("results.csv", "summary.json")
CLI_FILES = ("draws.csv", "chain.json")
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

_MASK64 = (1 << 64) - 1
_REL = 1e-12


def digest(out_dir: str, names) -> str:
    h = hashlib.sha256()
    for name in names:
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def row_seed(*parts: int) -> int:
    """The documented row-seed derivation (splitmix64 absorption), written
    out here so the check does not take it from the code under test."""
    acc = 0x243F6A8885A308D3
    for p in parts:
        acc ^= int(p) & _MASK64
        z = (acc + 0x9E3779B97F4A7C15) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        acc = (z ^ (z >> 31)) & _MASK64
    return acc


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= _REL * max(abs(a), abs(b), 1e-300)


def _float(text: str) -> float | None:
    return float(text) if text != "" else None


def experiment_stats(out_dir: str, cfg: dict) -> tuple[dict, list[str]]:
    """Summary statistics of an experiment, and the consistency problems."""
    import numpy as np

    problems = []
    with open(os.path.join(out_dir, "results.csv"), newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)

    grid, reps = cfg["nGrid"], int(cfg["replications"])
    expected = [(i, j) for i in range(len(grid)) for j in range(reps)]
    if len(rows) != len(expected):
        problems.append(f"{len(rows)} rows, expected {len(expected)}")
    by_n: dict[int, list[dict]] = {}
    for row, (i, j) in zip(rows, expected):
        where = f"row n={row.get('n')} rep={row.get('rep')}"
        if (int(row["n"]), int(row["rep"])) != (grid[i], j):
            problems.append(f"{where}: out of order, expected ({grid[i]}, {j})")
        if int(row["seed"]) != row_seed(cfg["baseSeed"], i, j):
            problems.append(f"{where}: seed is not the documented row seed")
        if row["error"]:
            problems.append(f"{where}: {row['error']}")
            continue
        acc, rad = _float(row["accept_rate"]), _float(row["radius_q90"])
        if acc is None or not 0.0 < acc <= 1.0:
            problems.append(f"{where}: accept_rate {acc}")
        if rad is None or not (math.isfinite(rad) and rad >= 0.0):
            problems.append(f"{where}: radius_q90 {rad}")
        for key in ("misclass_est", "misclass_truth"):
            v = _float(row[key])
            if v is not None and not 0.0 <= v <= 1.0:
                problems.append(f"{where}: {key} {v}")
        by_n.setdefault(int(row["n"]), []).append(row)

    if summary.get("rowCount") != len(expected) or summary.get("errorCount") != 0:
        problems.append(f"summary rowCount/errorCount {summary.get('rowCount')}/"
                        f"{summary.get('errorCount')}")
    if summary.get("config") != cfg:
        problems.append("summary config echo differs from the config run")

    stats = {}
    for n, group in sorted(by_n.items()):
        for col, key, name in (("accept_rate", "acceptRateMeanByN", "acceptRateMean"),
                               ("radius_q90", "radiusQ90MeanByN", "radiusQ90Mean")):
            mean = float(np.mean([float(r[col]) for r in group]))
            reported = summary.get(key, {}).get(str(n))
            if reported is None or not _close(mean, reported):
                problems.append(f"summary {key}[{n}]={reported} but rows give {mean}")
            stats[f"{name}[{n}]"] = mean
    for col, key in (("misclass_est", "misclassEstMean"),
                     ("misclass_truth", "misclassTruthMean")):
        values = [float(r[col]) for g in by_n.values() for r in g if r[col] != ""]
        if values:
            mean = float(np.mean(values))
            if key not in summary or not _close(mean, summary[key]):
                problems.append(f"summary {key}={summary.get(key)} but rows give {mean}")
            stats[key] = mean
    if "rateFit" in summary:
        stats["rateFit.slope"] = float(summary["rateFit"]["slope"])
    return stats, problems


def cli_stats(out_dir: str, cfg: dict) -> tuple[dict, list[str]]:
    """Statistics of a `gibbsinf sample` chain, and the consistency problems."""
    import numpy as np

    problems = []
    with open(os.path.join(out_dir, "chain.json"), encoding="utf-8") as fh:
        chain = json.load(fh)
    with open(os.path.join(out_dir, "draws.csv"), encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        draws = np.loadtxt(fh, delimiter=",", ndmin=2)
    mh = cfg["mh"]
    kept = (int(mh["steps"]) - int(mh["burnIn"])) // int(mh["thin"])
    if draws.shape[0] != kept or chain.get("kept") != kept:
        problems.append(f"draws {draws.shape[0]} / kept {chain.get('kept')}, expected {kept}")
    if header != [f"theta{j}" for j in range(draws.shape[1])]:
        problems.append(f"draws.csv header {header[:3]}...")
    if chain.get("steps") != int(mh["steps"]) or chain.get("n") != int(cfg["nGrid"][0]):
        problems.append(f"chain steps/n {chain.get('steps')}/{chain.get('n')}")
    if not _close(chain["accepted"] / chain["steps"], chain["accept_rate"]):
        problems.append("accept_rate is not accepted/steps")
    mean = draws.mean(axis=0)
    if len(chain["mean"]) != mean.size or \
            not all(_close(a, b) for a, b in zip(chain["mean"], mean)):
        problems.append("chain mean differs from the mean of the draws")
    level = chain["interval_level"]
    for j, (lo, hi) in enumerate(chain["intervals"]):
        qlo, qhi = np.quantile(draws[:, j], [(1 - level) / 2, (1 + level) / 2])
        if not (_close(lo, qlo) and _close(hi, qhi)):
            problems.append(f"interval {j} differs from the draws' quantiles")
    stats = {"accept_rate": float(chain["accept_rate"])}
    stats.update({f"mean[{j}]": float(v) for j, v in enumerate(mean)})
    return stats, problems


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def log_scaled(stat: str) -> bool:
    """Rates and radii: positive statistics, banded in log space."""
    return stat.startswith(("accept", "radius", "misclass"))


def within_tolerance(stats: dict, bands: dict) -> list[str]:
    """Statistics outside their recorded band (missing ones included)."""
    out = []
    for name, band in sorted(bands.items()):
        v = stats.get(name)
        x = v
        if v is not None and band["scale"] == "log":
            x = math.log(v) if v > 0 else -math.inf
        if x is None or abs(x - band["center"]) > band["halfwidth"]:
            out.append(f"{name}={v} outside the {band['scale']} band "
                       f"{band['center']:.6g} ± {band['halfwidth']:.3g}")
    return out


def check_outputs(kind: str, out_dir: str, cfg: dict, hashes: list[str],
                  reference: dict) -> dict:
    """Run all three parts; `reference` is this workload's entry."""
    files = CLI_FILES if kind == "cli" else EXPERIMENT_FILES
    stats_fn = cli_stats if kind == "cli" else experiment_stats
    stats, problems = stats_fn(out_dir, cfg)
    h = digest(out_dir, files)
    if any(x != h for x in hashes):
        problems.append(f"repetitions wrote different outputs: {sorted(set(hashes))}")
    ref_hash = reference["hashes"].get(str(cfg["baseSeed"]))
    hash_match = ref_hash == h
    outside = within_tolerance(stats, reference["bands"])
    return {
        "correct": not problems and (hash_match or not outside),
        "hash": h,
        "reference_hash": ref_hash,
        "hash_match": hash_match,
        "tolerance_ok": not outside,
        "outside_tolerance": outside,
        "problems": problems,
        "stats": stats,
    }
