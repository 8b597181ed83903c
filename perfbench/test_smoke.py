"""Smoke test of the benchmark at a tiny run length.

    python3 -m pytest perfbench/test_smoke.py -q     (from the repository root)

It checks that every end-to-end and per-layer metric named in BENCHMARK.json
is printed with its unit on every workload, that the correctness check
passes on a seed outside the reference set (by tolerance) and fails when an
output or a reference is perturbed, and that the benchmark exits non-zero
without printing a result where the package sources are missing.
It takes about two minutes on two cores.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import check  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

OTHER_SEED = 1001        # not among the reference seeds


def bench_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_bench(workload: str, trace: int, seed: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_printed_with_unit(workload, trace):
    proc = run_bench(workload, trace, OTHER_SEED)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = bench_spec()["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        assert f"{name} " in proc.stdout                 # human-readable line too
    report = json.loads(lines[0])
    assert not report["check"]["hash_match"]             # no reference hash
    assert report["check"]["tolerance_ok"], report["check"]["outside_tolerance"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


@pytest.fixture(scope="module", params=["mcid-reps", "cli-sample"])
def outputs(request, tmp_path_factory):
    """Outputs of one workload at reference seed 1, made with the CLI."""
    workload = WORKLOADS[request.param]
    tmp = tmp_path_factory.mktemp(request.param)
    cfg = workload.build_config(ROOT, 1)
    cfg_path = tmp / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp / "out"
    command = (["sample", str(cfg_path)] if workload.kind == "cli"
               else ["experiment", "run", str(cfg_path), "--workers", "1"])
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               OPENBLAS_NUM_THREADS="1")
    subprocess.run([sys.executable, "-m", "gibbsinf", *command, "--out", str(out)],
                   cwd=ROOT, env=env, check=True, capture_output=True, timeout=300)
    reference = check.load_reference()["workloads"][workload.name]
    return workload, cfg, out, reference


def verdict(outputs, reference=None) -> dict:
    workload, cfg, out, ref = outputs
    files = check.CLI_FILES if workload.kind == "cli" else check.EXPERIMENT_FILES
    return check.check_outputs(workload.kind, str(out), cfg,
                               [check.digest(str(out), files)], reference or ref)


def perturb(path, old: str, new: str) -> None:
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))


def test_unperturbed_outputs_match_reference(outputs):
    result = verdict(outputs)
    assert result["correct"] and result["hash_match"], result


def test_perturbed_output_fails(outputs, tmp_path):
    workload, cfg, out, ref = outputs
    copy_dir = tmp_path / "out"
    shutil.copytree(out, copy_dir)
    if workload.kind == "cli":
        draws = copy_dir / "draws.csv"
        first = draws.read_text().splitlines()[1].split(",")[0]
        perturb(draws, first, repr(float(first) + 1.0))
    else:
        summary = copy_dir / "summary.json"
        key = next(iter(json.loads(summary.read_text())["acceptRateMeanByN"].values()))
        perturb(summary, repr(key), repr(key + 0.01))
    result = verdict((workload, cfg, copy_dir, ref))
    assert not result["correct"] and result["problems"], result


def test_tolerance_path(outputs):
    """Without a reference hash the bands decide; a moved band fails."""
    ref = copy.deepcopy(outputs[3])
    ref["hashes"] = {}
    assert verdict(outputs, ref)["correct"]
    band = next(iter(ref["bands"].values()))
    band["center"] += 100.0 * band["halfwidth"] + 1.0
    result = verdict(outputs, ref)
    assert not result["correct"] and result["outside_tolerance"], result


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("mcid-reps", 0, 1, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
