"""Experiment replication engine.

Every (n, replication) cell is computed purely from the config dict and its
derived row seed, rowSeed = hash64(baseSeed, nIndex, repIndex).  The
replications at one n run as blocks: contiguous runs of replications whose
random-walk chains advance in lockstep as one (R, J) array (see
`sampler.mh_run_block`).  Each chain keeps its own data, seed streams and
accept decisions, so a row is bit-identical whatever block it runs in: the
block size, the worker count and the split never change a byte.  The runner
only ever hands workers (config, n index, replication indices), and file row
order is by (nIndex, repIndex) regardless of completion order.  Spike-slab
chains (`ss_mh_run`) run one at a time inside their block; their draws are
dense (alpha, beta) rows like any other chain's, so the divergences and the
posterior mean take them as they are.

Outputs: results.csv (fixed header, RFC-4180 quoting), summary.json
(sorted keys; config echo with per-n resolved learning rates), radii.csv
(long format for radius-vs-n plotting).  Wall-clock times are recorded only
when explicitly requested, keeping default outputs reproducible.
"""

from __future__ import annotations

import concurrent.futures
import csv
import json
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from ..diagnostics import EmpiricalL2, concentration_slope
from ..errors import ConfigError, GibbsInfError
from ..losses import MCIDLoss, least_squares_coefficients
from ..model import FunctionParam
from ..rates import AUCDataDriven, rate_at
from ..sampler import (GibbsTarget, hash64, make_rng, mh_run_block, mh_start,
                       posterior_mean, ss_mh_run)
# runner.mh_run stays importable: perfbench/tracer.py wraps it by that name
from ..sampler import mh_run  # noqa: F401
from .config import (build_divergence, build_generator, build_loss, build_mh,
                     build_prior, build_rate, parameter_dim,
                     validate_experiment_config)
from .generators import holdout_misclassification

RESULT_COLUMNS = ["n", "rep", "seed", "omega", "radius_q90", "div_point_est",
                  "misclass_est", "misclass_truth", "accept_rate", "wall_ms",
                  "error"]


@dataclass(frozen=True)
class ExperimentResult:
    rows: list
    summary: dict


def row_seed(base_seed: int, n_index: int, rep_index: int) -> int:
    """The documented, version-stable per-row seed derivation."""
    return hash64(base_seed, n_index, rep_index)


def _sub_rng(seed: int, stream: int) -> np.random.Generator:
    """Independent generator for one named stream of a row."""
    return make_rng(hash64(seed, stream))


# stream indices within a row; fixed as part of the determinism contract
_STREAM_DATA = 1
_STREAM_CHAIN = 2
_STREAM_HOLDOUT = 3
_STREAM_DIVERGENCE = 4


# the expected failures of a cell: they end up in its row's error column
_ROW_ERRORS = (GibbsInfError, ValueError, FloatingPointError, np.linalg.LinAlgError)


def _error_text(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def compute_rows(cfg: dict, n_index: int, rep_indices,
                 timings: bool = False) -> list[dict]:
    """The cells of some replications at one n, as one block; never raises
    on expected failures (fail-soft, per row).

    With timings, a row's wall_ms is its own set-up and post-processing
    plus an equal share of the block's sampler time.
    """
    n = int(cfg["nGrid"][n_index])
    seeds = [row_seed(int(cfg["baseSeed"]), n_index, j) for j in rep_indices]
    fits, fit_s = _fit_cells(cfg, n, seeds)
    rows = []
    for rep_index, seed, fit, seconds in zip(rep_indices, seeds, fits, fit_s):
        row = {c: None for c in RESULT_COLUMNS}
        row.update(n=n, rep=rep_index, seed=seed)
        start = time.perf_counter()
        if isinstance(fit, Exception):
            row["error"] = _error_text(fit)
        else:
            try:
                row.update(_row_values(cfg, fit, seed))
            except _ROW_ERRORS as exc:
                row["error"] = _error_text(exc)
        if timings:
            row["wall_ms"] = (seconds + time.perf_counter() - start) * 1000.0
        rows.append(row)
    return rows


def compute_row(cfg: dict, n_index: int, rep_index: int,
                timings: bool = False) -> dict:
    """One experiment cell; never raises on expected failures (fail-soft)."""
    return compute_rows(cfg, n_index, [rep_index], timings)[0]


@dataclass(frozen=True)
class CellFit:
    """Everything one experiment cell produced, before row aggregation."""

    generator: object
    data: object
    loss: object
    basis: object
    omega: float
    chain: object
    theta_bar: np.ndarray


def _resolve_init(mh_spec: dict, loss, data):
    """Resolve the chain's starting point from the mh config section.

    "pilot" asks for a data-driven warm start: for the threshold-function
    loss this is the least-squares fit of the score on the basis expansion
    of the covariate.  It changes only where the chain starts, never the
    target; long prior-started chains agree with short pilot-started ones.
    """
    init = mh_spec.get("init")
    if init is None:
        return None
    if init == "pilot":
        if isinstance(loss, MCIDLoss):
            design = loss.basis.design(data.z)
            return least_squares_coefficients(design, data.x)
        raise ConfigError("mh init 'pilot' is only available for the mcid loss")
    if isinstance(init, list):
        return np.asarray(init, dtype=float)
    raise ConfigError("mh init must be 'pilot' or a list of coordinates")


def _fit_cells(cfg: dict, n: int, seeds: list) -> tuple[list, list]:
    """Fit the cells of one block: per seed, a CellFit or the exception that
    ended its set-up or its chain, and the seconds spent on it.

    Components that depend only on (config, n) are built once per block, on
    first use, in the order a single cell builds them; a build that fails is
    retried by every cell, so each row reports its own error.
    """
    built = {}

    def shared(key, build):
        if key not in built:
            built[key] = build()
        return built[key]

    fits, seconds, starts = [], [], []
    for seed in seeds:
        start = time.perf_counter()
        try:
            fit, chain_start = _set_up_cell(cfg, n, seed, shared)
            if chain_start is not None:
                starts.append((len(fits), chain_start))
        except _ROW_ERRORS as exc:
            fit = exc
        fits.append(fit)
        seconds.append(time.perf_counter() - start)

    if starts:
        start = time.perf_counter()
        try:
            chains = mh_run_block([s for _, s in starts])
        except _ROW_ERRORS as exc:
            chains = [exc] * len(starts)
        share = (time.perf_counter() - start) / len(starts)
        for (i, _), chain in zip(starts, chains):
            seconds[i] += share
            fits[i] = chain if isinstance(chain, Exception) else replace(
                fits[i], chain=chain, theta_bar=posterior_mean(chain))
    return fits, seconds


def _set_up_cell(cfg: dict, n: int, seed: int, shared):
    """Generate data, resolve the learning rate and set up the chain.

    Returns (fit, None) for a spike-slab cell, whose chain has already run,
    and (fit without chain, ChainStart) for a random-walk cell.
    """
    generator = shared("generator", lambda: build_generator(cfg["generator"]))
    data = generator.sample(n, _sub_rng(seed, _STREAM_DATA))

    schedule = shared("rate", lambda: build_rate(cfg["rate"]))
    if isinstance(schedule, AUCDataDriven):
        omega = schedule.resolve(data.scores0, data.scores1)
    else:
        omega = rate_at(schedule, n)

    loss = shared("loss", lambda: build_loss(cfg["loss"], generator,
                                             schedule=schedule, n=n))
    basis = getattr(loss, "basis", None) or getattr(loss, "features", None)
    fit = CellFit(generator=generator, data=data, loss=loss, basis=basis,
                  omega=omega, chain=None, theta_bar=None)

    prior_spec = cfg["prior"]
    chain_seed = hash64(seed, _STREAM_CHAIN)
    if prior_spec.get("name") == "spikeslab":
        prior = shared("prior", lambda: build_prior(prior_spec, dim=0))
        target = GibbsTarget(loss, prior, data, omega)
        chain = ss_mh_run(target, build_mh(cfg["mh"], n, seed=chain_seed))
        return replace(fit, chain=chain, theta_bar=posterior_mean(chain)), None
    prior = shared("prior", lambda: build_prior(
        prior_spec, dim=parameter_dim(loss, generator)))
    target = GibbsTarget(loss, prior, data, omega)
    init = _resolve_init(cfg["mh"], loss, data)
    return fit, mh_start(target, build_mh(cfg["mh"], n, seed=chain_seed, init=init))


def fit_cell(cfg: dict, n: int, seed: int) -> CellFit:
    """Generate data, resolve the learning rate, and run the sampler."""
    fit = _fit_cells(cfg, n, [seed])[0][0]
    if isinstance(fit, Exception):
        raise fit
    return fit


def _row_values(cfg: dict, fit: CellFit, seed: int) -> dict:
    div = build_divergence(cfg["divergence"], fit.generator, fit.loss,
                           basis=fit.basis)
    div_rng = _sub_rng(seed, _STREAM_DIVERGENCE)
    radius_q90, div_point = _divergence_stats(
        div, fit.chain.draws, fit.theta_bar, fit.generator, div_rng)

    out = {"omega": fit.omega, "accept_rate": fit.chain.accept_rate,
           "radius_q90": radius_q90, "div_point_est": div_point}

    if isinstance(fit.loss, MCIDLoss):
        holdout_n = int(cfg.get("holdout", fit.generator.holdout_default))
        holdout = fit.generator.sample(holdout_n, _sub_rng(seed, _STREAM_HOLDOUT))
        fitted = FunctionParam(fit.loss.basis, fit.theta_bar)
        out["misclass_est"] = holdout_misclassification(fitted, holdout)
        out["misclass_truth"] = holdout_misclassification(fit.generator.truth_fn,
                                                          holdout)
    return out


def _divergence_stats(div, draw_mat, theta_bar, generator, rng):
    """(0.9-quantile of d(draw, truth), d(posterior mean, truth))."""
    reference = generator.theta_star
    if isinstance(div, EmpiricalL2) and reference is None:
        # functional truth: compare fitted values against the true function's
        # values on the divergence grid
        grid_values = np.asarray(generator.truth_fn(div.xs), dtype=float)
        values = div.batch_values(draw_mat, grid_values)
        point = div.between_values(theta_bar, grid_values)
    elif getattr(div, "is_mc", False):
        values = div.batch(draw_mat, reference, rng)
        point = float(div.estimate(theta_bar, reference, rng).value)
    else:
        values = div.batch(draw_mat, reference)
        point = div.between(theta_bar, reference)
    return float(np.quantile(values, 0.9)), float(point)


def _task(args) -> list[dict]:
    return compute_rows(*args)


def _blocks(n_count: int, reps: int, workers: int) -> list[tuple[int, range]]:
    """(n index, replication indices) of every block, in row order: the
    replications at each n, split into just enough contiguous blocks that
    there is at least one block per worker."""
    per_n = min(reps, -(-workers // n_count))
    bounds = [reps * b // per_n for b in range(per_n + 1)]
    return [(i, range(lo, hi)) for i in range(n_count)
            for lo, hi in zip(bounds, bounds[1:])]


def default_workers() -> int:
    """GIBBS_WORKERS if set, else the number of CPUs this process may run on."""
    env = os.environ.get("GIBBS_WORKERS")
    if env:
        try:
            w = int(env)
        except ValueError:
            raise ConfigError("GIBBS_WORKERS must be an integer") from None
        if w < 1:
            raise ConfigError("GIBBS_WORKERS must be at least 1")
        return w
    if hasattr(os, "sched_getaffinity"):
        # counts only the CPUs an affinity mask (taskset, a container) allows
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_experiment(cfg: dict, workers: int | None = None,
                   timings: bool = False, full: bool = False) -> ExperimentResult:
    """Run every (n, replication) cell and aggregate a summary.

    Rows fail soft: a failed cell carries its error message and the run
    continues.  With workers > 1 blocks are computed in separate processes;
    results are identical to the serial path because each row depends only
    on (config, rowSeed).
    """
    validate_experiment_config(cfg)
    cfg = dict(cfg)
    if full and cfg.get("fullReplications"):
        cfg["replications"] = int(cfg["fullReplications"])
    if workers is None:
        workers = default_workers()
    blocks = _blocks(len(cfg["nGrid"]), int(cfg["replications"]), workers)
    tasks = [(cfg, i, reps, timings) for i, reps in blocks]
    if workers > 1 and len(tasks) > 1:
        # largest n first: a block's cost grows with n, and a long block that
        # starts last leaves the other workers idle
        order = sorted(range(len(tasks)), key=lambda b: -cfg["nGrid"][blocks[b][0]])
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            by_block = dict(zip(order, pool.map(_task, [tasks[b] for b in order],
                                                 chunksize=1)))
        done = [by_block[b] for b in range(len(tasks))]
    else:
        done = [_task(t) for t in tasks]
    rows = [row for block in done for row in block]

    return ExperimentResult(rows=rows, summary=_summarize(cfg, rows))


def _summarize(cfg: dict, rows: list) -> dict:
    ok = [r for r in rows if r["error"] is None]
    by_n: dict[int, list] = {}
    for r in ok:
        by_n.setdefault(r["n"], []).append(r)

    def mean_by_n(key):
        return {str(n): float(np.mean([r[key] for r in group]))
                for n, group in sorted(by_n.items())
                if all(r[key] is not None for r in group)}

    summary = {
        "schema": cfg.get("schema", 1),
        "config": cfg,
        "rowCount": len(rows),
        "errorCount": len(rows) - len(ok),
        "omegaByN": mean_by_n("omega"),
        "radiusQ90MeanByN": mean_by_n("radius_q90"),
        "acceptRateMeanByN": mean_by_n("accept_rate"),
    }
    mis_est = [r["misclass_est"] for r in ok if r["misclass_est"] is not None]
    mis_tru = [r["misclass_truth"] for r in ok if r["misclass_truth"] is not None]
    if mis_est:
        summary["misclassEstMean"] = float(np.mean(mis_est))
        summary["misclassTruthMean"] = float(np.mean(mis_tru))
    pairs = [(r["n"], r["radius_q90"]) for r in ok
             if r["radius_q90"] is not None and r["radius_q90"] > 0]
    if len({n for n, _ in pairs}) >= 3:
        fit = concentration_slope(pairs)
        summary["rateFit"] = {"slope": fit.slope, "intercept": fit.intercept}
    return summary


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_results_csv(rows: list, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RESULT_COLUMNS)
        for r in rows:
            writer.writerow([_cell(r[c]) for c in RESULT_COLUMNS])


def write_radii_csv(rows: list, path) -> None:
    """Long-format radius-vs-n table, one row per successful replication."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["n", "rep", "radius_q90"])
        for r in rows:
            if r["error"] is None and r["radius_q90"] is not None:
                writer.writerow([_cell(r["n"]), _cell(r["rep"]),
                                 _cell(r["radius_q90"])])


def write_summary_json(summary: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_outputs(result: ExperimentResult, out_dir) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "results": os.path.join(out_dir, "results.csv"),
        "radii": os.path.join(out_dir, "radii.csv"),
        "summary": os.path.join(out_dir, "summary.json"),
    }
    write_results_csv(result.rows, paths["results"])
    write_radii_csv(result.rows, paths["radii"])
    write_summary_json(result.summary, paths["summary"])
    return paths
