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
posterior mean take them as they are.  A block builds what depends only on
(config, n) once, with `config.build_components`, which validation calls
too; a cell reads the config only through these `Components` (the sampler
configuration among them) and adds its data and its chain's seed, so on a
validated config a row fails only on its data.

With workers > 1 the blocks run on a process pool that is kept between
calls.  The first parallel call in a process starts its `workers`
processes; later calls with the same count reuse them, so the workers'
start-up (forking, and the imports NumPy does on first use) is paid once
per process, not once per call; the pool's modules load with it, so a
serial run never imports them.  Only a process that makes more than one
parallel call gains: the command line makes one, and releases the workers
after it.  A call with another worker count replaces the pool, and so does
a broken pool (a worker that died), after which the call's blocks are
submitted once more.  `shutdown_pool()` releases the workers; otherwise
they exit with the interpreter, or at once if their owner dies without
shutting them down.  A process that multiprocessing started releases them
after every call, and a forked child starts its own pool.  Workers get
every input a block needs with its task, so a reused worker computes the
same bytes as a fresh one.

Outputs: results.csv (fixed header, RFC-4180 quoting), summary.json
(sorted keys; config echo with per-n resolved learning rates), radii.csv
(long format for radius-vs-n plotting).  Wall-clock times are recorded only
when explicitly requested, keeping default outputs reproducible.
"""

from __future__ import annotations

import csv
import json
import os
import threading
import time
from dataclasses import dataclass, replace

import numpy as np

from ..diagnostics import concentration_slope
from ..errors import ConfigError, GibbsInfError, PreconditionError
from ..losses import least_squares_coefficients
from ..priors import SpikeSlab
from ..sampler import (GibbsTarget, hash64, make_rng, mh_run_block, mh_start,
                       posterior_mean, ss_mh_run)
# runner.mh_run and the component builders stay importable here:
# perfbench/tracer.py wraps them by these names
from ..sampler import mh_run  # noqa: F401
from .config import (build_divergence, build_generator, build_loss,  # noqa: F401
                     build_mh, build_prior, build_rate)
from .config import Components, build_components, validate_experiment_config
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
    plus an equal share of the block's component build and sampler time.
    """
    n = cfg["nGrid"][n_index]
    seeds = [row_seed(cfg["baseSeed"], n_index, j) for j in rep_indices]
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
                row.update(_row_values(fit, seed))
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

    parts: Components
    data: object
    omega: float
    chain: object


def _fit_cells(cfg: dict, n: int, seeds: list) -> tuple[list, list]:
    """Fit the cells of one block: per seed, a CellFit or the exception that
    ended its set-up or its chain, and the seconds spent on it.

    The components that depend only on (config, n) are built once for the
    block, and each cell takes an equal share of that time; if the build
    fails, every cell reports its error.
    """
    start = time.perf_counter()
    try:
        parts = build_components(cfg, n)
    except _ROW_ERRORS as exc:
        parts = exc
    build_share = (time.perf_counter() - start) / max(len(seeds), 1)
    if isinstance(parts, Exception):
        return [parts] * len(seeds), [build_share] * len(seeds)

    fits, seconds, starts = [], [], []
    for seed in seeds:
        start = time.perf_counter()
        try:
            fit, chain_start = _set_up_cell(parts, seed)
            if chain_start is not None:
                starts.append((len(fits), chain_start))
        except _ROW_ERRORS as exc:
            fit = exc
        fits.append(fit)
        seconds.append(build_share + time.perf_counter() - start)

    if starts:
        start = time.perf_counter()
        try:
            chains = mh_run_block([s for _, s in starts])
        except _ROW_ERRORS as exc:
            chains = [exc] * len(starts)
        share = (time.perf_counter() - start) / len(starts)
        for (i, _), chain in zip(starts, chains):
            seconds[i] += share
            fits[i] = chain if isinstance(chain, Exception) \
                else replace(fits[i], chain=chain)
    return fits, seconds


def _set_up_cell(parts: Components, seed: int):
    """Generate data, resolve a data-driven rate and set up the chain.

    Returns (fit, None) for a spike-slab cell, whose chain has already run,
    and (fit without chain, ChainStart) for a random-walk cell.  A pilot
    start, the least-squares fit of x on the basis of z, moves no target.
    """
    data = parts.generator.sample(parts.n, _sub_rng(seed, _STREAM_DATA))
    omega = parts.omega if parts.omega is not None \
        else parts.schedule.resolve(data.scores0, data.scores1)
    fit = CellFit(parts=parts, data=data, omega=omega, chain=None)

    target = GibbsTarget(parts.loss, parts.prior, data, omega)
    mh = replace(parts.mh, seed=hash64(seed, _STREAM_CHAIN))
    if isinstance(parts.prior, SpikeSlab):
        return replace(fit, chain=ss_mh_run(target, mh)), None
    if parts.pilot:
        mh = replace(mh, init=least_squares_coefficients(
            parts.loss.basis.design(data.z), data.x))
    return fit, mh_start(target, mh)


def fit_cell(cfg: dict, n: int, seed: int) -> CellFit:
    """Generate data, resolve the learning rate, and run the sampler."""
    fit = _fit_cells(cfg, n, [seed])[0][0]
    if isinstance(fit, Exception):
        raise fit
    return fit


def _row_values(fit: CellFit, seed: int) -> dict:
    """The row's values: a batch call for the radius, then a between call
    for the posterior mean, on one stream; the holdout's misclassification."""
    parts, theta_bar = fit.parts, posterior_mean(fit.chain)
    div_rng = _sub_rng(seed, _STREAM_DIVERGENCE)
    values = parts.divergence.batch(fit.chain.draws, parts.truth, div_rng)
    out = {"omega": fit.omega, "accept_rate": fit.chain.accept_rate,
           "radius_q90": float(np.quantile(values, 0.9)),
           "div_point_est": float(parts.divergence.between(
               theta_bar, parts.truth, div_rng))}

    if parts.holdout is not None:
        holdout = parts.generator.sample(parts.holdout,
                                         _sub_rng(seed, _STREAM_HOLDOUT))
        out["misclass_est"] = holdout_misclassification(
            lambda z: parts.loss.basis.design(z) @ theta_bar, holdout)
        out["misclass_truth"] = holdout_misclassification(
            parts.generator.truth_fn, holdout)
    return out


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


# the process pool kept across run_experiment calls and its worker count;
# calls from several threads take turns on it
_pool = None
_pool_workers = 0
_pool_lock = threading.RLock()


def _forget_pool() -> None:
    # a forked child inherits the pool object and the lock but not the
    # workers or the threads behind them: it starts afresh
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.RLock()


os.register_at_fork(after_in_child=_forget_pool)


def _exit_with_parent() -> None:
    # worker initializer: an idle worker waits on a queue it holds both ends
    # of, so it would never notice an owner killed before it could shut the
    # pool down (SIGKILL, say); a thread watches the owner instead
    import multiprocessing

    parent = multiprocessing.parent_process()
    threading.Thread(target=lambda: (parent.join(), os._exit(1)),
                     daemon=True).start()


def _warm_pool(workers: int):
    """The kept pool, started on first use or when the worker count changes."""
    global _pool, _pool_workers
    if _pool is not None and _pool_workers != workers:
        shutdown_pool()
    if _pool is None:
        from concurrent.futures import ProcessPoolExecutor
        _pool = ProcessPoolExecutor(
            max_workers=workers, initializer=_exit_with_parent)
        _pool_workers = workers
    return _pool


def shutdown_pool() -> None:
    """Shut the kept worker pool down and wait for its workers to exit.

    The next parallel `run_experiment` call starts a new pool.  Without this
    call the pool lives until the interpreter exits, which shuts it down.
    """
    global _pool
    with _pool_lock:
        pool, _pool = _pool, None
        if pool is not None:
            pool.shutdown()


def _map_on_pool(tasks: list, workers: int) -> list:
    """`_task` over tasks on the kept pool, results in task order.

    A broken pool (a worker died, for instance killed while idle) is
    replaced and the tasks are submitted once more; any other exception
    shuts the pool down and propagates.  A process that multiprocessing
    started does not keep the pool: when its target returns it waits for
    its own children before executors are shut down, so idle workers would
    hold up its exit for good.
    """
    import multiprocessing  # loaded with the pool, so kept out of start-up
    from concurrent.futures.process import BrokenProcessPool

    with _pool_lock:
        try:
            try:
                return list(_warm_pool(workers).map(_task, tasks, chunksize=1))
            except BrokenProcessPool:
                shutdown_pool()
                return list(_warm_pool(workers).map(_task, tasks, chunksize=1))
        except BaseException:
            shutdown_pool()
            raise
        finally:
            if multiprocessing.parent_process() is not None:
                shutdown_pool()


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
    continues.  With workers > 1 blocks are computed on the kept process
    pool (see the module docstring); results are identical to the serial
    path because each row depends only on (config, rowSeed).
    """
    if workers is not None and workers < 1:
        raise ConfigError(f"workers must be at least 1; got {workers}")
    validate_experiment_config(cfg)
    cfg = dict(cfg)
    if full and cfg.get("fullReplications"):
        cfg["replications"] = cfg["fullReplications"]
    if workers is None:
        workers = default_workers()
    blocks = _blocks(len(cfg["nGrid"]), cfg["replications"], workers)
    tasks = [(cfg, i, reps, timings) for i, reps in blocks]
    if workers > 1 and len(tasks) > 1:
        # largest n first: a block's cost grows with n, and a long block that
        # starts last leaves the other workers idle
        order = sorted(range(len(tasks)), key=lambda b: -cfg["nGrid"][blocks[b][0]])
        by_block = dict(zip(order, _map_on_pool([tasks[b] for b in order], workers)))
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
    # the fit `gibbsinf diagnose rate` makes of radii.csv, if it makes one
    try:
        fit = concentration_slope([(r["n"], r["radius_q90"]) for r in ok
                                   if r["radius_q90"] is not None])
        summary["rateFit"] = {"slope": fit.slope, "intercept": fit.intercept}
    except PreconditionError:
        pass
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
