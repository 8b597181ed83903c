"""Spans around the calls into each gibbsinf module, recorded from outside.

`instrument(tracer)` replaces module attributes and methods of the package
with thin wrappers and returns a function that restores the originals.
Nothing inside `src/` is edited: each wrapper sits at the point where a
caller looks the name up (for example `runner.mh_run`, which is how
`fit_cell` reaches the sampler).

Two kinds of record are kept, both in memory:

* spans -- (id, name, start, end, parent, cell) around coarse calls such as
  a cell, a sampler run, a divergence or an output writer;
* counters -- per-evaluation layers (the empirical risk and the log prior)
  are too frequent for one span per call, so each call adds one to a count
  and its duration to a busy time held on the innermost open span.

A cell runs inside one process.  When the runner's pool computes cells in
worker processes (forked, so the wrappers are inherited), the cell wrapper
hands the cell's spans back inside the row dict under `SPANS_KEY`; the
caller pops them with `collect_rows` before the rows are used further.
The result files are unaffected because the writers only read the fixed
result columns.
"""

from __future__ import annotations

import functools
import os
import statistics
import time

SPANS_KEY = "_perfbench_spans"

# names of the spans and counters; the per-layer metrics are derived from them
CELL = "runner.cell"
FIT = "runner.fit_cell"
SAMPLER = "sampler.run"
PREPARE = "losses.prepare"
DIVERGENCE = "diagnostics.divergence"
GEN_SAMPLE = "generators.sample"
HOLDOUT = "generators.holdout"
BUILD = "config.build"
RUNNER_WRITE = "runner.write"
CLI_WRITE = "cli.write"
RISK = "losses.risk"
PRIOR = "priors.log_density"

_RUNNER_SPANS = (CELL, FIT)


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._next_id = 0
        self._next_cell = 0

    def begin(self, name: str, new_cell: bool = False) -> dict:
        parent = self._stack[-1] if self._stack else None
        if new_cell:
            cell = f"{os.getpid()}:{self._next_cell}"
            self._next_cell += 1
        else:
            cell = parent["cell"] if parent else None
        span = {"id": self._next_id, "name": name, "start": time.perf_counter(),
                "end": None, "parent": parent["id"] if parent else None,
                "cell": cell, "counts": {}}
        self._next_id += 1
        self._stack.append(span)
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        popped = self._stack.pop()
        assert popped is span, "spans must close in LIFO order"
        self.spans.append(span)

    def current(self) -> dict | None:
        return self._stack[-1] if self._stack else None

    def add(self, name: str, seconds: float) -> None:
        """Count one evaluation of a per-eval layer on the innermost span."""
        if not self._stack:
            return
        counts = self._stack[-1]["counts"]
        n, busy = counts.get(name, (0, 0.0))
        counts[name] = (n + 1, busy + seconds)

    def take_cell(self, cell: str) -> list[dict]:
        """Remove and return the finished spans of one cell."""
        mine = [s for s in self.spans if s["cell"] == cell]
        self.spans = [s for s in self.spans if s["cell"] != cell]
        return mine

    def collect_rows(self, rows: list) -> None:
        """Move spans that cells carried back inside their rows."""
        for row in rows:
            self.spans.extend(row.pop(SPANS_KEY, None) or ())


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------

def _span(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
            if after is not None:
                after(span, result)
            return result
        finally:
            tracer.end(span)
    return wrapper


def _counter(tracer: Tracer, name: str, fn):
    clock = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.add(name, clock() - t0)
    return wrapper


def _compute_row(tracer: Tracer, fn):
    """Cell span around `compute_row`; the spans travel back in the row."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.begin(CELL, new_cell=True)
        try:
            row = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        span["counts"]["row"] = (row["n"], row["rep"])
        row[SPANS_KEY] = tracer.take_cell(span["cell"])
        return row
    return wrapper


def _fit_cell(tracer: Tracer, fn):
    """`fit_cell` span; opens a cell too when called outside one (the CLI)."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        outer = None
        cur = tracer.current()
        if cur is None or cur["cell"] is None:
            outer = tracer.begin(CELL, new_cell=True)
        span = tracer.begin(FIT)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(span)
            if outer is not None:
                tracer.end(outer)
    return wrapper


def _generator_sample(tracer: Tracer, fn):
    """Data draws made by `fit_cell`; a draw made by the cell itself after
    the fit is the holdout set.  Draws inside another layer (the Monte-Carlo
    divergences) belong to that layer."""
    names = {FIT: GEN_SAMPLE, CELL: HOLDOUT}

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        cur = tracer.current()
        name = names.get(cur["name"]) if cur is not None else None
        if name is None:
            return fn(*args, **kwargs)
        span = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(span)
    return wrapper


def _record_chain(span: dict, chain) -> None:
    span["counts"]["chain"] = (int(chain.steps), int(chain.accepted))


def instrument(tracer: Tracer):
    """Install the wrappers; returns a function that removes them."""
    from gibbsinf import diagnostics, priors, sampler
    from gibbsinf.harness import cli, generators, runner

    saved = []

    def patch(owner, attr, make):
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    patch(runner, "compute_row", lambda f: _compute_row(tracer, f))
    for owner in (runner, cli):
        patch(owner, "fit_cell", lambda f: _fit_cell(tracer, f))
    for attr in ("mh_run", "ss_mh_run"):
        patch(runner, attr, lambda f: _span(tracer, SAMPLER, f, _record_chain))
    for attr in ("build_generator", "build_rate", "build_loss", "build_prior",
                 "build_mh", "build_divergence"):
        patch(runner, attr, lambda f: _span(tracer, BUILD, f))
    patch(runner, "holdout_misclassification", lambda f: _span(tracer, HOLDOUT, f))
    patch(runner, "write_outputs", lambda f: _span(tracer, RUNNER_WRITE, f))
    patch(cli, "write_chain_csv", lambda f: _span(tracer, CLI_WRITE, f))

    patch(sampler.GibbsTarget, "__init__", lambda f: _span(tracer, PREPARE, f))
    patch(sampler.GibbsTarget, "risk", lambda f: _counter(tracer, RISK, f))
    for cls, attrs in ((priors.GaussianIID, ("log_density",)),
                       (priors.LaplaceIID, ("log_density",)),
                       (priors.SpikeSlab, ("log_config_mass", "slab_log_density"))):
        for attr in attrs:
            patch(cls, attr, lambda f: _counter(tracer, PRIOR, f))

    for cls in (diagnostics.EuclideanDistance, diagnostics.AbsScalarDistance,
                diagnostics.EmpiricalL2, diagnostics.L2PDistance,
                diagnostics.RiskDiffSqrt, diagnostics.MCIDMeasure):
        for attr in ("between", "between_values", "batch", "batch_values",
                     "estimate"):
            if attr in cls.__dict__:
                patch(cls, attr, lambda f: _span(tracer, DIVERGENCE, f))

    for cls in vars(generators).values():
        if isinstance(cls, type) and cls.__module__ == generators.__name__ \
                and "sample" in cls.__dict__:
            patch(cls, "sample", lambda f: _generator_sample(tracer, f))

    def uninstall():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
    return uninstall


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def tail_rank(count: int) -> int:
    """0-based rank of the highest order statistic with at least ten values
    beyond it, never below the median."""
    return max(count - 11, count // 2)


def cell_breakdown(spans: list[dict]) -> list[dict]:
    """Per cell: wall time and the share of it no layer span covers.

    Runner glue (the cell and `fit_cell` spans themselves) is the uncovered
    part; every other span whose parent is a runner span is a layer call.
    """
    by_id = {}
    cells = {}
    for s in spans:
        by_id[(s["cell"], s["id"])] = s
        if s["name"] == CELL:
            cells[s["cell"]] = s
    covered = {c: 0.0 for c in cells}
    for s in spans:
        parent = by_id.get((s["cell"], s["parent"]))
        if s["name"] not in _RUNNER_SPANS and parent is not None \
                and parent["name"] in _RUNNER_SPANS:
            covered[s["cell"]] += s["end"] - s["start"]
    out = []
    for c, s in cells.items():
        wall = s["end"] - s["start"]
        row = s["counts"].get("row")
        out.append({"cell": list(row) if row else c, "ms": wall * 1e3,
                    "uncovered_frac": (wall - covered[c]) / wall})
    return out


def layer_metrics(spans: list[dict], traced_walls: list[float],
                  traced_scaled: list[float], plain_scaled: list[float],
                  workers: int, startup_s: list[float]) -> tuple[dict, list[dict]]:
    """Per-layer metrics (name -> value) and the per-cell breakdown.

    Layer times are raw; the tracing overhead compares calibrated walls of
    instrumented and plain repetitions (calib.py).
    """
    cells = cell_breakdown(spans)
    n_cells = max(len(cells), 1)
    runs = max(len(traced_walls), 1)

    def total(name):
        return sum(s["end"] - s["start"] for s in spans if s["name"] == name)

    def count(name, within=None):
        n, busy = 0, 0.0
        for s in spans:
            if within is None or s["name"] == within:
                c, b = s["counts"].get(name, (0, 0.0))
                n, busy = n + c, busy + b
        return n, busy

    risk_n, risk_busy = count(RISK)
    prior_n, prior_busy = count(PRIOR)
    steps = accepted = 0
    for s in spans:
        if s["name"] == SAMPLER:
            st, acc = s["counts"]["chain"]
            steps, accepted = steps + st, accepted + acc
    sampler_s = total(SAMPLER)
    inner = count(RISK, SAMPLER)[1] + count(PRIOR, SAMPLER)[1]
    cell_ms = sorted(c["ms"] for c in cells) or [0.0]
    uncovered = [c["uncovered_frac"] for c in cells] or [0.0]
    metrics = {
        "losses.risk_us": risk_busy / max(risk_n, 1) * 1e6,
        "losses.risk_evals": risk_n / n_cells,
        "losses.prepare_ms": total(PREPARE) / n_cells * 1e3,
        "priors.log_density_us": prior_busy / max(prior_n, 1) * 1e6,
        "priors.evals": prior_n / n_cells,
        "sampler.step_us": sampler_s / max(steps, 1) * 1e6,
        "sampler.self_us": (sampler_s - inner) / max(steps, 1) * 1e6,
        "sampler.accept_frac": accepted / max(steps, 1),
        "diagnostics.divergence_ms": total(DIVERGENCE) / n_cells * 1e3,
        "generators.sample_ms": total(GEN_SAMPLE) / n_cells * 1e3,
        "generators.holdout_ms": total(HOLDOUT) / n_cells * 1e3,
        "config.build_ms": total(BUILD) / n_cells * 1e3,
        "runner.cell_ms.p50": statistics.median(cell_ms),
        "runner.cell_ms.tail": cell_ms[tail_rank(len(cell_ms))],
        "runner.write_ms": total(RUNNER_WRITE) / runs * 1e3,
        "runner.pool_eff": sum(cell_ms) / 1e3 / (workers * sum(traced_walls)),
        "cli.startup_ms": statistics.median(startup_s) * 1e3,
        "cli.write_ms": total(CLI_WRITE) / runs * 1e3,
        "trace.overhead_frac": (statistics.median(traced_scaled)
                                / statistics.median(plain_scaled) - 1.0),
        "trace.uncovered_frac": statistics.median(uncovered),
    }
    return metrics, cells
