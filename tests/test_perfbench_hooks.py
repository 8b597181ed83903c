"""The benchmark tracer in `perfbench/tracer.py` wraps package functions and
methods by name from outside the package; renaming or deleting one of them
breaks the traced benchmark runs, so installing the hooks is checked here."""

import os

from gibbsinf import AUCLoss, EmpiricalL2, RiskDiffSqrt, SpikeSlab, sampler
from gibbsinf.harness import AUCSim, MCID1, SparseClassSim, cli, runner
from gibbsinf.sampler import make_rng

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def test_tracer_finds_every_hooked_name_and_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracer

    def hooked():
        # the generator draws feed generators.sample_ms and holdout_ms; the
        # spike-slab names feed the sampler and prior layers of `sparse`;
        # the divergence batches feed diagnostics.divergence_ms (`between`,
        # the one-row batch, is no divergence's own method: its time is the
        # wrapped batch's)
        return (runner.compute_row, runner.mh_run, runner.ss_mh_run,
                cli.fit_cell, sampler.GibbsTarget.risk,
                SpikeSlab.log_config_mass, SpikeSlab.slab_log_density,
                MCID1.sample, SparseClassSim.sample,
                EmpiricalL2.batch, RiskDiffSqrt.batch)

    before = hooked()
    uninstall = tracer.instrument(tracer.Tracer())
    try:
        assert all(now is not then for now, then in zip(hooked(), before))
    finally:
        uninstall()
    assert hooked() == before


def test_one_monte_carlo_divergence_call_is_one_span(monkeypatch):
    # the tracer wraps both RiskDiffSqrt.between and .estimate: if one called
    # the other, diagnostics.divergence_ms would count its time twice
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracer

    recorder = tracer.Tracer()
    uninstall = tracer.instrument(recorder)
    try:
        div = RiskDiffSqrt(AUCLoss(), AUCSim(1.0).mc_sample, n_draws=64)
        div.between(0.6, 0.7, make_rng(1))
    finally:
        uninstall()
    assert [s["name"] for s in recorder.spans] == [tracer.DIVERGENCE]
