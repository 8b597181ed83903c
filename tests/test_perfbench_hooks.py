"""The benchmark tracer in `perfbench/tracer.py` wraps package functions and
methods by name from outside the package; renaming or deleting one of them
breaks the traced benchmark runs, so installing the hooks is checked here."""

import os

from gibbsinf import sampler
from gibbsinf.harness import MCID1, SparseClassSim, cli, runner

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def test_tracer_finds_every_hooked_name_and_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracer

    def hooked():
        # the generator draws feed generators.sample_ms and holdout_ms
        return (runner.compute_row, runner.mh_run, cli.fit_cell,
                sampler.GibbsTarget.risk, MCID1.sample, SparseClassSim.sample)

    before = hooked()
    uninstall = tracer.instrument(tracer.Tracer())
    try:
        assert all(now is not then for now, then in zip(hooked(), before))
    finally:
        uninstall()
    assert hooked() == before
