"""The benchmark tracer in `perfbench/tracer.py` wraps package functions and
methods by name from outside the package; renaming or deleting one of them
breaks the traced benchmark runs, so installing the hooks is checked here."""

import os

from gibbsinf import sampler
from gibbsinf.harness import cli, runner

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def test_tracer_finds_every_hooked_name_and_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracer

    before = (runner.compute_row, runner.mh_run, cli.fit_cell,
              sampler.GibbsTarget.risk)
    uninstall = tracer.instrument(tracer.Tracer())
    try:
        assert runner.compute_row is not before[0]
    finally:
        uninstall()
    assert (runner.compute_row, runner.mh_run, cli.fit_cell,
            sampler.GibbsTarget.risk) == before
