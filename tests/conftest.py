"""Shared test set-up."""

import pytest

from gibbsinf.harness import runner


@pytest.fixture(scope="session", autouse=True)
def _release_worker_pool():
    # the runner keeps its worker pool between calls; releasing it here,
    # rather than leaving it to the interpreter's exit, keeps the session's
    # exit quiet
    yield
    runner.shutdown_pool()
