"""One ``--fast`` run of the experiment registry per test session."""

import pytest

from repro.bench.__main__ import EXPERIMENTS


@pytest.fixture(scope="session")
def fast_results():
    """Registry id -> result of every experiment at the ``--fast`` scale."""
    return {experiment.id: experiment.run(fast=True) for experiment in EXPERIMENTS}
