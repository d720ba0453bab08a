"""Root fixtures shared across the test suite."""

import threading

import pytest

from tests.federation_fixtures import (
    build_files_wrapper,
    build_oo7_wrapper,
    build_sales_wrapper,
)
from repro.mediator.mediator import Mediator


@pytest.fixture
def federation():
    """The standard three-source federation (see federation_fixtures)."""
    mediator = Mediator()
    mediator.register(build_oo7_wrapper())
    mediator.register(build_sales_wrapper())
    mediator.register(build_files_wrapper())
    return mediator


@pytest.fixture
def thread_starts(monkeypatch):
    """Names of the threads started while the test runs, in order."""
    starts = []
    original = threading.Thread.start

    def counting_start(thread):
        starts.append(thread.name)
        original(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    return starts
