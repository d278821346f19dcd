import warnings

import numpy as np
import pytest


@pytest.hookimpl(hookwrapper=True, tryfirst=True)
def pytest_runtest_makereport(item, call):
    # Hypothesis' report hook can touch mypy_extensions.TypedDict (when that
    # package is installed) while it describes a failing example. Under
    # -W error the deprecation warning escapes the hook and ends the session
    # in INTERNALERROR, so no later test runs. Ignore that one warning
    # around the report hooks only; any other warning still fails its test.
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore", message="mypy_extensions.TypedDict is deprecated",
            category=DeprecationWarning)
        yield


class _NoDraw(np.random.Generator):
    def random(self, *args, **kwargs):
        raise AssertionError("drew pairs for a topology too large to build")


def _refuse_allocating(*args, **kwargs):
    raise AssertionError("allocated for a topology too large to build")


@pytest.fixture
def no_topology_allocation(monkeypatch):
    """np.triu_indices, np.arange and every new generator's random raise
    AssertionError, so a topology too large to build fails a test instead of
    taking the machine's memory or time."""
    monkeypatch.setattr(np, "triu_indices", _refuse_allocating)
    monkeypatch.setattr(np, "arange", _refuse_allocating)
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: _NoDraw(np.random.PCG64(seed)))
