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


def _refuse_evolving(*args, **kwargs):
    raise AssertionError("started evolving a sweep that must be refused")


@pytest.fixture
def no_sweep_evolution(monkeypatch):
    """Every step by which scaling_sweep draws initial clocks, evolves a
    size or forks a worker raises AssertionError, so a sweep that should be
    refused up front fails a test instead of running for minutes or taking
    the machine's memory."""
    from hopsync import harness
    for name in ("_min_error_instants", "_rounds", "initial_clocks", "_fork"):
        monkeypatch.setattr(harness, name, _refuse_evolving)
