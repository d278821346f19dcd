import warnings

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
