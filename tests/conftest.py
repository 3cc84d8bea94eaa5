"""Fixtures shared by the test modules."""
import pytest

from mblab import experiments


@pytest.fixture
def empty_run_cache(monkeypatch) -> dict:
    """An empty run cache for one test; the module's own comes back after."""
    monkeypatch.setattr(experiments, "_RUN_CACHE", {})
    return experiments._RUN_CACHE
