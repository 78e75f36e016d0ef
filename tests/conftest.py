"""Suite-wide fixtures."""

import pytest


@pytest.fixture(autouse=True)
def trials_in_process(monkeypatch):
    """Run every experiment's trials in the test's own process.

    The suite's ``error::RuntimeWarning`` filter, and ``warnings`` checks in a
    test, act only in that process, so a warning raised in a pool worker
    would escape them.  A test of the pool or of the default worker count
    sets or deletes ``LISOPT_WORKERS`` itself.
    """
    monkeypatch.setenv("LISOPT_WORKERS", "1")
