import time

import pytest

import audioactive


@pytest.fixture(scope="session")
def verification():
    """One full single-process verification run, shared across the session.

    The call owns its decay memo, so ``elapsed`` is a cold time.
    """
    t0 = time.perf_counter()
    report = audioactive.verify_cosmological()
    elapsed = time.perf_counter() - t0
    return report, elapsed
