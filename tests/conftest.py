import time

import pytest

import audioactive
from audioactive import automata


@pytest.fixture(scope="session")
def verification():
    """One full single-process verification run, shared across the session.

    The decay languages are dropped first, so ``elapsed`` is a cold time
    whatever ran earlier in the session.
    """
    automata.decay_languages.cache_clear()
    t0 = time.perf_counter()
    report = audioactive.verify_cosmological()
    elapsed = time.perf_counter() - t0
    return report, elapsed
