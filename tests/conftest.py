import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """A function that calls fn() and returns its result and the peak bytes
    allocated meanwhile, by tracemalloc."""

    def run(fn):
        tracemalloc.start()
        try:
            return fn(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return run
