"""Helpers shared by the test modules."""

import os
import tracemalloc

# one BLAS thread, as the CLI sets for itself: a test module that loads numpy
# before ramseymult.cli would otherwise run the n = 8 scans on every core
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def traced_peak(fn, *args, **kwargs):
    """(fn(*args, **kwargs), the peak bytes tracemalloc traced during the
    call); tracing stops even when the call raises."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
