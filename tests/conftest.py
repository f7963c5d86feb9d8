"""Helpers shared by the test modules."""

import tracemalloc


def traced_peak(fn, *args, **kwargs):
    """(fn(*args, **kwargs), the peak bytes tracemalloc traced during the
    call); tracing stops even when the call raises."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
