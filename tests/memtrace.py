"""Peak Python heap of one call, for the memory tests."""

import tracemalloc


def traced_peak(fn, *args, **kwargs):
    """(fn(*args, **kwargs), the peak bytes that tracemalloc saw during the call)."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak
