"""Runtime support: worker budget, canonical config digests, file hashes,
and a one-thread scope for numpy's OpenBLAS."""

import contextlib
import functools
import hashlib
import json
import os
from pathlib import Path


def canonical_json(obj) -> str:
    """Stable serialization used for config digests and report embedding."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def config_digest(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def worker_count() -> int:
    """Worker cap from COLEXVEC_THREADS, defaulting to the available cores.

    No package code runs a worker pool; the benchmark harness records this
    value in every run's environment.
    """
    raw = os.environ.get("COLEXVEC_THREADS")
    if raw is None:
        return os.cpu_count() or 1
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"COLEXVEC_THREADS must be an integer, got {raw!r}")
    if n < 1:
        raise ValueError(f"COLEXVEC_THREADS must be >= 1, got {n}")
    return n


@functools.cache
def _numpy_openblas():
    """(get_num_threads, set_num_threads) of the OpenBLAS numpy calls, or None.

    dlsym on numpy's core extension searches the libraries it links, so this
    finds the BLAS behind numpy's products and LAPACK calls, not another
    OpenBLAS in the process (scipy ships its own). Looked up on first use.
    """
    import ctypes

    import numpy as np

    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except OSError:
        return None
    for prefix in ("scipy_openblas_", "openblas_"):
        for suffix in ("64_", ""):
            get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes = ()
                get.restype = ctypes.c_int
                put.argtypes = (ctypes.c_int,)
                put.restype = None
                return get, put
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread, then restore the
    caller's thread count, also when the block raises.

    With another BLAS (MKL, Accelerate) or none found, it does nothing.
    """
    blas = _numpy_openblas()
    if blas is None:
        yield
        return
    get, put = blas
    threads = get()
    put(1)
    try:
        yield
    finally:
        put(threads)
