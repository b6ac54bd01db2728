"""Runtime support: the core count, canonical config digests, file hashes,
and a one-thread scope for numpy's and scipy's OpenBLAS."""

import contextlib
import functools
import hashlib
import json
import os
import sys
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
    """The available cores, at least 1.

    No package code runs a worker pool; the benchmark harness records this
    value in every run's environment.
    """
    return os.cpu_count() or 1


def _openblas_calls(path):
    """(get_num_threads, set_num_threads) of the OpenBLAS the library at
    `path` links, or None; dlsym searches the libraries it links."""
    import ctypes

    try:
        lib = ctypes.CDLL(path)
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


@functools.cache
def _numpy_openblas():
    """(get_num_threads, set_num_threads) of the OpenBLAS numpy calls, or None.

    Opening numpy's core extension finds the BLAS behind numpy's products
    and LAPACK calls, not another OpenBLAS in the process (scipy ships its
    own). Looked up on first use.
    """
    import numpy as np

    return _openblas_calls(np._core._multiarray_umath.__file__)


@functools.cache
def _scipy_openblas():
    """(get_num_threads, set_num_threads) of the OpenBLAS behind scipy.linalg's
    LAPACK calls, or None. Looked up on first use."""
    import scipy.linalg

    return _openblas_calls(scipy.linalg._flapack.__file__)


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with numpy's OpenBLAS, and scipy's when scipy.linalg is
    loaded, on one thread, then restore the caller's thread counts, also
    when the block raises.

    A pool with another BLAS (MKL, Accelerate) or none found is left alone.
    scipy's is looked up only once scipy.linalg is imported, so a process
    that never loads it pays no import for it.
    """
    pools = [_numpy_openblas()]
    if "scipy.linalg" in sys.modules:
        pools.append(_scipy_openblas())
    pools = [pool for pool in pools if pool is not None]
    threads = [get() for get, _ in pools]
    for _, put in pools:
        put(1)
    try:
        yield
    finally:
        for (_, put), count in zip(pools, threads):
            put(count)
