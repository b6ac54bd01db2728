"""Runtime support: the core count, canonical config digests, file hashes,
a one-thread scope for numpy's and scipy's OpenBLAS, and a fork-join runner
for a fixed number of parts."""

import contextlib
import contextvars
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

    `part_threads` runs at most this many threads; the benchmark harness
    records the value in every run's environment.
    """
    return os.cpu_count() or 1


# The helper pool of the innermost `part_threads` scope, or None; a context
# variable, so a kernel finds it without a pool argument and a scope in one
# thread or context is not seen from another
_part_pool = contextvars.ContextVar("part_pool", default=None)


@contextlib.contextmanager
def part_threads(parts: int):
    """Run the block's `run_parts` calls on min(parts, worker_count()) threads:
    the caller's and a pool of the others, which is shut down, its threads
    joined, when the block ends. With one thread there is no pool."""
    helpers = min(parts, worker_count()) - 1
    if helpers < 1:
        yield
        return
    from concurrent.futures import ThreadPoolExecutor  # 10 ms, paid by the first pool

    with ThreadPoolExecutor(helpers) as pool:
        token = _part_pool.set(pool)
        try:
            yield
        finally:
            _part_pool.reset(token)


def run_parts(fn, parts: int) -> None:
    """Call fn(0), ..., fn(parts - 1) and return when all have returned.

    Inside `part_threads` the caller runs part 0 and the pool the others,
    each in a copy of the caller's context, so numpy's `errstate` holds
    there too; elsewhere the parts run one after another. A part's
    exception is raised here, once every part has ended. The parts must
    not depend on one another's order: their results then do not depend on
    how many threads ran them.
    """
    pool = _part_pool.get()
    if pool is None:
        for part in range(parts):
            fn(part)
        return
    futures = [pool.submit(contextvars.copy_context().run, fn, part)
               for part in range(1, parts)]
    try:
        fn(0)
    finally:
        errors = [future.exception() for future in futures]  # waits for each part
    for error in errors:
        if error is not None:
            raise error


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
