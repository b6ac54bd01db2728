import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

import colexvec.runtime as runtime
from colexvec.numerics import randomized_tsvd
from colexvec.runtime import canonical_json, config_digest, one_blas_thread


def test_config_digest_is_order_insensitive():
    a = {"x": 1, "y": [1, 2], "z": "s"}
    b = {"z": "s", "y": [1, 2], "x": 1}
    assert canonical_json(a) == canonical_json(b)
    assert config_digest(a) == config_digest(b)
    assert config_digest(a) != config_digest({**a, "x": 2})


# ---------------------------------------------------------------------------
# one_blas_thread


@pytest.fixture
def blas():
    """numpy's OpenBLAS thread calls, set to 2 threads for the test and reset after."""
    found = runtime._numpy_openblas()
    if found is None:
        pytest.skip("numpy's BLAS is not an OpenBLAS with a thread-count API")
    get, put = found
    saved = get()
    put(2)
    yield get
    put(saved)


def qr_spy(monkeypatch, get, fail=False):
    """Patch np.linalg.qr to record the OpenBLAS thread count it runs at."""
    seen, qr = [], np.linalg.qr

    def spy(a, *args, **kwargs):
        seen.append(get())
        if fail:
            raise RuntimeError("qr failed")
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", spy)
    return seen


def sparse_instance():
    rng = np.random.default_rng(5)
    return sp.csr_array(rng.standard_normal((30, 30)) * (rng.random((30, 30)) < 0.3))


def test_tsvd_runs_on_one_thread_and_restores_the_callers_count(monkeypatch, blas):
    seen = qr_spy(monkeypatch, blas)
    randomized_tsvd(sparse_instance(), 4, seed=1)
    assert seen and set(seen) == {1}
    assert blas() == 2


def test_tsvd_restores_the_callers_count_when_it_raises(monkeypatch, blas):
    seen = qr_spy(monkeypatch, blas, fail=True)
    with pytest.raises(RuntimeError, match="qr failed"):
        randomized_tsvd(sparse_instance(), 4, seed=1)
    assert seen == [1]
    assert blas() == 2


@pytest.fixture
def scipy_blas():
    """scipy's OpenBLAS thread calls, set to 2 threads for the test and reset after."""
    found = runtime._scipy_openblas()
    if found is None:
        pytest.skip("scipy's BLAS is not an OpenBLAS with a thread-count API")
    get, put = found
    saved = get()
    put(2)
    yield get
    put(saved)


def lu_spy(monkeypatch, gets, fail=False):
    """Patch scipy.linalg.lu to record both OpenBLAS pools' thread counts it runs at."""
    seen, lu = [], scipy.linalg.lu

    def spy(a, *args, **kwargs):
        seen.append(tuple(get() for get in gets))
        if fail:
            raise RuntimeError("lu failed")
        return lu(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "lu", spy)
    return seen


def test_tsvd_lu_steps_run_on_one_thread_of_both_pools(monkeypatch, blas, scipy_blas):
    seen = lu_spy(monkeypatch, (blas, scipy_blas))
    randomized_tsvd(sparse_instance(), 4, seed=1)
    assert len(seen) == 14 and set(seen) == {(1, 1)}  # 2 * n_iter steps
    assert (blas(), scipy_blas()) == (2, 2)


def test_tsvd_restores_both_pools_when_an_lu_raises(monkeypatch, blas, scipy_blas):
    seen = lu_spy(monkeypatch, (blas, scipy_blas), fail=True)
    with pytest.raises(RuntimeError, match="lu failed"):
        randomized_tsvd(sparse_instance(), 4, seed=1)
    assert seen == [(1, 1)]
    assert (blas(), scipy_blas()) == (2, 2)


def test_one_blas_thread_without_openblas_is_a_plain_call(monkeypatch, blas):
    m = sparse_instance()
    pinned = randomized_tsvd(m, 4, seed=1)
    monkeypatch.setattr(runtime, "_numpy_openblas", lambda: None)
    seen = qr_spy(monkeypatch, blas)
    plain = randomized_tsvd(m, 4, seed=1)
    assert set(seen) == {2}  # the caller's threads, untouched
    assert all(np.array_equal(a, b) for a, b in zip(pinned, plain))
    with one_blas_thread():
        assert blas() == 2


def test_cli_import_does_no_blas_lookup():
    code = ("import colexvec.cli, colexvec.runtime as r; "
            "print(r._numpy_openblas.cache_info().currsize)")
    src = str(Path(runtime.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out == "0\n"


# ---------------------------------------------------------------------------
# part_threads and run_parts


def parts_seen(monkeypatch, workers, fn=None):
    """{part: (thread id, divide errstate)} of run_parts(_, 3) inside
    part_threads(3) at `workers` cores, under np.errstate(divide="ignore")."""
    monkeypatch.setattr(runtime, "worker_count", lambda: workers)
    seen = {}

    def part(p):
        seen[p] = threading.get_ident(), np.geterr()["divide"]
        if fn is not None:
            fn(p)

    with runtime.part_threads(3), np.errstate(divide="ignore"):
        runtime.run_parts(part, 3)
    return seen


def test_parts_run_in_the_callers_context(monkeypatch):
    seen = parts_seen(monkeypatch, 4)
    assert sorted(seen) == [0, 1, 2]
    assert {divide for _, divide in seen.values()} == {"ignore"}
    assert seen[0][0] == threading.get_ident()
    assert {seen[1][0], seen[2][0]}.isdisjoint({threading.get_ident()})
    # so a warning numpy would raise under the default errstate stays quiet
    monkeypatch.setattr(runtime, "worker_count", lambda: 2)
    with runtime.part_threads(2), np.errstate(divide="ignore"):
        runtime.run_parts(lambda p: np.log(np.zeros(3)), 2)


def test_one_core_runs_the_parts_in_order_on_the_caller(monkeypatch):
    order = []
    seen = parts_seen(monkeypatch, 1, order.append)
    assert order == [0, 1, 2]
    assert {thread for thread, _ in seen.values()} == {threading.get_ident()}


def test_a_parts_error_is_raised_once_every_part_ended(monkeypatch):
    ended = []

    def part(p):
        if p == 1:
            raise ValueError("part 1 failed")
        threading.Event().wait(0.05 * p)
        ended.append(p)

    monkeypatch.setattr(runtime, "worker_count", lambda: 3)
    before = threading.active_count()
    with pytest.raises(ValueError, match="part 1 failed"):
        with runtime.part_threads(3):
            runtime.run_parts(part, 3)
    assert sorted(ended) == [0, 2]
    assert threading.active_count() == before
