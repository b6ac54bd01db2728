import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
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
