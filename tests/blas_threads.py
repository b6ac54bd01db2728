"""Run a snippet in fresh interpreters at one and at two OpenBLAS threads,
for the tests that pin bytes across BLAS thread counts."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from colexvec import runtime

SRC = str(Path(runtime.__file__).resolve().parent.parent)


def at_each_thread_count(code: str) -> list:
    """[stdout at OPENBLAS_NUM_THREADS=1, stdout at =2] of `python -c code`,
    with colexvec importable; a run that exits nonzero fails the test.

    The calling test is skipped when numpy's BLAS is not an OpenBLAS with a
    thread-count API, since the variable would then steer nothing.
    """
    if runtime._numpy_openblas() is None:
        pytest.skip("numpy's BLAS is not an OpenBLAS with a thread-count API")
    return [subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                           text=True, env={**os.environ, "PYTHONPATH": SRC,
                                           "OPENBLAS_NUM_THREADS": str(threads)}).stdout
            for threads in (1, 2)]


def cli_snippet(argv: list, out: str) -> str:
    """Code that runs `cli.run(argv)`, writes the bytes of the file `out`
    it made to stdout in hex and exits with the command's status."""
    return ("import sys; from pathlib import Path; from colexvec import cli; "
            f"status = cli.run({argv!r}); sys.stdout.write(Path({out!r}).read_bytes().hex()); "
            "sys.exit(status)")
