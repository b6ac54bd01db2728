"""The committed SHA-256 manifest of the toy runs' outputs, tests/golden.json.

A test runs a workflow in its own directory, on relative paths only, and
calls `check` with that directory and each command's stdout. Every file
under the directory and every stdout is hashed and compared with the
manifest entry of the workflow; a mismatch names every differing file.
The bytes were recorded with one numpy, scipy and OpenBLAS build on one
CPU kernel, so a host with another gets a named skip, not a pass.
`python tests/update_golden.py` rewrites the manifest.
"""

import ctypes
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
import scipy

MANIFEST = Path(__file__).with_name("golden.json")


def host() -> dict:
    """The numpy and scipy versions and numpy's OpenBLAS build and core."""
    found = {"numpy": np.__version__, "scipy": scipy.__version__,
             "openblas": None, "openblas_core": None}
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except OSError:
        return found
    for prefix in ("scipy_openblas_", "openblas_"):
        for suffix in ("64_", ""):
            config = getattr(lib, f"{prefix}get_config{suffix}", None)
            core = getattr(lib, f"{prefix}get_corename{suffix}", None)
            if config is not None and core is not None:
                config.restype = core.restype = ctypes.c_char_p
                config.argtypes = core.argtypes = ()
                found.update(openblas=config().decode(), openblas_core=core().decode())
                return found
    return found


def digests(run_dir, stdouts) -> dict:
    """{relative path: SHA-256} of every file under `run_dir`, and
    {"stdout[i]": SHA-256} of each stdout."""
    run_dir = Path(run_dir)
    got = {path.relative_to(run_dir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
           for path in sorted(run_dir.rglob("*")) if path.is_file()}
    got.update({f"stdout[{i}]": hashlib.sha256(out.encode("utf-8")).hexdigest()
                for i, out in enumerate(stdouts)})
    return got


def check(name: str, run_dir, stdouts) -> None:
    """Assert that workflow `name` wrote the manifest's bytes."""
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    if manifest["host"] != host():
        pytest.skip(f"{MANIFEST.name} was recorded on {manifest['host']}, not {host()}")
    want = manifest["runs"][name]
    got = digests(run_dir, stdouts)
    differing = sorted(key for key in want.keys() | got.keys() if want.get(key) != got.get(key))
    assert not differing, f"{name}: differs from {MANIFEST.name} in {differing}"
