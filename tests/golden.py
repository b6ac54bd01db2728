"""The committed SHA-256 manifest of the toy runs' and the benchmark
workloads' outputs, tests/golden.json.

A test runs a workflow in its own directory, on relative paths only, and
calls `check` with that directory and each command's stdout (and, for the
benchmark workloads, each step's stderr and exit code). Every file under the
directory and every stdout and stderr is hashed and compared with the
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


def digests(run_dir, stdouts, stderrs=(), codes=()) -> dict:
    """{relative path: SHA-256} of every file under `run_dir`,
    {"stdout[i]": SHA-256} of each stdout, {"stderr[i]": SHA-256} of each
    stderr and {"exit[i]": code} of each exit code."""
    run_dir = Path(run_dir)
    got = {path.relative_to(run_dir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
           for path in sorted(run_dir.rglob("*")) if path.is_file()}
    for stream, texts in (("stdout", stdouts), ("stderr", stderrs)):
        got.update({f"{stream}[{i}]": hashlib.sha256(text.encode("utf-8")).hexdigest()
                    for i, text in enumerate(texts)})
    got.update({f"exit[{i}]": code for i, code in enumerate(codes)})
    return got


def check(name: str, run_dir, stdouts, stderrs=(), codes=()) -> None:
    """Assert that workflow `name` wrote the manifest's bytes."""
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    if manifest["host"] != host():
        pytest.skip(f"{MANIFEST.name} was recorded on {manifest['host']}, not {host()}")
    want = manifest["runs"][name]
    got = digests(run_dir, stdouts, stderrs, codes)
    differing = sorted(key for key in want.keys() | got.keys() if want.get(key) != got.get(key))
    assert not differing, f"{name}: differs from {MANIFEST.name} in {differing}"


# (workload, seed) runs pinned in tier-1, by tests/test_benchmark_bytes.py
BENCH_RUNS = (("colex-prone", 1), ("baselines-eval", 1))
# the slower ones only the opt-in tests/golden_opt_in.py checks
OPT_IN_BENCH_RUNS = (("colex-prone", 7), ("baselines-eval", 7), ("node2vec", 1), ("node2vec", 7))


def check_workload(name: str, seed: int, run_dir, monkeypatch, capsys) -> None:
    """Run benchmark workload `name` at `seed` in `run_dir` and `check` it.

    The inputs and the CLI steps come from perfbench/workloads.py; the steps
    run in-process through `colexvec.cli.run` on the relative paths
    `inputs/` and `out/`, so no report embeds where the run happened. The
    benchmark's output checks are not run: the digests pin every byte.
    """
    from colexvec.cli import run

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    monkeypatch.chdir(run_dir)
    workload = workloads.WORKLOADS[name]
    inputs, out = Path("inputs"), Path("out")
    inputs.mkdir()
    out.mkdir()
    workload.generate(inputs, seed)
    codes, stdouts, stderrs = [], [], []
    for step in workload.steps(inputs, out, seed):
        codes.append(run(step.argv))
        captured = capsys.readouterr()
        stdouts.append(captured.out)
        stderrs.append(captured.err)
    check(f"{name}-seed{seed}", run_dir, stdouts, stderrs, codes)
