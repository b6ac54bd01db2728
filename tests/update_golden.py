"""Rewrite tests/golden.json from this host's runs of the pinned workflows.

Run from the repository root:

    PYTHONPATH=src python tests/update_golden.py

It runs the tests that call `golden.check`, the opt-in
tests/golden_opt_in.py included, records what each workflow wrote instead
of comparing it, and writes the manifest with the numpy, scipy and
OpenBLAS of the host it runs on. Before it writes, it prints each
workflow's entries that changed, appeared or disappeared against the
manifest it replaces. A change that means to alter output bytes runs
it and lists each of those entries, with its reason, in CHANGES.md.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import golden  # noqa: E402

TESTS = [
    "test_cli.py::test_readme_cli_block_runs",
    "test_cli.py::test_pipeline_byte_identical_reruns",
    "test_cli.py::test_protocol_runs_at_toy_size",
    "test_benchmark_bytes.py",
    "golden_opt_in.py",
]
# the three toy workflows, then one per benchmark run
WORKFLOWS = 3 + len(golden.BENCH_RUNS) + len(golden.OPT_IN_BENCH_RUNS)


def moved(old: dict, new: dict) -> list:
    """One "<workflow>: changed|appeared|disappeared <entry>" line per entry
    of `new` runs that differs from `old` runs."""
    lines = []
    for name in sorted(old.keys() | new.keys()):
        before, after = old.get(name, {}), new.get(name, {})
        for verb, keys in (
                ("changed", {k for k in before.keys() & after.keys() if before[k] != after[k]}),
                ("appeared", after.keys() - before.keys()),
                ("disappeared", before.keys() - after.keys())):
            lines += [f"{name}: {verb} {key}" for key in sorted(keys)]
    return lines


def main() -> int:
    runs = {}

    def record(name, run_dir, stdouts, stderrs=(), codes=()):
        runs[name] = golden.digests(run_dir, stdouts, stderrs, codes)

    golden.check = record
    code = pytest.main(["-q", "-p", "no:cacheprovider", *(str(HERE / t) for t in TESTS)])
    if code != 0 or len(runs) != WORKFLOWS:
        print(f"not written: exit {code}, {len(runs)} of {WORKFLOWS} workflows recorded",
              file=sys.stderr)
        return 1
    manifest = {"host": golden.host(), "runs": runs}
    old = json.loads(golden.MANIFEST.read_text(encoding="utf-8")) if golden.MANIFEST.exists() else {}
    if old.get("host") != manifest["host"]:
        print(f"host: {old.get('host')} -> {manifest['host']}")
    print("\n".join(moved(old.get("runs", {}), runs) or ["no entry moved"]))
    golden.MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                               encoding="utf-8")
    print(f"wrote {golden.MANIFEST}: {sum(map(len, runs.values()))} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
