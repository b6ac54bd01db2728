"""Rewrite tests/golden.json from this host's runs of the pinned workflows.

Run from the repository root:

    PYTHONPATH=src python tests/update_golden.py

It runs the tests that call `golden.check`, records what each workflow
wrote instead of comparing it, and writes the manifest with this host's
numpy, scipy and OpenBLAS. A change that means to alter output bytes runs
it and lists each changed file, with its reason, in CHANGES.md.
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
]


def main() -> int:
    runs = {}

    def record(name, run_dir, stdouts):
        runs[name] = golden.digests(run_dir, stdouts)

    golden.check = record
    code = pytest.main(["-q", "-p", "no:cacheprovider", *(str(HERE / t) for t in TESTS)])
    if code != 0 or len(runs) != len(TESTS):
        print(f"not written: exit {code}, {len(runs)} of {len(TESTS)} workflows recorded",
              file=sys.stderr)
        return 1
    manifest = {"host": golden.host(), "runs": runs}
    golden.MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                               encoding="utf-8")
    print(f"wrote {golden.MANIFEST}: {sum(map(len, runs.values()))} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
