"""The benchmark workloads' bytes at seed 7, and the `node2vec` workload's,
against tests/golden.json.

These take about 20 s, so tier-1 does not collect this file (its name does
not start with `test_`). Run it on request from the repository root:

    PYTHONPATH=src python -m pytest -q tests/golden_opt_in.py

`tests/update_golden.py` records these runs with the others.
"""

import golden
import pytest


@pytest.mark.parametrize("name, seed", golden.OPT_IN_BENCH_RUNS)
def test_benchmark_workload_bytes_opt_in(name, seed, tmp_path, monkeypatch, capsys):
    golden.check_workload(name, seed, tmp_path, monkeypatch, capsys)
