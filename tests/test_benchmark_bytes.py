"""The benchmark workloads' outputs, byte for byte, at the sizes they run.

The toy runs in tests/golden.json never reach a tSVD tail direction at dim
128, a 1,246-node topology table or a negative draw from a pool of 1,300
concepts; these runs do. Seed 7 and the `node2vec` workload take longer and
are checked only on request, by tests/golden_opt_in.py.
"""

import golden
import pytest


@pytest.mark.parametrize("name, seed", golden.BENCH_RUNS)
def test_benchmark_workload_bytes(name, seed, tmp_path, monkeypatch, capsys):
    golden.check_workload(name, seed, tmp_path, monkeypatch, capsys)
