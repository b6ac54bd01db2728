"""The benchmark workloads' outputs, byte for byte, at the sizes they run.

The toy runs in tests/golden.json never reach a tSVD tail direction at dim
128, a 1,246-node topology table or a negative draw from a pool of 1,300
concepts; these runs do. Seed 7 and the `node2vec` workload take longer and
are checked only on request, by tests/golden_opt_in.py.
"""

import golden
import pytest

import colexvec.cli as cli
import colexvec.embeddings as embeddings


@pytest.mark.parametrize("name, seed", golden.BENCH_RUNS)
def test_benchmark_workload_bytes(name, seed, tmp_path, monkeypatch, capsys):
    golden.check_workload(name, seed, tmp_path, monkeypatch, capsys)


def test_colex_prone_bytes_when_every_step_parses_its_embeddings(tmp_path, monkeypatch, capsys):
    # in one process no step parses a .emb an earlier step wrote; emptying
    # the reuse table before each step keeps the parse path on real outputs
    run, parsed = cli.run, []

    def cold_run(argv):
        embeddings._written.clear()
        return run(argv)

    def parse(path, _parse=embeddings._parse_embedding):
        parsed.append(path)
        return _parse(path)

    monkeypatch.setattr(cli, "run", cold_run)
    monkeypatch.setattr(embeddings, "_parse_embedding", parse)
    golden.check_workload("colex-prone", 1, tmp_path, monkeypatch, capsys)
    assert len(parsed) == 8  # combine 2 + 3, eval-lsim 2 (the memo serves the rest), viz 1
