"""The names the benchmark harness in perfbench/ imports and wraps.

perfbench/probes.py wraps load_wordlist, infer_network, the provider
factories and similarity_matrix at their colexvec.cli attributes, swaps each
built provider's score through dataclasses.replace and reads its source; it
times fit_logistic_1d at its colexvec.evaluation attribute, counts the fit's
iterations as calls of numerics.logistic_gradient and flags a fit as capped
from the default of its max_iter keyword;
perfbench/checks.py re-derives colexify edges with
wordlist.classify_pair(a, b, ColexParams()); perfbench/run.py records
runtime.worker_count(); probes.combine_counts reads len(es.vectors) of
combine's result and the dim of each input set; probes.skipgram_counts
reads len(pairs) and len(vocab) of train_skipgram's arguments, and
probes.points reads .rows of tsne_project's first argument. Removing or
bypassing any of these crashes every benchmark run, or silently stops it
from timing the baselines or counting the fit iterations.
"""

import dataclasses
import importlib
import inspect
import json
from importlib import resources
from pathlib import Path

import numpy as np

import colexvec.cli as cli
import colexvec.evaluation as evaluation
import colexvec.node2vec as node2vec
import colexvec.numerics as numerics
from colexvec.baselines import PROVIDER_SOURCES
from colexvec.combine import combine
from colexvec.embeddings import EmbeddingSet
from colexvec.graph import make_graph
from colexvec.runtime import worker_count
from colexvec.wordlist import ColexParams, classify_pair

PROVIDERS = (
    "shortest_path_provider",
    "cosine_adjacency_provider",
    "ppmi_provider",
    "random_walk_provider",
    "embedding_provider",
)
TOY_GRAPH = make_graph([("A", "B", 2), ("B", "C", 1)], "full", False, extra_nodes=["D"])
TOY_EMBEDDING = EmbeddingSet(("A", "B", "C"), [[1.0, 0.0], [0.5, 0.5], [0.0, 2.0]])


def test_classify_pair_takes_default_params():
    assert classify_pair(("t", "u", "m"), ("t", "u", "m", "a"), ColexParams()).kind == "affix"


def test_colexify_reaches_wordlist_through_cli_attributes(tmp_path, monkeypatch):
    wordlist = tmp_path / "w.tsv"
    wordlist.write_text("LANGUAGE\tFAMILY\tCONCEPT\tFORM\nL\tF\tTREE\ta b\nL\tF\tWOOD\ta b\n",
                        encoding="utf-8")
    calls = []
    for name in ("load_wordlist", "infer_network"):
        original = getattr(cli, name)

        def wrapper(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(cli, name, wrapper)
    assert cli.run(["colexify", "--wordlist", str(wordlist), "--type", "full",
                    "--out", str(tmp_path / "g.tsv")]) == 0
    assert calls == ["load_wordlist", "infer_network"]


def test_worker_count_is_available():
    assert worker_count() >= 1


def test_cli_reaches_providers_through_its_module_attributes(tmp_path, monkeypatch):
    graph = tmp_path / "g.tsv"
    cli.save_graph(TOY_GRAPH, graph)
    emb = tmp_path / "e.emb"
    cli.save_embedding(TOY_EMBEDDING, emb)
    pairs = tmp_path / "rated.tsv"
    pairs.write_text("CONCEPT_A\tCONCEPT_B\tRATING\nA\tB\t3\nA\tC\t1\nB\tC\t2\n", encoding="utf-8")

    calls = []
    for name in PROVIDERS + ("similarity_matrix",):
        original = getattr(cli, name)

        def wrapper(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(cli, name, wrapper)
    for method in cli.BASELINE_METHODS:
        assert cli.run(["baseline", "--graph", str(graph), "--method", method,
                        "--out", str(tmp_path / f"{method}.tsv")]) == 0
    assert cli.run(["eval-lsim", "--sim", str(emb), "--pairs", str(pairs),
                    "--report", str(tmp_path / "r.json")]) == 0
    assert set(calls) == set(PROVIDERS) | {"similarity_matrix"}


def test_built_provider_score_can_be_swapped():
    built = [getattr(cli, name)(TOY_GRAPH) for name in PROVIDERS[:-1]]
    built.append(cli.embedding_provider(TOY_EMBEDDING))
    for provider in built:
        assert provider.source in PROVIDER_SOURCES
        calls = []

        def counted(*args, _score=provider.score, **kwargs):
            calls.append(1)
            return _score(*args, **kwargs)

        swapped = dataclasses.replace(provider, score=counted)
        assert swapped.source == provider.source
        order = sorted(provider.covered)
        assert np.array_equal(cli.similarity_matrix(swapped, order),
                              cli.similarity_matrix(provider, order))
        assert calls


def counted(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call; returns the record."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_fit_logistic_has_a_max_iter_default():
    default = inspect.signature(numerics.fit_logistic_1d).parameters["max_iter"].default
    assert isinstance(default, int) and default >= 1


def test_fit_logistic_calls_module_gradient_once_per_iteration(monkeypatch):
    rng = np.random.default_rng(3)
    x = np.concatenate([rng.normal(1.0, 1.0, 60), rng.normal(0.0, 1.0, 60)])
    y = np.array([1] * 60 + [0] * 60)
    calls = counted(monkeypatch, numerics, "logistic_gradient")
    for cap in (1, 2, 3):
        calls.clear()
        numerics.fit_logistic_1d(x, y, max_iter=cap)
        assert len(calls) == cap
    calls.clear()
    numerics.fit_logistic_1d(x, y)
    default = inspect.signature(numerics.fit_logistic_1d).parameters["max_iter"].default
    assert 3 < len(calls) < default  # converged before the cap


def test_eval_binary_fits_through_evaluation_attribute(monkeypatch):
    fits = counted(monkeypatch, evaluation, "fit_logistic_1d")
    gradients = counted(monkeypatch, numerics, "logistic_gradient")
    provider = cli.embedding_provider(TOY_EMBEDDING)
    positives = [evaluation.ConceptPair("A", "B")]
    evaluation.eval_binary(provider, positives, runs=3, seed=0)
    assert len(fits) == 3
    assert gradients


def test_combine_result_exposes_the_counts_the_probe_reads():
    other = EmbeddingSet(("B", "C", "D"), [[0.0, 1.0], [1.0, 1.0], [2.0, 0.5]])
    es = combine([TOY_EMBEDDING, other], 2)
    assert len(es.vectors) == len(es.concepts) == 4
    assert all(isinstance(s.dim, int) for s in (TOY_EMBEDDING, other, es))


def test_skipgram_and_tsne_arguments_have_the_sizes_the_probes_read(tmp_path, monkeypatch):
    seen = {}
    for module, name in ((node2vec, "train_skipgram"), (cli, "tsne_project")):
        original = getattr(module, name)

        def wrapper(*args, _name=name, _original=original, **kwargs):
            seen[_name] = args
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)
    graph, emb = tmp_path / "g.tsv", tmp_path / "e.emb"
    cli.save_graph(TOY_GRAPH, graph)
    assert cli.run(["embed", "--graph", str(graph), "--method", "node2vec", "--seed", "1",
                    "--dim", "2", "--epochs", "2", "--out", str(emb)]) == 0
    pairs, vocab, cfg = seen["train_skipgram"]
    # 3 covered nodes x 5 walks x 34 pairs in a walk of 10 at window 2
    assert len(pairs) == 3 * 5 * 34 and len(vocab) == 3 and cfg.epochs == 2
    assert cli.run(["viz", "--embedding", str(emb), "--perplexity", "1", "--iterations", "5",
                    "--seed", "1", "--out", str(tmp_path / "v")]) == 0
    assert seen["tsne_project"][0].rows == 3


def test_probes_yield_every_per_layer_metric_through_the_cli(tmp_path, monkeypatch):
    root = Path(__file__).resolve().parent.parent
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    spans, probes = importlib.import_module("spans"), importlib.import_module("probes")
    names = {m["name"] for m in json.loads((root / "BENCHMARK.json").read_text())["per_layer"]}
    data = resources.files("colexvec") / "data"
    graph, prone, n2v, fused = (tmp_path / n for n in ("g.tsv", "p.emb", "n.emb", "f.emb"))
    steps = [
        ["colexify", "--wordlist", data / "toy_wordlist.tsv", "--type", "affix", "--out", graph],
        ["embed", "--graph", graph, "--method", "prone", "--seed", "1", "--dim", "2",
         "--out", prone],
        ["embed", "--graph", graph, "--method", "node2vec", "--seed", "1", "--dim", "2",
         "--epochs", "1", "--out", n2v],
        ["combine", "--inputs", f"{prone},{n2v}", "--dim", "2", "--out", fused],
        ["baseline", "--graph", graph, "--method", "ppmi", "--out", tmp_path / "m.tsv"],
        ["eval-lsim", "--sim", fused, "--pairs", data / "toy_rated_pairs.tsv",
         "--report", tmp_path / "l.json"],
        ["eval-shift", "--sim", fused, "--pairs", data / "toy_shift_pairs.tsv", "--runs", "2",
         "--seed", "1", "--report", tmp_path / "s.json"],
        ["eval-links", "--sim", fused, "--pairs", data / "toy_association_pairs.tsv",
         "--runs", "2", "--seed", "1", "--report", tmp_path / "a.json"],
        ["viz", "--embedding", fused, "--perplexity", "2", "--iterations", "5", "--seed", "1",
         "--out", tmp_path / "v"],
    ]
    tracer = spans.Tracer("contract")
    probes.install(tracer)
    try:
        for argv in steps:
            with tracer.span(f"cli.step.{argv[0]}"):
                assert cli.run([str(a) for a in argv]) == 0, argv[0]
    finally:
        tracer.restore()
    metrics = probes.layer_metrics(tracer, 1.0, 1.0)
    assert len(names) == 80 and set(metrics) == names
    assert metrics["viz.points"] > 0 and metrics["numerics.fits"] > 0
    assert metrics["node2vec.pairs"] > 0
