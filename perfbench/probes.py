"""Where the tracer hooks into colexvec, and the per-layer metrics it yields.

Each hook wraps a public function at the module attribute its caller looks
up. Span names are "<layer>.<what>"; the layer is the colexvec module the
time is charged to, so per-layer self time is a sum over span names.
"""

from __future__ import annotations

import dataclasses
import inspect
import os
import statistics
from collections import Counter
from importlib import import_module

from spans import Tracer

# import_module, because the package re-exports functions under some module
# names (colexvec.combine is also the name of a function)
cli = import_module("colexvec.cli")
combine_mod = import_module("colexvec.combine")
evaluation = import_module("colexvec.evaluation")
node2vec = import_module("colexvec.node2vec")
numerics = import_module("colexvec.numerics")
prone = import_module("colexvec.prone")

# provider factory (as named in colexvec.cli) -> CLI method name
PROVIDERS = {
    "shortest_path_provider": "shortest-path",
    "cosine_adjacency_provider": "cosine",
    "ppmi_provider": "ppmi",
    "random_walk_provider": "random-walk",
    "embedding_provider": "embedding",
}
SOURCE_METHOD = {
    "shortest_path": "shortest-path", "cosine_adjacency": "cosine", "ppmi": "ppmi",
    "random_walk": "random-walk", "embedding": "embedding",
}
BASELINE_METHODS = ("shortest-path", "cosine", "ppmi", "random-walk")
COLEX_TYPES = ("full", "affix", "overlap")
STEP_COMMANDS = ("colexify", "embed", "combine", "baseline",
                 "eval-lsim", "eval-shift", "eval-links", "viz")
LAYERS = ("wordlist", "graph", "prone", "numerics", "node2vec", "combine",
          "embeddings", "baselines", "evaluation", "viz", "cli", "runtime")


def default_of(fn, param: str):
    return inspect.signature(fn).parameters[param].default


FIT_MAX_ITER = default_of(numerics.fit_logistic_1d, "max_iter")
TSVD_N_ITER = default_of(numerics.randomized_tsvd, "n_iter")
TSVD_OVERSAMPLE = default_of(numerics.randomized_tsvd, "oversample")
GRADIENT_CALLS = "numerics.logistic_gradient.calls"


def same_language_pairs(wordlist) -> int:
    """Entry pairs the pairwise colexifier classifies per type: sum of n(n-1)/2."""
    sizes = Counter(e.language for e in wordlist.entries)
    return sum(n * (n - 1) // 2 for n in sizes.values())


def tsvd_gflop(n_rows, n_cols, nnz, d, n_iter, oversample) -> float:
    """Flops of randomized_tsvd computed from its shapes (not measured).

    Sparse products: 2 nnz k each, 2 + 2 n_iter of them; Householder QRs of
    n x k: 2 n k^2 - 2k^3/3 each, 1 + 2 n_iter of them; the k x n SVD about
    4 n k^2 + 8 k^3; the final n x k by k x d product 2 n k d.
    """
    k = min(d + oversample, n_cols)
    sparse = (2 + 2 * n_iter) * 2.0 * nnz * k
    qr = (1 + 2 * n_iter) * (2.0 * n_rows * k * k - 2.0 * k ** 3 / 3)
    svd = 4.0 * n_cols * k * k + 8.0 * k ** 3
    return (sparse + qr + svd + 2.0 * n_rows * k * d) / 1e9


def install(t: Tracer) -> None:
    """Wrap every traced function; Tracer.restore undoes it."""

    def graph_counts(s, args, kwargs, g):
        s.info.update(nodes=g.n_nodes, edges=g.n_edges)

    def wordlist_counts(s, args, kwargs, wl):
        s.info.update(entries=len(wl.entries), same_language_pairs=same_language_pairs(wl))

    def infer_counts(s, args, kwargs, g):
        s.info.update(kind=g.colex_type, edges=g.n_edges)

    def tsvd_counts(s, args, kwargs, result):
        m, d = args[0], args[1]
        n_rows, n_cols = m.shape
        nnz = getattr(m, "nnz", n_rows * n_cols)
        s.info["gflop"] = tsvd_gflop(
            n_rows, n_cols, nnz, d,
            kwargs.get("n_iter", TSVD_N_ITER), kwargs.get("oversample", TSVD_OVERSAMPLE),
        )

    def skipgram_counts(s, args, kwargs, es):
        pairs, vocab, cfg = args[0], args[1], args[2]
        n_val = int(round(cfg.validation_split * len(pairs)))
        s.info.update(pairs=len(pairs), train_pairs=len(pairs) - n_val, val_pairs=n_val,
                      vocab=len(vocab), dim=cfg.dim, epochs=cfg.epochs)

    def combine_counts(s, args, kwargs, es):
        s.info.update(rows=len(es.vectors), cols=sum(x.dim for x in args[0]))

    def saved_bytes(s, args, kwargs, _):
        s.info["bytes"] = os.path.getsize(args[1])

    def timed_scores(s, args, kwargs, provider):
        return dataclasses.replace(
            provider, score=t.sampled(provider.score, "baselines.score")
        )

    def matrix_method(s, args, kwargs, _):
        s.info["method"] = SOURCE_METHOD[args[0].source]

    def binary_task(s, args, kwargs, report):
        s.info["task"] = report.task

    last = {"gradient_calls": 0}

    def fit_counts(s, args, kwargs, model):
        calls = t.counters[GRADIENT_CALLS]
        s.info["iters"] = calls - last["gradient_calls"]
        s.info["capped"] = s.info["iters"] >= kwargs.get("max_iter", FIT_MAX_ITER)
        last["gradient_calls"] = calls

    def points(s, args, kwargs, _):
        s.info["points"] = args[0].rows

    t.wrap(cli, "load_wordlist", "wordlist.load", wordlist_counts)
    t.wrap(cli, "infer_network", "wordlist.infer", infer_counts)
    t.wrap(cli, "load_graph", "graph.load", graph_counts)
    t.wrap(cli, "save_graph", "graph.save")
    t.wrap(cli, "to_undirected", "graph.to_undirected")
    t.wrap(cli, "prone_embed", "prone.embed")
    t.wrap(prone, "build_shifted_matrix", "prone.shifted_matrix",
           lambda s, a, k, m: s.info.update(nnz=int(m.nnz)))
    t.wrap(prone, "factorize", "prone.factorize")
    t.wrap(prone, "spectral_propagate", "prone.propagate")
    t.wrap(prone, "randomized_tsvd", "numerics.randomized_tsvd", tsvd_counts)
    t.wrap(cli, "node2vec_embed", "node2vec.embed")
    t.wrap(node2vec, "sample_walks", "node2vec.walks")
    t.wrap(node2vec, "extract_pairs", "node2vec.pairs")
    t.wrap(node2vec, "train_skipgram", "node2vec.train", skipgram_counts)
    t.wrap(cli, "combine", "combine.combine", combine_counts)
    t.wrap(combine_mod, "pca_reduce", "numerics.pca_reduce")
    t.wrap(cli, "save_embedding", "embeddings.save", saved_bytes)
    t.wrap(cli, "load_embedding", "embeddings.load")
    for attr, method in PROVIDERS.items():
        t.wrap(cli, attr, f"baselines.build.{method}", timed_scores)
    t.wrap(cli, "similarity_matrix", "baselines.matrix", matrix_method)
    t.wrap(cli, "load_rated_pairs", "evaluation.load_pairs")
    t.wrap(cli, "load_concept_pairs", "evaluation.load_pairs")
    t.wrap(cli, "filter_association_pairs", "evaluation.filter_pairs")
    t.wrap(cli, "eval_lsim", "evaluation.lsim")
    t.wrap(cli, "eval_binary", "evaluation.binary", binary_task)
    t.wrap(evaluation, "draw_negatives", "evaluation.negatives")
    t.wrap(evaluation, "spearman_rho", "numerics.spearman_rho")
    t.wrap(evaluation, "fit_logistic_1d", "numerics.fit_logistic", fit_counts)
    t.wrap_counted(numerics, "logistic_gradient", GRADIENT_CALLS)
    t.wrap(cli, "tsne_project", "viz.tsne", points)
    t.wrap(cli, "export_scatter", "viz.export")
    t.wrap(cli, "file_sha256", "runtime.file_sha256")
    t.wrap(cli, "config_digest", "runtime.config_digest")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _epoch_intervals(t: Tracer) -> list:
    """Gaps between consecutive per-epoch DEBUG records inside one training."""
    gaps = []
    for train in t.select("node2vec.train"):
        marks = [m for m in t.epoch_marks if train.start <= m <= train.end]
        gaps += [b - a for a, b in zip(marks, marks[1:])]
    return gaps


def layer_metrics(t: Tracer, traced_wall: float, untraced_wall: float) -> dict:
    """Every per-layer metric of one traced pass, keyed by its BENCHMARK.json name."""
    m = {}
    spans = t.spans

    # wordlist
    loads = t.select("wordlist.load")
    infers = t.select("wordlist.infer")
    m["wordlist.load_s"] = t.total("wordlist.load")
    m["wordlist.infer_s"] = t.total("wordlist.infer")
    for kind in COLEX_TYPES:
        mine = [s for s in infers if s.info["kind"] == kind]
        m[f"wordlist.infer_s.{kind}"] = sum((s.duration for s in mine), 0.0)
        m[f"wordlist.edges.{kind}"] = sum(s.info["edges"] for s in mine)
    m["wordlist.entries"] = loads[0].info["entries"] if loads else 0
    pairs = loads[0].info["same_language_pairs"] if loads else 0
    m["wordlist.same_language_pairs"] = pairs
    m["wordlist.edge_yield"] = _ratio(sum(s.info["edges"] for s in infers), pairs * len(infers))

    # graph
    m["graph.load_s"] = t.total("graph.load")
    m["graph.save_s"] = t.total("graph.save")
    m["graph.to_undirected_s"] = t.total("graph.to_undirected")
    m["graph.nodes"] = sum(s.info["nodes"] for s in t.select("graph.load"))
    m["graph.edges"] = sum(s.info["edges"] for s in t.select("graph.load"))

    # prone
    m["prone.shifted_matrix_s"] = t.total("prone.shifted_matrix")
    m["prone.factorize_s"] = t.total("prone.factorize")
    m["prone.propagate_s"] = t.total("prone.propagate")
    m["prone.nnz"] = sum(s.info["nnz"] for s in t.select("prone.shifted_matrix"))

    # numerics
    fits = t.select("numerics.fit_logistic")
    m["numerics.randomized_tsvd_s"] = t.total("numerics.randomized_tsvd")
    m["numerics.tsvd_gflop"] = sum(s.info["gflop"] for s in t.select("numerics.randomized_tsvd"))
    m["numerics.pca_reduce_s"] = t.total("numerics.pca_reduce")
    m["numerics.fit_logistic_s"] = t.total("numerics.fit_logistic")
    m["numerics.fits"] = len(fits)
    m["numerics.fit_iters_mean"] = _ratio(sum(s.info["iters"] for s in fits), len(fits))
    m["numerics.fit_capped_frac"] = _ratio(sum(s.info["capped"] for s in fits), len(fits))

    # node2vec
    trains = t.select("node2vec.train")
    train_s = t.total("node2vec.train")
    gflop = sum(
        s.info["epochs"] * 1e-9 * s.info["vocab"] * s.info["dim"]
        * (6.0 * s.info["train_pairs"] + 2.0 * s.info["val_pairs"])
        for s in trains
    )
    gaps = _epoch_intervals(t)
    m["node2vec.walks_s"] = t.total("node2vec.walks")
    m["node2vec.pairs_s"] = t.total("node2vec.pairs")
    m["node2vec.train_s"] = train_s
    m["node2vec.pairs"] = sum(s.info["pairs"] for s in trains)
    m["node2vec.epoch_s"] = statistics.median(gaps) if gaps else 0.0
    m["node2vec.pairs_per_s"] = _ratio(sum(s.info["train_pairs"] * s.info["epochs"] for s in trains), train_s)
    m["node2vec.gflop_per_s"] = _ratio(gflop, train_s)

    # combine
    m["combine.combine_s"] = t.total("combine.combine")
    m["combine.rows"] = sum(s.info["rows"] for s in t.select("combine.combine"))
    m["combine.cols"] = sum(s.info["cols"] for s in t.select("combine.combine"))

    # embeddings
    m["embeddings.save_s"] = t.total("embeddings.save")
    m["embeddings.load_s"] = t.total("embeddings.load")
    m["embeddings.bytes"] = sum(s.info["bytes"] for s in t.select("embeddings.save"))

    # baselines
    matrices = t.select("baselines.matrix")
    for method in BASELINE_METHODS:
        m[f"baselines.build_s.{method}"] = t.total(f"baselines.build.{method}")
        m[f"baselines.matrix_s.{method}"] = sum(
            (s.duration for s in matrices if s.info["method"] == method), 0.0
        )
    calls = t.counters["baselines.score.calls"]
    m["baselines.score_calls"] = calls
    m["baselines.score_us"] = 1e6 * _ratio(
        t.counters["baselines.score.s"], t.counters["baselines.score.sampled"]
    )

    # evaluation
    binary = t.select("evaluation.binary")
    m["evaluation.lsim_s"] = t.total("evaluation.lsim")
    for task in ("shift", "links"):
        m[f"evaluation.{task}_s"] = sum(
            (s.duration for s in binary if s.info["task"] == task), 0.0
        )
    m["evaluation.negatives_s"] = t.total("evaluation.negatives")

    # viz
    m["viz.tsne_s"] = t.total("viz.tsne")
    m["viz.points"] = sum(s.info["points"] for s in t.select("viz.tsne"))

    # cli / runtime
    for command in STEP_COMMANDS:
        m[f"cli.step_s.{command}"] = t.total(f"cli.step.{command}")
    m["runtime.file_sha256_s"] = t.total("runtime.file_sha256")

    own = t.self_times()
    for layer in LAYERS:
        m[f"{layer}.self_s"] = own.get(layer, 0.0)

    m["trace.spans"] = len(spans)
    m["trace.unattributed_s"] = traced_wall - t.top_level_time()
    m["trace.overhead_s"] = traced_wall - untraced_wall
    return m
