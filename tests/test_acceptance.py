"""Acceptance suite.

Criteria 1-8 are self-contained property checks and always run. Criteria
9-14 reproduce published-scale numbers and need externally acquired data:
set COLEXVEC_DATA_DIR to a directory containing full.tsv, affix.tsv,
overlap.tsv (edge lists), lsim_pairs.tsv (rated pairs), shift_pairs.tsv
(positive pairs), and eat_pairs.tsv (weighted association pairs);
otherwise they skip.
"""

import hashlib
import itertools
import json
import math
import os
import random
from functools import lru_cache
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import tests.test_baselines as tb
import tests.test_evaluation as te
import tests.test_prone as tp
import tests.test_wordlist as tw
from colexvec.baselines import ppmi_provider, random_walk_provider, shortest_path_provider
from colexvec.cli import run
from colexvec.combine import combine
from colexvec.embeddings import EmbeddingSet
from colexvec.evaluation import (
    ConceptPair,
    draw_negatives,
    eval_binary,
    eval_lsim,
    filter_association_pairs,
    load_concept_pairs,
    load_rated_pairs,
)
from colexvec.graph import (
    load_graph,
    make_graph,
    sidecar_path,
)
from colexvec.node2vec import (
    SkipGramConfig,
    WalkConfig,
    batch_loss_and_row_grads,
    node2vec_embed,
    softmax_rows,
)
from colexvec.numerics import (
    cosine_similarity,
    logistic_gradient,
    logistic_log_loss,
    pca_reduce,
    randomized_tsvd,
    spearman_rho,
)
from colexvec.prone import ProneConfig, prone_embed, spectral_propagate
from colexvec.viz import DenseMatrix, conditional_gaussians, squared_distances, tsne_project
from colexvec.wordlist import ColexParams, infer_network

DATA_DIR = os.environ.get("COLEXVEC_DATA_DIR")
needs_data = pytest.mark.skipif(
    not DATA_DIR, reason="COLEXVEC_DATA_DIR with published-data TSVs not set"
)


def report(number, description):
    print(f"ACCEPTANCE {number} PASS: {description}")


# ---------------------------------------------------------------------------
# 1. colexifier oracle equivalence


def test_criterion_1_colexifier_oracle_equivalence():
    rng = random.Random(20240501)
    params = ColexParams(min_form_len=2, min_overlap_len=2)
    checked = 0
    for _ in range(100):
        wl = tw.random_wordlist(rng)
        assert len(wl.entries) <= 20
        for kind in ("full", "affix", "overlap"):
            g = infer_network(wl, kind, params)
            got = {(s, t): w for s, t, w in g.edges}
            if kind != "affix":
                got = {(min(s, t), max(s, t)): w for (s, t), w in got.items()}
            expected = tw.oracle_network_weights(wl, kind, params)
            assert got == {k: float(v) for k, v in expected.items()}
            checked += 1
    report(1, f"colexifier weights equal brute-force family-set counts ({checked} networks)")


# ---------------------------------------------------------------------------
# 2. baseline oracles


def test_criterion_2_baseline_oracles():
    rng = random.Random(77)
    for _ in range(25):
        g = tb.random_small_graph(rng)
        nodes = g.order
        dist = tb.scores_by_pair(shortest_path_provider(g), g)
        oracle = {(a, b): tb.all_simple_paths_min(g, a, b)
                  for a, b in itertools.combinations(nodes, 2)}
        fill = 2.0 * max((d for d in oracle.values() if not math.isinf(d)), default=0.0)
        for (a, b), got in oracle.items():
            assert dist[a, b] == pytest.approx(fill if math.isinf(got) else got)

        order = nodes
        mat = g.adjacency.toarray()
        total = mat.sum()
        marginal = mat.sum(axis=1) / total
        rowsum = mat.sum(axis=1, keepdims=True)
        p = np.divide(mat, rowsum, out=np.zeros_like(mat), where=rowsum > 0)
        profiles = np.zeros_like(p)
        power = np.eye(len(order))
        for k in range(1, 6):
            power = power @ p
            profiles += 0.5**k * power
        ppmi = tb.scores_by_pair(ppmi_provider(g), g)
        walk = tb.scores_by_pair(random_walk_provider(g), g)
        for i, a in enumerate(order):
            for j, b in enumerate(order):
                if i == j:
                    continue
                joint = mat[i, j] / total
                want = max(0.0, math.log(joint / (marginal[i] * marginal[j]))) if joint else 0.0
                assert ppmi[a, b] == pytest.approx(want, abs=1e-9)
                ni, nj = np.linalg.norm(profiles[i]), np.linalg.norm(profiles[j])
                want_rw = 0.0 if ni == 0 or nj == 0 else float(profiles[i] @ profiles[j] / (ni * nj))
                assert walk[a, b] == pytest.approx(want_rw, abs=1e-9)

    path_graph = make_graph([("A", "B", 2), ("B", "C", 1)], "full", False)
    assert tb.score(ppmi_provider(path_graph), "A", "B") == pytest.approx(0.6931, abs=1e-4)
    mat = path_graph.adjacency.toarray()
    p = mat / mat.sum(axis=1, keepdims=True)
    profile_a = (0.5 * p + 0.25 * (p @ p))[0]
    assert np.allclose(profile_a, [1 / 6, 1 / 2, 1 / 12])
    report(2, "Dijkstra = all-paths minimum (2x-max fill when disconnected); "
              "PPMI and walk profiles match dense powers")


# ---------------------------------------------------------------------------
# 3. gradient checks


def test_criterion_3_gradient_checks():
    rng = np.random.default_rng(31)
    w_in = rng.standard_normal((5, 4)) * 0.5
    w_out = rng.standard_normal((5, 4)) * 0.5
    centers = np.array([0, 1, 2, 3, 4, 0])
    contexts = np.array([1, 2, 3, 4, 0, 2])
    _, rows, grad_rows, grad_out = batch_loss_and_row_grads(w_in, w_out, centers, contexts)
    grad_in = np.zeros_like(w_in)
    grad_in[rows] = grad_rows
    h = 1e-6
    for grad, mat in ((grad_in, w_in), (grad_out, w_out)):
        for i in range(5):
            for j in range(4):
                mat[i, j] += h
                up = batch_loss_and_row_grads(w_in, w_out, centers, contexts)[0]
                mat[i, j] -= 2 * h
                down = batch_loss_and_row_grads(w_in, w_out, centers, contexts)[0]
                mat[i, j] += h
                assert abs(grad[i, j] - (up - down) / (2 * h)) < 1e-5

    feats = rng.standard_normal(30)
    labels = (rng.random(30) < 0.5).astype(int)
    for _ in range(10):
        w, b = rng.standard_normal(2)
        gw, gb = logistic_gradient(w, b, feats, labels)
        fd_w = (logistic_log_loss(w + h, b, feats, labels) - logistic_log_loss(w - h, b, feats, labels)) / (2 * h)
        fd_b = (logistic_log_loss(w, b + h, feats, labels) - logistic_log_loss(w, b - h, feats, labels)) / (2 * h)
        assert abs(gw - fd_w) < 1e-6 and abs(gb - fd_b) < 1e-6

    sums = softmax_rows(rng.standard_normal((128, 40)) * 8).sum(axis=1)
    assert np.max(np.abs(sums - 1.0)) < 1e-9
    report(3, "skip-gram/logistic gradients match finite differences; softmax rows sum to 1")


# ---------------------------------------------------------------------------
# 4. factorization and propagation oracles


def test_criterion_4_tsvd_and_propagation_oracles():
    import scipy.sparse as sp

    for seed in range(5):
        gen = np.random.default_rng(seed + 400)
        dense = gen.standard_normal((20, 20)) * (gen.random((20, 20)) < 0.35)
        _, s = randomized_tsvd(sp.csr_array(dense), 5, seed=seed)
        assert np.max(np.abs(s - np.linalg.svd(dense, compute_uv=False)[:5])) < 1e-6

    gen = np.random.default_rng(8)
    g = tp.random_graph(gen, 10, 7)
    order = g.order
    base_values = gen.standard_normal((10, 4))
    adj = g.adjacency.toarray()
    cfg = ProneConfig(dim=4, step=10, mu=0.2, theta=0.5, seed=0)
    es = spectral_propagate(g, base_values, cfg)
    expected = tp.oracle_propagate(adj, base_values, 10, 0.2, 0.5)
    got = np.vstack([es.vectors[node] for node in order])
    assert np.max(np.abs(got - expected)) < 1e-8
    norms = np.linalg.norm(got, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-9
    report(4, "tSVD matches dense SVD; spectral propagation matches transcription oracle")


# ---------------------------------------------------------------------------
# 5. PCA contracts


def test_criterion_5_pca_contracts():
    rng = np.random.default_rng(55)
    concepts = [f"C{i}" for i in range(12)]
    e = EmbeddingSet(concepts, [rng.standard_normal(4) for c in concepts])
    z = EmbeddingSet(concepts, np.zeros((len(concepts), 4)))
    fused = combine([e, z], 4)
    orig = np.vstack([e.vectors[c] for c in concepts])
    new = np.vstack([fused.vectors[c] for c in concepts])
    d_orig = np.linalg.norm(orig[:, None] - orig[None, :], axis=2)
    d_new = np.linalg.norm(new[:, None] - new[None, :], axis=2)
    assert np.max(np.abs(d_orig - d_new)) < 1e-9

    x = rng.standard_normal((40, 6)) @ rng.standard_normal((6, 6))
    out, _ = pca_reduce(x, 5)
    cov = np.cov(out, rowvar=False)
    off = cov - np.diag(np.diag(cov))
    assert np.max(np.abs(off)) < 1e-9 * cov[0, 0]
    report(5, "zero-padded concatenation preserves distances; components orthogonal")


# ---------------------------------------------------------------------------
# 6. evaluation invariances


def stable_unit(a, b):
    key = "|".join(sorted((a, b))).encode()
    return int.from_bytes(hashlib.md5(key).digest()[:8], "big") / 2**64


def test_criterion_6_evaluation_invariances():
    concepts = [f"K{i:03d}" for i in range(200)]
    positive_keys = {tuple(sorted((concepts[2 * i], concepts[2 * i + 1]))) for i in range(60)}
    positives = [ConceptPair(a, b) for a, b in sorted(positive_keys)]

    def base(a, b):
        level = round(stable_unit(a, b) * 4) / 10
        bump = 0.45 if tuple(sorted((a, b))) in positive_keys else 0.05
        return 5.0 + bump + level

    metrics = [
        eval_binary(te.make_provider(fn, concepts), positives, runs=10, seed=11).metric
        for fn in (base, lambda a, b: 2.0 * base(a, b) + 7.0, lambda a, b: base(a, b) ** 3)
    ]
    assert metrics[0] == metrics[1] == metrics[2]

    order = sorted(concepts)  # rows of a provider over the concepts
    rows = np.array([(order.index(p.a), order.index(p.b)) for p in positives])
    for r in range(5):
        first = json.dumps([[order[a], order[b]] for a, b in
                            draw_negatives(rows, range(len(order)), 90 + r).tolist()])
        second = json.dumps([[order[a], order[b]] for a, b in
                             draw_negatives(rows, range(len(order)), 90 + r).tolist()])
        assert first.encode() == second.encode()

    assert spearman_rho([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)
    assert spearman_rho([1, 2, 3], [30, 20, 10]) == pytest.approx(-1.0)
    assert spearman_rho([1, 2, 2, 3], [1, 2, 3, 4]) == pytest.approx(0.9487, abs=1e-4)
    report(6, "accuracy invariant to monotone transforms; negatives shared; Spearman fixtures")


# ---------------------------------------------------------------------------
# 7. determinism of seeded commands


def test_criterion_7_seeded_commands_byte_reproducible(tmp_path):
    toy = str(resources.files("colexvec") / "data" / "toy_wordlist.tsv")
    graph = tmp_path / "full.tsv"
    assert run(["colexify", "--wordlist", toy, "--type", "full", "--out", str(graph)]) == 0

    prone_args = ["embed", "--graph", str(graph), "--method", "prone", "--seed", "1", "--dim", "4"]
    n2v_args = ["embed", "--graph", str(graph), "--method", "node2vec", "--seed", "2",
                "--dim", "4", "--epochs", "3", "--walks-per-node", "3"]
    for args, name in ((prone_args, "prone"), (n2v_args, "n2v")):
        assert run(args + ["--out", str(tmp_path / f"{name}_a.txt")]) == 0
        assert run(args + ["--out", str(tmp_path / f"{name}_b.txt")]) == 0
        assert (tmp_path / f"{name}_a.txt").read_bytes() == (tmp_path / f"{name}_b.txt").read_bytes()

    shift_pairs = str(resources.files("colexvec") / "data" / "toy_shift_pairs.tsv")
    eval_args = ["eval-shift", "--sim", str(tmp_path / "prone_a.txt"),
                 "--pairs", shift_pairs, "--runs", "5", "--seed", "3"]
    assert run(eval_args + ["--report", str(tmp_path / "r1.json")]) == 0
    assert run(eval_args + ["--report", str(tmp_path / "r2.json")]) == 0
    assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()

    viz_args = ["viz", "--embedding", str(tmp_path / "prone_a.txt"),
                "--perplexity", "3", "--iterations", "150", "--seed", "4"]
    assert run(viz_args + ["--out", str(tmp_path / "v1")]) == 0
    assert run(viz_args + ["--out", str(tmp_path / "v2")]) == 0
    assert (tmp_path / "v1.tsv").read_bytes() == (tmp_path / "v2.tsv").read_bytes()
    assert (tmp_path / "v1.svg").read_bytes() == (tmp_path / "v2.svg").read_bytes()

    config = {
        "name": "determinism-check",
        "report": str(tmp_path / "pipe.json"),
        "steps": [
            {"command": "embed",
             "args": {"graph": str(graph), "method": "prone", "seed": 5,
                      "dim": 4, "out": str(tmp_path / "pipe.emb")}},
            {"command": "eval-shift",
             "args": {"sim": str(tmp_path / "pipe.emb"), "pairs": shift_pairs,
                      "runs": 5, "seed": 5, "report": str(tmp_path / "pipe_shift.json")}},
        ],
    }
    (tmp_path / "pipe_cfg.json").write_text(json.dumps(config), encoding="utf-8")
    assert run(["pipeline", "--config", str(tmp_path / "pipe_cfg.json")]) == 0
    first = (tmp_path / "pipe.json").read_bytes()
    assert run(["pipeline", "--config", str(tmp_path / "pipe_cfg.json")]) == 0
    assert (tmp_path / "pipe.json").read_bytes() == first
    report(7, "embed/eval/viz/pipeline outputs byte-identical across seeded reruns")


# ---------------------------------------------------------------------------
# 8. t-SNE calibration and KL descent


def test_criterion_8_tsne_calibration_and_kl(tmp_path):
    rng = np.random.default_rng(101)
    centers = rng.standard_normal((4, 8)) * 3
    x = np.vstack([c + rng.standard_normal((11, 8)) for c in centers])
    p_cond = conditional_gaussians(squared_distances(x), 15.0)
    entropy = -np.sum(p_cond * np.log2(np.maximum(p_cond, 1e-12)), axis=1)
    assert np.max(np.abs(2.0**entropy - 15.0)) < 1e-3

    _, kl_history = tsne_project(DenseMatrix(values=x), perplexity=15.0, iterations=1000,
                                 seed=1, record_kl=True)
    kl = np.array(kl_history)
    assert np.all(np.diff(kl[500:]) <= 1e-9)
    report(8, "perplexity calibrated within 1e-3; KL non-increasing post-exaggeration")


# ===========================================================================
# conditional published-scale reproduction (criteria 9-14)


def data_file(name):
    path = Path(DATA_DIR) / name
    if not path.exists():
        pytest.skip(f"{path} not found")
    return path


@lru_cache(maxsize=None)
def published_graph(name):
    path = data_file(f"{name}.tsv")
    if not sidecar_path(path).exists() and name == "affix":
        sidecar_path(path).write_text(
            json.dumps({"colex_type": "affix", "directed": True,
                        "weight_semantics": "family_count"}),
            encoding="utf-8",
        )
    return load_graph(path)


@lru_cache(maxsize=None)
def trained_embedding(method, colex_types, seed):
    from colexvec.graph import to_undirected

    sets = []
    for name in colex_types:
        g = to_undirected(published_graph(name))
        if method == "prone":
            sets.append(prone_embed(g, ProneConfig(dim=128, seed=seed)))
        else:
            sets.append(
                node2vec_embed(
                    g,
                    WalkConfig(walks_per_node=5, walk_length=10, seed=seed),
                    SkipGramConfig(dim=128, window=2, learning_rate=0.001,
                                   epochs=1500, validation_split=0.2, seed=seed),
                )
            )
    return sets[0] if len(sets) == 1 else combine(sets, 128)


def embedding_sim(method, colex_types, seed):
    from colexvec.baselines import embedding_provider

    return embedding_provider(trained_embedding(method, colex_types, seed))


@needs_data
def test_criterion_9_graph_sizes_match_published_table():
    expected = {"full": (1246, 4008), "affix": (1308, 38215), "overlap": (926, 12974)}
    for name, (nodes, edges) in expected.items():
        g = published_graph(name)
        assert (g.n_nodes, g.n_edges) == (nodes, edges), name
    report(9, "full 1,246/4,008; affix 1,308/38,215; overlap 926/12,974")


@needs_data
def test_criterion_10_lsim_correlations():
    pairs = load_rated_pairs(data_file("lsim_pairs.tsv"))
    sp_rho = eval_lsim(shortest_path_provider(published_graph("full")), pairs).metric
    assert sp_rho == pytest.approx(-0.60, abs=0.01)
    prone_rho = eval_lsim(embedding_sim("prone", ("full", "affix"), 1), pairs).metric
    assert prone_rho == pytest.approx(0.72, abs=0.05)
    n2v_rho = eval_lsim(embedding_sim("node2vec", ("full", "affix"), 1), pairs).metric
    assert n2v_rho == pytest.approx(0.69, abs=0.05)
    report(10, f"LSIM: shortest-path {sp_rho:.3f}, ProNE {prone_rho:.3f}, Node2Vec {n2v_rho:.3f}")


@needs_data
def test_criterion_11_semantic_change_accuracies():
    positives = load_concept_pairs(data_file("shift_pairs.tsv"))
    n2v = eval_binary(embedding_sim("node2vec", ("full", "affix"), 1), positives,
                      runs=50, seed=7, task="shift").metric
    assert n2v == pytest.approx(0.83, abs=0.03)
    prone = eval_binary(embedding_sim("prone", ("full", "affix"), 1), positives,
                        runs=50, seed=7, task="shift").metric
    assert prone == pytest.approx(0.82, abs=0.03)
    sp = eval_binary(shortest_path_provider(published_graph("full")), positives,
                     runs=50, seed=7, task="shift").metric
    assert sp == pytest.approx(0.79, abs=0.02)
    report(11, f"shift: Node2Vec {n2v:.3f}, ProNE {prone:.3f}, shortest-path {sp:.3f}")


@needs_data
def test_criterion_12_link_prediction():
    edges = load_concept_pairs(data_file("eat_pairs.tsv"))
    space = set()
    for name in ("full", "affix", "overlap"):
        space |= set(published_graph(name).nodes)
    filtered = filter_association_pairs(edges, min_weight=5, space=space)
    concepts = {c for p in filtered for c in (p.a, p.b)}
    assert (len(concepts), len(filtered)) == (746, 780)

    prone = eval_binary(embedding_sim("prone", ("full", "affix", "overlap"), 1),
                        filtered, runs=50, seed=7, task="links").metric
    assert prone == pytest.approx(0.81, abs=0.03)
    sp = eval_binary(shortest_path_provider(published_graph("full")), filtered,
                     runs=50, seed=7, task="links").metric
    assert sp == pytest.approx(0.71, abs=0.02)
    report(12, f"links: EAT 746/780; ProNE {prone:.3f}, shortest-path {sp:.3f}")


@needs_data
def test_criterion_13_partial_colexifications_help_prediction():
    shift = load_concept_pairs(data_file("shift_pairs.tsv"))
    links_raw = load_concept_pairs(data_file("eat_pairs.tsv"))
    for method in ("prone", "node2vec"):
        full_only = embedding_sim(method, ("full",), 1)
        for types in (("full", "affix"), ("full", "affix", "overlap")):
            enriched = embedding_sim(method, types, 1)
            for task, positives in (("shift", shift), ("links", links_raw)):
                if task == "links":
                    space = set()
                    for name in ("full", "affix", "overlap"):
                        space |= set(published_graph(name).nodes)
                    positives = filter_association_pairs(positives, 5, space)
                base = eval_binary(full_only, positives, runs=50, seed=7, task=task).metric
                better = eval_binary(enriched, positives, runs=50, seed=7, task=task).metric
                assert better > base, (method, types, task)
    report(13, "full/affix and full/affix/overlap beat full-only on both prediction tasks")


@needs_data
def test_invariant_node2vec_seed_stability_on_published_data():
    # module invariant rather than a numbered criterion: downstream LSIM rho
    # varies by < 0.03 across 5 training seeds
    pairs = load_rated_pairs(data_file("lsim_pairs.tsv"))
    rhos = [
        eval_lsim(embedding_sim("node2vec", ("full", "affix"), seed), pairs).metric
        for seed in range(1, 6)
    ]
    assert max(rhos) - min(rhos) < 0.03
    print(f"ACCEPTANCE (invariant) PASS: Node2Vec LSIM spread {max(rhos) - min(rhos):.4f} over 5 seeds")


@needs_data
def test_criterion_14_tree_bark_affinity_under_affix_data():
    deltas = []
    for seed in range(1, 6):
        full_es = trained_embedding("prone", ("full",), seed)
        fused_es = trained_embedding("prone", ("full", "affix"), seed)
        full_cos = cosine_similarity(full_es.vectors["TREE"], full_es.vectors["BARK"])
        fused_cos = cosine_similarity(fused_es.vectors["TREE"], fused_es.vectors["BARK"])
        deltas.append(fused_cos - full_cos)
    assert np.mean(deltas) > 0
    report(14, f"cosine(TREE, BARK) gains {np.mean(deltas):.3f} from affix data (5-seed mean)")
