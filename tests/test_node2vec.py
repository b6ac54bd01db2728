import threading
import warnings

import numpy as np
import pytest
from blas_threads import at_each_thread_count, cli_snippet
from memtrace import traced_peak

import colexvec.node2vec as n2v
from colexvec import runtime
from colexvec.errors import ValidationError
from colexvec.graph import make_graph, save_graph
from colexvec.node2vec import (
    SkipGramConfig,
    WalkConfig,
    batch_loss_and_row_grads,
    extract_pairs,
    node2vec_embed,
    sample_walks,
    softmax_rows,
    train_skipgram,
)
from colexvec.numerics import cosine_similarity

STAR = make_graph([("C0", f"L{i}", 1) for i in range(1, 5)], "full", False)


def star_pairs():
    walks = sample_walks(STAR, WalkConfig(walks_per_node=20, walk_length=10, seed=5))
    return extract_pairs(walks, 2)


def named(g, walks):
    """The walks as lists of concept ids."""
    return [[g.order[i] for i in walk] for walk in walks.tolist()]


# ---------------------------------------------------------------------------
# walk sampling


def test_walks_follow_sole_neighbor():
    g = make_graph([("A", "B", 1), ("B", "C", 1)], "full", False)
    walks = sample_walks(g, WalkConfig(walks_per_node=3, walk_length=4, seed=0))
    for walk in named(g, walks):
        if walk[0] == "A":
            assert walk[1] == "B"


def test_walk_count():
    g = make_graph(
        [("A", "B", 1), ("B", "C", 1), ("C", "D", 1), ("D", "A", 1)], "full", False
    )
    walks = sample_walks(g, WalkConfig(walks_per_node=5, walk_length=10, seed=1))
    assert len(walks) == 20


def test_isolated_nodes_yield_no_walks():
    g = make_graph([("A", "B", 1)], "full", False, extra_nodes=["L"])
    walks = named(g, sample_walks(g, WalkConfig(walks_per_node=4, walk_length=5, seed=2)))
    assert all(walk[0] in {"A", "B"} for walk in walks)
    assert len(walks) == 8


def test_star_first_step_frequency():
    g = make_graph([("S", "H", 9), ("S", "L", 1)], "full", False)
    walks = named(g, sample_walks(g, WalkConfig(walks_per_node=10_000, walk_length=2, seed=3)))
    first_steps = [walk[1] for walk in walks if walk[0] == "S"]
    assert len(first_steps) == 10_000
    heavy = sum(1 for s in first_steps if s == "H") / len(first_steps)
    assert heavy == pytest.approx(0.9, abs=0.02)


def test_walks_are_valid_paths():
    g = make_graph(
        [("A", "B", 2), ("B", "C", 1), ("C", "A", 3), ("C", "D", 1)], "full", False
    )
    edge_set = set()
    for src, dst, _ in g.edges:
        edge_set.add((src, dst))
        edge_set.add((dst, src))
    walks = named(g, sample_walks(g, WalkConfig(walks_per_node=10, walk_length=8, seed=4)))
    for walk in walks:
        assert len(walk) <= 8
        for a, b in zip(walk, walk[1:]):
            assert (a, b) in edge_set


def test_walks_seed_reproducible():
    g = make_graph([("A", "B", 2), ("B", "C", 1), ("C", "A", 3)], "full", False)
    cfg = WalkConfig(walks_per_node=5, walk_length=6, seed=11)
    assert np.array_equal(sample_walks(g, cfg), sample_walks(g, cfg))
    other = sample_walks(g, WalkConfig(walks_per_node=5, walk_length=6, seed=12))
    assert not np.array_equal(sample_walks(g, cfg), other)


def test_high_return_parameter_avoids_backtracking():
    g = make_graph([("A", "B", 2), ("B", "C", 1)], "full", False)
    cfg = WalkConfig(walks_per_node=50, walk_length=3, p=1e9, q=1.0, seed=6)
    for walk in named(g, sample_walks(g, cfg)):
        if walk[0] == "A" and len(walk) == 3:
            assert walk[2] == "C"  # returning to A has probability ~0


def choice_reference_walks(g, cfg):
    """Walks drawn step by step with `rng.choice(len(nbrs), p=...)`."""
    neighbors = {node: [] for node in g.order}
    for src, dst, w in g.edges:
        neighbors[src].append((dst, w))
        neighbors[dst].append((src, w))
    walks = []
    for index, start in enumerate(sorted(neighbors)):
        if not neighbors[start]:
            continue
        rng = np.random.default_rng([cfg.seed, index])
        for _ in range(cfg.walks_per_node):
            walk = [start]
            while len(walk) < cfg.walk_length:
                nbrs = sorted(neighbors[walk[-1]])
                weights = [w for _, w in nbrs]
                if len(walk) > 1:
                    prev = walk[-2]
                    prev_nbrs = {nbr for nbr, _ in neighbors[prev]}
                    weights = [
                        w / cfg.p if nbr == prev else (w if nbr in prev_nbrs else w / cfg.q)
                        for nbr, w in nbrs
                    ]
                weights = np.array(weights, dtype=float)
                walk.append(nbrs[rng.choice(len(nbrs), p=weights / weights.sum())][0])
            walks.append(walk)
    return walks


@pytest.mark.parametrize("p, q", [(1.0, 1.0), (0.5, 2.0), (4.0, 0.25)])
def test_walks_equal_choice_reference(p, q):
    g = make_graph(
        [("A", "B", 3), ("A", "C", 1), ("A", "D", 7), ("B", "C", 2), ("C", "D", 5),
         ("D", "E", 1), ("E", "F", 4), ("B", "F", 2)],
        "full", False, extra_nodes=["LONER"],
    )
    cfg = WalkConfig(walks_per_node=30, walk_length=12, p=p, q=q, seed=9)
    walks = sample_walks(g, cfg)
    assert walks.shape == (6 * 30, 12) and walks.dtype == np.intp
    assert named(g, walks) == choice_reference_walks(g, cfg)


@pytest.mark.parametrize("field, value", [("p", np.nan), ("q", np.inf)])
def test_walk_config_rejects_non_finite(field, value):
    with pytest.raises(ValidationError, match=f"^{field} must be finite"):
        WalkConfig(**{field: value})


@pytest.mark.parametrize("config", [WalkConfig, SkipGramConfig])
def test_configs_reject_negative_seed(config):
    with pytest.raises(ValidationError, match=r"^seed must be >= 0, got -1$"):
        config(seed=-1)


def test_sample_walks_rejects_directed():
    g = make_graph([("A", "B", 1)], "affix", True)
    with pytest.raises(ValidationError):
        sample_walks(g, WalkConfig(seed=0))


# ---------------------------------------------------------------------------
# pair extraction


def test_extract_pairs_window_one():
    assert extract_pairs([[0, 1, 2]], 1).tolist() == [[0, 1], [1, 0], [1, 2], [2, 1]]


def test_extract_pairs_window_two():
    pairs = extract_pairs([[0, 1, 2]], 2)
    assert set(map(tuple, pairs.tolist())) == {(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)}
    assert len(pairs) == 6


def test_extract_pairs_single_node_walk():
    assert extract_pairs([[0]], 2).shape == (0, 2)


def triple_loop_pairs(walks, window):
    """Pairs walk by walk, then by center, then by context position."""
    pairs = []
    for walk in walks:
        for i, center in enumerate(walk):
            lo = max(0, i - window)
            hi = min(len(walk), i + window + 1)
            for j in range(lo, hi):
                if j != i:
                    pairs.append((center, walk[j]))
    return pairs


@pytest.mark.parametrize("length", range(1, 13))
def test_extract_pairs_equals_triple_loop_reference(length):
    rng = np.random.default_rng(length)
    walks = rng.integers(0, 50, size=(7, length))
    for window in range(1, 14):
        pairs = extract_pairs(walks, window)
        assert pairs.shape[1] == 2
        assert list(map(tuple, pairs.tolist())) == triple_loop_pairs(walks.tolist(), window)


def test_extract_pairs_rejects_ragged_walks():
    with pytest.raises(ValidationError, match="2-D"):
        extract_pairs(np.arange(5), 2)


# ---------------------------------------------------------------------------
# trainer


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    logits = rng.standard_normal((64, 17)) * 10
    sums = softmax_rows(logits).sum(axis=1)
    assert np.max(np.abs(sums - 1.0)) < 1e-9


def per_pair_reference(w_in, w_out, centers, contexts):
    """(loss, grad_w_in, grad_w_out) from one softmax per pair, the oracle for the kernel."""
    batch = len(centers)
    h = w_in[centers]
    proba = softmax_rows(h @ w_out.T)
    loss = float(-np.mean(np.log(proba[np.arange(batch), contexts])))
    dlogits = proba.copy()
    dlogits[np.arange(batch), contexts] -= 1.0
    dlogits /= batch
    grad_w_in = np.zeros_like(w_in)
    np.add.at(grad_w_in, centers, dlogits @ w_out)
    return loss, grad_w_in, dlogits.T @ h


def per_pair_mean_loss(w_in, w_out, centers, contexts):
    proba = softmax_rows(w_in[centers] @ w_out.T)
    return float(-np.mean(np.log(proba[np.arange(len(centers)), contexts])))


KERNEL_CASES = ["random-7", "random-40", "random-200", "one-center", "one-pair", "repeated"]


def kernel_instance(name):
    rng = np.random.default_rng(KERNEL_CASES.index(name))
    n_vocab, dim = 9, 5
    w_in = rng.standard_normal((n_vocab, dim))
    w_out = rng.standard_normal((n_vocab, dim))
    if name.startswith("random"):
        size = int(name.split("-")[1])
        centers = rng.integers(0, n_vocab, size)
        contexts = rng.integers(0, n_vocab, size)
    elif name == "one-center":
        centers = np.full(12, 6)
        contexts = rng.integers(0, n_vocab, 12)
    elif name == "one-pair":
        centers, contexts = np.array([3]), np.array([7])
    else:  # repeated (center, context) pairs
        centers = np.array([2, 2, 2, 5, 5, 2, 0, 5])
        contexts = np.array([4, 4, 1, 4, 4, 4, 8, 4])
    return w_in, w_out, centers, contexts


@pytest.mark.parametrize("name", KERNEL_CASES)
def test_row_kernel_matches_per_pair_reference(name):
    w_in, w_out, centers, contexts = kernel_instance(name)
    ref_loss, ref_grad_in, ref_grad_out = per_pair_reference(w_in, w_out, centers, contexts)
    loss, rows, grad_rows, grad_out = batch_loss_and_row_grads(w_in, w_out, centers, contexts)
    assert abs(loss - ref_loss) < 1e-12
    assert np.array_equal(rows, np.unique(centers))
    assert np.max(np.abs(grad_rows - ref_grad_in[rows])) < 1e-12
    assert not np.any(np.delete(ref_grad_in, rows, axis=0))
    assert np.max(np.abs(grad_out - ref_grad_out)) < 1e-12


@pytest.mark.parametrize("name", KERNEL_CASES)
def test_mean_loss_matches_per_pair_reference(name):
    w_in, w_out, centers, contexts = kernel_instance(name)
    expected = per_pair_mean_loss(w_in, w_out, centers, contexts)
    assert abs(n2v._mean_loss(w_in, w_out, centers, contexts) - expected) < 1e-12


def three_array_mean_loss(w_in, w_out, centers, contexts):
    """The validation loss over the whole distinct-center logit matrix at once."""
    rows, inv = np.unique(centers, return_inverse=True)
    logits = w_in[rows] @ w_out.T
    peak = logits.max(axis=1)
    logsumexp = peak + np.log(np.exp(logits - peak[:, None]).sum(axis=1))
    return float(np.mean(logsumexp[inv] - logits[inv, contexts]))


def spread_centers(n_distinct, n_vocab, dim, seed):
    """Pairs on exactly n_distinct centers drawn from a larger vocabulary."""
    rng = np.random.default_rng(seed)
    w_in = rng.standard_normal((n_vocab, dim))
    w_out = rng.standard_normal((n_vocab, dim))
    ids = rng.choice(n_vocab, n_distinct, replace=False)
    centers = rng.permutation(np.concatenate([ids, rng.choice(ids, 3 * n_distinct)]))
    contexts = rng.integers(0, n_vocab, len(centers))
    return w_in, w_out, centers, contexts


BLOCK = n2v.LOSS_BLOCK


@pytest.mark.parametrize("n_distinct", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
def test_blocked_mean_loss_equals_three_array_loss_bitwise(n_distinct):
    instance = spread_centers(n_distinct, 4 * BLOCK, 9, n_distinct)
    assert n2v._mean_loss(*instance) == three_array_mean_loss(*instance)


def test_blocked_mean_loss_with_sparse_centers_bitwise():
    # 300 centers among 20,000 ids: most LOSS_BLOCK-wide id ranges hold no pair
    instance = spread_centers(300, 20_000, 3, 1)
    assert n2v._mean_loss(*instance) == three_array_mean_loss(*instance)


@pytest.mark.parametrize("name", KERNEL_CASES)
def test_blocked_mean_loss_on_kernel_cases_bitwise(name):
    instance = kernel_instance(name)
    assert n2v._mean_loss(*instance) == three_array_mean_loss(*instance)


def test_mean_loss_peak_memory_is_a_few_blocks():
    # the whole 1,500 x 1,500 logit matrix and its two temporaries would take 54 MB
    instance = spread_centers(1500, 1500, 16, 0)
    loss, peak = traced_peak(n2v._mean_loss, *instance)
    assert np.isfinite(loss)
    assert peak < 8e6, f"peak {peak / 1e6:.2f} MB"


def per_pair_training(pairs, vocab, cfg):
    """train_skipgram's random draws and batches with dense per-pair updates."""
    centers, contexts = np.asarray(pairs).T
    rng = np.random.default_rng(cfg.seed)
    w_in = (rng.random((len(vocab), cfg.dim)) - 0.5) / cfg.dim
    w_out = (rng.random((len(vocab), cfg.dim)) - 0.5) / cfg.dim
    perm = rng.permutation(len(pairs))
    n_val = int(round(cfg.validation_split * len(pairs)))
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    train_losses, val_losses = [], []
    for _ in range(cfg.epochs):
        shuffled = train_idx[rng.permutation(len(train_idx))]
        total = 0.0
        for start in range(0, len(shuffled), cfg.batch_size):
            sel = shuffled[start: start + cfg.batch_size]
            loss, grad_in, grad_out = per_pair_reference(w_in, w_out, centers[sel], contexts[sel])
            total += loss * len(sel)
            w_in -= cfg.learning_rate * grad_in
            w_out -= cfg.learning_rate * grad_out
        train_losses.append(total / len(shuffled))
        val_losses.append(per_pair_mean_loss(w_in, w_out, centers[val_idx], contexts[val_idx]))
    return w_in, train_losses, val_losses


def test_training_matches_per_pair_reference():
    cfg = SkipGramConfig(dim=4, window=2, learning_rate=0.5, epochs=5,
                         validation_split=0.2, batch_size=16, seed=8)
    pairs, vocab = star_pairs(), sorted(STAR.nodes)
    trained, curves = train_skipgram(pairs, vocab, cfg)
    w_in, train_losses, val_losses = per_pair_training(pairs, vocab, cfg)
    assert np.max(np.abs(np.subtract(curves["train_loss"], train_losses))) < 1e-12
    assert np.max(np.abs(np.subtract(curves["validation_loss"], val_losses))) < 1e-12
    assert np.max(np.abs(trained - w_in)) < 1e-12
    # the weights moved, so the comparison is not between two initialisations
    assert train_losses[-1] < train_losses[0]


def test_skipgram_gradients_match_finite_differences():
    rng = np.random.default_rng(2)
    n_vocab, dim = 5, 4
    w_in = rng.standard_normal((n_vocab, dim)) * 0.5
    w_out = rng.standard_normal((n_vocab, dim)) * 0.5
    centers = np.array([0, 1, 2, 3, 4, 0, 2])
    contexts = np.array([1, 0, 3, 2, 0, 4, 1])
    _, rows, grad_rows, grad_out = batch_loss_and_row_grads(w_in, w_out, centers, contexts)
    grad_in = np.zeros_like(w_in)
    grad_in[rows] = grad_rows

    h = 1e-6
    for grad, mat in ((grad_in, w_in), (grad_out, w_out)):
        for i in range(n_vocab):
            for j in range(dim):
                mat[i, j] += h
                up = batch_loss_and_row_grads(w_in, w_out, centers, contexts)[0]
                mat[i, j] -= 2 * h
                down = batch_loss_and_row_grads(w_in, w_out, centers, contexts)[0]
                mat[i, j] += h
                fd = (up - down) / (2 * h)
                assert abs(grad[i, j] - fd) < 1e-5


def test_skipgram_provenance_holds_the_relative_drift():
    cfg = SkipGramConfig(dim=4, learning_rate=0.5, epochs=5, batch_size=16, seed=8)
    trained, curves = train_skipgram(star_pairs(), sorted(STAR.nodes), cfg)
    rng = np.random.default_rng(cfg.seed)
    w_start = (rng.random((len(STAR.nodes), cfg.dim)) - 0.5) / cfg.dim
    drift = np.linalg.norm(trained - w_start) / np.linalg.norm(w_start)
    assert curves["drift"] == drift > 0


def test_skipgram_symmetric_leaves_align():
    # window 1 gives every leaf the same context distribution (the center)
    walks = sample_walks(STAR, WalkConfig(walks_per_node=50, walk_length=10, seed=5))
    pairs = extract_pairs(walks, 1)
    cfg = SkipGramConfig(
        dim=4, window=1, learning_rate=0.05, epochs=100,
        validation_split=0.2, batch_size=64, seed=7,
    )
    vocab = sorted(STAR.nodes)
    w_in, _ = train_skipgram(pairs, vocab, cfg)
    leaves = ["L1", "L2", "L3", "L4"]
    for a in leaves:
        for b in leaves:
            if a < b:
                assert cosine_similarity(w_in[vocab.index(a)], w_in[vocab.index(b)]) > 0.9


def test_skipgram_training_loss_moving_average_non_increasing():
    cfg = SkipGramConfig(
        dim=4, window=2, learning_rate=0.001, epochs=200,
        validation_split=0.2, batch_size=64, seed=7,
    )
    _, curves = train_skipgram(star_pairs(), sorted(STAR.nodes), cfg)
    losses = np.array(curves["train_loss"])
    ma = np.convolve(losses, np.ones(50) / 50, "valid")
    assert np.all(np.diff(ma) <= 1e-9)
    assert len(curves["validation_loss"]) == cfg.epochs


def test_skipgram_deterministic_per_seed():
    cfg = SkipGramConfig(dim=3, epochs=5, validation_split=0.2, batch_size=32, seed=13)
    pairs = star_pairs()
    a, _ = train_skipgram(pairs, sorted(STAR.nodes), cfg)
    b, _ = train_skipgram(pairs, sorted(STAR.nodes), cfg)
    assert np.array_equal(a, b)


def test_skipgram_config_rejects_non_finite_learning_rate():
    with pytest.raises(ValidationError, match="^learning_rate must be finite"):
        SkipGramConfig(learning_rate=np.nan)


def test_skipgram_fails_at_first_non_finite_epoch(monkeypatch):
    cfg = SkipGramConfig(dim=3, epochs=50, validation_split=0.0, batch_size=16, seed=3)
    pairs = star_pairs()
    batches_per_epoch = -(-len(pairs) // cfg.batch_size)
    original = n2v.batch_loss_and_row_grads
    calls = []

    def nan_from_epoch_3(*args):
        calls.append(1)
        loss, *grads = original(*args)
        return (np.nan if len(calls) > 2 * batches_per_epoch else loss), *grads

    monkeypatch.setattr(n2v, "batch_loss_and_row_grads", nan_from_epoch_3)
    with pytest.raises(ValidationError, match=r"loss is nan at epoch 3 of 50"):
        train_skipgram(pairs, sorted(STAR.nodes), cfg)
    assert len(calls) == 3 * batches_per_epoch  # stopped after epoch 3, not 50


def test_skipgram_diverging_learning_rate_fails_fast():
    cfg = SkipGramConfig(dim=3, epochs=50, learning_rate=1e9, batch_size=16, seed=3)
    with np.errstate(all="ignore"), pytest.raises(ValidationError, match=r"at epoch 1 of 50"):
        train_skipgram(star_pairs(), sorted(STAR.nodes), cfg)


def test_skipgram_empty_pairs_rejected():
    with pytest.raises(ValidationError):
        train_skipgram([], ["A"], SkipGramConfig(dim=2, seed=0))


def test_skipgram_vocab_must_cover_pairs():
    cfg = SkipGramConfig(dim=2, validation_split=0.0, seed=0)
    with pytest.raises(ValidationError, match=r"outside \[0, 1\)"):
        train_skipgram([(0, 1)], ["A"], cfg)
    with pytest.raises(ValidationError, match=r"outside \[0, 2\)"):
        train_skipgram([(0, 1), (-1, 0)], ["A", "B"], cfg)


def test_skipgram_rejects_duplicate_vocab():
    with pytest.raises(ValidationError, match="duplicates"):
        train_skipgram([(0, 1)], ["A", "A"], SkipGramConfig(dim=2, seed=0))


def test_skipgram_rejects_pairs_that_are_not_rows():
    cfg = SkipGramConfig(dim=2, seed=0)
    with pytest.raises(ValidationError, match=r"\(n, 2\) integers"):
        train_skipgram([("A", "B")], ["A", "B"], cfg)
    with pytest.raises(ValidationError, match=r"\(n, 2\) integers"):
        train_skipgram([0, 1], ["A", "B"], cfg)


def test_node2vec_embed_end_to_end():
    g = make_graph([("A", "B", 2), ("B", "C", 1)], "full", False, extra_nodes=["LONER"])
    es = node2vec_embed(
        g,
        WalkConfig(walks_per_node=4, walk_length=6, seed=1),
        SkipGramConfig(dim=3, epochs=3, validation_split=0.2, batch_size=16, seed=1),
    )
    assert set(es.vectors) == {"A", "B", "C"}
    assert es.provenance["uncovered"] == ("LONER",)
    assert es.provenance["method"] == "node2vec"
    assert es.provenance["colex_types"] == ("full",)
    assert set(es.provenance) == {
        "method", "colex_types", "seed", "config_digest", "uncovered",
        "train_loss", "validation_loss", "drift",
    }
    assert es.provenance["seed"] == (1, 1)
    # the digest of both configs, keyed "walks" and "skipgram"
    assert es.provenance["config_digest"] == (
        "b2a6a49eda478d48b245c9c27f53778ac7053c8b77bc76f3741e3a93fd8a1b06"
    )
    assert len(es.provenance["train_loss"]) == len(es.provenance["validation_loss"]) == 3


def test_node2vec_embed_rejects_walk_length_one():
    g = make_graph([("A", "B", 2), ("B", "C", 1)], "full", False)
    with pytest.raises(ValidationError, match=r"^walk_length must be >= 2 .*, got 1$"):
        node2vec_embed(g, WalkConfig(walk_length=1), SkipGramConfig(dim=2, epochs=1))


def test_node2vec_embed_rejects_graph_without_edges():
    g = make_graph([], "full", False, extra_nodes=["A", "B"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="^no edges to embed$"):
            node2vec_embed(g, WalkConfig(), SkipGramConfig(dim=2, epochs=1))


def random_graph():
    """400 nodes and 4,000 weighted edges: big enough that every skip-gram
    product runs on both threads at OPENBLAS_NUM_THREADS=2."""
    rng = np.random.default_rng(3)
    nodes = [f"N{i:03d}" for i in range(400)]
    edges = {}
    while len(edges) < 4000:
        a, b = sorted(rng.choice(400, size=2, replace=False).tolist())
        edges.setdefault((nodes[a], nodes[b]), int(rng.integers(1, 9)))
    return make_graph([(a, b, w) for (a, b), w in edges.items()], "full", False)


def test_node2vec_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    """OpenBLAS runs a GEMM on one thread when m * n * k is at most 65,536
    times GEMM_MULTITHREAD_THRESHOLD (4 by default), 262,144. Each batch's
    three products here are (distinct centres) x 400 x 64, at least 2.5
    million for the hundred or more centres of a 512-pair batch, and the
    validation loss's blocks 128 x 400 x 64, so at =2 every skip-gram
    product would run on both threads outside `one_blas_thread`."""
    graph = tmp_path / "random.tsv"
    save_graph(random_graph(), graph)
    out = str(tmp_path / "n2v.emb")
    argv = ["embed", "--graph", str(graph), "--method", "node2vec", "--out", out,
            "--seed", "1", "--dim", "64", "--epochs", "3", "--learning-rate", "20"]
    outputs = at_each_thread_count(cli_snippet(argv, out))
    assert outputs[0] == outputs[1]


def test_node2vec_vectors_in_memory_do_not_depend_on_the_blas_thread_count(tmp_path):
    """The vectors, the validation losses and the drift themselves, not only
    their 8-digit text, have the same bits at 1 and 2 OpenBLAS threads."""
    graph = tmp_path / "random.tsv"
    save_graph(random_graph(), graph)
    code = ("import hashlib, numpy as np; from colexvec.graph import load_graph; "
            "from colexvec.node2vec import SkipGramConfig, WalkConfig, node2vec_embed; "
            f"es = node2vec_embed(load_graph({str(graph)!r}), WalkConfig(seed=1), "
            "SkipGramConfig(dim=64, epochs=3, learning_rate=20, seed=1)); "
            "loss = np.array(es.provenance['validation_loss']); "
            "print(hashlib.sha256(es.values.tobytes()).hexdigest(), "
            "hashlib.sha256(loss.tobytes()).hexdigest(), len(loss), "
            "float(es.provenance['drift']).hex())")
    outputs = at_each_thread_count(code)
    assert outputs[0] == outputs[1]
    assert outputs[0].split()[2] == "3"


def test_skipgram_bits_do_not_depend_on_the_worker_count(monkeypatch):
    g = random_graph()
    pairs = extract_pairs(sample_walks(g, WalkConfig(walks_per_node=1, seed=1)), 2)
    cfg = SkipGramConfig(dim=64, epochs=2, learning_rate=20, seed=1)
    threads = set()

    def spy(fn, parts):
        def part_on_thread(part):
            threads.add(threading.get_ident())
            fn(part)
        runtime.run_parts(part_on_thread, parts)

    monkeypatch.setattr(n2v, "run_parts", spy)
    runs = []
    for workers in (1, 8):
        monkeypatch.setattr(runtime, "worker_count", lambda: workers)
        threads.clear()
        w_in, curves = train_skipgram(pairs, g.order, cfg)
        runs.append((w_in.tobytes(), curves))
        assert len(threads) == min(n2v.PARTS, workers)
    assert runs[0] == runs[1]


def test_skipgram_joins_its_threads(monkeypatch):
    monkeypatch.setattr(runtime, "worker_count", lambda: 2)
    original = n2v.batch_loss_and_row_grads
    during = []

    def counting(*args):
        result = original(*args)
        during.append(threading.active_count())
        return result

    monkeypatch.setattr(n2v, "batch_loss_and_row_grads", counting)
    before = threading.active_count()
    train_skipgram(star_pairs(), sorted(STAR.nodes), SkipGramConfig(dim=3, epochs=2, seed=3))
    assert set(during) == {before + 1}
    assert threading.active_count() == before
    # also when training stops at a non-finite loss
    cfg = SkipGramConfig(dim=3, epochs=50, learning_rate=1e9, batch_size=16, seed=3)
    with np.errstate(all="ignore"), pytest.raises(ValidationError, match="at epoch 1 of 50"):
        train_skipgram(star_pairs(), sorted(STAR.nodes), cfg)
    assert threading.active_count() == before
