import numpy as np
import pytest

import colexvec.node2vec as n2v
from colexvec.errors import ValidationError
from colexvec.graph import make_graph
from colexvec.node2vec import (
    SkipGramConfig,
    WalkConfig,
    batch_loss_and_grads,
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


# ---------------------------------------------------------------------------
# walk sampling


def test_walks_follow_sole_neighbor():
    g = make_graph([("A", "B", 1), ("B", "C", 1)], "full", False)
    walks = sample_walks(g, WalkConfig(walks_per_node=3, walk_length=4, seed=0))
    for walk in walks:
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
    walks = sample_walks(g, WalkConfig(walks_per_node=4, walk_length=5, seed=2))
    assert all(walk[0] in {"A", "B"} for walk in walks)
    assert len(walks) == 8


def test_star_first_step_frequency():
    g = make_graph([("S", "H", 9), ("S", "L", 1)], "full", False)
    walks = sample_walks(g, WalkConfig(walks_per_node=10_000, walk_length=2, seed=3))
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
    walks = sample_walks(g, WalkConfig(walks_per_node=10, walk_length=8, seed=4))
    for walk in walks:
        assert len(walk) <= 8
        for a, b in zip(walk, walk[1:]):
            assert (a, b) in edge_set


def test_walks_seed_reproducible():
    g = make_graph([("A", "B", 2), ("B", "C", 1), ("C", "A", 3)], "full", False)
    cfg = WalkConfig(walks_per_node=5, walk_length=6, seed=11)
    assert sample_walks(g, cfg) == sample_walks(g, cfg)
    other = sample_walks(g, WalkConfig(walks_per_node=5, walk_length=6, seed=12))
    assert sample_walks(g, cfg) != other


def test_high_return_parameter_avoids_backtracking():
    g = make_graph([("A", "B", 2), ("B", "C", 1)], "full", False)
    cfg = WalkConfig(walks_per_node=50, walk_length=3, p=1e9, q=1.0, seed=6)
    for walk in sample_walks(g, cfg):
        if walk[0] == "A" and len(walk) == 3:
            assert walk[2] == "C"  # returning to A has probability ~0


@pytest.mark.parametrize("field, value", [("p", np.nan), ("q", np.inf)])
def test_walk_config_rejects_non_finite(field, value):
    with pytest.raises(ValidationError, match=f"^{field} must be finite"):
        WalkConfig(**{field: value})


def test_sample_walks_rejects_directed():
    g = make_graph([("A", "B", 1)], "affix", True)
    with pytest.raises(ValidationError):
        sample_walks(g, WalkConfig(seed=0))


# ---------------------------------------------------------------------------
# pair extraction


def test_extract_pairs_window_one():
    assert extract_pairs([["A", "B", "C"]], 1) == [
        ("A", "B"), ("B", "A"), ("B", "C"), ("C", "B"),
    ]


def test_extract_pairs_window_two():
    pairs = extract_pairs([["A", "B", "C"]], 2)
    assert set(pairs) == {
        ("A", "B"), ("A", "C"), ("B", "A"), ("B", "C"), ("C", "A"), ("C", "B"),
    }
    assert len(pairs) == 6


def test_extract_pairs_single_node_walk():
    assert extract_pairs([["A"]], 2) == []


# ---------------------------------------------------------------------------
# trainer


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    logits = rng.standard_normal((64, 17)) * 10
    sums = softmax_rows(logits).sum(axis=1)
    assert np.max(np.abs(sums - 1.0)) < 1e-9


def test_skipgram_gradients_match_finite_differences():
    rng = np.random.default_rng(2)
    n_vocab, dim = 5, 4
    w_in = rng.standard_normal((n_vocab, dim)) * 0.5
    w_out = rng.standard_normal((n_vocab, dim)) * 0.5
    centers = np.array([0, 1, 2, 3, 4, 0, 2])
    contexts = np.array([1, 0, 3, 2, 0, 4, 1])
    _, grad_in, grad_out = batch_loss_and_grads(w_in, w_out, centers, contexts)

    h = 1e-6
    for grad, mat in ((grad_in, w_in), (grad_out, w_out)):
        for i in range(n_vocab):
            for j in range(dim):
                mat[i, j] += h
                up, _, _ = batch_loss_and_grads(w_in, w_out, centers, contexts)
                mat[i, j] -= 2 * h
                down, _, _ = batch_loss_and_grads(w_in, w_out, centers, contexts)
                mat[i, j] += h
                fd = (up - down) / (2 * h)
                assert abs(grad[i, j] - fd) < 1e-5


def test_skipgram_symmetric_leaves_align():
    # window 1 gives every leaf the same context distribution (the center)
    walks = sample_walks(STAR, WalkConfig(walks_per_node=50, walk_length=10, seed=5))
    pairs = extract_pairs(walks, 1)
    cfg = SkipGramConfig(
        dim=4, window=1, learning_rate=0.05, epochs=100,
        validation_split=0.2, batch_size=64, seed=7,
    )
    es = train_skipgram(pairs, sorted(STAR.nodes), cfg)
    leaves = ["L1", "L2", "L3", "L4"]
    for a in leaves:
        for b in leaves:
            if a < b:
                assert cosine_similarity(es.vectors[a], es.vectors[b]) > 0.9


def test_skipgram_training_loss_moving_average_non_increasing():
    cfg = SkipGramConfig(
        dim=4, window=2, learning_rate=0.001, epochs=200,
        validation_split=0.2, batch_size=64, seed=7,
    )
    es = train_skipgram(star_pairs(), sorted(STAR.nodes), cfg)
    losses = np.array(es.provenance["train_loss"])
    ma = np.convolve(losses, np.ones(50) / 50, "valid")
    assert np.all(np.diff(ma) <= 1e-9)
    assert len(es.provenance["validation_loss"]) == cfg.epochs


def test_skipgram_deterministic_per_seed():
    cfg = SkipGramConfig(dim=3, epochs=5, validation_split=0.2, batch_size=32, seed=13)
    pairs = star_pairs()
    a = train_skipgram(pairs, sorted(STAR.nodes), cfg)
    b = train_skipgram(pairs, sorted(STAR.nodes), cfg)
    for concept in a.vectors:
        assert np.array_equal(a.vectors[concept], b.vectors[concept])


def test_skipgram_config_rejects_non_finite_learning_rate():
    with pytest.raises(ValidationError, match="^learning_rate must be finite"):
        SkipGramConfig(learning_rate=np.nan)


def test_skipgram_fails_at_first_non_finite_epoch(monkeypatch):
    cfg = SkipGramConfig(dim=3, epochs=50, validation_split=0.0, batch_size=16, seed=3)
    pairs = star_pairs()
    batches_per_epoch = -(-len(pairs) // cfg.batch_size)
    original = n2v.batch_loss_and_grads
    calls = []

    def nan_from_epoch_3(*args):
        calls.append(1)
        loss, grad_in, grad_out = original(*args)
        return (np.nan if len(calls) > 2 * batches_per_epoch else loss), grad_in, grad_out

    monkeypatch.setattr(n2v, "batch_loss_and_grads", nan_from_epoch_3)
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
    with pytest.raises(ValidationError):
        train_skipgram([("A", "B")], ["A"], SkipGramConfig(dim=2, validation_split=0.0, seed=0))


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
