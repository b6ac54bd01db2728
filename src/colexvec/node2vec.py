"""Node2Vec embedding: biased random-walk corpus plus a full-softmax skip-gram.

The trainer optimizes the exact softmax cross-entropy over the whole
vocabulary (no negative sampling, no hierarchical softmax), which is
affordable at colexification-network scale (~1,300 nodes). Training is
sequential mini-batch SGD, one batch after another, for determinism; only
its matrix products run on every BLAS thread. Walk sampling derives an
independent RNG per start node so corpus generation is order-independent.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingSet
from .errors import ValidationError
from .graph import ColexGraph
from .runtime import config_digest

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class WalkConfig:
    walks_per_node: int = 5
    walk_length: int = 10
    p: float = 1.0
    q: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.walks_per_node < 1 or self.walk_length < 1:
            raise ValidationError("walk counts must be >= 1")
        for name in ("p", "q"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")
        if self.p <= 0 or self.q <= 0:
            raise ValidationError("p and q must be positive")


@dataclass(frozen=True)
class SkipGramConfig:
    dim: int = 128
    window: int = 2
    learning_rate: float = 0.001
    epochs: int = 1500
    validation_split: float = 0.2
    batch_size: int = 512
    seed: int = 0

    def __post_init__(self):
        if self.dim < 1:
            raise ValidationError("dim must be >= 1")
        if self.window < 1:
            raise ValidationError("window must be >= 1")
        if not math.isfinite(self.learning_rate):
            raise ValidationError("learning_rate must be finite")
        if not (0.0 <= self.validation_split < 1.0):
            raise ValidationError("validation_split must be in [0, 1)")
        if self.batch_size < 1 or self.epochs < 1:
            raise ValidationError("batch_size and epochs must be >= 1")


def sample_walks(g: ColexGraph, cfg: WalkConfig) -> list:
    """Weighted second-order random walks, `walks_per_node` per non-isolated node.

    Each step draws from the current node's row of `g.adjacency`, its
    neighbours in sorted order. With p = q = 1 the draw is plain
    weight-proportional; otherwise the previous node reweights each
    candidate by 1/p (the previous node itself), 1 (a neighbour of the
    previous node) or 1/q (any other node). Start node i draws from its own
    generator `default_rng([seed, i])` in the RNG stream of
    `Generator.choice`, so identical seeds give an identical corpus.
    """
    if g.directed:
        raise ValidationError("sample_walks needs an undirected graph")

    order = g.sorted_nodes()
    adj = g.adjacency
    indptr, indices, weights = adj.indptr, adj.indices, adj.data
    # row i's CDF is cdf[indptr[i]:indptr[i + 1]], aligned with its neighbours
    cdf = weights.copy()
    for lo, hi in zip(indptr[:-1], indptr[1:]):
        if hi > lo:
            cdf[lo:hi] = _choice_cdf(weights[lo:hi])
    first_order = cfg.p == 1.0 and cfg.q == 1.0
    if not first_order:
        # divisor[prev, x] of x's weight: p for prev itself, 1 for its neighbours, else q
        divisor = np.where(adj.toarray() > 0, 1.0, cfg.q)
        np.fill_diagonal(divisor, cfg.p)

    walks = []
    for start in range(len(order)):
        if indptr[start] == indptr[start + 1]:
            continue
        rng = np.random.default_rng([cfg.seed, start])
        for _ in range(cfg.walks_per_node):
            walk = [start]
            while len(walk) < cfg.walk_length:
                # every node after the start has at least the edge back
                lo, hi = indptr[walk[-1]], indptr[walk[-1] + 1]
                if first_order or len(walk) == 1:
                    row_cdf = cdf[lo:hi]
                else:
                    row_cdf = _choice_cdf(weights[lo:hi] / divisor[walk[-2], indices[lo:hi]])
                walk.append(int(indices[lo + int(row_cdf.searchsorted(rng.random(), side="right"))]))
            walks.append([order[i] for i in walk])
    return walks


def _choice_cdf(weights: np.ndarray) -> np.ndarray:
    """The CDF that `Generator.choice(n, p=weights / weights.sum())` samples from.

    `int(cdf.searchsorted(rng.random(), side="right"))` consumes the same
    RNG stream and returns the same index as that `choice` call.
    """
    cdf = np.cumsum(weights / weights.sum())
    cdf /= cdf[-1]
    return cdf


def extract_pairs(walks, window: int) -> list:
    """Skip-gram (center, context) pairs within the given window."""
    if window < 1:
        raise ValidationError("window must be >= 1")
    pairs = []
    for walk in walks:
        for i, center in enumerate(walk):
            lo = max(0, i - window)
            hi = min(len(walk), i + window + 1)
            for j in range(lo, hi):
                if j != i:
                    pairs.append((center, walk[j]))
    return pairs


def softmax_rows(logits: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    """Row-wise softmax; `out=logits` overwrites the logits with it."""
    # in place after the first step: fresh batch-sized temporaries cost more than the exp
    proba = np.subtract(logits, logits.max(axis=1, keepdims=True), out=out)
    np.exp(proba, out=proba)
    proba /= proba.sum(axis=1, keepdims=True)
    return proba


def batch_loss_and_row_grads(w_in, w_out, centers, contexts):
    """Mean softmax cross-entropy over a pair batch and its row-sparse gradients.

    The softmax is computed once per distinct center and weighted by how
    often that center occurs in the batch, which gives the same sums as one
    softmax per pair. Returns (loss, rows, grad_rows, grad_w_out): `rows` are
    the distinct centers in ascending order, grad_rows[k] is the gradient of
    w_in[rows[k]], and every other row of w_in has a zero gradient.
    """
    batch = len(centers)
    rows, inv, counts = np.unique(centers, return_inverse=True, return_counts=True)
    h = w_in[rows]
    dlogits = h @ w_out.T
    softmax_rows(dlogits, out=dlogits)
    loss = float(-np.mean(np.log(dlogits[inv, contexts])))
    dlogits *= (counts / batch)[:, None]
    np.subtract.at(dlogits, (inv, contexts), 1.0 / batch)
    return loss, rows, dlogits @ w_out, dlogits.T @ h


def batch_loss_and_grads(w_in, w_out, centers, contexts):
    """Dense view of `batch_loss_and_row_grads`: (loss, grad_w_in, grad_w_out).

    The softmax is still computed once per distinct center; grad_w_in is
    dense over the vocabulary, with zero rows for absent centers.
    """
    loss, rows, grad_rows, grad_w_out = batch_loss_and_row_grads(w_in, w_out, centers, contexts)
    grad_w_in = np.zeros_like(w_in)
    grad_w_in[rows] = grad_rows
    return loss, grad_w_in, grad_w_out


def _mean_loss(w_in, w_out, centers, contexts) -> float:
    """Mean softmax cross-entropy of the pairs, one logsumexp per distinct center."""
    rows, inv = np.unique(centers, return_inverse=True)
    logits = w_in[rows] @ w_out.T
    peak = logits.max(axis=1)
    logsumexp = peak + np.log(np.exp(logits - peak[:, None]).sum(axis=1))
    return float(np.mean(logsumexp[inv] - logits[inv, contexts]))


def train_skipgram(pairs, vocab, cfg: SkipGramConfig) -> EmbeddingSet:
    """Train input-side vectors with full-softmax SGD over shuffled mini-batches.

    Each batch computes one softmax per distinct center (weighted by its count)
    and updates only the w_in rows of those centers; w_out gets a full update.
    A validation_split fraction of the pairs is held out purely for loss
    monitoring; it never gates training. Per-epoch losses end up in the
    result's provenance. A train loss that is not finite at the end of an
    epoch raises ValidationError naming that epoch (counted from 1).
    """
    if not pairs:
        raise ValidationError("empty pair list")
    vocab = list(vocab)
    index = {concept: i for i, concept in enumerate(vocab)}
    if len(index) != len(vocab):
        raise ValidationError("vocab contains duplicates")
    try:
        centers = np.array([index[c] for c, _ in pairs], dtype=np.int64)
        contexts = np.array([index[t] for _, t in pairs], dtype=np.int64)
    except KeyError as exc:
        raise ValidationError(f"pair member missing from vocab: {exc}") from None

    rng = np.random.default_rng(cfg.seed)
    n_vocab = len(vocab)
    w_in = (rng.random((n_vocab, cfg.dim)) - 0.5) / cfg.dim
    w_out = (rng.random((n_vocab, cfg.dim)) - 0.5) / cfg.dim

    n_pairs = len(pairs)
    perm = rng.permutation(n_pairs)
    n_val = int(round(cfg.validation_split * n_pairs))
    if cfg.validation_split > 0 and (n_val == 0 or n_val == n_pairs):
        raise ValidationError(
            f"validation split {cfg.validation_split} leaves an empty part "
            f"for {n_pairs} pairs"
        )
    val_idx = perm[:n_val]
    train_idx = perm[n_val:]

    train_losses = []
    val_losses = []
    for epoch in range(cfg.epochs):
        shuffled = train_idx[rng.permutation(len(train_idx))]
        total = 0.0
        for start in range(0, len(shuffled), cfg.batch_size):
            sel = shuffled[start: start + cfg.batch_size]
            loss, rows, grad_rows, grad_out = batch_loss_and_row_grads(
                w_in, w_out, centers[sel], contexts[sel]
            )
            total += loss * len(sel)
            w_in[rows] -= cfg.learning_rate * grad_rows
            w_out -= cfg.learning_rate * grad_out
        train_losses.append(total / len(shuffled))
        if not np.isfinite(train_losses[-1]):
            raise ValidationError(
                f"skip-gram train loss is {train_losses[-1]} at epoch {epoch + 1} of "
                f"{cfg.epochs}; lower the learning rate ({cfg.learning_rate})"
            )
        if n_val:
            val_losses.append(_mean_loss(w_in, w_out, centers[val_idx], contexts[val_idx]))
            logger.debug(
                "epoch %d: train loss %.6f, validation loss %.6f",
                epoch, train_losses[-1], val_losses[-1],
            )
        else:
            logger.debug("epoch %d: train loss %.6f", epoch, train_losses[-1])

    provenance = {
        "method": "skipgram",
        "seed": cfg.seed,
        "config_digest": config_digest(vars(cfg) | {"__config__": "skipgram"}),
        "train_loss": tuple(train_losses),
        "validation_loss": tuple(val_losses),
    }
    vectors = {concept: w_in[i] for concept, i in index.items()}
    return EmbeddingSet(dim=cfg.dim, vectors=vectors, provenance=provenance)


def node2vec_embed(
    g: ColexGraph, walk_cfg: WalkConfig, sg_cfg: SkipGramConfig
) -> EmbeddingSet:
    """Full Node2Vec pipeline: sample walks, extract pairs, train skip-gram."""
    walks = sample_walks(g, walk_cfg)
    pairs = extract_pairs(walks, sg_cfg.window)
    vocab = sorted(g.nodes - g.isolated_nodes())
    trained = train_skipgram(pairs, vocab, sg_cfg)
    provenance = dict(trained.provenance)
    provenance.update(
        {
            "method": "node2vec",
            "colex_types": (g.colex_type,),
            "seed": (walk_cfg.seed, sg_cfg.seed),
            "config_digest": config_digest(
                {"walks": vars(walk_cfg), "skipgram": vars(sg_cfg)}
            ),
            "uncovered": tuple(sorted(g.isolated_nodes())),
        }
    )
    return EmbeddingSet(dim=trained.dim, vectors=trained.vectors, provenance=provenance)
