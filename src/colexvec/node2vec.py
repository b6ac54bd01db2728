"""Node2Vec embedding: biased random-walk corpus plus a full-softmax skip-gram.

The trainer optimizes the exact softmax cross-entropy over the whole
vocabulary (no negative sampling, no hierarchical softmax), which is
affordable at colexification-network scale (~1,300 nodes). Training is
sequential mini-batch SGD, one batch after another, for determinism; only
its matrix products run on every BLAS thread. Those products sum in an
order that depends on the BLAS build and its thread count, so identical
seeds give bit-identical vectors in memory only on the same build with
the same thread count (a test finds `embed`'s `.emb` of a 400-node graph
the same at 1 and 2 threads). The per-epoch validation loss builds its
logits in blocks of LOSS_BLOCK distinct centers, so it never holds a
vocabulary x vocabulary matrix, and gives the same bits as one
whole-matrix pass. Walk sampling derives an independent RNG per start
node so corpus generation is order-independent.

The corpus stays in row space: walks are rows of `g.order`, pairs are
(center, context) rows, and `train_skipgram` trains an array in rows of its
vocabulary. `node2vec_embed` maps graph rows to vocabulary rows once and
names the rows once, via `embeddings.graph_embedding`.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .embeddings import EmbeddingSet, graph_embedding
from .errors import NoEdgesError, ValidationError, check_seed
from .graph import ColexGraph
from .runtime import config_digest

logger = logging.getLogger(__name__)

# distinct centers per logit block of the validation loss
LOSS_BLOCK = 128


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
        check_seed(self.seed)


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
        check_seed(self.seed)


def sample_walks(g: ColexGraph, cfg: WalkConfig) -> np.ndarray:
    """Weighted second-order random walks, `walks_per_node` per non-isolated node.

    Returns an intp array of shape (walks, walk_length) whose entries are
    rows of `g.order`: the walks of each start node in ascending row order,
    `walks_per_node` of them each. Each step draws from the current node's
    row of `g.adjacency`, its neighbours in sorted order. With p = q = 1
    the draw is plain weight-proportional; otherwise the previous node
    reweights each candidate by 1/p (the previous node itself), 1 (a
    neighbour of the previous node) or 1/q (any other node). Start node i
    draws from its own generator `default_rng([seed, i])` in the RNG stream
    of `Generator.choice`, so identical seeds give an identical corpus.
    """
    if g.directed:
        raise ValidationError("sample_walks needs an undirected graph")

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
    for start in np.flatnonzero(np.diff(indptr)).tolist():
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
            walks.append(walk)
    return np.array(walks, dtype=np.intp).reshape(-1, cfg.walk_length)


def _choice_cdf(weights: np.ndarray) -> np.ndarray:
    """The CDF that `Generator.choice(n, p=weights / weights.sum())` samples from.

    `int(cdf.searchsorted(rng.random(), side="right"))` consumes the same
    RNG stream and returns the same index as that `choice` call.
    """
    cdf = np.cumsum(weights / weights.sum())
    cdf /= cdf[-1]
    return cdf


def extract_pairs(walks, window: int) -> np.ndarray:
    """Skip-gram (center, context) pairs within the given window, as an (n, 2) array.

    `walks` is a 2-D array, one walk a row. Pairs come walk by walk, then
    by center position, then by context position, from one gather of
    every walk's interleaved (center, context) positions.
    """
    if window < 1:
        raise ValidationError("window must be >= 1")
    walks = np.asarray(walks)
    if walks.ndim != 2:
        raise ValidationError(f"walks must be a 2-D array, got shape {walks.shape}")
    pos = np.arange(walks.shape[1])
    gap = np.abs(pos[:, None] - pos[None, :])
    positions = np.argwhere((gap >= 1) & (gap <= window)).ravel()
    return walks[:, positions].reshape(-1, 2)


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


def _mean_loss(w_in, w_out, centers, contexts) -> float:
    """Mean softmax cross-entropy of the pairs, one logsumexp per distinct center.

    The logits are built LOSS_BLOCK distinct centers at a time, so memory
    stays at one block x vocabulary buffer. Each logit and each row's
    logsumexp goes through the same operations as over the whole logit
    matrix at once, so the loss has the same bits.
    """
    rows, inv = np.unique(centers, return_inverse=True)
    # the pairs of block b are by_row[bounds[b]:bounds[b + 1]]
    by_row = np.argsort(inv, kind="stable")
    bounds = np.searchsorted(inv[by_row], np.arange(0, len(rows) + LOSS_BLOCK, LOSS_BLOCK))
    logsumexp = np.empty(len(rows))
    target = np.empty(len(centers))
    for b, lo in enumerate(range(0, len(rows), LOSS_BLOCK)):
        logits = w_in[rows[lo: lo + LOSS_BLOCK]] @ w_out.T
        mine = by_row[bounds[b]: bounds[b + 1]]
        target[mine] = logits[inv[mine] - lo, contexts[mine]]
        peak = logits.max(axis=1)
        np.subtract(logits, peak[:, None], out=logits)
        np.exp(logits, out=logits)
        logsumexp[lo: lo + LOSS_BLOCK] = peak + np.log(logits.sum(axis=1))
    return float(np.mean(logsumexp[inv] - target))


def train_skipgram(pairs, vocab, cfg: SkipGramConfig) -> tuple:
    """Train input-side vectors with full-softmax SGD over shuffled mini-batches.

    `pairs` is an (n, 2) integer array of (center, context) rows of `vocab`,
    which is read only for its length and duplicate check. Each batch
    computes one softmax per distinct center (weighted by its count) and
    updates only the w_in rows of those centers; w_out gets a full update.
    A validation_split fraction of the pairs is held out purely for loss
    monitoring; it never gates training. Returns (w_in, curves): the
    (len(vocab), dim) vectors, and the per-epoch "train_loss" and
    "validation_loss" with "drift", the relative distance
    ||w_in - w_start|| / ||w_start|| from their random start. A train loss
    that is not finite at the end of an epoch raises ValidationError naming
    that epoch (counted from 1).
    """
    pairs = np.asarray(pairs)
    if not pairs.size:
        raise ValidationError("empty pair list")
    n_vocab = len(vocab)
    if len(set(vocab)) != n_vocab:
        raise ValidationError("vocab contains duplicates")
    if pairs.shape[1:] != (2,) or pairs.dtype.kind not in "iu":
        raise ValidationError(f"pairs must be (n, 2) integers, got {pairs.dtype} {pairs.shape}")
    if pairs.min() < 0 or pairs.max() >= n_vocab:
        raise ValidationError(f"pair rows {pairs.min()}..{pairs.max()} outside [0, {n_vocab})")
    centers, contexts = pairs.T

    rng = np.random.default_rng(cfg.seed)
    w_in = (rng.random((n_vocab, cfg.dim)) - 0.5) / cfg.dim
    w_out = (rng.random((n_vocab, cfg.dim)) - 0.5) / cfg.dim
    w_start = w_in.copy()

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
            # scaled in place: no V x d temporary per batch
            np.multiply(grad_rows, cfg.learning_rate, out=grad_rows)
            w_in[rows] -= grad_rows
            np.multiply(grad_out, cfg.learning_rate, out=grad_out)
            w_out -= grad_out
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

    curves = {
        "train_loss": tuple(train_losses),
        "validation_loss": tuple(val_losses),
        "drift": float(np.linalg.norm(w_in - w_start) / np.linalg.norm(w_start)),
    }
    return w_in, curves


def node2vec_embed(
    g: ColexGraph, walk_cfg: WalkConfig, sg_cfg: SkipGramConfig
) -> EmbeddingSet:
    """Full Node2Vec pipeline: sample walks, extract pairs, train skip-gram.

    The vocabulary is the nodes with a non-empty adjacency row, in `g.order`.
    """
    if walk_cfg.walk_length < 2:
        raise ValidationError(
            f"walk_length must be >= 2 to yield skip-gram pairs, got {walk_cfg.walk_length}"
        )
    if g.n_edges == 0:
        raise NoEdgesError("no edges to embed")
    covered = np.diff(g.adjacency.indptr) > 0
    # graph row -> vocabulary row; mapping the walks, not the pairs, makes one pair array
    vocab_row = np.cumsum(covered) - 1
    pairs = extract_pairs(vocab_row[sample_walks(g, walk_cfg)], sg_cfg.window)
    w_in, curves = train_skipgram(pairs, tuple(compress(g.order, covered)), sg_cfg)
    provenance = {
        "method": "node2vec",
        "seed": (walk_cfg.seed, sg_cfg.seed),
        "config_digest": config_digest({"walks": vars(walk_cfg), "skipgram": vars(sg_cfg)}),
        **curves,
    }
    return graph_embedding(g, covered, w_in, provenance)
