"""Similarity scores computed directly from graph topology.

Four metrics: shortest-path distance on inverted weights, cosine between
adjacency rows, pairwise PPMI, and truncated random-walk profile
similarity. Each provider factory precomputes the full n x n score table
once, so every query, one pair or the whole matrix, is an array lookup.
Embedding sets get a provider of the same shape.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np
import scipy.sparse as sp

from .embeddings import EmbeddingSet
from .errors import InsufficientDataError, ValidationError
from .graph import ColexGraph
from .numerics import ZeroVectorWarning
from .runtime import one_blas_thread

PROVIDER_SOURCES = frozenset(
    {"shortest_path", "cosine_adjacency", "ppmi", "random_walk", "embedding"}
)
# pairs an embedding provider scores per gathered block of rows
SCORE_CHUNK = 4096
# the random-walk profile sums WALK_DECAY^k P^k over k = 1..WALK_STEPS
WALK_DECAY = 0.5
WALK_STEPS = 5


@dataclass(frozen=True)
class SimilarityProvider:
    """Vectorised scores over concept pairs plus their orientation.

    `index` maps every concept the provider can score to its row.
    `score(ia, ib)` takes two broadcastable arrays of such rows and returns
    the array of scores of the paired concepts.
    """

    source: str
    score: Callable
    index: Mapping

    def __post_init__(self):
        if self.source not in PROVIDER_SOURCES:
            raise ValidationError(f"unknown provider source {self.source!r}")

    @property
    def higher_is_more_similar(self) -> bool:
        """False only for shortest-path distances."""
        return self.source != "shortest_path"

    @property
    def covered(self) -> frozenset:
        """The concepts the provider can score."""
        return frozenset(self.index)

    def rows(self, concepts) -> np.ndarray:
        """Row indices of `concepts`; an unknown concept raises InsufficientDataError naming it."""
        try:
            return np.array([self.index[c] for c in concepts], dtype=np.intp)
        except KeyError as exc:
            raise InsufficientDataError(
                f"concept {exc.args[0]!r} not covered by the {self.source} provider"
            ) from None

    def score_pairs(self, a, b) -> np.ndarray:
        """Scores of the pairs (a[k], b[k]) of two equal-length concept sequences."""
        return self.score(self.rows(a), self.rows(b))


def _table_provider(source: str, order: list, table) -> SimilarityProvider:
    """The provider that looks scores up in `table`, kept as it was built.

    `table` is a dense n x n array, or a sparse matrix whose unstored cells
    score +0.0, which is made dense once. The kept array is read-only,
    because the CLI's one-slot provider memo lets later steps reuse it.
    """
    if sp.issparse(table):
        table = table.toarray()
    table.flags.writeable = False
    return SimilarityProvider(
        source=source,
        score=lambda ia, ib: table[ia, ib],
        index={node: i for i, node in enumerate(order)},
    )


def _row_cosines(rows: np.ndarray) -> np.ndarray:
    """Cosine of every pair of rows; a zero row scores 0 against everything.

    Each cell is gram / (|u||v|), the Gram matrix divided in place, so no
    third n x n array is made. It sees float rows (random-walk profiles),
    whose Gram entries the BLAS may sum in any order: an order that
    depends on its thread count unless the caller pins it to one thread.
    """
    norms = np.linalg.norm(rows, axis=1)
    # gram before the n x n denom: a provider keeps gram, and a freed denom
    # beneath it raised later steps' peak memory by 8 MB at 1,246 nodes
    gram = rows @ rows.T
    denom = np.outer(norms, norms)
    np.divide(gram, denom, out=gram, where=denom > 0)
    gram[denom == 0] = 0.0
    return gram


def _ppmi(adj: sp.csr_array) -> sp.coo_array:
    """PPMI of every stored cell of `adj`; an unstored cell's PPMI is 0.

    A cell is max(log((w / total) / ((r_i / total) * (c_j / total))), 0)
    with r the row sums and c the column sums, 0 where the log is not
    finite. These are the rounding steps of the dense n x n formula, taken
    on the stored cells only; that formula gives 0 wherever w = 0.
    """
    coo = adj.tocoo()
    total = adj.sum()
    rows, cols = coo.coords
    with np.errstate(divide="ignore", invalid="ignore"):  # total is 0 without edges
        p_row, p_col = adj.sum(axis=1) / total, adj.sum(axis=0) / total
        pmi = np.log((coo.data / total) / (p_row[rows] * p_col[cols]))
    pmi[~np.isfinite(pmi)] = 0.0
    return sp.coo_array((np.maximum(pmi, 0.0), coo.coords), shape=adj.shape)


def _walk_profiles(adj, alpha: float, max_steps: int) -> np.ndarray:
    """sum_{k=1..K} alpha^k P^k with P the row-normalized adjacency `adj`.

    `adj`, dense or sparse, is left as it is; each stored cell of P is
    w / rowsum, and an isolated node's row stays all zero. P stays sparse:
    the sum is built transposed, (P^k)^T = P^T (P^(k-1))^T, one sparse
    times C-contiguous dense product per step, and returned as the
    transposed view. Each cell of such a product sums the stored cells of
    a row of P^T in index order, one multiply then one add each, on one
    thread, so the profiles have the same bits at any BLAS thread count.
    """
    a = sp.csr_array(adj)
    rowsum = a.sum(axis=1)
    a_t = a.T.tocsr()
    p_t = sp.csr_array((a_t.data / rowsum[a_t.indices], a_t.indices, a_t.indptr),
                       shape=a.shape)
    power = p_t.toarray()
    acc = alpha * power
    for k in range(2, max_steps + 1):
        power = p_t @ power
        acc += alpha**k * power
    return acc.T


def shortest_path_provider(g: ColexGraph) -> SimilarityProvider:
    """Dijkstra distances with length 1/w on an edge of family count w;
    disconnected pairs get 2x the largest finite distance (0 when the graph
    has no edges).
    """
    # imported here: csgraph pulls in scipy.linalg, about 0.15 s that every
    # command not scoring shortest paths would otherwise pay at import
    from scipy.sparse.csgraph import dijkstra

    adj = g.adjacency
    lengths = sp.csr_array((1.0 / adj.data, adj.indices, adj.indptr), shape=adj.shape)
    dist = dijkstra(lengths, directed=True)
    finite = np.isfinite(dist)
    fill = 2.0 * dist[finite].max() if finite.any() else 0.0
    dist[~finite] = fill
    return _table_provider("shortest_path", g.order, dist)


def cosine_adjacency_provider(g: ColexGraph) -> SimilarityProvider:
    """Cosine of the concepts' adjacency-matrix rows; isolated rows score 0.

    Built from the sparse adjacency: a cell is gram / (norm_i * norm_j)
    with gram the sparse product A A^T and norm the square root of a row's
    sum of squared weights, computed for the nonzero cells only. A weight
    is a family count of at most graph.MAX_FAMILY_COUNT = 2^16, so for a
    node of fewer than 2^21 neighbours every Gram entry and squared norm
    is an exact integer in any summation order, and each cell has the bits
    of the dense per-pair dot / (|u||v|).
    """
    a = g.adjacency
    norms = np.sqrt(a.multiply(a).sum(axis=1))
    gram = (a @ a.T).tocoo()
    rows, cols = gram.coords
    cells = gram.data / (norms[rows] * norms[cols])
    table = sp.coo_array((cells, gram.coords), shape=a.shape)
    return _table_provider("cosine_adjacency", g.order, table)


def ppmi_provider(g: ColexGraph) -> SimilarityProvider:
    """Pairwise positive pointwise mutual information under adjacency mass.

    On a directed graph a pair's source marginal is its out-weight and its
    target marginal its in-weight. Only an edge's cell can be positive, so
    the table is computed on the edges alone.
    """
    return _table_provider("ppmi", g.order, _ppmi(g.adjacency))


def random_walk_provider(g: ColexGraph) -> SimilarityProvider:
    """Cosine of visit profiles over walks of up to WALK_STEPS steps, step k
    weighted by WALK_DECAY^k.

    The profiles come from single-threaded sparse products and their Gram
    matrix runs with numpy's OpenBLAS on one thread
    (`runtime.one_blas_thread`), so the table is bit-identical at any
    OpenBLAS thread count on the same numpy, scipy and BLAS build.
    """
    profiles = _walk_profiles(g.adjacency, WALK_DECAY, WALK_STEPS)
    with one_blas_thread():
        table = _row_cosines(profiles)
    return _table_provider("random_walk", g.order, table)


def embedding_provider(es: EmbeddingSet) -> SimilarityProvider:
    """Cosine between embedding vectors, bit for bit `cosine_similarity`'s.

    Each row's norm is the square root of `np.vecdot` of the row with
    itself, which has the bits of `cosine_similarity`'s per-row
    `np.linalg.norm` (`norm(axis=1)` sums in another order), and each
    pair's dot is `np.vecdot` of the two rows, which gives `np.dot`'s
    bits. A matrix product or `einsum` can move a score by an ulp and so
    break the exact ties of fused embeddings, which rank statistics see. Pairs are scored
    in chunks of at most SCORE_CHUNK, so a full matrix never gathers n^2
    rows. A pair with a zero vector scores 0 with a ZeroVectorWarning.
    """
    vectors = es.values
    norms = np.sqrt(np.vecdot(vectors, vectors))

    def score(ia, ib):
        ia, ib = np.broadcast_arrays(ia, ib)
        a, b = ia.ravel(), ib.ravel()
        out = np.empty(a.shape)
        any_zero = False
        for lo in range(0, len(a), SCORE_CHUNK):
            i, j = a[lo:lo + SCORE_CHUNK], b[lo:lo + SCORE_CHUNK]
            na, nb = norms[i], norms[j]
            nonzero = (na != 0.0) & (nb != 0.0)
            any_zero = any_zero or not nonzero.all()
            dots = np.vecdot(vectors[i], vectors[j])
            cos = np.divide(dots, na * nb, out=np.zeros_like(dots), where=nonzero)
            out[lo:lo + SCORE_CHUNK] = np.clip(cos, -1.0, 1.0)
        if any_zero:
            warnings.warn("cosine of a zero vector is defined as 0", ZeroVectorWarning)
        return out.reshape(ia.shape)

    return SimilarityProvider(source="embedding", score=score, index=es.index)


def similarity_matrix(provider: SimilarityProvider, order) -> np.ndarray:
    """Full pairwise score matrix over `order`."""
    rows = provider.rows(order)
    return provider.score(rows[:, None], rows[None, :])
