"""Similarity scores computed directly from graph topology.

Four metrics: shortest-path distance on inverted weights, cosine between
adjacency rows, pairwise PPMI, and truncated random-walk profile
similarity. Each provider factory precomputes the full n x n score table
once, so every query, one pair or the whole matrix, is an array lookup.
Embedding sets get a provider of the same shape.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np
import scipy.sparse as sp

from .embeddings import EmbeddingSet
from .errors import ValidationError
from .graph import ColexGraph, DenseMatrix
from .numerics import cosine_similarity

PROVIDER_SOURCES = frozenset(
    {"shortest_path", "cosine_adjacency", "ppmi", "random_walk", "embedding"}
)


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
        """Row indices of `concepts`; an unknown concept raises KeyError naming it."""
        try:
            return np.array([self.index[c] for c in concepts], dtype=np.intp)
        except KeyError as exc:
            raise KeyError(
                f"concept {exc.args[0]!r} not covered by the {self.source} provider"
            ) from None

    def score_pairs(self, a, b) -> np.ndarray:
        """Scores of the pairs (a[k], b[k]) of two equal-length concept sequences."""
        return self.score(self.rows(a), self.rows(b))


def _table_provider(source: str, order: list, table: np.ndarray) -> SimilarityProvider:
    # The CLI keeps its last provider for later steps, so the table gets its
    # own anonymous memory map: outside the malloc heap it pins no heap
    # memory freed around it, and dropping it unmaps its pages at once.
    # Read-only, because every later step that reuses it reads the same one.
    kept = np.ndarray(table.shape, table.dtype, buffer=mmap.mmap(-1, max(table.nbytes, 1)))
    kept[...] = table
    kept.flags.writeable = False
    table = kept
    return SimilarityProvider(
        source=source,
        score=lambda ia, ib: table[ia, ib],
        index={node: i for i, node in enumerate(order)},
    )


def _row_cosines(rows: np.ndarray) -> np.ndarray:
    """Cosine of every pair of rows; a zero row scores 0 against everything.

    The rows are not normalised first: for integer-valued rows the Gram
    entries are exact, so each cell equals the per-pair dot/(|u||v|). The
    Gram matrix is divided in place, so no third n x n array is made.
    """
    norms = np.linalg.norm(rows, axis=1)
    denom = np.outer(norms, norms)
    gram = rows @ rows.T
    np.divide(gram, denom, out=gram, where=denom > 0)
    gram[denom == 0] = 0.0
    return gram


def _ppmi_matrix(mat: np.ndarray) -> np.ndarray:
    total = mat.sum()
    if total == 0:
        return np.zeros_like(mat)
    p_joint = mat / total
    expected = np.outer(mat.sum(axis=1) / total, mat.sum(axis=0) / total)
    with np.errstate(divide="ignore", invalid="ignore"):
        pmi = np.log(p_joint / expected)
    pmi[~np.isfinite(pmi)] = 0.0
    return np.maximum(pmi, 0.0)


def _walk_profiles(mat: np.ndarray, alpha: float, max_steps: int) -> np.ndarray:
    """sum_{k=1..K} alpha^k P^k with P the row-normalized adjacency.

    `mat` is overwritten by P; an isolated node's row stays all zero.
    """
    rowsum = mat.sum(axis=1, keepdims=True)
    p = np.divide(mat, rowsum, out=mat, where=rowsum > 0)
    power = p
    acc = alpha * p
    for k in range(2, max_steps + 1):
        power = power @ p
        acc += alpha**k * power
    return acc


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
    return _table_provider("shortest_path", g.sorted_nodes(), dist)


def cosine_adjacency_provider(g: ColexGraph) -> SimilarityProvider:
    """Cosine of the concepts' adjacency-matrix rows; isolated rows score 0."""
    mat = g.adjacency.toarray()
    return _table_provider("cosine_adjacency", g.sorted_nodes(), _row_cosines(mat))


def ppmi_provider(g: ColexGraph, mode: str = "pairwise") -> SimilarityProvider:
    """Positive pointwise mutual information under adjacency mass.

    On a directed graph a pair's source marginal is its out-weight and its
    target marginal its in-weight. `mode` picks the pairwise PPMI value or
    the cosine between PPMI rows.
    """
    if mode not in ("pairwise", "cosine_rows"):
        raise ValidationError(f"unknown ppmi mode {mode!r}")
    ppmi = _ppmi_matrix(g.adjacency.toarray())
    table = _row_cosines(ppmi) if mode == "cosine_rows" else ppmi
    return _table_provider("ppmi", g.sorted_nodes(), table)


def random_walk_provider(
    g: ColexGraph, alpha: float = 0.5, max_steps: int = 5
) -> SimilarityProvider:
    """Cosine of decay-weighted visit profiles over walks of up to max_steps."""
    if not (0.0 < alpha < 1.0):
        raise ValidationError(f"alpha must be in (0, 1), got {alpha}")
    if max_steps < 1:
        raise ValidationError(f"max_steps must be >= 1, got {max_steps}")
    profiles = _walk_profiles(g.adjacency.toarray(), alpha, max_steps)
    return _table_provider("random_walk", g.sorted_nodes(), _row_cosines(profiles))


def embedding_provider(es: EmbeddingSet) -> SimilarityProvider:
    """Cosine between embedding vectors, computed pair by pair.

    Fused embeddings hold exactly tied scores; the per-pair
    `cosine_similarity` keeps those ties (a matrix product can break them
    by an ulp and so move rank statistics) and warns on zero vectors.
    """
    order = es.sorted_concepts()
    vectors = es.matrix(order).values
    pair_cosine = np.vectorize(
        lambda i, j: cosine_similarity(vectors[i], vectors[j]), otypes=[float]
    )
    return SimilarityProvider(
        source="embedding",
        score=pair_cosine,
        index={concept: i for i, concept in enumerate(order)},
    )


def similarity_matrix(provider: SimilarityProvider, order) -> DenseMatrix:
    """Full pairwise score matrix over `order`."""
    order = list(order)
    rows = provider.rows(order)
    values = provider.score(rows[:, None], rows[None, :])
    return DenseMatrix(values=values, row_labels=tuple(order))
