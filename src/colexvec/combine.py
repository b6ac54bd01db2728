"""Fuse embedding sets across colexification types; map external word vectors.

Fusion concatenates the per-type vectors (zero blocks for concepts a set
does not cover, so the concept universe is the union of coverages) and
reduces back to the target dimension with PCA.
"""

from __future__ import annotations

import logging

import numpy as np

from .embeddings import EmbeddingSet, load_embedding
from .errors import ValidationError
from .graph import DenseMatrix
from .numerics import pca_reduce
from .runtime import config_digest
from .tsv import number, read_tsv

logger = logging.getLogger(__name__)

CONCEPT_MAP_HEADER = "CONCEPT\tWORD\tFREQUENCY"


def stack_union(sets) -> DenseMatrix:
    """Concatenated matrix over the union of coverages, zero blocks for gaps."""
    sets = list(sets)
    universe = sorted(set().union(*(s.coverage() for s in sets)))
    if not universe:
        raise ValidationError("no concepts covered by any input set")
    stacked = np.zeros((len(universe), sum(s.dim for s in sets)))
    offset = 0
    for s in sets:
        for i, concept in enumerate(universe):
            vec = s.vectors.get(concept)
            if vec is not None:
                stacked[i, offset: offset + s.dim] = vec
        offset += s.dim
    return DenseMatrix(values=stacked, row_labels=tuple(universe))


def combine(sets, d: int) -> EmbeddingSet:
    """Concatenate the sets over the union of their coverages and PCA back to d."""
    sets = list(sets)
    if len(sets) < 2:
        raise ValidationError("combine needs at least 2 embedding sets")
    if d != sets[0].dim:
        raise ValidationError(
            f"target dim {d} must equal the first set's dim {sets[0].dim}"
        )
    stacked = stack_union(sets)
    universe = list(stacked.row_labels)
    reduced = pca_reduce(stacked, d)

    colex_types = []
    for s in sets:
        colex_types.extend(s.provenance.get("colex_types", ()))
    provenance = {
        "method": "combine",
        "colex_types": tuple(colex_types),
        "inputs": tuple(s.provenance.get("method", "unknown") for s in sets),
        "config_digest": config_digest({"dim": d, "inputs": [dict(s.provenance) for s in sets]}),
    }
    shared = set.intersection(*(set(s.coverage()) for s in sets))
    if not shared:
        provenance["warning"] = "input sets share no covered concept"
        logger.warning("combine: input sets share no covered concept")
    if reduced.meta.get("rank_deficient"):
        provenance["rank_deficient"] = True

    vectors = {concept: reduced.values[i] for i, concept in enumerate(universe)}
    return EmbeddingSet(dim=d, vectors=vectors, provenance=provenance)


def _concept_word(concept, word, frequency) -> tuple:
    if not concept or not word:
        raise ValidationError("empty concept or word")
    freq = number(frequency, "frequency")
    if freq < 0:
        raise ValidationError(f"negative frequency {frequency}")
    return concept, word, freq


def load_concept_map(path) -> list:
    """Read CONCEPT/WORD/FREQUENCY rows mapping concepts to weighted words."""
    return read_tsv(path, (CONCEPT_MAP_HEADER,), _concept_word)


def aggregate_concept_vectors(words: EmbeddingSet, concept_map) -> tuple:
    """Frequency-weighted mean of each concept's word vectors.

    Words absent from the vector set are dropped and the remaining weights
    renormalized. Returns (vectors dict, excluded concept list); a concept
    with no resolvable word (or only zero-weight ones) is excluded.
    """
    grouped = {}
    for concept, word, freq in concept_map:
        grouped.setdefault(concept, []).append((word, freq))

    vectors = {}
    excluded = []
    for concept in sorted(grouped):
        found = [(w, f) for w, f in grouped[concept] if w in words.vectors]
        total = sum(f for _, f in found)
        if not found or total == 0:
            excluded.append(concept)
            continue
        acc = np.zeros(words.dim)
        for word, freq in found:
            acc += (freq / total) * words.vectors[word]
        vectors[concept] = acc
    return vectors, excluded


def map_external_vectors(vector_file, concept_map_file, d: int) -> EmbeddingSet:
    """Aggregate pretrained word vectors onto concepts and reduce to d via PCA."""
    words = load_embedding(vector_file)
    concept_map = load_concept_map(concept_map_file)
    vectors, excluded = aggregate_concept_vectors(words, concept_map)
    if not vectors:
        raise ValidationError(
            f"{concept_map_file}: no concept resolves to any word in {vector_file}"
        )
    concepts = sorted(vectors)
    stacked = np.vstack([vectors[c] for c in concepts])
    reduced = pca_reduce(DenseMatrix(values=stacked, row_labels=tuple(concepts)), d)
    provenance = {
        "method": "external",
        "vector_file": str(vector_file),
        "concept_map": str(concept_map_file),
        "excluded": tuple(excluded),
        "config_digest": config_digest(
            {"dim": d, "vector_file": str(vector_file), "concept_map": str(concept_map_file)}
        ),
    }
    out = {concept: reduced.values[i] for i, concept in enumerate(concepts)}
    return EmbeddingSet(dim=d, vectors=out, provenance=provenance)
