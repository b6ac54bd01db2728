"""Fuse embedding sets across colexification types; map external word vectors.

Fusion concatenates the per-type vectors (zero blocks for concepts a set
does not cover, so the concept universe is the union of coverages) and
reduces back to the target dimension with PCA.
"""

from __future__ import annotations

import logging

import numpy as np

from .embeddings import EmbeddingSet, load_embedding
from .errors import InsufficientDataError, ValidationError
from .numerics import pca_reduce
from .runtime import config_digest
from .tsv import number, read_tsv

logger = logging.getLogger(__name__)

CONCEPT_MAP_HEADER = "CONCEPT\tWORD\tFREQUENCY"


def stack_union(sets) -> tuple:
    """(universe, matrix): the sorted union of coverages and the concatenated
    vectors in its rows, zero blocks for gaps."""
    sets = list(sets)
    universe = sorted(set().union(*(s.concepts for s in sets)))
    row = {concept: i for i, concept in enumerate(universe)}
    stacked = np.zeros((len(universe), sum(s.dim for s in sets)))
    offset = 0
    for s in sets:
        stacked[[row[c] for c in s.concepts], offset: offset + s.dim] = s.values
        offset += s.dim
    return universe, stacked


def combine(sets, d: int) -> EmbeddingSet:
    """Concatenate the sets over the union of their coverages and PCA back to d."""
    sets = list(sets)
    if len(sets) < 2:
        raise ValidationError("combine needs at least 2 embedding sets")
    if d != sets[0].dim:
        raise ValidationError(
            f"target dim {d} must equal the first set's dim {sets[0].dim}"
        )
    universe, stacked = stack_union(sets)
    if len(universe) < d:
        raise InsufficientDataError(f"dim {d} exceeds the {len(universe)} covered concepts")
    reduced, rank = pca_reduce(stacked, d)

    colex_types = []
    for s in sets:
        colex_types.extend(s.provenance.get("colex_types", ()))
    provenance = {
        "method": "combine",
        "colex_types": tuple(colex_types),
        "inputs": tuple(s.provenance.get("method", "unknown") for s in sets),
        "config_digest": config_digest({"dim": d, "inputs": [dict(s.provenance) for s in sets]}),
    }
    shared = set.intersection(*(set(s.concepts) for s in sets))
    if not shared:
        provenance["warning"] = "input sets share no covered concept"
        logger.warning("combine: input sets share no covered concept")
    if rank < d:
        provenance["rank_deficient"] = True

    return EmbeddingSet(universe, reduced, provenance)


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
    renormalized. Returns (set, excluded): an EmbeddingSet over the
    resolved concepts and the sorted list of the others; a concept with no
    resolvable word (or only zero-weight ones) is excluded.
    """
    found = {}  # concept -> (row, frequency) of each of its words in the set
    for concept, word, freq in concept_map:
        rows = found.setdefault(concept, [])
        if word in words.index:
            rows.append((words.index[word], freq))
    total = {concept: sum(f for _, f in rows) for concept, rows in found.items()}
    resolved = sorted(c for c in found if total[c] != 0)
    values = np.zeros((len(resolved), words.dim))
    for acc, concept in zip(values, resolved):
        for row, freq in found[concept]:
            acc += (freq / total[concept]) * words.values[row]
    return EmbeddingSet(resolved, values), sorted(c for c in found if total[c] == 0)


def map_external_vectors(vector_file, concept_map_file, d: int) -> EmbeddingSet:
    """Aggregate pretrained word vectors onto concepts and reduce to d via PCA."""
    words = load_embedding(vector_file)
    concept_map = load_concept_map(concept_map_file)
    aggregated, excluded = aggregate_concept_vectors(words, concept_map)
    if len(aggregated.concepts) < d:
        raise InsufficientDataError(f"dim {d} exceeds the {len(aggregated.concepts)} concepts "
                                    "that resolve to a word in the vector file")
    reduced, _ = pca_reduce(aggregated.values, d)
    provenance = {
        "method": "external",
        "vector_file": str(vector_file),
        "concept_map": str(concept_map_file),
        "excluded": tuple(excluded),
        "config_digest": config_digest(
            {"dim": d, "vector_file": str(vector_file), "concept_map": str(concept_map_file)}
        ),
    }
    return EmbeddingSet(aggregated.concepts, reduced, provenance)
