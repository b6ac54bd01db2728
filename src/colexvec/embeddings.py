"""Concept embedding container and the shared plain-text vector format.

The file format is word2vec-style text: a `<count> <dim>` header line, then
one `<concept> <v1> ... <vdim>` line per concept with 8 significant digits.
Concept ids may contain spaces; the trailing `dim` fields of a line are the
vector, everything before them is the id. Trailing whitespace on a line
(word2vec and fastText write a space before the newline) is ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import ParseError, ValidationError
from .graph import DenseMatrix
from .tsv import format_floats, open_text, write_lines


@dataclass(frozen=True, eq=False)
class EmbeddingSet:
    """Mapping concept id -> fixed-dimension vector, plus provenance."""

    dim: int
    vectors: Mapping
    provenance: Mapping = field(default_factory=dict)

    def __post_init__(self):
        if self.dim < 1:
            raise ValidationError(f"dim must be >= 1, got {self.dim}")
        vecs = {}
        for concept, vec in self.vectors.items():
            if not concept:
                raise ValidationError("empty concept id in embedding set")
            arr = np.asarray(vec, dtype=float)
            if arr.shape != (self.dim,):
                raise ValidationError(
                    f"vector for {concept!r} has shape {arr.shape}, expected ({self.dim},)"
                )
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"non-finite entries in vector for {concept!r}")
            vecs[concept] = arr
        object.__setattr__(self, "vectors", vecs)

    def coverage(self) -> frozenset:
        return frozenset(self.vectors)

    def sorted_concepts(self) -> list:
        return sorted(self.vectors)

    def matrix(self, order: Sequence = None) -> DenseMatrix:
        """Stack vectors in the given (default: sorted) concept order."""
        if order is None:
            order = self.sorted_concepts()
        else:
            order = list(order)
            missing = [c for c in order if c not in self.vectors]
            if missing:
                raise ValidationError(f"concepts not covered: {missing[:5]}")
        values = np.vstack([self.vectors[c] for c in order]) if order else np.zeros((0, self.dim))
        return DenseMatrix(values=values, row_labels=tuple(order))


def save_embedding(es: EmbeddingSet, path) -> None:
    concepts = es.sorted_concepts()
    lines = (f"{c} " + format_floats(es.vectors[c], " ") for c in concepts)
    write_lines(path, f"{len(concepts)} {es.dim}", lines)


def load_embedding(path) -> EmbeddingSet:
    path = Path(path)
    with open_text(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ParseError(path, 1, "expected '<count> <dim>' header")
        try:
            count, dim = int(header[0]), int(header[1])
        except ValueError:
            raise ParseError(path, 1, "expected integer count and dim") from None
        if dim < 1:
            raise ParseError(path, 1, f"dim must be >= 1, got {dim}")
        vectors = {}
        for line_no, line in enumerate(fh, start=2):
            # word2vec and fastText end lines with a space, some files with \r\n
            line = line.rstrip()
            if not line:
                continue
            fields = line.split(" ")
            if len(fields) < dim + 1:
                raise ParseError(path, line_no, f"expected id plus {dim} values")
            concept = " ".join(fields[: len(fields) - dim])
            if not concept:
                raise ParseError(path, line_no, "empty concept id")
            try:
                vec = [float(v) for v in fields[len(fields) - dim:]]
            except ValueError:
                raise ParseError(path, line_no, "bad vector value") from None
            if not all(map(math.isfinite, vec)):
                raise ParseError(path, line_no, f"non-finite value in vector for {concept!r}")
            if concept in vectors:
                raise ParseError(path, line_no, f"duplicate concept {concept!r}")
            vectors[concept] = vec
    if len(vectors) != count:
        raise ValidationError(
            f"{path}: header count {count} != {len(vectors)} vector lines"
        )
    return EmbeddingSet(dim=dim, vectors=vectors, provenance={"method": "file", "path": str(path)})
