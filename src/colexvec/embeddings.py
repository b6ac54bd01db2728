"""Concept embedding container and the shared plain-text vector format.

The file format is word2vec-style text: a `<count> <dim>` header line, then
one `<concept> <v1> ... <vdim>` line per concept with 8 significant digits,
each value as Python's `%.8g` writes it (`tsv.format_rows` formats the
whole matrix as an array). Concept ids may contain spaces; the trailing
`dim` fields of a line are the vector, everything before them is the id.
Trailing whitespace on a line (word2vec and fastText write a space before
the newline) is ignored.

The vector fields are separated by single spaces, and each must be a number
as numpy's text parser reads it: ASCII digits with an optional sign, point
and exponent, or `inf` and `nan`, which are then rejected as non-finite.
Digit-group underscores (`1_0`) and non-ASCII digits (`١٢`), which Python's
`float()` accepts, are bad vector values. `#` starts no comment, so an id
may contain one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .errors import ParseError, ValidationError
from .tsv import format_rows, open_text, write_lines


@dataclass(frozen=True, eq=False)
class EmbeddingSet:
    """One read-only float64 matrix `values` whose row i embeds `concepts[i]`.

    The constructor sorts ids and rows together. A float64 C-contiguous
    array already in sorted id order is kept without a copy and made
    read-only. `index` maps a concept to its row; `vectors` is a read-only
    concept -> row mapping.
    """

    concepts: tuple
    values: np.ndarray
    provenance: Mapping = field(default_factory=dict)
    index: Mapping = field(init=False, repr=False)

    def __post_init__(self):
        concepts, values = tuple(self.concepts), np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise ValidationError(f"values must be a 2-D array, got shape {values.shape}")
        if values.shape[1] < 1:
            raise ValidationError(f"dim must be >= 1, got {values.shape[1]}")
        if len(concepts) != len(values):
            raise ValidationError(f"{len(concepts)} concepts for {len(values)} rows")
        order = sorted(range(len(concepts)), key=concepts.__getitem__)
        if order != list(range(len(concepts))):
            concepts, values = tuple(concepts[i] for i in order), values[order]
        if not all(concepts):
            raise ValidationError("empty concept id in embedding set")
        for a, b in zip(concepts, concepts[1:]):
            if a == b:
                raise ValidationError(f"duplicate concept {a!r} in embedding set")
        bad = ~np.isfinite(values).all(axis=1)
        if bad.any():
            raise ValidationError(f"non-finite entries in vector for {concepts[bad.argmax()]!r}")
        values = np.ascontiguousarray(values)
        values.flags.writeable = False
        object.__setattr__(self, "concepts", concepts)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "index", MappingProxyType({c: i for i, c in enumerate(concepts)}))

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @functools.cached_property
    def vectors(self) -> Mapping:
        """Read-only concept -> row mapping, built on first use; the rows are
        views of `values`. Kept for tests and the benchmark's probes."""
        return MappingProxyType(dict(zip(self.concepts, self.values)))

    def matrix(self, order: Sequence = None) -> np.ndarray:
        """A copy of the rows in the given (default: sorted) concept order."""
        order = self.concepts if order is None else tuple(order)
        missing = [c for c in order if c not in self.index]
        if missing:
            raise ValidationError(f"concepts not covered: {missing[:5]}")
        return self.values[[self.index[c] for c in order]]


def save_embedding(es: EmbeddingSet, path) -> None:
    lines = (f"{c} {row}" for c, row in zip(es.concepts, format_rows(es.values, " ")))
    write_lines(path, f"{len(es.concepts)} {es.dim}", lines)


def load_embedding(path) -> EmbeddingSet:
    path = Path(path)
    concepts, lines, line_nos = [], [], []
    failure = None  # the first malformed line; bad values before it are reported first
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
        seen = set()
        for line_no, line in enumerate(fh, start=2):
            # word2vec and fastText end lines with a space, some files with \r\n
            line = line.rstrip()
            if not line:
                continue
            fields = line.rsplit(" ", dim)
            if len(fields) <= dim:
                failure = ParseError(path, line_no, f"expected id plus {dim} values")
                break
            concept = fields[0]
            if not concept:
                failure = ParseError(path, line_no, "empty concept id")
                break
            concepts.append(concept)
            lines.append(line)
            line_nos.append(line_no)
            if concept in seen:
                failure = ParseError(path, line_no, f"duplicate concept {concept!r}")
                break
            seen.add(concept)
    values = _parse_vectors(path, lines, line_nos, concepts, dim)
    if failure:
        raise failure
    if len(lines) != count:
        raise ValidationError(f"{path}: header count {count} != {len(lines)} vector lines")
    return EmbeddingSet(tuple(concepts), values, {"method": "file", "path": str(path)})


def _parse_vectors(path, lines, line_nos, concepts, dim) -> np.ndarray:
    """The last `dim` fields of every line, parsed by numpy in one call.

    The first line numpy cannot parse is a "bad vector value" and the first
    row with a non-finite value a "non-finite value" error, whichever line
    comes first.
    """

    def parse(rows):
        if not rows:
            return np.empty((0, dim))
        return np.loadtxt(rows, dtype=np.float64, delimiter=" ", usecols=range(-dim, 0),
                          ndmin=2, comments=None)

    def parses(line):
        try:
            parse([line])
        except ValueError:
            return False
        return True

    try:
        values, bad = parse(lines), len(lines)
    except ValueError:
        bad = next(k for k, line in enumerate(lines) if not parses(line))
        values = parse(lines[:bad])
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        k = int(finite.argmin())
        raise ParseError(path, line_nos[k], f"non-finite value in vector for {concepts[k]!r}")
    if bad < len(lines):
        raise ParseError(path, line_nos[bad], "bad vector value")
    return values
