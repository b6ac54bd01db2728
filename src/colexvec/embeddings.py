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

A process does not parse back what it wrote. `save_embedding` keeps, under
the file's resolved path, the SHA-256 that `write_lines` took of the bytes
as it wrote them and the read-only matrix those bytes parse to, which
`tsv.decimal_values` gives from the digits of the text; nothing is read
back. `load_embedding` of a file with that hash builds the set from the
kept matrix, bit for bit what a parse gives; any other file is parsed.
Each save drops the entries of files that are no longer regular files, so
after it the process keeps at most one matrix per `.emb` it wrote that
still exists.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import compress
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import ParseError, ValidationError
from .runtime import file_sha256
from .tsv import decimal_values, format_rows, open_text, write_lines


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


def graph_embedding(g, covered: np.ndarray, values, provenance: Mapping) -> EmbeddingSet:
    """A graph embedder's set: row i of `values` embeds the i-th node of `g.order`
    that the bool mask `covered` keeps, and the graph's `colex_types` and
    the `uncovered` node ids join the embedder's `provenance`."""
    uncovered = tuple(compress(g.order, ~covered))
    provenance = {**provenance, "colex_types": (g.colex_type,), "uncovered": uncovered}
    return EmbeddingSet(tuple(compress(g.order, covered)), values, provenance)


class _Written(NamedTuple):
    """A file `save_embedding` wrote: the SHA-256 of its bytes and the set
    they parse to."""

    sha256: str
    concepts: tuple
    values: np.ndarray


# The files this process wrote, by resolved path
_written = {}


def save_embedding(es: EmbeddingSet, path) -> None:
    """Write `es` to `path` and keep what the file parses to for `load_embedding`.

    Only a regular file is kept (`/dev/stdout` is written, not kept), and
    an id with a line break does not survive the text, so a set that has
    one is not kept. The path's earlier entry and those of files that are
    no longer regular files are dropped.
    """
    rows = format_rows(es.values, " ")
    lines = (f"{c} {row}" for c, row in zip(es.concepts, rows))
    sha256 = write_lines(path, f"{len(es.concepts)} {es.dim}", lines)
    key = Path(path).resolve()
    for gone in [k for k in _written if k == key or not k.is_file()]:
        del _written[gone]
    if key.is_file() and not any("\n" in c or "\r" in c for c in es.concepts):
        values = decimal_values(es.values)
        values.flags.writeable = False
        _written[key] = _Written(sha256, es.concepts, values)


def load_embedding(path, sha256: str = None) -> EmbeddingSet:
    """The embedding set in the file at `path`.

    A file this process wrote with `save_embedding` is not parsed while it
    still holds the bytes written: the set is the kept matrix, equal bit
    for bit to a parse. `sha256`, the file's digest when the caller has
    already taken it, spares hashing the file again.
    """
    path = Path(path)
    kept = _written.get(path.resolve())
    if kept is not None and (sha256 or file_sha256(path)) == kept.sha256:
        return EmbeddingSet(kept.concepts, kept.values, {"method": "file", "path": str(path)})
    return _parse_embedding(path)


def _parse_embedding(path: Path) -> EmbeddingSet:
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
