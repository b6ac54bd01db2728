"""Colexification network data model with edge-list I/O.

Concept identifiers are plain strings (Concepticon-style labels such as
"TREE"). Graphs are immutable once built: every transform returns a new
instance. An edge's weight counts the language families that attest the
colexification, so every weight is a whole number >= 1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import ParseError, ValidationError
from .tsv import number, open_text, read_tsv, write_json, write_lines

ConceptId = str

COLEX_TYPES = frozenset({"full", "affix", "overlap"})

EDGE_HEADER = "SOURCE\tTARGET\tWEIGHT"

# relative slack when checking that family counts are whole numbers
_INT_TOL = 1e-9


def _check_edge(src, dst, w: float) -> None:
    """Reject an empty id, a self-loop, or a weight that is not a family count.

    A count is a whole number >= 1 within the slack; 1e-10 is not.
    """
    if not src or not dst:
        raise ValidationError("empty concept id in edge list")
    if src == dst:
        raise ValidationError(f"self-loop on {src!r}")
    if not math.isfinite(w):
        raise ValidationError(f"non-finite weight on {src}->{dst}: {w}")
    if not (round(w) >= 1 and abs(w - round(w)) <= _INT_TOL * max(1.0, abs(w))):
        raise ValidationError(
            f"family_count weight on {src}->{dst} is not a whole number >= 1: {w}"
        )


def _edge_key(src, dst, directed: bool) -> tuple:
    """The pair a duplicate edge repeats: ordered if directed, else sorted."""
    return (src, dst) if directed else (min(src, dst), max(src, dst))


@dataclass(frozen=True)
class ColexGraph:
    """Weighted concept graph for one colexification type."""

    nodes: frozenset
    edges: tuple
    colex_type: str
    directed: bool

    def __post_init__(self):
        if self.colex_type not in COLEX_TYPES:
            raise ValidationError(f"unknown colex_type {self.colex_type!r}")
        seen = set()
        for src, dst, w in self.edges:
            _check_edge(src, dst, w)
            if src not in self.nodes or dst not in self.nodes:
                raise ValidationError(f"edge endpoint missing from node set: {src}->{dst}")
            key = _edge_key(src, dst, self.directed)
            if key in seen:
                raise ValidationError(f"duplicate edge {src}->{dst}")
            seen.add(key)
        for node in self.nodes:
            if not node:
                raise ValidationError("empty concept id in node set")

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def sorted_nodes(self) -> list:
        return sorted(self.nodes)

    def isolated_nodes(self) -> frozenset:
        touched = set()
        for src, dst, _ in self.edges:
            touched.add(src)
            touched.add(dst)
        return frozenset(self.nodes - touched)


@dataclass(frozen=True, eq=False)
class DenseMatrix:
    """Row-major dense matrix with optional concept row labels."""

    values: np.ndarray
    row_labels: Optional[tuple] = None
    meta: Mapping = field(default_factory=dict)

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 2:
            raise ValidationError("DenseMatrix requires a 2-D array")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("DenseMatrix entries must be finite")
        object.__setattr__(self, "values", arr)
        if self.row_labels is not None:
            labels = tuple(self.row_labels)
            if len(labels) != arr.shape[0]:
                raise ValidationError(
                    f"row_labels length {len(labels)} != rows {arr.shape[0]}"
                )
            object.__setattr__(self, "row_labels", labels)

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]


def make_graph(
    edges: Iterable,
    colex_type: str,
    directed: bool,
    extra_nodes: Iterable = (),
) -> ColexGraph:
    """Build a validated graph; node set = edge endpoints plus extra_nodes."""
    edge_tuple = tuple((src, dst, float(w)) for src, dst, w in edges)
    nodes = set(extra_nodes)
    for src, dst, _ in edge_tuple:
        nodes.add(src)
        nodes.add(dst)
    return ColexGraph(
        nodes=frozenset(nodes),
        edges=edge_tuple,
        colex_type=colex_type,
        directed=directed,
    )


def sidecar_path(path) -> Path:
    return Path(str(path) + ".json")


def save_graph(g: ColexGraph, path) -> None:
    """Write the edge-list TSV and its metadata sidecar (<path>.json)."""
    # a family count is written as a bare integer
    edges = (f"{src}\t{dst}\t{round(w)}" for src, dst, w in g.edges)
    write_lines(path, EDGE_HEADER, edges)
    meta = {
        "colex_type": g.colex_type,
        "directed": g.directed,
        "weight_semantics": "family_count",
    }
    isolated = sorted(g.isolated_nodes())
    if isolated:
        # keeps disconnected concepts across a save/load round trip
        meta["isolated_nodes"] = isolated
    write_json(sidecar_path(path), meta)


def _load_sidecar(sidecar: Path) -> dict:
    """Read and type-check a graph sidecar; errors name the offending field."""
    with open_text(sidecar) as fh:
        text = fh.read()
    try:
        meta = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(sidecar, exc.lineno, exc.msg) from None
    if not isinstance(meta, dict):
        raise ParseError(sidecar, 1, "expected a JSON object")

    def reject(key, message):
        # save_graph writes one field per line; point at the field's line
        lines = text.splitlines()
        line_no = next((i for i, line in enumerate(lines, 1) if f'"{key}"' in line), 1)
        raise ParseError(sidecar, line_no, f"field {key!r} {message}, got {meta[key]!r}")

    if "directed" in meta and not isinstance(meta["directed"], bool):
        reject("directed", "must be a JSON boolean")
    for key, allowed in (("colex_type", COLEX_TYPES), ("weight_semantics", {"family_count"})):
        if key in meta and not (isinstance(meta[key], str) and meta[key] in allowed):
            reject(key, f"must be one of {sorted(allowed)}")
    isolated = meta.get("isolated_nodes", [])
    if not isinstance(isolated, list) or not all(isinstance(n, str) for n in isolated):
        reject("isolated_nodes", "must be a list of concept ids")
    return meta


def load_graph(path) -> ColexGraph:
    """Read an edge-list TSV plus sidecar metadata into a validated graph.

    Without a sidecar the graph is taken to be an undirected full-colexification
    network with family-count weights.
    """
    path = Path(path)
    meta = {"colex_type": "full", "directed": False}
    sidecar = sidecar_path(path)
    if sidecar.exists():
        meta.update(_load_sidecar(sidecar))

    seen = set()

    def edge(src, dst, weight) -> tuple:
        # checked row by row, so a bad or duplicate edge names its line
        w = number(weight, "weight")
        _check_edge(src, dst, w)
        key = _edge_key(src, dst, meta["directed"])
        if key in seen:
            raise ValidationError(f"duplicate edge {src}->{dst}")
        seen.add(key)
        return src, dst, w

    edges = read_tsv(path, (EDGE_HEADER,), edge)
    try:
        return make_graph(
            edges,
            colex_type=meta["colex_type"],
            directed=meta["directed"],
            extra_nodes=meta.get("isolated_nodes", ()),
        )
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def to_undirected(g: ColexGraph) -> ColexGraph:
    """Merge antiparallel edges, keeping the larger weight.

    Family counts in both directions may attest the same families, so the
    max is the conservative merge; recounting from raw attestations happens
    upstream in the colexifier when those are available.
    """
    if not g.directed:
        return g
    adj = adjacency(g)
    # the upper triangle in row-major order lists each pair once, sorted by name
    merged = sp.triu(adj.maximum(adj.T), k=1, format="csr").tocoo()
    names = g.sorted_nodes()
    edges = tuple((names[i], names[j], w) for i, j, w in
                  zip(merged.row.tolist(), merged.col.tolist(), merged.data.tolist()))
    return ColexGraph(
        nodes=g.nodes,
        edges=edges,
        colex_type=g.colex_type,
        directed=False,
    )


def adjacency(g: ColexGraph) -> sp.csr_array:
    """Weighted adjacency over `g.sorted_nodes()` in CSR form.

    An undirected edge fills both (i, j) and (j, i), a directed one only
    (i, j). Column indices are sorted within each row, and an isolated
    node has an empty row.
    """
    index = {node: i for i, node in enumerate(g.sorted_nodes())}
    src, dst, weights = zip(*g.edges) if g.edges else ((), (), ())
    rows = np.fromiter(map(index.__getitem__, src), dtype=np.intp, count=len(src))
    cols = np.fromiter(map(index.__getitem__, dst), dtype=np.intp, count=len(dst))
    # the COO to CSR conversion and the sum of CSR arrays sort every row's indices
    adj = sp.csr_array((np.array(weights, dtype=float), (rows, cols)), shape=(len(index),) * 2)
    return adj if g.directed else adj + adj.T


def adjacency_matrix(g: ColexGraph, order: Sequence) -> DenseMatrix:
    """Dense `adjacency(g)` with rows and columns in the given node order."""
    order = list(order)
    if len(order) != len(set(order)) or set(order) != set(g.nodes):
        raise ValidationError("order must be a permutation of the graph's nodes")
    index = {node: i for i, node in enumerate(g.sorted_nodes())}
    perm = [index[node] for node in order]
    return DenseMatrix(values=adjacency(g).toarray()[np.ix_(perm, perm)], row_labels=tuple(order))
