"""Colexification network data model with edge-list I/O.

Concept identifiers are plain strings (Concepticon-style labels such as
"TREE"). A graph is its weighted adjacency, one read-only CSR matrix that
every consumer shares; every transform returns a new instance. An edge's
weight counts the language families that attest the colexification, so
every weight is a whole number >= 1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

import numpy as np
import scipy.sparse as sp

from .errors import ParseError, ValidationError
from .tsv import number, open_text, read_tsv, write_json, write_lines

ConceptId = str

COLEX_TYPES = frozenset({"full", "affix", "overlap"})

EDGE_HEADER = "SOURCE\tTARGET\tWEIGHT"

# relative slack when checking that family counts are whole numbers
_INT_TOL = 1e-9
# the largest family count an edge may carry: squared counts stay below 2^32,
# so sums of up to 2^21 of them are exact in float64
MAX_FAMILY_COUNT = 2**16


def _edge_checker(directed: bool) -> Callable:
    """A function that checks one edge (src, dst, w) and returns it.

    It rejects an empty id, a self-loop, a weight that is not a family
    count (a whole number >= 1 within the slack; 1e-10 is not), a count
    above MAX_FAMILY_COUNT and a pair it has seen before: the ordered pair
    if directed, else the sorted one. The weight it returns is the whole
    number, so 2.000000001 is kept as 2.0.
    """
    seen = set()

    def check(src, dst, w: float) -> tuple:
        if not src or not dst:
            raise ValidationError("empty concept id in edge list")
        if src == dst:
            raise ValidationError(f"self-loop on {src!r}")
        if not math.isfinite(w):
            raise ValidationError(f"non-finite weight on {src}->{dst}: {w}")
        count = round(w)
        if not (count >= 1 and abs(w - count) <= _INT_TOL * max(1.0, abs(w))):
            raise ValidationError(
                f"family_count weight on {src}->{dst} is not a whole number >= 1: {w}"
            )
        if count > MAX_FAMILY_COUNT:
            raise ValidationError(
                f"family_count weight on {src}->{dst} exceeds {MAX_FAMILY_COUNT}: {w}"
            )
        key = (src, dst) if directed else (min(src, dst), max(src, dst))
        if key in seen:
            raise ValidationError(f"duplicate edge {src}->{dst}")
        seen.add(key)
        return src, dst, float(count)

    return check


@dataclass(frozen=True, eq=False)
class ColexGraph:
    """Weighted concept graph for one colexification type.

    `adjacency` is the graph: a CSR matrix over the sorted node ids `order`
    whose arrays are read-only. An undirected edge fills both (i, j) and
    (j, i), a directed one only (i, j). Column indices are sorted within
    each row, and an isolated node has an empty row and column. Graphs
    compare equal when their order, type, direction and edges match.
    `make_graph` and `load_graph` check every edge before building one.
    """

    order: tuple
    adjacency: sp.csr_array
    colex_type: str
    directed: bool

    def __post_init__(self):
        if self.colex_type not in COLEX_TYPES:
            raise ValidationError(f"unknown colex_type {self.colex_type!r}")
        for array in (self.adjacency.data, self.adjacency.indices, self.adjacency.indptr):
            array.flags.writeable = False

    def _key(self) -> tuple:
        return (self.order, self.colex_type, self.directed, self.edges)

    def __eq__(self, other):
        return isinstance(other, ColexGraph) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def nodes(self) -> frozenset:
        return frozenset(self.order)

    @property
    def edges(self) -> tuple:
        """(src, dst, w) in row-major order; an undirected edge once, as (min, max)."""
        adj = self.adjacency
        rows = np.repeat(np.arange(self.n_nodes), np.diff(adj.indptr))
        keep = self.directed | (rows < adj.indices)
        names = self.order
        return tuple((names[i], names[j], w) for i, j, w in zip(
            rows[keep].tolist(), adj.indices[keep].tolist(), adj.data[keep].tolist()))

    @property
    def n_nodes(self) -> int:
        return len(self.order)

    @property
    def n_edges(self) -> int:
        return self.adjacency.nnz if self.directed else self.adjacency.nnz // 2

    def isolated_nodes(self) -> frozenset:
        touched = np.diff(self.adjacency.indptr) > 0
        touched[self.adjacency.indices] = True  # a directed edge's target
        return frozenset(node for node, t in zip(self.order, touched.tolist()) if not t)


def make_graph(
    edges: Iterable,
    colex_type: str,
    directed: bool,
    extra_nodes: Iterable = (),
) -> ColexGraph:
    """Build a validated graph; node set = edge endpoints plus extra_nodes."""
    check = _edge_checker(directed)
    edges = [check(src, dst, float(w)) for src, dst, w in edges]
    return _from_checked_edges(edges, colex_type, directed, extra_nodes)


def _from_checked_edges(
    edges: list, colex_type: str, directed: bool, extra_nodes: Iterable
) -> ColexGraph:
    """The graph of already checked edges plus extra_nodes."""
    nodes = set(extra_nodes)
    if not all(nodes):
        raise ValidationError("empty concept id in node set")
    src, dst, weights = zip(*edges) if edges else ((), (), ())
    order = tuple(sorted(nodes.union(src, dst)))
    index = {node: i for i, node in enumerate(order)}
    rows = np.fromiter(map(index.__getitem__, src), dtype=np.intp, count=len(src))
    cols = np.fromiter(map(index.__getitem__, dst), dtype=np.intp, count=len(dst))
    # the COO to CSR conversion and the sum of CSR arrays sort every row's indices
    adj = sp.csr_array((np.array(weights, dtype=float), (rows, cols)), shape=(len(order),) * 2)
    return ColexGraph(order, adj if directed else adj + adj.T, colex_type, directed)


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

    check = _edge_checker(meta["directed"])
    # checked row by row, so a bad or duplicate edge names its line
    edges = read_tsv(path, (EDGE_HEADER,),
                     lambda src, dst, weight: check(src, dst, number(weight, "weight")))
    try:
        return _from_checked_edges(
            edges, meta["colex_type"], meta["directed"], meta.get("isolated_nodes", ())
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
    adj = g.adjacency
    return ColexGraph(g.order, adj.maximum(adj.T), g.colex_type, directed=False)

