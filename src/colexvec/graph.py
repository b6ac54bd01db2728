"""Colexification network data model with edge-list I/O.

Concept identifiers are plain strings (Concepticon-style labels such as
"TREE"). Graphs are immutable once built: every transform returns a new
instance. Edge weights either count attesting language families
(``family_count``) or are their reciprocals (``inverse_distance``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import ParseError, ValidationError
from .tsv import number, read_tsv, write_json, write_lines

ConceptId = str

COLEX_TYPES = frozenset({"full", "affix", "overlap"})
WEIGHT_SEMANTICS = frozenset({"family_count", "inverse_distance"})

EDGE_HEADER = "SOURCE\tTARGET\tWEIGHT"

# relative slack when checking that family counts are whole numbers
_INT_TOL = 1e-9


def _is_integral(w: float) -> bool:
    return abs(w - round(w)) <= _INT_TOL * max(1.0, abs(w))


@dataclass(frozen=True)
class ColexGraph:
    """Weighted concept graph for one colexification type."""

    nodes: frozenset
    edges: tuple
    colex_type: str
    directed: bool
    weight_semantics: str

    def __post_init__(self):
        if self.colex_type not in COLEX_TYPES:
            raise ValidationError(f"unknown colex_type {self.colex_type!r}")
        if self.weight_semantics not in WEIGHT_SEMANTICS:
            raise ValidationError(
                f"unknown weight_semantics {self.weight_semantics!r}"
            )
        seen = set()
        for src, dst, w in self.edges:
            if not src or not dst:
                raise ValidationError("empty concept id in edge list")
            if src == dst:
                raise ValidationError(f"self-loop on {src!r}")
            if src not in self.nodes or dst not in self.nodes:
                raise ValidationError(f"edge endpoint missing from node set: {src}->{dst}")
            key = (src, dst) if self.directed else (min(src, dst), max(src, dst))
            if key in seen:
                raise ValidationError(f"duplicate edge {src}->{dst}")
            seen.add(key)
            if not (w > 0):
                raise ValidationError(f"non-positive weight on {src}->{dst}")
            if self.weight_semantics == "family_count" and not _is_integral(w):
                raise ValidationError(
                    f"family_count weight on {src}->{dst} is not an integer: {w}"
                )
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
    weight_semantics: str = "family_count",
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
        weight_semantics=weight_semantics,
    )


def format_weight(w: float) -> str:
    """Decimal serialization: integers bare, else up to 12 significant digits."""
    if _is_integral(w):
        return str(int(round(w)))
    return format(w, ".12g")


def sidecar_path(path) -> Path:
    return Path(str(path) + ".json")


def save_graph(g: ColexGraph, path) -> None:
    """Write the edge-list TSV and its metadata sidecar (<path>.json)."""
    edges = (f"{src}\t{dst}\t{format_weight(w)}" for src, dst, w in g.edges)
    write_lines(path, EDGE_HEADER, edges)
    meta = {
        "colex_type": g.colex_type,
        "directed": g.directed,
        "weight_semantics": g.weight_semantics,
    }
    isolated = sorted(g.isolated_nodes())
    if isolated:
        # keeps disconnected concepts across a save/load round trip
        meta["isolated_nodes"] = isolated
    write_json(sidecar_path(path), meta)


def _load_sidecar(sidecar: Path) -> dict:
    """Read and type-check a graph sidecar; errors name the offending field."""
    text = sidecar.read_text(encoding="utf-8")
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
    for key, allowed in (("colex_type", COLEX_TYPES), ("weight_semantics", WEIGHT_SEMANTICS)):
        if key in meta and not (isinstance(meta[key], str) and meta[key] in allowed):
            reject(key, f"must be one of {sorted(allowed)}")
    isolated = meta.get("isolated_nodes", [])
    if not isinstance(isolated, list) or not all(isinstance(n, str) for n in isolated):
        reject("isolated_nodes", "must be a list of concept ids")
    return meta


def _edge(src, dst, weight) -> tuple:
    if not src or not dst:
        raise ValidationError("empty concept id")
    if src == dst:
        raise ValidationError(f"self-loop on {src!r}")
    w = number(weight, "weight")
    if not (w > 0):
        raise ValidationError(f"non-positive weight {weight}")
    return src, dst, w


def load_graph(path) -> ColexGraph:
    """Read an edge-list TSV plus sidecar metadata into a validated graph.

    Without a sidecar the graph is taken to be an undirected full-colexification
    network with family-count weights.
    """
    path = Path(path)
    meta = {
        "colex_type": "full",
        "directed": False,
        "weight_semantics": "family_count",
    }
    sidecar = sidecar_path(path)
    if sidecar.exists():
        meta.update(_load_sidecar(sidecar))

    edges = read_tsv(path, (EDGE_HEADER,), _edge)
    try:
        return make_graph(
            edges,
            colex_type=meta["colex_type"],
            directed=meta["directed"],
            weight_semantics=meta["weight_semantics"],
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
    merged = {}
    for src, dst, w in g.edges:
        key = (min(src, dst), max(src, dst))
        prev = merged.get(key)
        merged[key] = w if prev is None else max(prev, w)
    edges = tuple((a, b, w) for (a, b), w in sorted(merged.items()))
    return ColexGraph(
        nodes=g.nodes,
        edges=edges,
        colex_type=g.colex_type,
        directed=False,
        weight_semantics=g.weight_semantics,
    )


def invert_weights(g: ColexGraph) -> ColexGraph:
    """Map every weight w to 1/w, flipping the weight semantics."""
    semantics = (
        "inverse_distance"
        if g.weight_semantics == "family_count"
        else "family_count"
    )
    edges = tuple((src, dst, 1.0 / w) for src, dst, w in g.edges)
    return ColexGraph(
        nodes=g.nodes,
        edges=edges,
        colex_type=g.colex_type,
        directed=g.directed,
        weight_semantics=semantics,
    )


def adjacency_matrix(g: ColexGraph, order: Sequence) -> DenseMatrix:
    """Dense adjacency in the given node order; undirected edges fill both sides."""
    order = list(order)
    if len(order) != len(set(order)) or set(order) != set(g.nodes):
        raise ValidationError("order must be a permutation of the graph's nodes")
    index = {node: i for i, node in enumerate(order)}
    mat = np.zeros((len(order), len(order)))
    for src, dst, w in g.edges:
        i, j = index[src], index[dst]
        mat[i, j] = w
        if not g.directed:
            mat[j, i] = w
    return DenseMatrix(values=mat, row_labels=tuple(order))
