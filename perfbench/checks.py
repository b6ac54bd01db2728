"""Output checks behind the failed-step count.

They read the files a step wrote with the benchmark's own parsers and
recompute what they can with dense numpy oracles, never through the colexvec
code path under test. The one exception is `classify_pair`, the colexifier's
pair rule, which serves as the oracle for the network inference around it.
Each check raises CheckFailed with a message naming the file.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from pathlib import Path

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import dijkstra

from colexvec.wordlist import ColexParams, classify_pair

# concepts per language whose full row of pairs is re-classified per network
COLEX_SAMPLE = 16
# rows of each baseline matrix recomputed by the oracle
MATRIX_ROWS = 24
# the CLI defaults the benchmark runs the random-walk baseline with
RANDOM_WALK_ALPHA = 0.5
RANDOM_WALK_STEPS = 5


class CheckFailed(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# --- parsers --------------------------------------------------------------


def read_wordlist(path) -> list:
    """(language, family, concept, form tuple) rows, duplicates kept out."""
    rows, seen = [], set()
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    for line in lines[1:]:
        language, family, concept, form = line.split("\t")
        key = (language, concept, tuple(form.split()))
        if key not in seen:
            seen.add(key)
            rows.append((language, family, concept, key[2]))
    return rows


def read_edges(path) -> tuple:
    """({(src, dst): weight}, nodes, directed) of an edge-list TSV plus sidecar."""
    meta = json.loads(Path(str(path) + ".json").read_text(encoding="utf-8"))
    edges = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines()[1:]:
        src, dst, w = line.split("\t")
        edges[(src, dst)] = float(w)
    nodes = {c for pair in edges for c in pair} | set(meta.get("isolated_nodes", ()))
    return edges, nodes, bool(meta["directed"])


def read_embedding(path) -> tuple:
    """(dim, {concept: vector}) of a word2vec-style text file."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    count, dim = (int(x) for x in lines[0].split())
    vectors = {}
    for line in lines[1:]:
        fields = line.split(" ")
        vectors[" ".join(fields[:-dim])] = np.array(fields[-dim:], dtype=float)
    require(len(vectors) == count, f"{path}: header says {count} vectors, found {len(vectors)}")
    return dim, vectors


def covered_nodes(graph_path) -> set:
    edges, _, _ = read_edges(graph_path)
    return {c for pair in edges for c in pair}


def dense_adjacency(graph_path) -> tuple:
    """Sorted node order and the symmetric adjacency (antiparallel edges max-merged)."""
    edges, nodes, _ = read_edges(graph_path)
    order = sorted(nodes)
    index = {c: i for i, c in enumerate(order)}
    a = np.zeros((len(order), len(order)))
    for (src, dst), w in edges.items():
        i, j = index[src], index[dst]
        a[i, j] = a[j, i] = max(a[i, j], w)
    return order, a


# --- checks ---------------------------------------------------------------


def check_colexify(wordlist_path, graph_path, kind: str, seed: int) -> None:
    """Every edge's weight equals its attesting families, and sampled rows miss no edge."""
    params = ColexParams()
    rows = read_wordlist(wordlist_path)
    edges, nodes, directed = read_edges(graph_path)
    require(directed == (kind == "affix"), f"{graph_path}: directed flag wrong for {kind}")
    require(nodes == {r[2] for r in rows}, f"{graph_path}: node set differs from wordlist concepts")

    by_language = defaultdict(list)
    for row in rows:
        by_language[row[0]].append(row)

    def edge_key(ea, eb):
        match = classify_pair(ea[3], eb[3], params)
        if match.kind != kind:
            return None
        if kind == "affix":
            derived_a = match.direction == "a_derived_from_b"
            return (ea[2], eb[2]) if derived_a else (eb[2], ea[2])
        return (min(ea[2], eb[2]), max(ea[2], eb[2]))

    attested = defaultdict(set)
    forms = defaultdict(lambda: defaultdict(list))
    for language, entries in by_language.items():
        for entry in entries:
            forms[language][entry[2]].append(entry)
    for (src, dst) in edges:
        for language, concepts in forms.items():
            for ea in concepts.get(src, ()):
                for eb in concepts.get(dst, ()):
                    if edge_key(ea, eb) == (src, dst):
                        attested[(src, dst)].add(ea[1])
    for key, w in edges.items():
        require(len(attested[key]) == w,
                f"{graph_path}: edge {key} has weight {w}, {len(attested[key])} families attest it")

    rng = np.random.default_rng(seed)
    for language, entries in sorted(by_language.items()):
        for i in rng.choice(len(entries), min(COLEX_SAMPLE, len(entries)), replace=False):
            ea = entries[int(i)]
            for eb in entries:
                if eb[2] != ea[2]:
                    key = edge_key(ea, eb)
                    require(key is None or key in edges,
                            f"{graph_path}: {language} attests {kind} {key}, edge missing")


def check_embedding(path, dim: int, coverage: set, unit_norm: bool) -> None:
    got_dim, vectors = read_embedding(path)
    require(got_dim == dim, f"{path}: dim {got_dim}, expected {dim}")
    require(set(vectors) == coverage,
            f"{path}: covers {len(vectors)} concepts, expected {len(coverage)}")
    matrix = np.vstack(list(vectors.values()))
    require(bool(np.all(np.isfinite(matrix))), f"{path}: non-finite entries")
    if unit_norm:
        norms = np.linalg.norm(matrix, axis=1)
        require(bool(np.allclose(norms, 1.0, rtol=0, atol=1e-6)), f"{path}: rows not unit-norm")


def _oracle_rows(method: str, a: np.ndarray, rows: np.ndarray) -> np.ndarray:
    def row_cosine(profiles):
        norms = np.linalg.norm(profiles, axis=1)
        dots = profiles[rows] @ profiles.T
        scale = np.outer(norms[rows], norms)
        return np.divide(dots, scale, out=np.zeros_like(dots), where=scale > 0)

    if method == "cosine":
        return row_cosine(a)
    if method == "random-walk":
        rowsum = a.sum(axis=1, keepdims=True)
        p = np.divide(a, rowsum, out=np.zeros_like(a), where=rowsum > 0)
        power, acc = np.eye(len(a)), np.zeros_like(a)
        for k in range(1, RANDOM_WALK_STEPS + 1):
            power = power @ p
            acc += RANDOM_WALK_ALPHA ** k * power
        return row_cosine(acc)
    if method == "ppmi":
        total = a.sum()
        p_node = a.sum(axis=1) / total
        with np.errstate(divide="ignore", invalid="ignore"):
            pmi = np.log((a[rows] / total) / np.outer(p_node[rows], p_node))
        pmi[~np.isfinite(pmi)] = 0.0
        return np.maximum(pmi, 0.0)
    if method == "shortest-path":
        inverse = np.divide(1.0, a, out=np.zeros_like(a), where=a > 0)
        dist = dijkstra(csr_array(inverse), directed=False)
        fill = 2.0 * dist[np.isfinite(dist)].max()
        dist[~np.isfinite(dist)] = fill
        return dist[rows]
    raise ValueError(method)


def check_matrix(matrix_path, graph_path, method: str, seed: int) -> None:
    """Sampled rows of a full-matrix dump equal a dense numpy recomputation."""
    order, a = dense_adjacency(graph_path)
    with Path(matrix_path).open(encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        require(header[1:] == order, f"{matrix_path}: column order differs from sorted nodes")
        lines = fh.read().splitlines()
    require(len(lines) == len(order), f"{matrix_path}: {len(lines)} rows for {len(order)} nodes")
    rows = np.sort(np.random.default_rng(seed).choice(len(order), MATRIX_ROWS, replace=False))
    got = []
    for r in rows:
        cells = lines[r].split("\t")
        require(cells[0] == order[r], f"{matrix_path}: row {r} is {cells[0]}, expected {order[r]}")
        got.append(np.array(cells[1:], dtype=float))
    expected = _oracle_rows(method, a, rows)
    bad = ~np.isclose(np.vstack(got), expected, rtol=1e-6, atol=1e-9)
    require(not bad.any(), f"{matrix_path}: {int(bad.sum())} sampled entries differ from the oracle")


def check_report(path, task: str, runs: int, seed) -> float:
    """Report fields in range; returns the metric."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    report = doc["report"]
    metric = report["metric"]
    require(report["task"] == task, f"{path}: task {report['task']}, expected {task}")
    require(isinstance(metric, float) and math.isfinite(metric), f"{path}: metric {metric!r}")
    low = -1.0 if task == "lsim" else 0.0
    require(low <= metric <= 1.0, f"{path}: metric {metric} out of range")
    require(0.0 < report["coverage"] <= 1.0, f"{path}: coverage {report['coverage']}")
    require(report["runs"] == runs and report["seed"] == seed, f"{path}: runs/seed differ")
    if runs > 1:
        require(0.0 <= report["spread"] <= 0.5, f"{path}: spread {report['spread']}")
    require(len(doc["config_digest"]) == 64, f"{path}: bad config digest")
    return metric


def check_viz(prefix, concepts_path, embedding_path) -> None:
    _, vectors = read_embedding(embedding_path)
    wanted = Path(concepts_path).read_text(encoding="utf-8").split()
    expected = [c for c in wanted if c in vectors]
    lines = Path(str(prefix) + ".tsv").read_text(encoding="utf-8").splitlines()[1:]
    labels = [line.split("\t")[0] for line in lines]
    coords = np.array([line.split("\t")[1:] for line in lines], dtype=float)
    require(labels == expected, f"{prefix}.tsv: plotted {len(labels)} of {len(expected)} concepts")
    require(bool(np.all(np.isfinite(coords))), f"{prefix}.tsv: non-finite coordinates")
    svg = Path(str(prefix) + ".svg").read_text(encoding="utf-8")
    require(svg.count("<circle") == len(expected), f"{prefix}.svg: point count differs")
