import itertools
import math
import random
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import floyd_warshall
from blas_threads import at_each_thread_count

from colexvec import baselines
from colexvec.baselines import (
    SCORE_CHUNK,
    _row_cosines,
    _walk_profiles,
    cosine_adjacency_provider,
    embedding_provider,
    ppmi_provider,
    random_walk_provider,
    shortest_path_provider,
    similarity_matrix,
)
from colexvec.combine import combine
from colexvec.embeddings import EmbeddingSet
from colexvec.errors import ValidationError
from colexvec.graph import MAX_FAMILY_COUNT, make_graph, save_graph
from colexvec.numerics import ZeroVectorWarning, cosine_similarity

PATH_GRAPH = make_graph([("A", "B", 2), ("B", "C", 1)], "full", False)


def score(provider, a, b) -> float:
    return float(provider.score_pairs([a], [b])[0])


def scores_by_pair(provider, g) -> dict:
    """Every ordered pair's score, read off one similarity_matrix call."""
    order = g.order
    values = similarity_matrix(provider, order)
    return {(a, b): values[i, j] for i, a in enumerate(order) for j, b in enumerate(order)}

# ---------------------------------------------------------------------------
# oracles


def all_simple_paths_min(g, a, b):
    """Exhaustive minimum over simple paths of the summed 1/w; independent of Dijkstra."""
    adj = {}
    for src, dst, w in g.edges:
        adj.setdefault(src, []).append((dst, 1.0 / w))
        adj.setdefault(dst, []).append((src, 1.0 / w))
    best = math.inf

    def walk(node, visited, total):
        nonlocal best
        if node == b:
            best = min(best, total)
            return
        for nbr, w in adj.get(node, []):
            if nbr not in visited:
                walk(nbr, visited | {nbr}, total + w)

    walk(a, {a}, 0.0)
    return best


def random_small_graph(rng):
    n = rng.randint(2, 8)
    nodes = [f"N{i}" for i in range(n)]
    possible = list(itertools.combinations(nodes, 2))
    rng.shuffle(possible)
    edges = [(a, b, rng.randint(1, 9)) for a, b in possible[: rng.randint(1, len(possible))]]
    return make_graph(edges, "full", False, extra_nodes=nodes)


# ---------------------------------------------------------------------------
# shortest path


def test_shortest_path_hand_value():
    provider = shortest_path_provider(PATH_GRAPH)
    assert score(provider, "A", "C") == pytest.approx(1.5)  # 1/2 + 1/1
    assert score(provider, "A", "A") == 0.0


def test_shortest_path_disconnected_marker():
    g = make_graph([("A", "B", 1), ("B", "C", 1), ("D", "E", 1)], "full", False)
    dist = scores_by_pair(shortest_path_provider(g), g)
    connected = [dist[p] for p in (("A", "B"), ("A", "C"), ("D", "E"))]
    # a disconnected pair sits strictly beyond every connected one
    assert dist["A", "D"] > max(connected)
    assert dist["A", "D"] == dist["C", "E"] == dist["E", "A"]


def test_shortest_path_absent_node():
    with pytest.raises(ValidationError, match="'Z'"):
        score(shortest_path_provider(PATH_GRAPH), "A", "Z")


def test_shortest_path_matches_all_paths_oracle():
    rng = random.Random(42)
    for _ in range(30):
        g = random_small_graph(rng)
        nodes = g.order
        dist = scores_by_pair(shortest_path_provider(g), g)
        oracle = {(a, b): all_simple_paths_min(g, a, b)
                  for a, b in itertools.combinations(nodes, 2)}
        finite = [d for d in oracle.values() if not math.isinf(d)]
        fill = 2.0 * max(finite, default=0.0)
        for (a, b), want in oracle.items():
            assert dist[a, b] == pytest.approx(fill if math.isinf(want) else want)


def test_shortest_path_triangle_inequality():
    rng = random.Random(3)
    for _ in range(10):
        g = random_small_graph(rng)
        # the disconnection fill (2x the largest distance) keeps the inequality
        dist = scores_by_pair(shortest_path_provider(g), g)
        for a, b, c in itertools.permutations(g.order, 3):
            assert dist[a, c] <= dist[a, b] + dist[b, c] + 1e-9


def test_shortest_path_rank_order_scale_invariant():
    rng = random.Random(9)
    g = random_small_graph(rng)
    scaled = make_graph(
        [(s, t, w * 3) for s, t, w in g.edges], "full", False, extra_nodes=g.nodes
    )
    pairs = list(itertools.combinations(g.order, 2))
    p1 = shortest_path_provider(g)
    p2 = shortest_path_provider(scaled)
    d1 = [score(p1, a, b) for a, b in pairs]
    d2 = [score(p2, a, b) for a, b in pairs]
    assert np.array_equal(np.argsort(d1, kind="stable"), np.argsort(d2, kind="stable"))


def test_shortest_path_provider_default_fill():
    g = make_graph([("A", "B", 1), ("C", "D", 1)], "full", False)
    provider = shortest_path_provider(g)
    # max finite distance is 1.0 after inversion, so the fill is 2.0
    assert score(provider, "A", "C") == pytest.approx(2.0)
    assert score(provider, "A", "B") == pytest.approx(1.0)
    assert not provider.higher_is_more_similar


# ---------------------------------------------------------------------------
# cosine over adjacency rows


def test_cosine_adjacency_hand_values():
    provider = cosine_adjacency_provider(PATH_GRAPH)
    assert score(provider, "A", "C") == pytest.approx(1.0)
    assert score(provider, "A", "B") == pytest.approx(0.0)


def test_cosine_adjacency_isolated_zero():
    g = make_graph([("A", "B", 2)], "full", False, extra_nodes=["L"])
    assert score(cosine_adjacency_provider(g), "L", "A") == 0.0


# ---------------------------------------------------------------------------
# PPMI


def test_ppmi_hand_value():
    provider = ppmi_provider(PATH_GRAPH)
    assert score(provider, "A", "B") == pytest.approx(math.log(2))
    assert score(provider, "A", "C") == 0.0


def test_ppmi_symmetric_and_nonnegative():
    rng = random.Random(5)
    for _ in range(10):
        g = random_small_graph(rng)
        ppmi = scores_by_pair(ppmi_provider(g), g)
        for a, b in itertools.combinations(g.order, 2):
            assert ppmi[a, b] >= 0.0
            assert ppmi[a, b] == pytest.approx(ppmi[b, a])


def test_ppmi_matches_dense_oracle():
    rng = random.Random(6)
    for _ in range(10):
        g = random_small_graph(rng)
        order = g.order
        mat = g.adjacency.toarray()
        total = mat.sum()
        marginal = mat.sum(axis=1) / total
        ppmi = scores_by_pair(ppmi_provider(g), g)
        for i, a in enumerate(order):
            for j, b in enumerate(order):
                if i == j:
                    continue
                joint = mat[i, j] / total
                expected = 0.0
                if joint > 0:
                    expected = max(0.0, math.log(joint / (marginal[i] * marginal[j])))
                assert ppmi[a, b] == pytest.approx(expected, abs=1e-9)


def test_ppmi_directed_uses_column_sums_for_the_target():
    # N0 has no out-edges: with row sums on both ends N2 -> N0 scored 0
    g = make_graph([("N1", "N2", 1), ("N2", "N0", 4)], "affix", True)
    provider = ppmi_provider(g)
    # p(N2, N0) = 4/5, p_out(N2) = 4/5, p_in(N0) = 4/5
    assert score(provider, "N2", "N0") == pytest.approx(math.log(5 / 4))
    # p(N1, N2) = 1/5, p_out(N1) = 1/5, p_in(N2) = 1/5
    assert score(provider, "N1", "N2") == pytest.approx(math.log(5))
    assert score(provider, "N0", "N2") == 0.0


# ---------------------------------------------------------------------------
# random walks


def test_random_walk_hand_profile():
    mat = PATH_GRAPH.adjacency.toarray()
    rowsum = mat.sum(axis=1, keepdims=True)
    p = mat / rowsum
    profile = 0.5 * p + 0.25 * (p @ p)
    assert np.allclose(profile[0], [1 / 6, 1 / 2, 1 / 12])
    profiles = _walk_profiles(mat.copy(), 0.5, 2)
    assert np.allclose(profiles, profile)
    assert _row_cosines(profiles)[0, 2] == pytest.approx(1.0)
    # A and C share their sole neighbour B, so their profiles agree at any length
    assert score(random_walk_provider(PATH_GRAPH), "A", "C") == pytest.approx(1.0)


def test_random_walk_self_similarity():
    assert score(random_walk_provider(PATH_GRAPH), "B", "B") == pytest.approx(1.0)


def test_random_walk_single_step_equals_row_cosine():
    g = random_small_graph(random.Random(11))
    order = g.order
    mat = g.adjacency.toarray()
    rowsum = mat.sum(axis=1, keepdims=True)
    p = np.divide(mat, rowsum, out=np.zeros_like(mat), where=rowsum > 0)
    walk = _row_cosines(_walk_profiles(mat.copy(), 0.5, 1))
    for i in range(len(order)):
        for j in range(len(order)):
            ni, nj = np.linalg.norm(p[i]), np.linalg.norm(p[j])
            expected = 0.0 if ni == 0 or nj == 0 else float(p[i] @ p[j] / (ni * nj))
            assert walk[i, j] == pytest.approx(expected)


def test_random_walk_profiles_match_matrix_powers():
    rng = random.Random(13)
    for _ in range(10):
        g = random_small_graph(rng)
        order = g.order
        mat = g.adjacency.toarray()
        rowsum = mat.sum(axis=1, keepdims=True)
        p = np.divide(mat, rowsum, out=np.zeros_like(mat), where=rowsum > 0)
        expected = np.zeros_like(p)
        power = np.eye(len(order))
        for k in range(1, 6):
            power = power @ p
            # each P^k row over a non-isolated node sums to 1
            for i in range(len(order)):
                if rowsum[i] > 0:
                    assert power[i].sum() == pytest.approx(1.0)
            expected += 0.5**k * power
        assert np.all(expected >= -1e-15)
        walk = scores_by_pair(random_walk_provider(g), g)
        for i, a in enumerate(order):
            for j, b in enumerate(order):
                ni, nj = np.linalg.norm(expected[i]), np.linalg.norm(expected[j])
                want = 0.0 if ni == 0 or nj == 0 else float(expected[i] @ expected[j] / (ni * nj))
                assert walk[a, b] == pytest.approx(want, abs=1e-9)


# ---------------------------------------------------------------------------
# providers and the matrix dump


def test_all_providers_symmetric_on_undirected():
    g = random_small_graph(random.Random(21))
    providers = [
        shortest_path_provider(g),
        cosine_adjacency_provider(g),
        ppmi_provider(g),
        random_walk_provider(g),
    ]
    nodes = g.order
    for provider in providers:
        for a, b in itertools.combinations(nodes, 2):
            assert score(provider, a, b) == pytest.approx(score(provider, b, a))


def test_embedding_provider_scores():
    es = EmbeddingSet(("A", "B", "C"), [[1.0, 0.0], [0.0, 1.0], [2.0, 0.0]])
    provider = embedding_provider(es)
    assert score(provider, "A", "C") == pytest.approx(1.0)
    assert score(provider, "A", "B") == pytest.approx(0.0)
    assert provider.covered == frozenset({"A", "B", "C"})
    with pytest.raises(ValidationError, match="'Z'"):
        score(provider, "A", "Z")


def pair_cosine_oracle(es, a, b):
    """Per-pair `cosine_similarity`, the reference the provider matches bit for bit."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ZeroVectorWarning)
        return np.array([cosine_similarity(es.vectors[x], es.vectors[y]) for x, y in zip(a, b)])


def random_embedding(seed, n, dim):
    rng = np.random.default_rng(seed)
    return EmbeddingSet([f"C{i:03d}" for i in range(n)], rng.standard_normal((n, dim)))


def tied_fused_embedding():
    """A `combine` result in which T0 ... T5 came from one input row."""
    rng = np.random.default_rng(5)
    base = [f"C{i:02d}" for i in range(30)]
    tied = [f"T{i}" for i in range(6)]
    first = EmbeddingSet(base + tied, np.vstack([rng.standard_normal((30, 8)),
                                                 np.tile(rng.standard_normal(8), (6, 1))]))
    second = EmbeddingSet(base, rng.standard_normal((30, 8)))
    return combine([first, second], 8)


def with_zero_vector():
    es = random_embedding(6, 40, 5)
    values = es.values.copy()
    values[[1, 17]] = 0.0
    return EmbeddingSet(es.concepts, values)


def random_pairs(es, count, seed):
    rng = np.random.default_rng(seed)
    concepts = np.array(es.concepts, dtype=object)
    return (list(concepts[rng.integers(0, len(concepts), count)]),
            list(concepts[rng.integers(0, len(concepts), count)]))


@pytest.mark.parametrize("chunk", [SCORE_CHUNK, 7, 1])
@pytest.mark.parametrize("make", [lambda: random_embedding(4, 90, 16), tied_fused_embedding,
                                  with_zero_vector], ids=["random", "tied-fused", "zero-vector"])
def test_embedding_scores_equal_per_pair_cosine_bitwise(monkeypatch, make, chunk):
    monkeypatch.setattr(baselines, "SCORE_CHUNK", chunk)
    es = make()
    provider = embedding_provider(es)
    zero = {c for c in es.concepts if not es.vectors[c].any()}
    warned = [ZeroVectorWarning] if zero else []
    count = 2 * SCORE_CHUNK + 5 if chunk == SCORE_CHUNK else 50  # crosses chunk boundaries
    a, b = random_pairs(es, count, seed=chunk)
    b[:3] = list(es.concepts[:3])  # C001 is a zero vector in the zero-vector set
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = provider.score_pairs(a, b)
    assert got.dtype == np.float64 and got.shape == (count,)
    assert np.array_equal(got.view(np.int64), pair_cosine_oracle(es, a, b).view(np.int64))
    touches_zero = [x in zero or y in zero for x, y in zip(a, b)]
    assert any(touches_zero) == bool(zero)
    assert (got[touches_zero] == 0.0).all()
    assert [w.category for w in caught] == warned

    order = list(es.concepts)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        matrix = similarity_matrix(provider, order)
    pairs = list(itertools.product(order, repeat=2))  # 8,100 pairs in the random set
    oracle = pair_cosine_oracle(es, [x for x, _ in pairs], [y for _, y in pairs])
    assert np.array_equal(matrix.view(np.int64), oracle.reshape(len(order), -1).view(np.int64))
    assert [w.category for w in caught] == warned


def test_tied_fused_scores_stay_tied():
    es = tied_fused_embedding()
    tied = [c for c in es.concepts if c.startswith("T")]
    assert len({es.vectors[c].tobytes() for c in tied}) == 1
    first, *rest = tied
    provider = embedding_provider(es)
    others = [c for c in es.concepts if c.startswith("C")]
    want = provider.score_pairs(others, [first] * len(others))
    for tied in rest:
        assert np.array_equal(provider.score_pairs(others, [tied] * len(others)), want)
        assert np.array_equal(provider.score_pairs([tied] * len(others), others), want)


def test_similarity_matrix_dump():
    provider = cosine_adjacency_provider(PATH_GRAPH)
    m = similarity_matrix(provider, ["A", "B", "C"])
    assert m.shape == (3, 3)
    assert m[0, 2] == pytest.approx(1.0)
    assert np.allclose(m, m.T)


# ---------------------------------------------------------------------------
# every provider against a dense oracle, on graphs with gaps


def graph_with_gaps(rng):
    """Small graph, directed or not, often with isolated nodes, several
    components or no edges at all."""
    directed = rng.random() < 0.3
    nodes = [f"N{i}" for i in range(rng.randint(1, 9))]
    pick = itertools.permutations if directed else itertools.combinations
    possible = list(pick(nodes, 2))
    rng.shuffle(possible)
    edges = [(a, b, rng.randint(1, 9)) for a, b in possible[: rng.randint(0, len(possible))]]
    return make_graph(edges, "affix" if directed else "full", directed, extra_nodes=nodes)


def cosine_oracle(rows):
    n = len(rows)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            ni, nj = np.linalg.norm(rows[i]), np.linalg.norm(rows[j])
            if ni > 0 and nj > 0:
                out[i, j] = rows[i] @ rows[j] / (ni * nj)
    return out


def ppmi_oracle(mat):
    total = mat.sum()
    out = np.zeros_like(mat)
    for i, j in itertools.product(range(len(mat)), repeat=2):
        if mat[i, j] > 0:
            joint = mat[i, j] / total
            marginal = mat[i, :].sum() * mat[:, j].sum() / total**2
            out[i, j] = max(0.0, math.log(joint / marginal))
    return out


def shortest_path_oracle(g, mat):
    inverse = np.divide(1.0, mat, out=np.zeros_like(mat), where=mat > 0)
    dist = floyd_warshall(inverse, directed=g.directed)
    finite = dist[np.isfinite(dist)]
    fill = 2.0 * finite.max() if finite.size else 0.0
    return np.where(np.isfinite(dist), dist, fill)


def walk_oracle(mat, alpha, steps):
    rowsum = mat.sum(axis=1, keepdims=True)
    p = np.divide(mat, rowsum, out=np.zeros_like(mat), where=rowsum > 0)
    profiles = sum(alpha**k * np.linalg.matrix_power(p, k) for k in range(1, steps + 1))
    return cosine_oracle(profiles)


def test_every_provider_matches_dense_oracle():
    rng = random.Random(2024)
    graphs = [
        make_graph([], "full", False, extra_nodes=["A", "B", "C"]),
        make_graph([("A", "B", 3), ("B", "C", 1), ("D", "E", 2)], "full", False,
                   extra_nodes=["L"]),
    ] + [graph_with_gaps(rng) for _ in range(40)]
    for g in graphs:
        order = g.order
        mat = g.adjacency.toarray()
        cases = [
            (shortest_path_provider(g), shortest_path_oracle(g, mat)),
            (cosine_adjacency_provider(g), cosine_oracle(mat)),
            (random_walk_provider(g), walk_oracle(mat, 0.5, 5)),
            (ppmi_provider(g), ppmi_oracle(mat)),
        ]
        for provider, oracle in cases:
            got = similarity_matrix(provider, order)
            np.testing.assert_allclose(got, oracle, rtol=0, atol=1e-12,
                                       err_msg=f"{provider.source} on {g}")
        # the provider's walk at other decays and lengths
        for alpha, steps in ((0.2, 1), (0.9, 3)):
            got = _row_cosines(_walk_profiles(mat.copy(), alpha, steps))
            np.testing.assert_allclose(got, walk_oracle(mat, alpha, steps), rtol=0, atol=1e-12,
                                       err_msg=f"random walk ({alpha}, {steps}) on {g}")


# ---------------------------------------------------------------------------
# the in-place tables against the out-of-place formulas they replaced, and
# the walk profiles against a sum in CSR index order


def csr_times_dense(m, x):
    """m @ x for a CSR m, each row of the product summing that row's stored
    cells in index order, one multiply then one add per cell."""
    out = np.zeros((m.shape[0], x.shape[1]))
    counts = np.diff(m.indptr)
    for t in range(counts.max(initial=0)):
        rows = np.flatnonzero(counts > t)
        cells = m.indptr[rows] + t
        out[rows] += m.data[cells, None] * x[m.indices[cells]]
    return out


def reference_walk_profiles(mat, alpha, max_steps):
    """The walk profiles, each (P^k)^T = P^T (P^(k-1))^T summed by csr_times_dense."""
    rowsum = mat.sum(axis=1, keepdims=True)
    p = np.divide(mat, rowsum, out=np.zeros_like(mat), where=rowsum > 0)
    p_t = sp.csr_array(p.T)
    power = p.T.copy()
    acc = alpha * power
    for k in range(2, max_steps + 1):
        power = csr_times_dense(p_t, power)
        acc += alpha**k * power
    return acc.T


def out_of_place_row_cosines(rows):
    norms = np.linalg.norm(rows, axis=1)
    denom = np.outer(norms, norms)
    return np.divide(rows @ rows.T, denom, out=np.zeros_like(denom), where=denom > 0)


def same_bits(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def dense_ppmi(mat):
    """The dense n x n PPMI formula the sparse provider replaced."""
    total = mat.sum()
    if total == 0:
        return np.zeros_like(mat)
    p_joint = mat / total
    expected = np.outer(mat.sum(axis=1) / total, mat.sum(axis=0) / total)
    with np.errstate(divide="ignore", invalid="ignore"):
        pmi = np.log(p_joint / expected)
    pmi[~np.isfinite(pmi)] = 0.0
    return np.maximum(pmi, 0.0)


@pytest.mark.parametrize("n, directed", [(1, False), (7, False), (60, True), (200, False),
                                         (333, True)])
def test_in_place_tables_have_the_out_of_place_bits(n, directed):
    rng = np.random.default_rng(n)
    mat = rng.integers(1, 9, (n, n)) * (rng.random((n, n)) < 0.05)
    mat = np.triu(mat, k=1) if not directed else mat * (1 - np.eye(n, dtype=int))
    mat = (mat if directed else mat + mat.T).astype(float)
    isolated = rng.choice(n, size=max(1, n // 5), replace=False)
    mat[isolated, :] = 0.0
    mat[:, isolated] = 0.0
    for rows in (mat, dense_ppmi(mat)):
        assert same_bits(_row_cosines(rows), out_of_place_row_cosines(rows))
    for alpha, steps in ((0.5, 5), (0.2, 1), (0.9, 3)):
        want = reference_walk_profiles(mat, alpha, steps)
        work = mat.copy()
        assert same_bits(_walk_profiles(work, alpha, steps), want)
        assert same_bits(work, mat)
        assert same_bits(_row_cosines(want), out_of_place_row_cosines(want))


# ---------------------------------------------------------------------------
# the sparse cosine and PPMI tables against the dense formulas they replaced


def random_count_graph(rng, n, directed, density, top):
    """Edges with whole family counts up to `top`; n // 5 nodes are isolated."""
    names = [f"N{i:03d}" for i in range(n)]
    mat = rng.integers(1, top + 1, (n, n)) * (rng.random((n, n)) < density)
    isolated = rng.choice(n, size=n // 5, replace=False)
    mat[isolated, :] = 0
    mat[:, isolated] = 0
    edges = [(names[i], names[j], float(mat[i, j]))
             for i in range(n) for j in range(n)
             if mat[i, j] and i != j and (directed or i < j)]
    return make_graph(edges, "full", directed, extra_nodes=names)


@pytest.mark.parametrize("n, directed, density, top", [
    (1, False, 0.5, 9), (2, True, 1.0, 9), (5, False, 0.0, 9), (9, False, 0.4, 3),
    (40, True, 0.1, MAX_FAMILY_COUNT), (120, False, 0.05, 40), (200, True, 0.02, 9),
    (300, False, 0.03, MAX_FAMILY_COUNT),
])
def test_sparse_tables_have_the_dense_bits(n, directed, density, top):
    rng = np.random.default_rng(n + 1000 * directed)
    g = random_count_graph(rng, n, directed, density, top)
    order = g.order
    mat = g.adjacency.toarray()
    for provider, want in (
        (cosine_adjacency_provider(g), _row_cosines(mat)),
        (ppmi_provider(g), dense_ppmi(mat)),
    ):
        assert same_bits(similarity_matrix(provider, order), want), provider.source


# ---------------------------------------------------------------------------
# the topology tables at any BLAS thread count


def test_tables_do_not_depend_on_the_blas_thread_count(tmp_path):
    # before the walk profiles became sparse products and their Gram matrix
    # ran on one thread, 1 and 2 threads built different random-walk tables
    rng = np.random.default_rng(5)
    n = 1200
    names = [f"N{i:04d}" for i in range(n)]
    # a spanning tree plus random chords: connected, about 4,000 edges
    heads = (rng.random(n - 1) * np.arange(1, n)).astype(int)
    pairs = list(zip(heads, range(1, n))) + list(zip(*rng.integers(0, n, (2, 2900))))
    edges = {(min(i, j), max(i, j)): int(w) for (i, j), w in
             zip(pairs, rng.integers(1, 9, len(pairs))) if i != j}
    graph = tmp_path / "graph.tsv"
    save_graph(make_graph([(names[i], names[j], w) for (i, j), w in edges.items()],
                          "full", False), graph)
    methods = ("random_walk", "cosine_adjacency", "shortest_path")
    code = (
        "import hashlib\n"
        "from colexvec import baselines\n"
        "from colexvec.graph import load_graph\n"
        f"g = load_graph({str(graph)!r})\n"
        f"for method in {methods!r}:\n"
        "    table = baselines.similarity_matrix(\n"
        "        getattr(baselines, method + '_provider')(g), g.order)\n"
        "    print(method, hashlib.sha256(table.tobytes()).hexdigest())\n"
    )
    hashes = [dict(line.split() for line in stdout.splitlines())
              for stdout in at_each_thread_count(code)]
    assert sorted(hashes[0]) == sorted(methods)
    assert [m for m in methods if hashes[0][m] != hashes[1][m]] == []
