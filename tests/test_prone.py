import math
import time
import warnings

import numpy as np
import pytest
import scipy.special
from blas_threads import at_each_thread_count, cli_snippet

from colexvec.errors import GraphTooSmallError, ValidationError
from colexvec.graph import make_graph, save_graph
from colexvec.prone import (
    ProneConfig,
    bessel_i,
    build_shifted_matrix,
    factorize,
    prone_embed,
    spectral_propagate,
)

PATH_GRAPH = make_graph([("A", "B", 2), ("B", "C", 1)], "full", False)


@pytest.mark.parametrize("field, value", [
    ("mu", math.nan), ("theta", math.inf), ("shift", math.nan),
])
def test_config_rejects_non_finite(field, value):
    with pytest.raises(ValidationError, match=f"^{field} must be finite"):
        ProneConfig(**{field: value})


def test_config_rejects_negative_seed():
    with pytest.raises(ValidationError, match=r"^seed must be >= 0, got -1$"):
        ProneConfig(seed=-1)


def random_graph(rng, n, extra_edges):
    nodes = [f"N{i:02d}" for i in range(n)]
    edges = {}
    for i in range(1, n):  # spanning tree keeps the graph connected
        j = rng.integers(0, i)
        edges[(nodes[j], nodes[i])] = int(rng.integers(1, 9))
    while len(edges) < n - 1 + extra_edges:
        i, j = rng.integers(0, n, size=2)
        if i == j:
            continue
        key = (nodes[min(i, j)], nodes[max(i, j)])
        edges.setdefault(key, int(rng.integers(1, 9)))
    return make_graph([(a, b, w) for (a, b), w in edges.items()], "full", False)


# ---------------------------------------------------------------------------
# dense transcription oracle for the propagation recurrence


def oracle_propagate(adj: np.ndarray, base: np.ndarray, step, mu, theta) -> np.ndarray:
    n = adj.shape[0]

    def normalize_rows(x):
        norms = np.linalg.norm(x, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        return x / norms

    if step == 1:
        return normalize_rows(base)
    a_hat = adj + np.eye(n)
    da = a_hat / a_hat.sum(axis=1, keepdims=True)
    m = np.eye(n) - da - mu * np.eye(n)
    x0 = base
    x1 = 0.5 * (m @ (m @ x0)) - x0
    filt = scipy.special.iv(0, theta) * x0 - 2.0 * scipy.special.iv(1, theta) * x1
    prev, cur = x0, x1
    for k in range(2, step):
        nxt = m @ (m @ cur) - 2.0 * cur - prev
        filt += ((-1.0) ** k) * 2.0 * scipy.special.iv(k, theta) * nxt
        prev, cur = cur, nxt
    return normalize_rows(da @ (x0 - filt))


# ---------------------------------------------------------------------------
# Bessel coefficients


def test_bessel_matches_scipy():
    for theta in (0.25, 0.5, 1.0, 2.0, 5.0):
        for k in range(12):
            assert bessel_i(k, theta) == pytest.approx(
                float(scipy.special.iv(k, theta)), abs=1e-12
            )


def test_bessel_positive_decreasing_for_small_theta():
    for theta in (0.5, 1.0, 2.0):
        values = [bessel_i(k, theta) for k in range(11)]
        assert all(v > 0 for v in values)
        assert all(b < a for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# shifted matrix


def test_shifted_matrix_hand_value():
    cfg = ProneConfig(dim=2, exponent=0.75, shift=1.0, seed=0)
    m = build_shifted_matrix(PATH_GRAPH, cfg)
    order = PATH_GRAPH.order  # [A, B, C]
    q_b = 3**0.75 / (2**0.75 + 3**0.75 + 1.0)
    assert q_b == pytest.approx(0.4595, abs=1e-4)
    dense = m.toarray()
    # P_AB = 1 (A's only neighbor), so M_AB = -ln(q_B)
    assert dense[0, 1] == pytest.approx(-math.log(q_b))
    assert dense[0, 1] == pytest.approx(0.7777, abs=1e-4)


def test_shifted_matrix_regular_graph_constant():
    square = make_graph(
        [("A", "B", 2), ("B", "C", 2), ("C", "D", 2), ("D", "A", 2)], "full", False
    )
    cfg = ProneConfig(dim=2, exponent=1.0, seed=0)
    m = build_shifted_matrix(square, cfg).tocoo()
    assert np.allclose(m.data, m.data[0])


def test_shifted_matrix_pattern_matches_adjacency():
    rng = np.random.default_rng(1)
    g = random_graph(rng, 12, 8)
    cfg = ProneConfig(dim=4, seed=0)
    m = build_shifted_matrix(g, cfg)
    adj = g.adjacency.toarray()
    assert np.array_equal(m.toarray() != 0, adj != 0)


def test_shifted_matrix_matches_dense_oracle():
    rng = np.random.default_rng(2)
    g = random_graph(rng, 10, 6)
    cfg = ProneConfig(dim=4, exponent=0.75, shift=1.0, seed=0)
    got = build_shifted_matrix(g, cfg).toarray()
    adj = g.adjacency.toarray()
    degree = adj.sum(axis=1)
    q = degree**0.75 / (degree**0.75).sum()
    for i in range(10):
        for j in range(10):
            if adj[i, j] > 0:
                expected = math.log(adj[i, j] / degree[i]) - math.log(q[j])
                assert got[i, j] == pytest.approx(expected, abs=1e-12)
            else:
                assert got[i, j] == 0.0


# ---------------------------------------------------------------------------
# factorization


def test_factorize_diagonal():
    diag = np.diag([9.0, 4.0, 1.0])
    cfg = ProneConfig(dim=2, seed=0)
    base = factorize(diag, cfg)
    # rows recover sqrt-scaled basis vectors up to sign
    assert abs(abs(base[0, 0]) - 3.0) < 1e-8
    assert abs(abs(base[1, 1]) - 2.0) < 1e-8
    assert np.allclose(base[2], 0.0, atol=1e-8)


def test_factorize_matches_dense_svd_oracle():
    rng = np.random.default_rng(3)
    g = random_graph(rng, 15, 10)
    cfg = ProneConfig(dim=5, seed=4)
    m = build_shifted_matrix(g, cfg)
    base = factorize(m, cfg)
    assert base.shape == (15, 5)
    s_true = np.linalg.svd(m.toarray(), compute_uv=False)[:5]
    s_got = np.linalg.norm(base, axis=0) ** 2  # columns are u_k * sqrt(s_k)
    assert np.allclose(np.sort(s_got)[::-1], s_true, atol=1e-6)


# ---------------------------------------------------------------------------
# spectral propagation


def test_propagate_step_one_is_normalized_base():
    rng = np.random.default_rng(5)
    base = rng.standard_normal((3, 2))
    cfg = ProneConfig(dim=2, step=1, seed=0)
    out = spectral_propagate(PATH_GRAPH, base, cfg)
    assert PATH_GRAPH.order == ("A", "B", "C")
    for i in range(3):
        expected = base[i] / np.linalg.norm(base[i])
        assert np.allclose(out[i], expected)


def test_propagate_rows_unit_norm():
    rng = np.random.default_rng(6)
    g = random_graph(rng, 12, 9)
    cfg = ProneConfig(dim=4, seed=7)
    es = prone_embed(g, cfg)
    for vec in es.vectors.values():
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-9


def test_propagate_matches_transcription_oracle():
    rng = np.random.default_rng(8)
    g = random_graph(rng, 10, 7)
    base_values = rng.standard_normal((10, 4))
    adj = g.adjacency.toarray()
    for step in (1, 2, 3, 10):
        cfg = ProneConfig(dim=4, step=step, mu=0.2, theta=0.5, seed=0)
        got = spectral_propagate(g, base_values, cfg)
        expected = oracle_propagate(adj, base_values, step, cfg.mu, cfg.theta)
        assert np.max(np.abs(got - expected)) < 1e-8


def test_propagate_rejects_directed():
    g = make_graph([("A", "B", 1)], "affix", True)
    base = np.ones((2, 2))
    with pytest.raises(ValidationError, match="undirected"):
        spectral_propagate(g, base, ProneConfig(dim=2, seed=0))


def test_propagate_dimension_mismatch():
    base = np.zeros((3, 2))
    with pytest.raises(ValidationError, match=r"base has shape \(3, 2\)"):
        spectral_propagate(PATH_GRAPH, base, ProneConfig(dim=3, seed=0))
    bad_rows = np.zeros((2, 2))
    with pytest.raises(ValidationError, match=r"base has shape \(2, 2\)"):
        spectral_propagate(PATH_GRAPH, bad_rows, ProneConfig(dim=2, seed=0))


# ---------------------------------------------------------------------------
# end to end


def test_prone_bit_reproducible():
    rng = np.random.default_rng(9)
    g = random_graph(rng, 14, 10)
    cfg = ProneConfig(dim=6, seed=11)
    a = prone_embed(g, cfg)
    b = prone_embed(g, cfg)
    for node in a.vectors:
        assert np.array_equal(a.vectors[node], b.vectors[node])


def fragmented_graph(rng):
    """A 200-node random component plus 70 isomorphic weighted triangles.

    Many equal small components, as in the fragmented benchmark graphs:
    before the tSVD ran on one BLAS thread, this graph's dim-128 ProNE
    bytes differed between 1 and 2 OpenBLAS threads.
    """
    g = random_graph(rng, 200, 400)
    triangles = [(f"T{c:02d}{a}", f"T{c:02d}{b}", w)
                 for c in range(70) for a, b, w in (("a", "b", 1), ("b", "c", 1), ("a", "c", 2))]
    return make_graph(list(g.edges) + triangles, "full", False)


def test_prone_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    graph = tmp_path / "fragmented.tsv"
    save_graph(fragmented_graph(np.random.default_rng(0)), graph)
    out = str(tmp_path / "prone.emb")
    argv = ["embed", "--graph", str(graph), "--method", "prone", "--out", out,
            "--seed", "1", "--dim", "128"]
    outputs = at_each_thread_count(cli_snippet(argv, out))
    assert outputs[0] == outputs[1]


def test_prone_isolated_nodes_uncovered():
    g = make_graph([("A", "B", 1), ("B", "C", 2)], "full", False, extra_nodes=["X", "Y"])
    es = prone_embed(g, ProneConfig(dim=2, seed=0))
    assert set(es.vectors) == {"A", "B", "C"}
    assert es.provenance["uncovered"] == ("X", "Y")
    assert set(es.provenance) == {"method", "colex_types", "seed", "config_digest", "uncovered"}
    assert es.provenance["method"] == "prone"
    assert es.provenance["colex_types"] == ("full",)
    assert es.provenance["seed"] == 0
    # the digest of ProneConfig(dim=2, seed=0) tagged "prone"; the .emb reports carry it
    assert es.provenance["config_digest"] == (
        "aa24f74000372d1549ed63b8882c371bb4d8c0d84df4113cc16ebda42128d5ba"
    )


def test_prone_runtime_envelope_at_affix_scale():
    # synthetic stand-in for the largest published graph: 1,308 nodes, ~38k edges
    rng = np.random.default_rng(12)
    g = random_graph(rng, 1308, 38215 - 1307)
    start = time.monotonic()
    es = prone_embed(g, ProneConfig(dim=128, seed=1))
    elapsed = time.monotonic() - start
    assert len(es.vectors) == 1308
    assert elapsed < 5.0


def test_prone_embed_rejects_graph_without_edges():
    g = make_graph([], "full", False, extra_nodes=["A", "B"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="^no edges to embed$"):
            prone_embed(g, ProneConfig(dim=2))


def test_prone_embed_rejects_a_dim_above_the_node_count():
    g = make_graph([("A", "B", 1), ("B", "C", 2), ("C", "D", 1)], "full", False)
    with pytest.raises(GraphTooSmallError, match="^dim 5 exceeds the graph's 4 nodes$"):
        prone_embed(g, ProneConfig(dim=5, seed=1))
    es = prone_embed(g, ProneConfig(dim=4, seed=1))
    assert es.values.shape == (4, 4)
