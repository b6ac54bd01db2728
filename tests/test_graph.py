import json
import re

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from colexvec.baselines import (
    cosine_adjacency_provider,
    ppmi_provider,
    random_walk_provider,
    shortest_path_provider,
)
from colexvec.errors import ParseError, ValidationError
from colexvec.graph import (
    MAX_FAMILY_COUNT,
    load_graph,
    make_graph,
    save_graph,
    to_undirected,
)
from colexvec.node2vec import WalkConfig, sample_walks
from colexvec.prone import ProneConfig, prone_embed


def write_edge_file(tmp_path, body, meta=None, name="g.tsv"):
    path = tmp_path / name
    path.write_text("SOURCE\tTARGET\tWEIGHT\n" + body, encoding="utf-8")
    if meta is not None:
        (tmp_path / (name + ".json")).write_text(meta, encoding="utf-8")
    return path


def test_load_graph_readback(tmp_path):
    path = write_edge_file(tmp_path, "TREE\tFOREST\t9\nTREE\tBARK\t2\nBARK\tSKIN\t14\n")
    g = load_graph(path)
    assert g.n_nodes == 4
    assert g.n_edges == 3
    assert not g.directed
    assert g.colex_type == "full"
    assert ("FOREST", "TREE", 9.0) in g.edges  # undirected: listed once, as (min, max)


def test_load_graph_self_loop_names_line(tmp_path):
    path = write_edge_file(tmp_path, "TREE\tFOREST\t9\nTREE\tTREE\t3\n")
    with pytest.raises(ParseError) as exc:
        load_graph(path)
    assert exc.value.line_no == 3


def test_load_graph_bad_column_count(tmp_path):
    path = write_edge_file(tmp_path, "TREE\tFOREST\n")
    with pytest.raises(ParseError) as exc:
        load_graph(path)
    assert exc.value.line_no == 2


def test_load_graph_nonpositive_weight(tmp_path):
    path = write_edge_file(tmp_path, "TREE\tFOREST\t0\n")
    with pytest.raises(ParseError):
        load_graph(path)


def test_load_graph_duplicate_edge(tmp_path):
    path = write_edge_file(tmp_path, "A\tB\t1\nB\tA\t2\n")
    with pytest.raises(ParseError) as exc:
        load_graph(path)  # undirected by default: same unordered pair
    assert exc.value.line_no == 3
    assert str(exc.value).endswith("g.tsv:3: duplicate edge B->A")


def test_load_graph_reads_sidecar(tmp_path):
    meta = '{"colex_type": "affix", "directed": true, "weight_semantics": "family_count"}'
    path = write_edge_file(tmp_path, "A\tB\t1\nB\tA\t2\n", meta=meta)
    g = load_graph(path)
    assert g.directed and g.colex_type == "affix"
    assert g.n_edges == 2


@pytest.mark.parametrize("field, value", [
    ("directed", "false"),
    ("directed", 0),
    ("colex_type", "partial"),
    ("colex_type", ["full"]),
    ("weight_semantics", "counts"),
    ("weight_semantics", "inverse_distance"),
    ("isolated_nodes", "LEAF"),
])
def test_load_graph_rejects_bad_sidecar_field(tmp_path, field, value):
    meta = {"colex_type": "full", "directed": False, "weight_semantics": "family_count"}
    meta[field] = value
    path = write_edge_file(tmp_path, "A\tB\t1\n", meta=json.dumps(meta, indent=2))
    with pytest.raises(ParseError, match=field) as exc:
        load_graph(path)
    assert exc.value.path == str(path) + ".json"


def test_graph_invariants_rejected():
    with pytest.raises(ValidationError):
        make_graph([("A", "A", 1)], "full", False)
    with pytest.raises(ValidationError):
        make_graph([("A", "B", 1), ("A", "B", 2)], "full", True)
    with pytest.raises(ValidationError):
        make_graph([("A", "B", -1)], "full", False)
    with pytest.raises(ValidationError):
        make_graph([("A", "B", 1.5)], "full", False)  # family counts are integers


@pytest.mark.parametrize("bad", [float("inf"), float("nan")])
def test_non_finite_weight_rejected_naming_the_edge(bad):
    message = rf"^non-finite weight on A->B: {bad}$"
    with pytest.raises(ValidationError, match=message):
        make_graph([("A", "B", bad)], "full", False)


@pytest.mark.parametrize("weight", ["1e-10", "5e-324"])
def test_family_count_below_one_rejected_naming_the_path(tmp_path, weight):
    # both round to 0, within the whole-number slack
    path = write_edge_file(tmp_path, f"A\tB\t{weight}\nB\tC\t2\n")
    message = f"^{re.escape(str(path))}:2: family_count weight on A->B is not a whole number >= 1"
    with pytest.raises(ParseError, match=message):
        load_graph(path)


def test_fractional_family_count_rejected_at_its_line(tmp_path):
    path = write_edge_file(tmp_path, "A\tB\t2\nB\tC\t2.5\n")
    message = f"{path}:3: family_count weight on B->C is not a whole number >= 1: 2.5"
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        load_graph(path)


def test_near_whole_family_count_is_stored_whole(tmp_path):
    path = write_edge_file(tmp_path, "A\tB\t2.000000001\nB\tC\t3\n")
    g = load_graph(path)
    assert g.edges == (("A", "B", 2.0), ("B", "C", 3.0))
    assert make_graph([("A", "B", 2.000000001)], "full", False).edges == (("A", "B", 2.0),)
    # the reloaded graph equals the first, which it did not while 2.000000001 was kept
    save_graph(g, tmp_path / "again.tsv")
    assert load_graph(tmp_path / "again.tsv") == g


def test_family_count_is_capped_at_max(tmp_path):
    top = float(MAX_FAMILY_COUNT)
    assert MAX_FAMILY_COUNT == 65536
    assert make_graph([("A", "B", top)], "full", False).edges == (("A", "B", top),)
    assert load_graph(write_edge_file(tmp_path, "A\tB\t65536\n")).edges == (("A", "B", top),)
    for weight in ("65537", "1e17"):
        path = write_edge_file(tmp_path, f"A\tB\t1\nB\tC\t{weight}\n", name=f"{weight}.tsv")
        message = f"{path}:3: family_count weight on B->C exceeds 65536: {float(weight)}"
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            load_graph(path)
        with pytest.raises(ValidationError, match=r"^family_count weight on B->C exceeds 65536: "):
            make_graph([("B", "C", float(weight))], "full", False)


def test_to_undirected_max_merge():
    g = make_graph([("A", "B", 3), ("B", "A", 5)], "affix", True)
    u = to_undirected(g)
    assert u.edges == (("A", "B", 5.0),)
    assert not u.directed


def test_to_undirected_idempotent_and_no_merge():
    g = make_graph([("A", "B", 2), ("B", "C", 1)], "affix", True)
    u = to_undirected(g)
    assert sorted(u.edges) == [("A", "B", 2.0), ("B", "C", 1.0)]
    assert to_undirected(u) == u


def test_adjacency_hand_example():
    # A's edges are listed C first, so its row is sorted by the conversion
    g = make_graph([("A", "C", 1), ("B", "A", 2), ("D", "C", 4)], "full", False,
                   extra_nodes=["Z"])
    adj = g.adjacency
    assert isinstance(adj, sp.csr_array) and adj.shape == (5, 5)
    assert adj.indptr.tolist() == [0, 2, 3, 5, 6, 6]  # Z's row is empty
    assert adj.indices.tolist() == [1, 2, 0, 0, 3, 2]  # both sides of every edge
    assert adj.data.tolist() == [2, 1, 2, 1, 4, 4]
    d = make_graph([("B", "A", 3), ("A", "C", 1)], "affix", True).adjacency
    assert d.indptr.tolist() == [0, 1, 2, 2]  # one side only
    assert d.indices.tolist() == [2, 0] and d.data.tolist() == [1, 3]
    assert make_graph([], "full", False).adjacency.shape == (0, 0)
    for edges, directed, extra_nodes, dense in (
        ([("A", "B", 2), ("B", "C", 1)], False, (), [[0, 2, 0], [2, 0, 1], [0, 1, 0]]),
        ([], False, ["A", "B"], [[0, 0], [0, 0]]),  # nodes but no edges
        ([("A", "B", 3)], True, (), [[0, 3], [0, 0]]),
    ):
        adj = make_graph(edges, "full", directed, extra_nodes=extra_nodes).adjacency
        assert np.array_equal(adj.toarray(), dense)


def test_round_trip_exact(tmp_path):
    g = make_graph(
        [("TREE", "FOREST", 9), ("BARK", "SKIN", 14)],
        "full",
        False,
        extra_nodes=["LONER"],
    )
    save_graph(g, tmp_path / "g.tsv")
    loaded = load_graph(tmp_path / "g.tsv")
    assert loaded == g
    assert "LONER" in loaded.nodes  # isolated nodes survive the round trip


def test_adjacency_arrays_are_read_only():
    adj = make_graph([("A", "B", 2)], "full", False).adjacency
    for array in (adj.data, adj.indices, adj.indptr):
        with pytest.raises(ValueError):
            array[0] = 5


UNDIRECTED = make_graph([("A", "B", 2), ("B", "C", 1), ("C", "D", 3), ("A", "C", 1)], "full",
                        False, extra_nodes=["LONER"])
CONSUMERS = [
    pytest.param(UNDIRECTED, lambda g, tmp: prone_embed(g, ProneConfig(dim=2, seed=0)),
                 id="prone_embed"),
    pytest.param(UNDIRECTED, lambda g, tmp: sample_walks(g, WalkConfig(p=1, q=1)),
                 id="sample_walks-first-order"),
    pytest.param(UNDIRECTED, lambda g, tmp: sample_walks(g, WalkConfig(p=0.5, q=2)),
                 id="sample_walks-biased"),
    pytest.param(UNDIRECTED, lambda g, tmp: shortest_path_provider(g), id="shortest_path"),
    pytest.param(UNDIRECTED, lambda g, tmp: cosine_adjacency_provider(g), id="cosine"),
    pytest.param(UNDIRECTED, lambda g, tmp: ppmi_provider(g), id="ppmi"),
    pytest.param(UNDIRECTED, lambda g, tmp: random_walk_provider(g), id="random_walk"),
    pytest.param(UNDIRECTED, lambda g, tmp: save_graph(g, tmp / "g.tsv"), id="save_graph"),
    pytest.param(make_graph([("A", "B", 3), ("B", "A", 5), ("B", "C", 1)], "affix", True),
                 lambda g, tmp: to_undirected(g), id="to_undirected"),
]


@pytest.mark.parametrize("g, consumer", CONSUMERS)
def test_consumers_leave_the_shared_adjacency_unchanged(tmp_path, g, consumer):
    adj = g.adjacency
    before = [array.copy() for array in (adj.data, adj.indices, adj.indptr)]
    consumer(g, tmp_path)
    assert g.adjacency is adj
    for array, copy in zip((adj.data, adj.indices, adj.indptr), before):
        assert np.array_equal(array, copy)


@st.composite
def small_digraphs(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    nodes = [f"N{i}" for i in range(n)]
    pairs = [(a, b) for a in nodes for b in nodes if a != b]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=10, unique=True))
    edges = [(a, b, draw(st.integers(min_value=1, max_value=9))) for a, b in chosen]
    return make_graph(edges, "affix", True, extra_nodes=nodes)


@settings(max_examples=50, deadline=None)
@given(small_digraphs())
def test_to_undirected_symmetric_adjacency(g):
    u = to_undirected(g)
    m = u.adjacency.toarray()
    assert np.array_equal(m, m.T)
    assert to_undirected(u) == u


@settings(max_examples=50, deadline=None)
@given(small_digraphs())
def test_to_undirected_equals_max_merge_reference(g):
    merged = {}
    for src, dst, w in g.edges:
        key = (min(src, dst), max(src, dst))
        merged[key] = max(merged.get(key, w), w)
    assert to_undirected(g).edges == tuple((a, b, w) for (a, b), w in sorted(merged.items()))


@settings(max_examples=50, deadline=None)
@given(small_digraphs())
def test_adjacency_equals_per_edge_fill(g):
    for graph in (g, to_undirected(g)):
        index = {node: i for i, node in enumerate(graph.order)}
        expected = np.zeros((len(index), len(index)))
        for src, dst, w in graph.edges:
            expected[index[src], index[dst]] = w
            if not graph.directed:
                expected[index[dst], index[src]] = w
        adj = graph.adjacency
        assert adj.has_sorted_indices and np.array_equal(adj.toarray(), expected)


@settings(max_examples=50, deadline=None)
@given(small_digraphs())
def test_undirected_row_sum_is_weighted_degree(g):
    u = to_undirected(g)
    order = u.order
    m = u.adjacency.toarray()
    degree = {node: 0.0 for node in order}
    for src, dst, w in u.edges:
        degree[src] += w
        degree[dst] += w
    for i, node in enumerate(order):
        assert m[i].sum() == pytest.approx(degree[node])
