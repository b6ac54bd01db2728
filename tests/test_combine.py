import numpy as np
import pytest
from blas_threads import at_each_thread_count, cli_snippet

from colexvec.combine import (
    aggregate_concept_vectors,
    combine,
    load_concept_map,
    map_external_vectors,
    stack_union,
)
from colexvec.embeddings import EmbeddingSet, save_embedding
from colexvec.errors import ParseError, ValidationError
from colexvec.numerics import pca_reduce


def random_set(seed, concepts, dim):
    rng = np.random.default_rng(seed)
    return EmbeddingSet(
        concepts,
        [rng.standard_normal(dim) for c in concepts],
        provenance={"method": "test", "colex_types": ("full",)},
    )


def pairwise_distances(mat):
    return np.linalg.norm(mat[:, None] - mat[None, :], axis=2)


def pairwise_cosines(mat):
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    unit = mat / norms
    return unit @ unit.T


def as_matrix(es, order):
    return np.vstack([es.vectors[c] for c in order])


def test_combine_with_zero_set_preserves_distances():
    concepts = [f"C{i}" for i in range(10)]
    e = random_set(0, concepts, 3)
    z = EmbeddingSet(concepts, np.zeros((len(concepts), 3)))
    fused = combine([e, z], 3)
    orig = pairwise_distances(as_matrix(e, concepts))
    new = pairwise_distances(as_matrix(fused, concepts))
    assert np.max(np.abs(orig - new)) < 1e-9


def test_combine_duplicated_set_preserves_cosines():
    concepts = [f"C{i}" for i in range(12)]
    e = random_set(1, concepts, 3)
    # center the set so cosine comparison against the raw vectors is exact
    mean = np.mean([e.vectors[c] for c in concepts], axis=0)
    centered = EmbeddingSet(concepts, [e.vectors[c] - mean for c in concepts])
    fused = combine([centered, centered], 3)
    orig = pairwise_cosines(as_matrix(centered, concepts))
    new = pairwise_cosines(as_matrix(fused, concepts))
    assert np.max(np.abs(orig - new)) < 1e-9


def test_combine_duplicated_set_matches_single_set_pca():
    concepts = [f"C{i}" for i in range(9)]
    e = random_set(2, concepts, 3)
    fused = combine([e, e], 3)
    solo, _ = pca_reduce(as_matrix(e, concepts), 3)
    assert np.max(np.abs(pairwise_cosines(as_matrix(fused, concepts)) - pairwise_cosines(solo))) < 1e-9


def test_stack_union_zero_fill_rule():
    e1 = EmbeddingSet(("X", "Y"), [[1.0, 2.0], [3.0, 4.0]])
    e2 = EmbeddingSet(("Y",), [[5.0, 6.0]])
    universe, stacked = stack_union([e1, e2])
    assert universe == ["X", "Y"]
    assert np.array_equal(stacked, [[1, 2, 0, 0], [3, 4, 5, 6]])


def test_combine_coverage_is_union():
    e1 = random_set(3, ["A", "B", "C", "D"], 2)
    e2 = random_set(4, ["C", "D", "E"], 2)
    fused = combine([e1, e2], 2)
    assert frozenset(fused.concepts) == frozenset("ABCDE")
    assert fused.provenance["colex_types"] == ("full", "full")


def test_combine_disjoint_coverage_warns_not_errors():
    e1 = random_set(5, ["A", "B", "C"], 2)
    e2 = random_set(6, ["D", "E", "F"], 2)
    fused = combine([e1, e2], 2)
    assert "warning" in fused.provenance


def test_combine_argument_checks():
    e = random_set(7, ["A", "B", "C"], 2)
    with pytest.raises(ValidationError):
        combine([e], 2)
    with pytest.raises(ValidationError):
        combine([e, e], 3)  # must keep the first set's dimension


def test_combine_invariant_under_concept_reordering():
    concepts = ["A", "B", "C", "D", "E"]
    e1 = random_set(8, concepts, 2)
    reordered = EmbeddingSet(
        concepts[::-1], [e1.vectors[c] for c in reversed(concepts)]
    )
    e2 = random_set(9, concepts, 2)
    a = combine([e1, e2], 2)
    b = combine([reordered, e2], 2)
    for c in concepts:
        assert np.allclose(a.vectors[c], b.vectors[c])


# ---------------------------------------------------------------------------
# external vectors


def word_set():
    return EmbeddingSet(
        ("avtomobil", "mashina", "derevo"),
        [
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
        ],
    )


def aggregate(words, concept_map):
    """aggregate_concept_vectors with its set read through the vectors view."""
    aggregated, excluded = aggregate_concept_vectors(words, concept_map)
    return aggregated.vectors, excluded


def test_fused_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # at 600 x 256 the multi-threaded SVD moved the last printed digit of a few cells
    concepts = [f"C{i:04d}" for i in range(600)]
    inputs = []
    for seed in (1, 2):
        inputs.append(str(tmp_path / f"set{seed}.emb"))
        save_embedding(random_set(seed, concepts, 128), inputs[-1])
    out = str(tmp_path / "fused.emb")
    argv = ["combine", "--inputs", ",".join(inputs), "--dim", "128", "--out", out]
    outputs = at_each_thread_count(cli_snippet(argv, out))
    assert outputs[0] == outputs[1]


def test_aggregate_weighted_mean():
    vectors, excluded = aggregate(
        word_set(), [("CAR", "avtomobil", 0.4), ("CAR", "mashina", 0.6)]
    )
    assert np.allclose(vectors["CAR"], [0.4, 0.6, 0.0])
    assert excluded == []


def test_aggregate_single_word_identity():
    vectors, _ = aggregate(word_set(), [("TREE", "derevo", 1.0)])
    assert np.allclose(vectors["TREE"], [0.0, 0.0, 1.0])


def test_aggregate_missing_word_renormalizes():
    vectors, _ = aggregate(
        word_set(), [("CAR", "avtomobil", 0.4), ("CAR", "voiture", 0.6)]
    )
    assert np.allclose(vectors["CAR"], [1.0, 0.0, 0.0])  # survivor gets weight 1


def test_aggregate_unresolvable_concept_excluded():
    vectors, excluded = aggregate(
        word_set(), [("CAR", "voiture", 1.0), ("TREE", "derevo", 1.0)]
    )
    assert excluded == ["CAR"]
    assert set(vectors) == {"TREE"}


def test_map_external_vectors_end_to_end(tmp_path):
    save_embedding(word_set(), tmp_path / "words.txt")
    (tmp_path / "map.tsv").write_text(
        "CONCEPT\tWORD\tFREQUENCY\n"
        "CAR\tavtomobil\t0.4\n"
        "CAR\tmashina\t0.6\n"
        "TREE\tderevo\t1\n"
        "MOON\tluna\t1\n",
        encoding="utf-8",
    )
    es = map_external_vectors(tmp_path / "words.txt", tmp_path / "map.tsv", 2)
    assert es.dim == 2
    assert set(es.vectors) == {"CAR", "TREE"}
    assert es.provenance["excluded"] == ("MOON",)


def test_map_external_all_unresolvable_errors(tmp_path):
    save_embedding(word_set(), tmp_path / "words.txt")
    (tmp_path / "map.tsv").write_text(
        "CONCEPT\tWORD\tFREQUENCY\nCAR\tvoiture\t1\n", encoding="utf-8"
    )
    with pytest.raises(ValidationError):
        map_external_vectors(tmp_path / "words.txt", tmp_path / "map.tsv", 1)


def test_load_concept_map_errors(tmp_path):
    bad_header = tmp_path / "bad.tsv"
    bad_header.write_text("WORD\tCONCEPT\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_concept_map(bad_header)
    bad_freq = tmp_path / "freq.tsv"
    bad_freq.write_text("CONCEPT\tWORD\tFREQUENCY\nCAR\tmashina\tx\n", encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        load_concept_map(bad_freq)
    assert exc.value.line_no == 2
