import builtins
import io
from pathlib import Path

import golden
import numpy as np
import pytest
from memtrace import traced_peak

import colexvec.embeddings as embeddings
from colexvec.combine import combine, map_external_vectors
from colexvec.embeddings import EmbeddingSet, load_embedding, save_embedding
from colexvec.errors import ParseError, ValidationError
from colexvec.graph import make_graph
from colexvec.node2vec import SkipGramConfig, WalkConfig, node2vec_embed
from colexvec.prone import ProneConfig, prone_embed
from colexvec.runtime import file_sha256

RING = make_graph([(f"N{i}", f"N{(i + 1) % 7}", 1 + i % 2) for i in range(7)], "full", False,
                  extra_nodes=["LONE"])


def sample_set():
    return EmbeddingSet(
        ("TREE", "OLDER BROTHER", "BARK"),  # ids may contain spaces
        [
            [1.0, -0.5, 0.25],
            [0.125, 2.0, -4.0],
            [1e-9, 123456.789, 0.333333333333],
        ],
    )


def test_round_trip(tmp_path):
    es = sample_set()
    save_embedding(es, tmp_path / "e.txt")
    loaded = load_embedding(tmp_path / "e.txt")
    assert loaded.dim == 3
    assert set(loaded.vectors) == set(es.vectors)
    for concept in es.vectors:
        assert np.allclose(loaded.vectors[concept], es.vectors[concept], rtol=1e-7)


def test_file_format(tmp_path):
    save_embedding(sample_set(), tmp_path / "e.txt")
    lines = (tmp_path / "e.txt").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "3 3"
    assert lines[1].startswith("BARK ")  # concepts written in sorted order
    assert "0.33333333" in lines[1]  # 8 significant digits


def test_save_deterministic(tmp_path):
    save_embedding(sample_set(), tmp_path / "a.txt")
    save_embedding(sample_set(), tmp_path / "b.txt")
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()


def test_load_header_count_mismatch(tmp_path):
    (tmp_path / "e.txt").write_text("2 2\nA 1 2\n", encoding="utf-8")
    with pytest.raises(ValidationError):
        load_embedding(tmp_path / "e.txt")


def test_load_bad_vector_value(tmp_path):
    (tmp_path / "e.txt").write_text("1 2\nA 1 x\n", encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        load_embedding(tmp_path / "e.txt")
    assert exc.value.line_no == 2


def test_load_duplicate_concept(tmp_path):
    (tmp_path / "e.txt").write_text("2 1\nA 1\nA 2\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_embedding(tmp_path / "e.txt")


def test_load_zero_dim_header_names_line_1(tmp_path):
    (tmp_path / "e.txt").write_text("2 0\nA\nB\n", encoding="utf-8")
    with pytest.raises(ParseError, match="dim must be >= 1, got 0") as exc:
        load_embedding(tmp_path / "e.txt")
    assert exc.value.line_no == 1


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
def test_load_non_finite_value_names_line(tmp_path, value):
    (tmp_path / "e.txt").write_text(f"2 2\nA 1 2\nB 3 {value}\n", encoding="utf-8")
    with pytest.raises(ParseError, match="non-finite value in vector for 'B'") as exc:
        load_embedding(tmp_path / "e.txt")
    assert exc.value.line_no == 3


def test_embedding_set_validation():
    with pytest.raises(ValidationError):
        EmbeddingSet(("A",), [1.0])
    with pytest.raises(ValidationError):
        EmbeddingSet(("A",), [[float("nan")]])
    with pytest.raises(ValidationError):
        EmbeddingSet((), np.zeros((0, 0)))
    with pytest.raises(ValidationError, match="values must be a 2-D array, got shape \\(2,\\)"):
        EmbeddingSet(("A", "B"), [1.0, 2.0])
    with pytest.raises(ValidationError, match="dim must be >= 1, got 0"):
        EmbeddingSet(("A",), np.zeros((1, 0)))
    with pytest.raises(ValidationError, match="2 concepts for 1 rows"):
        EmbeddingSet(("A", "B"), [[1.0]])
    with pytest.raises(ValidationError, match="empty concept id in embedding set"):
        EmbeddingSet(("A", ""), [[1.0], [2.0]])
    with pytest.raises(ValidationError, match="duplicate concept 'A' in embedding set"):
        EmbeddingSet(("B", "A", "A"), [[1.0], [2.0], [3.0]])
    with pytest.raises(ValidationError, match="non-finite entries in vector for 'B'"):
        EmbeddingSet(("C", "B", "A"), [[1.0], [float("inf")], [3.0]])
    assert EmbeddingSet((), np.zeros((0, 4))).dim == 4


def test_values_are_one_read_only_matrix_in_sorted_concept_order():
    rng = np.random.default_rng(3)
    concepts = [f"C{i:02d}" for i in range(20)]
    rows = rng.standard_normal((20, 3))
    perm = rng.permutation(20)
    es = EmbeddingSet([concepts[i] for i in perm], rows[perm])
    assert es.concepts == tuple(concepts)
    assert np.array_equal(es.values, rows)
    assert es.values.dtype == np.float64 and es.values.flags.c_contiguous
    assert not es.values.flags.writeable
    with pytest.raises(ValueError):
        es.values[0, 0] = 1.0
    assert es.index["C07"] == 7 and es.dim == 3 and isinstance(es.dim, int)
    assert list(es.vectors) == concepts and len(es.vectors) == 20
    assert np.array_equal(es.vectors["C07"], rows[7])
    with pytest.raises(ValueError):
        es.vectors["C07"][0] = 1.0
    kept = EmbeddingSet(concepts, rows)  # already sorted: no copy
    assert np.shares_memory(kept.values, rows) and not rows.flags.writeable


def test_matrix_ordering():
    es = sample_set()
    m = es.matrix(["TREE", "BARK"])
    assert np.allclose(m[0], es.vectors["TREE"])
    assert np.allclose(m[1], es.vectors["BARK"])
    with pytest.raises(ValidationError):
        es.matrix(["TREE", "MISSING"])


@pytest.mark.parametrize("ending", [" \n", " \r\n", "\r\n", "\t \n"])
def test_load_ignores_trailing_whitespace(tmp_path, ending):
    # word2vec and fastText text output ends each vector line with a space
    text = "2 2" + ending + "A 1 2" + ending + "OLDER BROTHER 3 -4.5" + ending
    (tmp_path / "e.txt").write_bytes(text.encode("utf-8"))
    loaded = load_embedding(tmp_path / "e.txt")
    assert set(loaded.vectors) == {"A", "OLDER BROTHER"}
    assert np.array_equal(loaded.vectors["A"], [1.0, 2.0])
    assert np.array_equal(loaded.vectors["OLDER BROTHER"], [3.0, -4.5])


def test_load_keeps_inner_spaces_of_concept_ids(tmp_path):
    (tmp_path / "e.txt").write_text("1 2\nTHE  OLD ONE 1 2 \n", encoding="utf-8")
    assert set(load_embedding(tmp_path / "e.txt").vectors) == {"THE  OLD ONE"}


def ring_prone(tmp_path):
    return prone_embed(RING, ProneConfig(dim=3, seed=1))


def ring_node2vec(tmp_path):
    return node2vec_embed(RING, WalkConfig(seed=1),
                          SkipGramConfig(dim=3, epochs=2, learning_rate=0.5, seed=1))


def ring_combine(tmp_path):
    return combine([ring_prone(tmp_path), ring_node2vec(tmp_path)], 3)


def ring_external(tmp_path):
    save_embedding(ring_node2vec(tmp_path), tmp_path / "words.emb")
    (tmp_path / "map.tsv").write_text(
        "CONCEPT\tWORD\tFREQUENCY\nA\tN0\t2\nA\tN1\t1\nB\tN2\t1\nC\tN3\t0.5\n"
        "C\tN4\t3\nD\tMISSING\t1\n", encoding="utf-8")
    return map_external_vectors(tmp_path / "words.emb", tmp_path / "map.tsv", 2)


@pytest.mark.parametrize("produce", [ring_prone, ring_node2vec, ring_combine, ring_external],
                         ids=["prone", "node2vec", "combine", "external"])
def test_save_load_save_is_byte_identical(tmp_path, produce):
    first, second = tmp_path / "first.emb", tmp_path / "second.emb"
    save_embedding(produce(tmp_path), first)
    save_embedding(load_embedding(first), second)
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("concept", ["C#1", "#", "OLD # ONE", "OLDER BROTHER", "# 1"])
def test_load_keeps_hash_and_space_in_concept_ids(tmp_path, concept):
    (tmp_path / "e.txt").write_text(f"2 2\n{concept} 1 2\nB 3 4\n", encoding="utf-8")
    loaded = load_embedding(tmp_path / "e.txt")
    assert loaded.concepts == tuple(sorted((concept, "B")))
    assert np.array_equal(loaded.vectors[concept], [1.0, 2.0])


@pytest.mark.parametrize("token", ["1_0", "١٢", "1e", "0x1p3", "1,5", "#2"])
def test_load_rejects_what_numpy_cannot_parse(tmp_path, token):
    # Python's float() accepts "1_0" and "١٢"; the file grammar does not
    path = tmp_path / "e.txt"
    path.write_text(f"2 2\nA 1 2\nB 3 {token}\n", encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        load_embedding(path)
    assert str(exc.value) == f"{path}:3: bad vector value"


@pytest.mark.parametrize("body, line_no, message", [
    ("A 1 x\nA 1 2\n", 2, "bad vector value"),
    ("A 1 2\nB 1 x\nB 1 2\n", 3, "bad vector value"),
    ("A 1 2\nA 1 x\n", 3, "bad vector value"),
    ("A 1 x\nB 2\n", 2, "bad vector value"),
    ("A 1 x\n 1 2\n", 2, "bad vector value"),
    ("A 1 nan\nB 1 x\n", 2, "non-finite value in vector for 'A'"),
    ("A 1 x\nB 1 nan\n", 2, "bad vector value"),
    ("A 1 2\nB 1 inf\nA 1 2\n", 3, "non-finite value in vector for 'B'"),
    ("A 1 2\nB 2\nC 1 nan\n", 3, "expected id plus 2 values"),
    ("A 1 2\nA 1 2\nC 1 x\n", 3, "duplicate concept 'A'"),
])
def test_load_reports_the_first_bad_line(tmp_path, body, line_no, message):
    path = tmp_path / "e.txt"
    path.write_text(f"3 2\n{body}", encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        load_embedding(path)
    assert str(exc.value) == f"{path}:{line_no}: {message}"


def test_load_peak_memory_stays_within_4x_the_array(tmp_path, monkeypatch):
    # the size of a fused colex-prone set
    values = np.random.default_rng(8).standard_normal((2428, 128))
    save_embedding(EmbeddingSet([f"C{i:04d}" for i in range(2428)], values), tmp_path / "e.txt")
    monkeypatch.setattr(embeddings, "_written", {})  # parse the file
    loaded, peak = traced_peak(load_embedding, tmp_path / "e.txt")
    assert loaded.values.shape == (2428, 128)
    assert peak < 4 * loaded.values.nbytes, f"peak {peak / 1e6:.2f} MB"


def test_save_peak_memory_stays_within_2x_the_array(tmp_path, monkeypatch):
    monkeypatch.setattr(embeddings, "_written", {})
    es = EmbeddingSet([f"C{i:04d}" for i in range(2428)],
                      np.random.default_rng(8).standard_normal((2428, 128)))
    _, peak = traced_peak(save_embedding, es, tmp_path / "e.txt")
    assert peak < 2 * es.values.nbytes, f"peak {peak / 1e6:.2f} MB"


# ---------------------------------------------------------------------------
# reuse of what the process wrote


@pytest.fixture
def parses(monkeypatch):
    """The paths `load_embedding` parses, in order, from an empty reuse table."""
    monkeypatch.setattr(embeddings, "_written", {})
    seen = []
    original = embeddings._parse_embedding

    def spy(path):
        seen.append(path)
        return original(path)

    monkeypatch.setattr(embeddings, "_parse_embedding", spy)
    return seen


def wide_set(rows=40, dim=7):
    """Values at every scale the text has, through both of the formatter's paths."""
    rng = np.random.default_rng(11)
    values = rng.standard_normal((rows, dim)) * 10.0 ** rng.integers(-30, 31, (rows, dim))
    values[0] = [0.0, -0.0, 5e-324, 1e-300, 1e22, 1e23, 100000005.0]
    values[1, :3] = [0.123456785, 9.9999999e22, -2.5e-7]
    values[2:20:3] = 0.0  # rows of zeros
    return EmbeddingSet([f"C {i:03d}" for i in range(rows)], values)


def assert_same_set(got, want):
    assert got.concepts == want.concepts
    assert got.values.view(np.uint64).tolist() == want.values.view(np.uint64).tolist()
    assert got.provenance == want.provenance
    assert not got.values.flags.writeable


@pytest.mark.parametrize("spelling", ["absolute", "relative", "dot"])
def test_load_of_a_saved_file_equals_a_fresh_parse(tmp_path, monkeypatch, parses, spelling):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    path = {"absolute": tmp_path / "d" / "e.emb", "relative": "d/e.emb",
            "dot": "./d/e.emb"}[spelling]
    save_embedding(wide_set(), tmp_path / "d" / "e.emb")
    reused = load_embedding(path)
    assert parses == []
    assert_same_set(reused, embeddings._parse_embedding(Path(path)))
    assert reused.provenance == {"method": "file", "path": str(Path(path))}


def test_a_file_changed_after_saving_is_parsed_again(tmp_path, parses):
    path = tmp_path / "e.emb"
    save_embedding(sample_set(), path)
    load_embedding(path)
    assert parses == []
    path.write_text(path.read_text(encoding="utf-8").replace("TREE 1 ", "TREE 2 "),
                    encoding="utf-8")
    assert load_embedding(path).vectors["TREE"][0] == 2.0
    assert parses == [path]
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[2] = lines[2].rsplit(" ", 1)[0] + " x"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        load_embedding(path)
    assert str(exc.value) == f"{path}:3: bad vector value"


def test_save_reads_nothing_back_and_keeps_the_digest_of_the_file(tmp_path, monkeypatch,
                                                                   parses):
    modes = []

    def spy(file, mode="r", *args, **kwargs):
        modes.append(mode)
        return real_open(file, mode, *args, **kwargs)

    real_open = io.open
    path = tmp_path / "e.emb"
    with monkeypatch.context() as patch:
        patch.setattr(io, "open", spy)
        patch.setattr(builtins, "open", spy)
        save_embedding(wide_set(), path)
    assert modes == ["wb"]
    assert embeddings._written[path.resolve()].sha256 == file_sha256(path)
    reused = load_embedding(path)
    assert parses == []
    assert_same_set(reused, embeddings._parse_embedding(path))


def test_a_deleted_file_is_dropped_at_the_next_save(tmp_path, parses):
    for name in ("a.emb", "b.emb"):
        save_embedding(sample_set(), tmp_path / name)
    (tmp_path / "a.emb").unlink()
    assert len(embeddings._written) == 2
    save_embedding(sample_set(), tmp_path / "c.emb")
    assert set(embeddings._written) == {(tmp_path / n).resolve() for n in ("b.emb", "c.emb")}


def test_a_file_the_process_did_not_write_is_parsed_on_every_load(tmp_path, parses):
    path = tmp_path / "e.emb"
    path.write_text("2 2\nA 1 2\nB 3 4\n", encoding="utf-8")
    for _ in range(2):
        assert load_embedding(path).concepts == ("A", "B")
    assert parses == [path, path]
    assert embeddings._written == {}


def test_an_id_with_a_line_break_or_a_file_that_is_not_regular_is_not_kept(tmp_path, parses):
    save_embedding(EmbeddingSet(("A\rB", "C"), [[1.0], [2.0]]), tmp_path / "e.emb")
    save_embedding(sample_set(), "/dev/null")
    assert embeddings._written == {}


def test_a_colex_prone_pass_parses_no_embedding_file(tmp_path, monkeypatch, capsys, parses):
    golden.check_workload("colex-prone", 1, tmp_path, monkeypatch, capsys)
    assert parses == []
