import numpy as np
import pytest

from colexvec.embeddings import EmbeddingSet, load_embedding, save_embedding
from colexvec.errors import ParseError, ValidationError


def sample_set():
    return EmbeddingSet(
        dim=3,
        vectors={
            "TREE": [1.0, -0.5, 0.25],
            "OLDER BROTHER": [0.125, 2.0, -4.0],  # ids may contain spaces
            "BARK": [1e-9, 123456.789, 0.333333333333],
        },
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


def test_embedding_set_validation():
    with pytest.raises(ValidationError):
        EmbeddingSet(dim=2, vectors={"A": [1.0]})
    with pytest.raises(ValidationError):
        EmbeddingSet(dim=1, vectors={"A": [float("nan")]})
    with pytest.raises(ValidationError):
        EmbeddingSet(dim=0, vectors={})


def test_matrix_ordering():
    es = sample_set()
    m = es.matrix(["TREE", "BARK"])
    assert m.row_labels == ("TREE", "BARK")
    assert np.allclose(m.values[0], es.vectors["TREE"])
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
