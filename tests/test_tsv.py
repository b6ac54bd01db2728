"""The shared table format: one contract for every TSV loader, and the writers."""

import json

import numpy as np
import pytest

from colexvec.combine import load_concept_map
from colexvec.errors import ParseError, ValidationError
from colexvec.evaluation import load_concept_pairs, load_rated_pairs
from colexvec.graph import load_graph
from colexvec.tsv import format_floats, number, read_tsv, write_json, write_lines
from colexvec.wordlist import load_wordlist

# loader, header and one valid row; in NUMBER_LOADERS the row's last cell
# is a number
LOADERS = [
    pytest.param(load_wordlist, "LANGUAGE\tFAMILY\tCONCEPT\tFORM", "L1\tF1\tTREE\tt u m a",
                 id="wordlist"),
    pytest.param(load_graph, "SOURCE\tTARGET\tWEIGHT", "TREE\tBARK\t2", id="graph"),
    pytest.param(load_rated_pairs, "CONCEPT_A\tCONCEPT_B\tRATING", "TREE\tBARK\t3.5",
                 id="rated-pairs"),
    pytest.param(load_concept_pairs, "CONCEPT_A\tCONCEPT_B", "TREE\tBARK", id="pairs"),
    pytest.param(load_concept_pairs, "CONCEPT_A\tCONCEPT_B\tWEIGHT", "TREE\tBARK\t7",
                 id="weighted-pairs"),
    pytest.param(load_concept_map, "CONCEPT\tWORD\tFREQUENCY", "TREE\tderevo\t0.5",
                 id="concept-map"),
]
NUMBER_LOADERS = [p for p in LOADERS if p.id not in ("wordlist", "pairs")]


def write_table(tmp_path, header, *rows):
    path = tmp_path / "table.tsv"
    path.write_text("\n".join((header,) + rows) + "\n", encoding="utf-8")
    return path


def parse_error(loader, path) -> ParseError:
    with pytest.raises(ParseError) as exc:
        loader(path)
    assert str(exc.value).startswith(f"{path}:{exc.value.line_no}: ")
    return exc.value


@pytest.mark.parametrize("loader, header, row", LOADERS)
def test_wrong_header_fails_at_line_1(tmp_path, loader, header, row):
    for wrong in (header.lower(), header + "\tEXTRA", header.rsplit("\t", 1)[0] + "\tX", ""):
        assert parse_error(loader, write_table(tmp_path, wrong, row)).line_no == 1


@pytest.mark.parametrize("loader, header, row", LOADERS)
def test_cell_count_follows_the_header(tmp_path, loader, header, row):
    short = row.rsplit("\t", 1)[0]
    for bad in (short, row + "\textra"):
        error = parse_error(loader, write_table(tmp_path, header, row, bad))
        assert error.line_no == 3
        assert "columns" in str(error)


@pytest.mark.parametrize("loader, header, row", LOADERS)
def test_blank_lines_are_skipped(tmp_path, loader, header, row):
    plain = loader(write_table(tmp_path, header, row))
    assert loader(write_table(tmp_path, header, "", row, "", "")) == plain


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e400"])
@pytest.mark.parametrize("loader, header, row", NUMBER_LOADERS)
def test_non_finite_number_fails_at_its_line(tmp_path, loader, header, row, text):
    bad = row.rsplit("\t", 1)[0] + "\t" + text
    error = parse_error(loader, write_table(tmp_path, header, row, "", bad))
    assert error.line_no == 4
    assert str(error).endswith(f": bad {header.rsplit(chr(9), 1)[1].lower()} '{text}'")


def test_read_tsv_turns_validation_errors_into_line_errors(tmp_path):
    def row(a, b):
        if a == b:
            raise ValidationError(f"same cells {a!r}")
        return a + b

    assert read_tsv(write_table(tmp_path, "A\tB", "x\ty"), ("A\tB",), row) == ["xy"]
    path = write_table(tmp_path, "A\tB", "x\ty", "z\tz")
    with pytest.raises(ParseError, match=r":3: same cells 'z'$"):
        read_tsv(path, ("A\tB",), row)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("blank_lines", [0, 9000])  # 9,000 lines pass the decoder's first chunk
@pytest.mark.parametrize("loader, header, row", LOADERS)
def test_non_utf8_fails_at_the_line_of_the_first_bad_byte(tmp_path, loader, header, row,
                                                         blank_lines, newline):
    lines = [line.encode("utf-8") for line in [header, row] + [""] * blank_lines + [row]]
    path = tmp_path / "table.tsv"
    path.write_bytes(newline.encode().join(lines + [b"\xff" + row.encode(), b"\xfe"]))
    error = parse_error(loader, path)
    assert str(error) == f"{path}:{blank_lines + 4}: not UTF-8 text"


def test_read_tsv_splits_rows_at_newlines_only(tmp_path):
    # str.splitlines would also split at these
    cells = ["a\x0cb", "c\x1cd", "e\x85f", "g\u2028h"]
    path = write_table(tmp_path, "A\tB", "\t".join(cells[:2]), "\t".join(cells[2:]))
    assert read_tsv(path, ("A\tB",), lambda a, b: (a, b)) == [tuple(cells[:2]), tuple(cells[2:])]


@pytest.mark.parametrize("text", ["nan", "NaN", "inf", "-inf", "1e400", "-1e400", "", "x", "1,5"])
def test_number_rejects_non_finite_and_non_numbers(text):
    with pytest.raises(ValidationError, match=f"^bad rating {text!r}$"):
        number(text, "rating")


def test_number_kinds():
    assert number("2.5", "rating") == 2.5
    assert number("-0", "rating") == 0.0
    assert number("7", "weight", int) == 7
    assert number("1" * 400, "weight", int) == int("1" * 400)
    with pytest.raises(ValidationError, match="^bad weight '7.5'$"):
        number("7.5", "weight", int)


VALUES = [-0.0, 0.0, 5e-324, 1e-300, 1e20, 123456789.123, 3.0, -42.0, 1e16, 0.1, 1 / 3, -2.5e-7]


@pytest.mark.parametrize("sep", ["\t", " ", ""])
def test_format_floats_equals_per_value_format(sep):
    assert format_floats(VALUES, sep) == sep.join(format(v, ".8g") for v in VALUES)
    for v in VALUES:
        assert format_floats([v], sep) == format(v, ".8g")
    assert format_floats([], sep) == ""


@pytest.mark.parametrize("sep", ["\t", " "])
@pytest.mark.parametrize("row", [
    [0.0] * 9,
    [-0.0] * 9,
    [0.0, 1.5, 0.0, -0.0, 0.0, 2.0, 0.0, 7e-9],  # exactly half +0.0
    [0.0] * 20 + [-0.0, 5e-324, 1e300, 0.0, -0.0, 0.25] + [0.0] * 7,
    VALUES,
], ids=["all-zero", "all-negative-zero", "half-zero", "mostly-zero", "values"])
def test_format_floats_of_zero_heavy_rows_equals_per_value_format(row, sep):
    assert format_floats(row, sep) == sep.join(format(v, ".8g") for v in row)
    assert format_floats(np.array(row), sep) == sep.join(format(v, ".8g") for v in row)


def test_writers_bytes(tmp_path):
    write_lines(tmp_path / "t.tsv", "A\tB", (f"{i}\t{i * i}" for i in range(3)))
    assert (tmp_path / "t.tsv").read_bytes() == b"A\tB\n0\t0\n1\t1\n2\t4\n"
    write_lines(tmp_path / "h.tsv", "A\tB", [])
    assert (tmp_path / "h.tsv").read_bytes() == b"A\tB\n"
    doc = {"b": [1, 2], "a": "é"}
    write_json(tmp_path / "d.json", doc)
    assert (tmp_path / "d.json").read_text(encoding="utf-8") == (
        json.dumps(doc, sort_keys=True, indent=2) + "\n"
    )
