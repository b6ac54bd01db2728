"""The shared table format: one contract for every TSV loader, and the writers."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from colexvec.combine import load_concept_map
from colexvec.errors import ParseError, ValidationError
from colexvec.evaluation import load_concept_pairs, load_rated_pairs
from colexvec.graph import load_graph
from colexvec import tsv
from colexvec.runtime import file_sha256
from colexvec.tsv import decimal_values, format_rows, number, read_tsv, write_json, write_lines
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


def format_floats(values, sep):
    """One row through the matrix kernel."""
    return next(format_rows([values], sep))


def per_value(matrix, sep):
    """The reference: Python's own `%.8g`, one cell at a time."""
    return [sep.join(format(float(v), ".8g") for v in row) for row in np.asarray(matrix)]


def assert_rows_and_values(matrix, sep):
    """`format_rows` makes the reference rows, and `decimal_values` gives
    each cell bit for bit `float` of its `%.8g` text."""
    assert list(format_rows(matrix, sep)) == per_value(matrix, sep)
    got = decimal_values(matrix)
    want = np.array([[float(format(float(v), ".8g")) for v in row] for row in np.asarray(matrix)])
    want = want.reshape(got.shape)
    assert got.dtype == np.float64 and got.flags.c_contiguous
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


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


SEPS = pytest.mark.parametrize("sep", ["\t", " ", ""])


@SEPS
def test_format_rows_of_random_bit_patterns(sep):
    rng = np.random.default_rng(20)
    cells = rng.integers(0, 2**64, size=40_000, dtype=np.uint64).view(np.float64)
    # about one cell in 2**11 of random bits is subnormal; add more, and the specials
    tiny = rng.integers(1, 2**52, size=400, dtype=np.uint64).view(np.float64)
    specials = [np.inf, -np.inf, np.nan, -np.nan, 0.0, -0.0, 5e-324, -5e-324,
                2.2250738585072014e-308, np.nextafter(2.2250738585072014e-308, 0),
                1.7976931348623157e308, -1.7976931348623157e308]
    cells = np.concatenate([cells, tiny, -tiny, specials])
    rng.shuffle(cells)
    matrix = cells.reshape(-1, 12)
    assert list(format_rows(matrix, sep)) == per_value(matrix, sep)


@SEPS
def test_format_rows_of_powers_of_ten_and_their_neighbours(sep):
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    cells = np.concatenate([powers, np.nextafter(powers, np.inf), np.nextafter(powers, 0)])
    cells = np.concatenate([cells, -cells]).reshape(-1, 6)
    assert list(format_rows(cells, sep)) == per_value(cells, sep)


def test_format_rows_of_every_four_digit_group():
    # each 4-digit group as the low half of the mantissa, then as the high
    # half with a low half of 0001 and of 0000, in fixed and scientific notation
    k = np.arange(10_000)
    high = np.arange(1000, 10_000)
    mantissas = np.concatenate([12_340_000 + k, high * 10_000 + 1, high * 10_000])
    cells = np.concatenate([mantissas / 1e7, mantissas * 1e-12]).reshape(-1, 4)
    assert list(format_rows(cells, " ")) == per_value(cells, " ")


# exact decimal ties at the 9th significant digit: %.8g rounds them half to even
TIES = [100000005.0, 123456785.0, 100000015.0, 12345678.5, 99999999.5, 999999995.0,
        1000000050.0, 2.5e16 + 4.0, 0.5, 2.5]


@SEPS
def test_format_rows_of_exact_ties(sep):
    cells = np.array(TIES + [-v for v in TIES]).reshape(-1, 4)
    assert list(format_rows(cells, sep)) == per_value(cells, sep)


def test_format_rows_sends_the_tie_band_and_specials_to_python(monkeypatch):
    seen = []

    def spy(value, spec):
        seen.append(value)
        return format(value, spec)

    # within 1e-6 of a half-integer once scaled to eight digits
    band = [100000005.0, np.nextafter(100000005.0, np.inf), np.nextafter(100000005.0, 0),
            0.123456785, 1.00000005, 7.7777777500000001e-100]
    special = [np.inf, np.nan, 5e-324, 1e-290, 1e290]
    regular = [2.5, 0.1, 1 / 3, 1e-5, 123456.78, 0.0, -0.0]
    monkeypatch.setattr(tsv, "format", spy, raising=False)
    cells = np.array(band + special + regular)
    # the same cells among more +0.0 and -0.0 than all the others
    mostly_zero = np.zeros(3 * len(cells))
    mostly_zero[1::6] = -0.0
    mostly_zero[::3] = cells
    assert 2 * np.count_nonzero(mostly_zero == 0) > mostly_zero.size
    for row in (cells, mostly_zero):
        seen.clear()
        assert list(format_rows(row[None], "\t")) == per_value(row[None], "\t")
        assert [str(v) for v in seen] == [str(float(v)) for v in band + special]


@SEPS
def test_format_rows_of_zero_rows(sep):
    z = np.zeros((6, 9))
    z[1] = -0.0
    z[2, 3] = -0.0
    z[3, [0, 8]] = [1.5, -2e-9]
    z[4, :5] = 0.125  # four +0.0 of nine: the dense path, zeros and all
    z[5, 4:] = -7.0
    assert list(format_rows(z, sep)) == per_value(z, sep)
    assert list(format_rows(z[[0]], sep)) == ["0" + (sep + "0") * 8]
    assert list(format_rows(z[[1]], sep)) == ["-0" + (sep + "-0") * 8]


def test_format_rows_shapes_and_layouts():
    assert list(format_rows(np.zeros((0, 5)), "\t")) == []
    assert list(format_rows(np.zeros((3, 0)), "\t")) == ["", "", ""]
    column = np.array([[0.5], [-1e-7], [0.0], [3e300]])
    assert list(format_rows(column, "\t")) == ["0.5", "-1e-07", "0", "3e+300"]
    rng = np.random.default_rng(5)
    square = rng.standard_normal((30, 40)) * 10.0 ** rng.integers(-9, 9, (30, 40))
    square[::3, ::2] = 0.0
    for view in (square.T, square[::2, 1::3], np.asfortranarray(square)):
        assert not view.flags["C_CONTIGUOUS"]
        assert list(format_rows(view, " ")) == per_value(view, " ")
    assert list(format_rows([[1, 2], [3, 4]], " ")) == ["1 2", "3 4"]


@pytest.mark.parametrize("block", [1, 7, 16, 40])
def test_format_rows_with_blocks_that_split_rows(monkeypatch, block):
    rng = np.random.default_rng(block)
    matrix = rng.random((9, 25)) * 10.0 ** rng.integers(-6, 10, (9, 25))
    matrix[2:6] = 0.0  # cells 50-149: mostly-zero blocks at every size
    flat = matrix.reshape(-1)
    specials = [60, 70, 80, 100, 120]
    flat[specials] = [np.nan, -0.0, 100000005.0, 5e-324, -0.0]
    matrix[7, 1::2] = 0.0  # twelve zeros of 25
    matrix[8, 3] = np.nan
    zero_share = [np.mean(flat[i : i + block] == 0) for i in range(0, flat.size, block)]
    assert min(zero_share) <= 0.5 < max(zero_share)
    if block > 1:  # a block of one cell is mostly zero only if that cell is
        assert all(zero_share[i // block] > 0.5 for i in specials)
    monkeypatch.setattr(tsv, "BLOCK", block)
    for sep in ("\t", ""):
        assert list(format_rows(matrix, sep)) == per_value(matrix, sep)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    cells=arrays(np.float64, st.tuples(st.integers(1, 9), st.integers(1, 9))),
    zero_share=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
    block=st.integers(1, 40),
    sep=st.sampled_from(["\t", " ", ""]),
)
def test_format_rows_equals_per_value_format_at_any_zero_share_and_block(
        cells, zero_share, seed, block, sep):
    rng = np.random.default_rng(seed)
    zero = rng.random(cells.shape) < zero_share
    cells[zero] = np.where(rng.random(np.count_nonzero(zero)) < 0.5, 0.0, -0.0)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tsv, "BLOCK", block)
        assert list(format_rows(cells, sep)) == per_value(cells, sep)
        assert_rows_and_values(cells, sep)


# the text's value, mantissa * 10**(e - 7), is one exact multiply or divide
# for |e - 7| <= 22 and Python's parse beyond
DECIMAL_CELLS = [
    0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e22, 1e23, 9.9999999e22, -9.9999999e22,
    # scaled to eight digits, within 1e-6 of a half-integer: the tie band
    100000005.0, np.nextafter(100000005.0, np.inf), 0.123456785, 1.00000005,
    7.7777777500000001e-100,
    # e - 7 = 22 and 23, -22 and -23, on both sides of each power of ten
    1.2345678e29, 9.8765432e29, 1e29, 1.2345678e30, 1e30,
    1.2345678e-15, 9.8765432e-15, 1e-15, 1.2345678e-16, 9.9999999e-16,
    np.nextafter(1e29, 0), np.nextafter(1e-15, 0), np.nextafter(1e30, 0),
    1 / 3, 2 / 3, 0.1, 123456.789, 2.5e-7, 1e-5, 99999999.5,
]


@pytest.mark.parametrize("block", [1, 3, 16384])
def test_format_rows_gives_the_value_of_each_text(monkeypatch, block):
    monkeypatch.setattr(tsv, "BLOCK", block)
    cells = np.array(DECIMAL_CELLS + [-v for v in DECIMAL_CELLS])
    for sep in (" ", ""):
        assert_rows_and_values(cells.reshape(-1, 4), sep)
        # the same cells among more +0.0 and -0.0 than all the others
        mostly_zero = np.zeros(3 * cells.size)
        mostly_zero[1::6] = -0.0
        mostly_zero[::3] = cells
        assert_rows_and_values(mostly_zero.reshape(-1, 6), sep)
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    near = np.concatenate([powers, np.nextafter(powers, np.inf), np.nextafter(powers, 0)])
    assert_rows_and_values(near.reshape(-1, 6), " ")
    # every layout; a Fortran-ordered result would not be filled through a flat view
    square = cells.reshape(-1, 4)
    for view in (np.asfortranarray(square), square.T, square[::-1], square[:, ::2]):
        assert not view.flags.c_contiguous
        assert_rows_and_values(view, " ")
    assert_rows_and_values(np.array([[0, -7, 123456789], [10**15, -(10**17) - 1, 99999999]]), "\t")
    assert decimal_values(np.zeros((3, 0))).shape == (3, 0)


@pytest.mark.parametrize("sep", ["\n", "\0", ", ", "é"])
def test_format_rows_rejects_a_separator_it_cannot_write(sep):
    with pytest.raises(ValueError, match="sep must be one ASCII character or empty"):
        format_rows(np.ones((2, 2)), sep)  # raised at the call, before any row is made
    with pytest.raises(ValueError, match="expected a 2-D matrix"):
        format_rows(np.ones(3), "\t")


def test_writers_bytes(tmp_path):
    write_lines(tmp_path / "t.tsv", "A\tB", (f"{i}\t{i * i}" for i in range(3)))
    assert (tmp_path / "t.tsv").read_bytes() == b"A\tB\n0\t0\n1\t1\n2\t4\n"
    write_lines(tmp_path / "h.tsv", "A\tB", [])
    assert (tmp_path / "h.tsv").read_bytes() == b"A\tB\n"
    # the digest write_lines returns is that of the bytes on disk
    lines = ["Ärger\t1", "森林 TREE\t-2.5e-07"] * 40
    for name, rows in (("u.tsv", lines), ("header-only.tsv", [])):
        digest = write_lines(tmp_path / name, "CONCEPT\tVALUE", iter(rows))
        data = (tmp_path / name).read_bytes()
        assert data == "".join(f"{line}\n" for line in ["CONCEPT\tVALUE", *rows]).encode()
        assert digest == hashlib.sha256(data).hexdigest() == file_sha256(tmp_path / name)
    doc = {"b": [1, 2], "a": "é"}
    write_json(tmp_path / "d.json", doc)
    assert (tmp_path / "d.json").read_text(encoding="utf-8") == (
        json.dumps(doc, sort_keys=True, indent=2) + "\n"
    )
