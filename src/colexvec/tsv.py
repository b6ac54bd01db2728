"""The plain-table format behind every TSV the package reads and writes.

A table is UTF-8 text: one header line, then one row per line with exactly
as many tab-separated cells as the header. Blank lines are skipped, numbers
must be finite, and every failure is a ParseError naming `path:line`.
Every text input of the package, table or not, is read through `open_text`.
Every float the package writes into a score table, a similarity matrix
or an embedding file goes through `format_rows`; a graph's weights are
written as bare integers and a t-SNE scatter's X and Y with `.6f`.
`format_rows` is one array kernel whose bytes are those of Python's
`%.8g` on each value: it packs a block of cells at a time into 16-byte
words and drops their padding with one `bytes.translate`. From the same
decimal mantissa and exponent, `decimal_values` gives the float64 each
text denotes, bit for bit `float(format(v, ".8g"))`: one multiply or
divide by an exact power of ten (Clinger 1990). `write_lines` returns the
SHA-256 of the bytes it wrote when asked, so `save_embedding` keeps a
file's digest and what a parse of it gives without reading it back; the
other writers hash nothing.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import ParseError, ValidationError


@contextmanager
def open_text(path):
    """`path` opened as `open` reads UTF-8 text, with universal newlines.

    A leading UTF-8 byte-order mark is dropped. A byte that is not UTF-8 is
    a ParseError at its line, "not UTF-8 text".
    """
    try:
        with Path(path).open(encoding="utf-8-sig") as fh:
            yield fh
    except UnicodeDecodeError:
        # the decoder's offset is within the chunk it decoded, so find the
        # first bad byte in the whole file; \r\n, \r and \n end a line
        data = Path(path).read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            data = data[: exc.start]
        line_no = data.count(b"\n") + data.count(b"\r") - data.count(b"\r\n") + 1
        raise ParseError(path, line_no, "not UTF-8 text") from None


def read_tsv(path, headers, row) -> list:
    """`row(*cells)` for every row of the table at `path`.

    The first line must equal one of the header lines in the tuple
    `headers`; its cell count fixes every row's. A ValidationError raised
    by `row` becomes a ParseError at the row's line.
    """
    path = Path(path)
    with open_text(path) as fh:
        header = fh.readline().rstrip("\n")
        if header not in headers:
            expected = " or ".join(repr(h) for h in headers)
            raise ParseError(path, 1, f"expected header {expected}, got {header!r}")
        width = header.count("\t") + 1
        rows = []
        for line_no, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            cells = line.split("\t")
            if len(cells) != width:
                raise ParseError(path, line_no, f"expected {width} columns, got {len(cells)}")
            try:
                rows.append(row(*cells))
            except ValidationError as exc:
                raise ParseError(path, line_no, str(exc)) from None
    return rows


def number(text: str, what: str, kind=float):
    """`kind(text)`, rejecting text that is not a finite number."""
    try:
        value = kind(text)
    except ValueError:
        raise ValidationError(f"bad {what} {text!r}") from None
    if isinstance(value, float) and not math.isfinite(value):
        raise ValidationError(f"bad {what} {text!r}")
    return value


# Cells per `_pack` call. A block's temporaries come to about 2.8 MB. At
# 4,096 cells (0.7 MB) numpy's per-call overhead on the few nonzero cells
# of a mostly-zero block made the four baseline dumps 0.53 s, not 0.48 s.
BLOCK = 16384
# |x| in [1e-280, 1e280] scales to eight digits through `_POW10` without
# overflow or subnormals; the kernel leaves every other cell to Python
_LOW, _HIGH = 1e-280, 1e280
# _POW10[k + 300] is float("1e<k>"), the correctly rounded 10**k
_POW10 = np.array([float(f"1e{k}") for k in range(-300, 301)])


def _word(text: str) -> int:
    """The ASCII `text`, at most 8 characters, as a little-endian uint64 word."""
    return int.from_bytes(text.encode("ascii"), "little")


def _keep(n: int) -> int:
    """The mask of a word's first `n` bytes."""
    return (1 << 8 * n) - 1


def _quads() -> np.ndarray:
    """Entry i, for i in 0..9999: the word "%04d" % i in the low half and,
    in the high half, the mask of its digits up to the last nonzero one."""
    twos = [f"{i:02d}" for i in range(100)]
    words = np.array([_word(two) for two in twos], dtype="<u8")
    masks = np.array([_keep(len(two.rstrip("0"))) for two in twos], dtype="<u8")
    # entry 100 * a + b: a's mask where b is "00", else all of a and b's mask
    quads = np.where(masks > 0, masks << 16 | 0xFFFF, masks[:, None]) << 32
    return (quads | words[:, None] | words << 16).reshape(-1)


_QUADS = _quads()
# By decimal exponent x, at x + 300: the head is the digits before the
# point, one in scientific notation and x + 1 in fixed notation from 1 up;
# below 1 there is none, and the head text "0." with -x - 1 zeros stands
# in its place. The fraction, the digits after the head, is shifted into
# the cell's first word by 16 bits (by 48 below 1, where it starts at
# byte 6); the exponent suffix, "e+XX" or "e-XXX", sits at bytes 10-14.
_EXPONENTS = range(-300, 301)
_HEAD_DIGITS = [0 if -4 <= x < 0 else x + 1 if 0 <= x < 8 else 1 for x in _EXPONENTS]
_HEAD_MASK = np.array([_keep(h) for h in _HEAD_DIGITS], dtype="<u8")
_HEAD_TEXT = np.array([_word("0." + "0" * (-x - 1)) if -4 <= x < 0 else 0 for x in _EXPONENTS],
                      dtype="<u8")
_FRACTION_SHIFT = np.array([48 if -4 <= x < 0 else 16 for x in _EXPONENTS], dtype="<u8")
_SUFFIX = np.array([0 if -4 <= x < 8 else _word(f"e{x:+03d}") << 16 for x in _EXPONENTS],
                   dtype="<u8")
_POINTS = np.uint64(_word("." * 8))
_MINUS = np.uint64(ord("-"))
_ZERO = np.uint64(_word("0") << 8)  # "0" at byte 1, after the sign


def _rounded(cells: np.ndarray):
    """(mantissa, exponent, regular, to_python): each float64 cell rounded
    to eight significant digits as the integer-valued float `mantissa`
    times 10**(exponent - 7).

    A finite cell with |x| in [1e-280, 1e280] is `regular`. It takes
    x * 10**(7 - e) with e = floor(log10 x) and rounds it to the integer
    mantissa; a mantissa of 10**8 becomes 10**7 and e + 1. The scaled
    value is within 2.3e-8 of the exact one (two roundings of at most half
    an ulp each, below 1e8), so the mantissa is the correctly rounded one
    wherever the scaled value is more than 1e-6 from a half-integer. Cells
    in that band, non-finite cells and the nonzero cells outside the range
    are `to_python`: their text is Python's `format`. Every cell that is
    not regular has mantissa 10**7 and exponent 0.
    """
    x = np.abs(cells)
    regular = (x >= _LOW) & (x <= _HIGH)
    # the other cells go through the arithmetic as 1.0
    x = np.where(regular, x, 1.0)
    # log10 rounds across a power of ten only for x a few ulps from it,
    # where the scaled value rounds to 10**7, or to 10**8 and carries
    exponent = np.floor(np.log10(x)).astype(np.intp)
    x *= _POW10[307 - exponent]
    mantissa = np.rint(x)
    tie_band = np.abs(x - mantissa) >= 0.5 - 1e-6
    carry = mantissa >= 1e8  # rounded up to 10**8: one digit more
    if carry.any():
        mantissa[carry] = 1e7
        exponent += carry
    return mantissa, exponent, regular, ~regular & (cells != 0) | tie_band


def _words(cells: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Each of the float64 `cells` at `%.8g` and its separator, as a row of
    two uint64 words, 16 bytes, with 0 in every byte the text leaves empty.

    `ends[i]` holds cell i's separator byte in its top byte (0 for none).
    The sign is at byte 0, the head from byte 1, then the point and the
    fraction, the exponent suffix at bytes 10-14 and the separator at byte
    15. The fraction's digits stay in their places in the 8-digit word, up
    to its last nonzero one, and the point goes into the byte before the
    first of them when one is left. The digits are `_rounded`'s; +0.0 and
    -0.0 are the literals "0" and "-0".
    """
    mantissa, exponent, _, to_python = _rounded(cells)
    low = mantissa.astype(np.intp)
    high = low // 10_000
    low -= high * 10_000
    quad_high, quad_low = _QUADS[high], _QUADS[low]
    digits = quad_high & 0xFFFFFFFF | quad_low << 32
    # the mask of the eight digits up to the last nonzero one
    significant = np.where(low > 0, quad_low | 0xFFFFFFFF, quad_high >> 32)
    exponent += 300
    head_mask = _HEAD_MASK[exponent]
    head = (digits & head_mask | _HEAD_TEXT[exponent]) ^ (cells == 0)  # a 1.0's "1" becomes "0"
    fraction = digits & significant & ~head_mask
    # a point in the head's last byte, where no fraction digit stands
    fraction |= (head_mask ^ head_mask >> 8) & _POINTS * (fraction != 0)
    shift = _FRACTION_SHIFT[exponent]
    words = np.empty((len(cells), 2), dtype="<u8")
    words[:, 0] = np.signbit(cells) * _MINUS | head << 8 | fraction << shift
    words[:, 1] = ends | head >> 56 | fraction >> 64 - shift | _SUFFIX[exponent]
    for i in np.flatnonzero(to_python).tolist():
        text = format(float(cells[i]), ".8g").encode("ascii")
        words[i] = np.frombuffer(text.ljust(15, b"\0") + bytes([int(ends[i]) >> 56]), "<u8")
    return words


def _pack(cells: np.ndarray, ends: np.ndarray) -> bytes:
    """The text of `_words(cells, ends)`: one `bytes.translate` drops its 0 bytes.

    When more than half of the cells are +0.0 or -0.0, such as in a block
    of a sparse baseline's table, those cells are the constant words of
    "0" and "-0" and their separator, and only the others go through
    `_words`.
    """
    zero = cells == 0
    if 2 * np.count_nonzero(zero) > len(cells):
        words = np.empty((len(cells), 2), dtype="<u8")
        words[:, 0] = np.signbit(cells) * _MINUS | _ZERO
        words[:, 1] = ends
        rest = np.flatnonzero(~zero)
        words[rest] = _words(cells[rest], ends[rest])
    else:
        words = _words(cells, ends)
    return words.tobytes().translate(None, b"\0")


def _packed_rows(values: np.ndarray, sep: str) -> Iterator[str]:
    """The rows of the 2-D `values` as `_pack` writes them, cells joined by `sep`.

    Each row's last cell gets a newline for separator, so splitting the
    text yields the rows; a row may span blocks.
    """
    width = values.shape[1]
    cells = values.reshape(-1)
    text = ""
    for start in range(0, cells.size, BLOCK):
        block = cells[start : start + BLOCK]
        ends = np.full(len(block), ord(sep or "\0") << 56, dtype="<u8")
        ends[(width - 1 - start) % width :: width] = ord("\n") << 56
        text += _pack(block, ends).decode("ascii")
        *done, text = text.split("\n")
        yield from done


def format_rows(matrix, sep: str) -> Iterator[str]:
    """Each row of the 2-D `matrix` at 8 significant digits, joined by `sep`.

    The strings are byte for byte `sep.join(format(v, ".8g") for v in row)`
    for every row, made as they are iterated, a `BLOCK` of cells at a
    time. `sep` is one ASCII character other than NUL and newline, or
    empty. The cells are formatted as arrays (see `_words`); in a block
    that is more than half +0.0 or -0.0, only the other cells are, and
    each zero is written as the literal "0" or "-0". A matrix that is not
    C-contiguous is copied whole first (no caller in the package passes
    one).
    """
    values = np.asarray(matrix, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {values.shape}")
    if len(sep) > 1 or sep in ("\0", "\n") or not sep.isascii():
        raise ValueError(f"sep must be one ASCII character or empty, got {sep!r}")
    if values.shape[1] == 0:
        return iter([""] * len(values))
    return _packed_rows(values, sep)


def decimal_values(matrix) -> np.ndarray:
    """The value of each cell's `%.8g` text: a C-contiguous float64 array of
    the matrix's shape, bit for bit `float(format(v, ".8g"))` cell by cell.

    It is made a `BLOCK` of cells at a time from `_rounded`'s digits, so it
    is the value of the text `format_rows` writes. The text denotes
    mantissa * 10**(e - 7). Both factors are exact doubles when
    |e - 7| <= 22, so one multiply or divide rounds it correctly, as
    `float` does the text (Clinger 1990); zeros keep their sign. The other
    cells' values are `float` of Python's text.
    """
    values = np.asarray(matrix, dtype=np.float64)
    cells, out = values.reshape(-1), np.empty(values.size)
    for start in range(0, cells.size, BLOCK):
        block = cells[start : start + BLOCK]
        mantissa, exponent, regular, to_python = _rounded(block)
        scale = exponent - 7
        power = _POW10[np.abs(scale) + 300]
        value = np.where(scale >= 0, mantissa * power, mantissa / power)
        out[start : start + BLOCK] = np.where(regular, np.copysign(value, block), block)
        for i in np.flatnonzero(to_python | regular & (np.abs(scale) > 22)).tolist():
            out[start + i] = float(format(float(block[i]), ".8g"))
    return out.reshape(values.shape)


def write_lines(path, header: str, lines, sha256: bool = False):
    """Write `header` and then each of `lines`, each ended by a newline, as
    UTF-8. With `sha256`, return the SHA-256 of the bytes written, hashed
    as they are written; else None."""
    digest = hashlib.sha256() if sha256 else None
    lines = itertools.chain([header], lines)
    with Path(path).open("wb") as fh:
        for batch in iter(lambda: list(itertools.islice(lines, 64)), []):
            data = ("\n".join(batch) + "\n").encode("utf-8")
            if digest is not None:
                digest.update(data)
            fh.write(data)
    return None if digest is None else digest.hexdigest()


def write_json(path, obj) -> None:
    """Key-sorted, two-space-indented JSON with a final newline."""
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")
