"""The plain-table format behind every TSV the package reads and writes.

A table is UTF-8 text: one header line, then one row per line with exactly
as many tab-separated cells as the header. Blank lines are skipped, numbers
must be finite, and every failure is a ParseError naming `path:line`.
Every text input of the package, table or not, is read through `open_text`.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from pathlib import Path

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


def format_floats(values, sep: str) -> str:
    """The values at 8 significant digits joined by `sep`.

    One `%` operation over the row; the bytes equal
    `sep.join(format(v, ".8g") for v in values)`. In a row that is more
    than half +0.0, such as a sparse baseline's table row, the format
    string holds a literal "0" for each +0.0 cell, so only the other
    cells are formatted; -0.0 keeps its "%.8g", which prints "-0".
    """
    values = np.asarray(values, dtype=float)
    zero = (values == 0.0) & ~np.signbit(values)
    # a row of few zeros keeps the plain format: on the 1,246-cell rows of
    # a shortest-path table, whose only zero is the diagonal, the literal
    # form took about 30% longer
    if 2 * np.count_nonzero(zero) > len(values):
        cells = ["0"] * len(values)
        for i in np.flatnonzero(~zero).tolist():
            cells[i] = "%.8g"
        return sep.join(cells) % tuple(values[~zero].tolist())
    return sep.join(["%.8g"] * len(values)) % tuple(values.tolist())


def write_lines(path, header: str, lines) -> None:
    """Write `header` and then each of `lines`, each ended by a newline."""
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for line in lines:
            fh.write(line + "\n")


def write_json(path, obj) -> None:
    """Key-sorted, two-space-indented JSON with a final newline."""
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")
