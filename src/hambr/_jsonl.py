"""JSON Lines text for columns of numbers, written a fixed number of rows at a time."""

from __future__ import annotations

import json
from itertools import chain, repeat

import numpy as np

CHUNK_ROWS = 512  # rows formatted per write: a writer holds this many rows' text at most


def float_texts(values) -> list[str]:
    """json.dumps's text for every float of `values`, flattened in C order.

    repr(float) is json's text for a finite float; NaN and the infinities go
    through json.dumps, which spells them NaN, Infinity and -Infinity.
    """
    flat = np.asarray(values, dtype=np.float64).ravel()
    vals = flat.tolist()
    texts = list(map(repr, vals))
    for i in np.flatnonzero(~np.isfinite(flat)).tolist():
        texts[i] = json.dumps(vals[i])
    return texts


def list_texts(rows) -> list[str]:
    """json.dumps's text for every row of the (n, d) array `rows`, as a list."""
    rows = np.asarray(rows, dtype=np.float64)
    texts, d = float_texts(rows), rows.shape[-1]
    return ["[" + ", ".join(texts[i * d:(i + 1) * d]) + "]" for i in range(len(rows))]


def _column_texts(column) -> list[str]:
    """json.dumps's text for each entry of `column`, by its dtype: a bool is
    true or false, an integer its digits, a float a number and a row of a
    2-d float array a list."""
    column = np.asarray(column)
    if column.dtype == bool:
        return np.where(column, "true", "false").tolist()
    if column.dtype.kind in "iu":
        return list(map(str, column.tolist()))
    return list_texts(column) if column.ndim == 2 else float_texts(column)


def write_rows(fh, template: str, *columns) -> None:
    """Write one line per row of the equal-length `columns` (arrays or ranges):
    `template` with its k-th `{}` replaced by the json.dumps text of the
    row's entry in the k-th column.

    The rows go out CHUNK_ROWS at a time, so the text held at once stays the
    same size whatever the number of rows.
    """
    head, *tails = template.split("{}")
    n = len(columns[0])
    for lo in range(0, n, CHUNK_ROWS):
        rows = min(CHUNK_ROWS, n - lo)
        pieces = [repeat(head, rows)]
        for column, tail in zip(columns, tails):
            pieces += [_column_texts(column[lo:lo + rows]), repeat(tail, rows)]
        fh.write("".join(chain.from_iterable(zip(*pieces))))
