"""JSON text for columns and rows of floats, without one json.dumps call per value."""

from __future__ import annotations

import json

import numpy as np


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
