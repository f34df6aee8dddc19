"""JSON text for columns of floats, without one json.dumps call per value."""

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
