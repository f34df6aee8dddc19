"""The artifact writers: exact json.dumps bytes at every chunk boundary, and
transient memory that does not grow with the number of rows."""

import io
import json
import tracemalloc

import numpy as np
import pytest

from hambr._jsonl import CHUNK_ROWS
from hambr.energy import BankSnapshot, dump_bank
from hambr.partition import dump_partition
from hambr.sampler import VirtualOutlierSet, dump_outliers
from hambr.synthgen import dump_dataset

R = CHUNK_ROWS
COUNTS = [0, 1, R - 1, R, R + 1, 3 * R + 2]
SPECIAL = [-0.0, 1e-300, 5e-324, 2.5e16, 1 / 3, np.nan, np.inf, -np.inf]


def floats(n, seed, special=SPECIAL):
    """n floats with the `special` values spread over the rows, so they land
    in the first, middle and last chunks."""
    values = np.random.default_rng(seed).uniform(0.0, 1.0, n)
    if n:
        values[np.linspace(0, n - 1, len(special)).astype(int)] = special
    return values


def unit_rows(n, seed, d=3):
    """(n, d) unit rows; a few of them hold -0.0 and 1e-300 coordinates."""
    rows = np.random.default_rng(seed).standard_normal((n, d))
    rows /= np.linalg.norm(rows, axis=1)[:, None]
    if n:
        rows[np.linspace(0, n - 1, 3).astype(int)] = np.eye(d)[0]
        rows[np.linspace(0, n - 1, 3).astype(int), 1:3] = -0.0, 1e-300
    return rows


def written(dump, *args):
    buf = io.StringIO()
    dump(*args, buf)
    return buf.getvalue()


def lines(rows):
    return "".join(json.dumps(row) + "\n" for row in rows)


@pytest.mark.parametrize("n", COUNTS)
class TestWritersMatchPerRowJsonDumps:
    def test_dataset(self, n):
        feats = unit_rows(n, 1)
        feats[n // 2:n // 2 + 1, 1] = np.nan  # the writer formats, it does not check
        true = np.arange(n) % 3
        observed = (true + (np.arange(n) % 5 == 0)) % 3
        want = lines({"feature": f.tolist(), "true": int(t), "observed": int(o)}
                     for f, t, o in zip(feats, true, observed))
        assert written(dump_dataset, feats, true, observed) == want

    @pytest.mark.parametrize("empty", [False, True], ids=["consensus", "no-consensus"])
    @pytest.mark.parametrize("columns", [np.asarray, np.ndarray.tolist], ids=["arrays", "lists"])
    def test_partition(self, n, columns, empty):
        losses, posteriors = floats(n, 2), floats(n, 3, SPECIAL[::-1])
        flags = np.arange(n) % 3 == 0
        member = np.zeros(n, dtype=bool) if empty else np.arange(n) % 4 == 1
        want = lines({"sample": i, "loss": float(l), "posterior": float(p),
                      "flag": bool(f), "in_consensus": bool(m)}
                     for i, (l, p, f, m) in enumerate(zip(losses, posteriors, flags, member)))
        buf = io.StringIO()
        dump_partition(buf, *map(columns, (losses, posteriors, flags, np.flatnonzero(member))))
        assert buf.getvalue() == want

    def test_bank(self, n):
        # a bank holds weights in (0, 1]: 5e-324 and 1.0 are its edge values
        feats, weights = unit_rows(n, 4), floats(n, 5, [0.5, 1e-300, 5e-324, 1.0])
        labels = np.where(np.arange(n) < n // 3, 3, 1)
        snap = BankSnapshot.from_arrays(feats, weights, labels) if n else BankSnapshot({})
        want = lines({"class": int(c), "weight": float(w), "feature": f.tolist()}
                     for c in (1, 3) for f, w in zip(feats[labels == c], weights[labels == c]))
        assert written(dump_bank, snap) == want

    def test_outliers(self, n):
        outliers, potentials = unit_rows(n, 6), floats(n, 7)
        want = lines({"chain": i, "outlier": z.tolist(), "potential": float(u)}
                     for i, (z, u) in enumerate(zip(outliers, potentials)))
        assert written(dump_outliers, VirtualOutlierSet(outliers, potentials)) == want


class _Discard:
    def write(self, text):
        return len(text)


def _writer_peak(dump, args):
    """Peak bytes traced while `dump` writes `args` to a sink that keeps nothing."""
    tracemalloc.start()
    try:
        dump(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("writer", ["dataset", "partition"])
def test_writer_memory_does_not_grow_with_rows(writer):
    def args(n):
        if writer == "dataset":
            return dump_dataset, (unit_rows(n, 8, d=8), np.arange(n) % 3,
                                  np.arange(n) % 3, _Discard())
        consensus = np.flatnonzero(np.arange(n) % 2)
        return dump_partition, (_Discard(), floats(n, 9), floats(n, 10),
                                np.arange(n) % 3 == 0, consensus)

    small, large = _writer_peak(*args(10_000)), _writer_peak(*args(50_000))
    assert large <= 1.2 * small, (small, large)
