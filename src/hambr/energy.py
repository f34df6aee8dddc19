"""Free-energy landscape over a class-keyed bank of unit features.

The per-class free energy is a soft minimum of similarity distances to the K
nearest bank entries; the global potential is the minimum over classes.  Low
potential means "close to some class"; ridges between classes are where the
sampler is supposed to deposit virtual outliers.
"""

from __future__ import annotations

import json
import math
import numbers
from collections import deque
from dataclasses import dataclass

import numpy as np

from ._jsonl import write_rows
from ._rules import check_rules, rule
from .sphere import NORM_TOL, UnitVector, _norm, check_unit_rows, project_tangent

DEFAULT_CAPACITY = 256
_BLOCK_SIMS = 1 << 16  # elements a row-blocked kernel's widest temporary holds
_BOUND_SLACK = 1e-9  # `_candidates`' rounding allowance per unit of 1 + tau + |point|


def _row_blocks(n: int, width: int) -> list[tuple[int, int]]:
    """(start, stop) of the row blocks a kernel with `width` columns per row
    works in: rows = max(2, _BLOCK_SIMS // width), the last block taking up to
    rows + 1, so a block's widest temporary holds about _BLOCK_SIMS elements
    whatever n is.  No block has a single row unless n is 1: numpy multiplies a
    1-row block as a matrix-vector product, which rounds differently from the
    matrix product of the other blocks.  n == 0 gives one empty block.
    """
    rows = max(2, _BLOCK_SIMS // max(width, 1))
    starts = range(0, max(n - 1, 1), rows)
    return [(r, n if r == starts[-1] else r + rows) for r in starts]


class EmptyClass(ValueError):
    """Requested class has no bank entries."""


class EmptyBank(ValueError):
    """Bank has no entries at all."""


def _check_entry(weight, label) -> None:
    """ValueError unless `label` is a non-negative integer that fits in 64 bits
    and `weight` a number in (0, 1]."""
    if isinstance(label, bool) or not isinstance(label, numbers.Integral) or label < 0:
        raise ValueError(f"class labels must be non-negative integers, got {label!r}")
    if label >= 2 ** 63:
        raise ValueError(f"class labels must fit in a 64-bit integer, got {label!r}")
    if isinstance(weight, bool) or not isinstance(weight, numbers.Real):
        raise ValueError(f"weight must be a number, got {weight!r}")
    if not 0.0 < weight <= 1.0:  # NaN fails every comparison
        raise ValueError(f"weight must be in (0, 1], got {weight!r}")


@dataclass(frozen=True)
class BankEntry:
    feature: UnitVector
    weight: float
    class_id: int

    def __post_init__(self):
        _check_entry(self.weight, self.class_id)


class BankSnapshot:
    """Immutable class-keyed bank: row i of `features` with `weights[i]` in
    class `labels[i]`, plus a memo of the last scalar query.

    Every row is checked once, here: features (n, d) with d >= 2, each row
    finite and unit-norm to NORM_TOL, one weight and one label per row, each
    weight a number, not a bool, in (0, 1], each label a non-negative integer
    that fits in 64 bits; ValueError naming the first bad row otherwise.  So
    every class holds entries with mass wherever it is queried.  With a cap,
    each class keeps its last `capacity_per_class` rows in input order, the
    entries a FeatureBank of that capacity keeps after adding the rows one by
    one.  No rows: the empty bank, with dim 0, which raises EmptyBank on every
    query.

    Energy queries run against snapshots so a concurrent writer cannot change
    the neighbor set mid-query.  `_memo` is the one slot that changes after
    construction: `_scan` keeps its last answer there.

    The kept rows are stored once, in one padded layout, so that the global
    potential scores all classes in one pass.  With C classes (row c is
    ``classes[c]``), m_c entries in class c and m_max the largest m_c:

    - the feature stack is (C * m_max, d): class c fills rows
      c * m_max .. c * m_max + m_c - 1 and zero rows pad it to m_max;
    - the weight stack is (C, m_max), zero on padding;
    - the bias is (C, m_max), 0 on real entries and -inf on padding.

    `features(c)` and `weights(c)` are read-only views of class c's rows of
    the stacks, so a class's features are C-contiguous (m_c, d) rows.
    Adding the bias to the stacked similarities sends every padding slot to
    -inf, so padding never wins a top-K selection over a real entry; it is
    selected only when a class has fewer than K entries, and then its term
    0 * exp(-inf) is exactly 0 in the log-sum-exp.
    """

    def __init__(self, features, weights, labels, capacity_per_class: int | None = None):
        feats = np.asarray(features, dtype=np.float64)
        if not (isinstance(weights, np.ndarray) and weights.dtype.kind in "fiu"):
            for i, w in enumerate(np.asarray(weights, dtype=object).ravel()):
                if isinstance(w, bool) or not isinstance(w, numbers.Real):
                    raise ValueError(f"weight must be a number, got {w!r} at row {i}")
        weights = np.asarray(weights, dtype=np.float64)
        labels = np.asarray(labels)
        if feats.ndim != 2 or feats.shape[1] < 2:
            raise ValueError(f"features must be (n, d) with d >= 2, got {feats.shape}")
        if weights.shape != labels.shape or weights.shape != feats.shape[:1]:
            raise ValueError(f"{feats.shape[0]} features need as many weights and "
                             f"labels, got {weights.shape} and {labels.shape}")
        check_unit_rows(feats, "row")
        bad = np.flatnonzero(~((weights > 0.0) & (weights <= 1.0)))
        if bad.size:
            raise ValueError(f"weight must be in (0, 1], got {float(weights[bad[0]])} "
                             f"at row {bad[0]}")
        if labels.size and (labels.dtype.kind not in "iu" or labels.min() < 0):
            raise ValueError("labels must be non-negative integers")
        if labels.size and labels.max() >= 2 ** 63:  # a uint64 label load_bank would refuse
            raise ValueError(f"labels must fit in a 64-bit integer, got {labels.max()}")
        if capacity_per_class is not None and capacity_per_class < 1:
            raise ValueError("capacity_per_class must be >= 1")
        self.classes = np.unique(labels).tolist()
        kept = [np.flatnonzero(labels == c) for c in self.classes]
        if capacity_per_class is not None:
            kept = [rows[-capacity_per_class:] for rows in kept]
        self.dim = d = feats.shape[1] if kept else 0
        m_max = max((rows.size for rows in kept), default=0)
        stack = np.zeros((len(kept), m_max, d))
        stack_weights = np.zeros((len(kept), m_max))
        bias = np.full((len(kept), m_max), -np.inf)
        for j, rows in enumerate(kept):
            stack[j, :rows.size] = feats[rows]
            stack_weights[j, :rows.size] = weights[rows]
            bias[j, :rows.size] = 0.0
        for a in (stack, stack_weights, bias):
            a.flags.writeable = False  # and so every view made of them below
        self._rows = {c: (stack[j, :rows.size], stack_weights[j, :rows.size])
                      for j, (c, rows) in enumerate(zip(self.classes, kept))}
        self._stack_feats = stack.reshape(len(kept) * m_max, d)
        self._stack_weights = stack_weights
        self._stack_bias = bias
        self._memo = None  # (point, params, answer) of the last `_scan`

    def snapshot(self) -> "BankSnapshot":
        """A snapshot is its own snapshot, so banks and snapshots answer alike."""
        return self

    def features(self, class_id: int) -> np.ndarray:
        return self._rows[class_id][0]

    def weights(self, class_id: int) -> np.ndarray:
        return self._rows[class_id][1]

    def size(self, class_id: int) -> int:
        return self._rows[class_id][1].size

    def __contains__(self, class_id: int) -> bool:
        return class_id in self._rows

    def __len__(self) -> int:
        return sum(w.size for _, w in self._rows.values())


class FeatureBank:
    """Mutable bank with per-class FIFO eviction at a fixed capacity."""

    def __init__(self, capacity_per_class: int = DEFAULT_CAPACITY):
        if capacity_per_class < 1:
            raise ValueError("capacity_per_class must be >= 1")
        self.capacity_per_class = capacity_per_class
        self._groups: dict[int, deque[BankEntry]] = {}
        self._snapshot: BankSnapshot | None = None

    def add(self, entry: BankEntry) -> None:
        group = self._groups.get(entry.class_id)
        if group is None:
            group = deque(maxlen=self.capacity_per_class)
            self._groups[entry.class_id] = group
        group.append(entry)  # deque drops the oldest entry once full
        self._snapshot = None

    def __len__(self) -> int:
        return sum(len(g) for g in self._groups.values())

    def snapshot(self) -> BankSnapshot:
        if self._snapshot is None:
            entries = [e for g in self._groups.values() for e in g]
            # no entries: no rows, the empty bank, whose d is never read
            self._snapshot = BankSnapshot(
                [e.feature.coords for e in entries] or np.empty((0, 2)),
                [e.weight for e in entries], [e.class_id for e in entries])
        return self._snapshot


@dataclass(frozen=True)
class EnergyParams:
    tau_energy: float = rule("positive and finite", 0.1)
    k_neighbors: int = rule(">= 1", 16)  # capped at class size when the class is smaller

    __post_init__ = check_rules


def _top_k(sims: np.ndarray, weights: np.ndarray, k: int):
    """The k largest similarities in each row of `sims` (rows, m), with their
    weights and columns, each (rows, k) and in column order.

    `sims` holds no NaN.  `weights` is one (m,) vector shared by every row or
    one (rows, m) row per row.  A row keeps every entry at or above its k-th
    largest value.  Where more than k entries tie at that value (the -inf
    padding of a class smaller than k in the padded stack, or equal
    similarities), the row keeps the k largest values and, among equal ones,
    the lowest columns; every other row is selected as if scored alone.  When
    k covers the whole row, nothing is dropped: `sims` and `weights` come back
    as given and columns is None.  Identical bank rows need not tie: a matrix
    product can round their similarities apart by where the rows sit in it,
    so the scan's matvec and `potential_batch`'s blocks may keep different
    copies of a repeated row.  Copies of a basis vector, whose products are
    exact, always tie.
    """
    rows, m = sims.shape
    if k >= m:
        return sims, weights, None
    # array methods, not their np.* wrappers: the 1-row calls of a sampler
    # step are short enough for the wrappers' dispatch to show
    kth = sims.copy()
    kth.partition(m - k, axis=1)
    keep = sims >= kth[:, m - k, None]
    flat = keep.ravel().nonzero()[0]
    if flat.size != rows * k:  # every row keeps at least k, tie rows more
        ties = np.flatnonzero(np.bincount(flat // m, minlength=rows) > k)
        keep[ties] = False
        keep[ties[:, None], np.argsort(-sims[ties], axis=1, kind="stable")[:, :k]] = True
        flat = keep.ravel().nonzero()[0]
    cols = flat.reshape(rows, k) % m
    w = weights[cols] if weights.ndim == 1 else weights.ravel()[flat].reshape(rows, k)
    return sims.ravel()[flat].reshape(rows, k), w, cols


def _soft_min(sims: np.ndarray, weights: np.ndarray, params: EnergyParams) -> tuple:
    """-tau * log sum_j w_j exp(s_j / tau) over each row's `_top_k` selection.

    Each row of `sims` scores one class, so it holds a finite similarity
    with a positive weight; `weights` is as for `_top_k`.  Returns the
    (rows,) energies, the terms w_j exp((s_j - max) / tau), whose
    normalisation is the gradient's softmax, and `_top_k`'s columns.
    """
    sims, weights, cols = _top_k(sims, weights, params.k_neighbors)
    tau = params.tau_energy
    m = sims.max(axis=-1, keepdims=True)
    terms = weights * np.exp((sims - m) / tau)  # padding: 0 * exp(-inf) = 0
    return -(m[..., 0] + tau * np.log(terms.sum(axis=-1))), terms, cols


def class_free_energy(z: UnitVector, bank, class_id: int,
                      params: EnergyParams = EnergyParams()) -> float:
    """-tau * log sum_j w_j exp(<z, k_j>/tau) over the K nearest entries of
    one class: its entry of `_scan`'s class energies."""
    snap = bank.snapshot()
    if class_id not in snap:
        raise EmptyClass(f"class {class_id} has no entries")
    return float(_scan(z, snap, params)[2][snap.classes.index(class_id)])


def _scan(z: UnitVector, snap: BankSnapshot, params: EnergyParams) -> tuple:
    """(potential, argmin class, class energies, tangent gradient) at z.

    One pass over the padded stack (one matvec, one `_soft_min` of the C
    rows) gives the (C,) energies in `snap.classes` order, their minimum,
    the argmin class (ties -> smallest id) and the gradient built from that
    class's soft-min terms.  Both arrays are read-only, because the snapshot
    keeps the answer in its memo and hands it out again to a query with the
    same point object and equal params; so a sampler step, which starts at
    the point where the last one ended, scores the bank once.  The answer
    depends on the snapshot, the point and the params alone, and a
    `UnitVector`'s coordinates are a read-only copy whose id the memo's
    reference keeps from reuse, so a hit is what a fresh pass would return.
    A query that raises leaves the memo as it was.
    """
    memo = snap._memo
    if memo is not None and memo[0] is z and memo[1] == params:
        return memo[2]
    if not snap.classes:
        raise EmptyBank("bank has no entries")
    stack = snap._stack_bias.shape
    sims = (snap._stack_feats @ z.coords).reshape(stack)
    sims += snap._stack_bias
    energies, terms, cols = _soft_min(sims, snap._stack_weights, params)
    best = int(energies.argmin())
    c = snap.classes[best]
    # a class smaller than K also selects padding, whose columns come last
    size = snap.size(c)
    cols = np.arange(size) if cols is None else cols[best, :size]
    terms = terms[best, :size]
    grad = project_tangent(
        -((terms / terms.sum()) @ snap._stack_feats[best * stack[1] + cols]), z)
    energies.flags.writeable = grad.flags.writeable = False
    answer = (float(energies[best]), c, energies, grad)
    snap._memo = (z, params, answer)
    return answer


def global_potential(z: UnitVector, bank,
                     params: EnergyParams = EnergyParams()) -> tuple[float, int]:
    """Minimum class free energy and its argmin class (ties -> smallest id),
    from one `_scan` of the snapshot."""
    return _scan(z, bank.snapshot(), params)[:2]


def riemannian_grad_U(z: UnitVector, bank,
                      params: EnergyParams = EnergyParams()) -> np.ndarray:
    """Tangent gradient of the global potential at z, a read-only 1-d array.

    The neighbor set of the argmin class is treated as locally constant, so the
    Euclidean gradient is -sum_j s_j k_j with s_j the weighted softmax of the
    selected similarities.  `_scan` builds it with the potential.
    `global_potential` is looked up by name at call time, because
    perfbench's tracer reads the argmin class from that call.
    """
    snap = bank.snapshot()
    global_potential(z, snap, params)
    return _scan(z, snap, params)[3]


def _bound_offsets(snap: BankSnapshot, classes, params: EnergyParams):
    """(least, most), one value per class of `classes`: the class's energy
    at a point whose largest similarity to it is s lies in
    [-s - most, -s - least].

    The energy is -s - tau ln sum_j w_j exp((s_j - s) / tau) over the
    point's `_top_k` selection.  The top entry is always selected, so the
    sum is at least w_min, and none of its min(K, m_c) terms exceeds w_max.
    """
    tau, k = params.tau_energy, params.k_neighbors
    weights = [snap.weights(c) for c in classes]
    return (tau * np.log([w.min() for w in weights]),
            tau * np.log([min(k, w.size) * w.max() for w in weights]))


def _candidates(points: np.ndarray, snap: BankSnapshot, params: EnergyParams) -> np.ndarray:
    """(n, C) mask of the classes that can hold each point's minimum energy.

    A class is dropped at a point where its `_bound_offsets` lower bound
    exceeds another class's upper bound by more than a rounding slack, so
    its energy is above the point's minimum.  One matmul per row block
    against every class's features (no padding) gives each point's largest
    similarity to each.
    """
    n = points.shape[0]
    keep = np.ones((n, len(snap.classes)), dtype=bool)
    if len(snap.classes) < 2:
        return keep
    least, most = _bound_offsets(snap, snap.classes, params)
    feats = np.concatenate([snap.features(c) for c in snap.classes])
    starts = np.cumsum([0] + [snap.size(c) for c in snap.classes[:-1]])
    # the computed energies round by amounts that scale with tau and |point|,
    # which is at most sqrt(d) times the largest coordinate
    norm = max(points.max(initial=0.0), -points.min(initial=0.0)) * math.sqrt(snap.dim)
    slack = _BOUND_SLACK * (1.0 + params.tau_energy + norm)
    blocks = _row_blocks(n, feats.shape[0])
    buf = np.empty((max(stop - r for r, stop in blocks), feats.shape[0]))
    for r, stop in blocks:
        sims = np.matmul(points[r:stop], feats.T, out=buf[:stop - r])
        top = np.maximum.reduceat(sims, starts, axis=1)
        # kept unless its lower bound -top - most lies above the least upper
        # bound min(-top - least) + slack
        keep[r:stop] = top + most >= (top + least).max(axis=1, keepdims=True) - slack
    return keep


def potential_batch(points: np.ndarray, bank,
                    params: EnergyParams = EnergyParams()) -> np.ndarray:
    """Global potential for each row of `points` (n, d): the math of
    global_potential, and its values to within rounding unless the bank
    repeats a row, whose copies the two products can round apart (`_top_k`).

    Each class scores only the points where `_candidates` says it can hold
    the minimum; the classes it drops there have energies above the
    minimum, and `_kept_sims` computes each kept row's similarities in the
    row block of `_row_blocks(n, m_c)` that scoring every class uses, so
    the returned values are those of scoring every class, bit for bit.
    Every temporary (a block's similarities, a batch of kept rows, the
    top-K mask and gathers) holds about _BLOCK_SIMS elements, 0.5 MB of
    float64, whatever the number of points.  Only the (n, C) energies grow
    with n.  A row's energy does not depend on the other rows of its
    block.  `points` that are not finite and (n, d) with the bank's d
    raise ValueError.
    """
    snap = bank.snapshot()
    if not snap.classes:
        raise EmptyBank("bank has no entries")
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError(f"points must be an (n, d) array, got shape {points.shape}")
    if points.shape[1] != snap.dim:
        raise ValueError(f"points have dimension {points.shape[1]}, "
                         f"the bank's features have dimension {snap.dim}")
    if not np.isfinite(points).all():
        raise ValueError("points must be finite")
    keep = _candidates(points, snap, params)
    energies = np.full((points.shape[0], len(snap.classes)), np.inf)
    for j, c in enumerate(snap.classes):
        for rows, sims in _kept_sims(points, snap.features(c), keep[:, j]):
            energies[rows, j] = _soft_min(sims, snap.weights(c), params)[0]
    return np.min(energies, axis=1)


def _kept_sims(points: np.ndarray, feats: np.ndarray, kept: np.ndarray):
    """Yield (rows, similarities to `feats`) for the rows of `points` where
    `kept` holds, in batches of at most one block.

    Each row's similarities come from the matmul of the row block of
    `_row_blocks(n, m)` that holds it, as when every row is scored, since
    the rounding of a matrix product depends on its shape.  A block whose
    rows are all kept is yielded as it is (rows a slice), the kept rows of
    other blocks are gathered into batches, and a block with no kept row is
    not multiplied.  The next batch reuses the arrays yielded.
    """
    blocks = _row_blocks(points.shape[0], feats.shape[0])
    height = max(stop - r for r, stop in blocks)
    block = np.empty((height, feats.shape[0]))
    batch = ids = None  # made once a block leaves rows out, never on a bank scored in full
    size = 0
    kept_rows = kept.nonzero()[0]
    # kept_rows[edges[i]:edges[i + 1]] are the kept rows of block i
    edges = kept_rows.searchsorted([r for r, _ in blocks] + [points.shape[0]]).tolist()
    for (r, stop), lo, hi in zip(blocks, edges, edges[1:]):
        if lo == hi:
            continue
        sims = np.matmul(points[r:stop], feats.T, out=block[:stop - r])
        if hi - lo == stop - r:
            yield slice(r, stop), sims
            continue
        rows = kept_rows[lo:hi]
        if batch is None:
            batch, ids = np.empty_like(block), np.empty(height, dtype=np.intp)
        elif size + rows.size > height:
            yield ids[:size], batch[:size]
            size = 0
        # mode="clip" writes straight into `out` (rows are in range)
        np.take(sims, rows - r, axis=0, out=batch[size:size + rows.size], mode="clip")
        ids[size:size + rows.size] = rows
        size += rows.size
    if size:
        yield ids[:size], batch[:size]


def dump_bank(bank, fh) -> None:
    """One row per entry, json.dumps's text of {"class": c, "weight": w, "feature": [...]}."""
    snap = bank.snapshot()
    for c in snap.classes:
        weights = snap.weights(c)
        write_rows(fh, '{"class": {}, "weight": {}, "feature": {}}\n',
                   np.full(len(weights), c), weights, snap.features(c))


def _bank_row(line: str, d: int | None):
    """(feature, weight, class) of one `dump_bank` line, whose feature must have
    `d` values unless d is None; ValueError saying what is wrong otherwise."""
    try:
        row = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {exc.msg} at column {exc.colno}") from None
    if not isinstance(row, dict):
        raise ValueError("row is not a JSON object")
    missing = [key for key in ("class", "weight", "feature") if key not in row]
    if missing:
        raise ValueError(f"missing key {missing[0]!r}")
    label, weight, values = row["class"], row["weight"], row["feature"]
    _check_entry(weight, label)
    try:
        feature = np.asarray(values)
    except ValueError:  # lists nested to different depths
        raise ValueError("feature must be a list of numbers") from None
    # numpy reads true and false in a list of numbers as 1.0 and 0.0
    if feature.ndim != 1 or feature.dtype.kind not in "iuf" or bool in map(type, values):
        raise ValueError("feature must be a list of numbers")
    if feature.size < 2:
        raise ValueError(f"feature has {feature.size} values, at least 2 are needed")
    if d is not None and feature.size != d:
        raise ValueError(f"feature has {feature.size} values, the first row's has {d}")
    feature = feature.astype(np.float64, copy=False)
    norm = _norm(feature)  # the norm the bank's constructor checks its rows by
    if not abs(norm - 1.0) <= NORM_TOL:  # NaN and inf coordinates fail too
        raise ValueError(f"feature is not unit norm: |v| = {norm!r}")
    return feature, weight, label


def load_bank(fh) -> BankSnapshot:
    """Read a `dump_bank` file back into a snapshot that keeps every entry.

    Each line is checked as it is read, as the `BankSnapshot` constructor
    checks a row, and the first bad one raises ValueError naming its 1-based
    number.  No rows: the empty bank.
    """
    feats, weights, labels = [], [], []
    for number, line in enumerate(fh, 1):
        if line.strip():
            try:
                feature, weight, label = _bank_row(line, feats[0].size if feats else None)
            except ValueError as exc:
                raise ValueError(f"bank line {number}: {exc}") from None
            feats.append(feature)
            weights.append(weight)
            labels.append(label)
    # the parsed floats are dropped line by line and the row arrays once
    # stacked, so the checks and the grouping never run beside either
    feats = np.array(feats) if feats else np.empty((0, 2))
    return BankSnapshot(feats, np.array(weights, dtype=np.float64), labels)
