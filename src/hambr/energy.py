"""Free-energy landscape over a class-keyed bank of unit features.

The per-class free energy is a soft minimum of similarity distances to the K
nearest bank entries; the global potential is the minimum over classes.  Low
potential means "close to some class"; ridges between classes are where the
sampler is supposed to deposit virtual outliers.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from ._jsonl import float_texts, list_texts
from .sphere import NORM_TOL, TangentVector, UnitVector, check_unit_rows, project_tangent

DEFAULT_CAPACITY = 256
_BLOCK_SIMS = 1 << 16  # elements a row-blocked kernel's widest temporary holds


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


class ZeroMass(ValueError):
    """All selected neighbors carry zero weight."""


class EmptyBank(ValueError):
    """Bank has no entries at all."""


@dataclass(frozen=True)
class BankEntry:
    feature: UnitVector
    weight: float
    class_id: int

    def __post_init__(self):
        if not (0.0 <= self.weight <= 1.0):
            raise ValueError(f"weight must be in [0, 1], got {self.weight!r}")
        if self.class_id < 0:
            raise ValueError("class_id must be non-negative")


class BankSnapshot:
    """Immutable per-class view: feature matrices and weight vectors, plus a
    memo of the last scalar query.

    Energy queries run against snapshots so a concurrent writer cannot change
    the neighbor set mid-query.

    The memo is the one slot that changes after construction.  It holds the
    answers of the last successful `global_potential` query: the point, its
    EnergyParams, the potential, the argmin class and the tangent gradient
    there.  A sampler step ends with the gradient at its new position and the
    next step starts with the gradient at that same position, so each step
    scores the bank once.  A hit is the answer a fresh query would compute,
    because that answer depends on the snapshot, the point and the params
    alone: the snapshot's arrays are read-only, the point is matched by
    identity (a `UnitVector` copies its coordinates and makes them
    read-only, and the memo's reference keeps its id from being reused), and
    the params by value.  A query that raises leaves the memo as it was.
    The memo is one tuple, read once and replaced whole, so threads that
    share a snapshot can make each other miss but never read a mixed entry.

    The constructor also stacks every class into one padded layout, so that
    the global potential scores all classes in one pass.  With C classes
    (row c is ``classes[c]``), m_c entries in class c and m_max the largest
    m_c:

    - the feature stack is (C * m_max, d): class c fills rows
      c * m_max .. c * m_max + m_c - 1 and zero rows pad it to m_max;
    - the weight stack is (C, m_max), zero on padding;
    - the bias is (C, m_max), 0 on real entries and -inf on padding.

    Adding the bias to the stacked similarities sends every padding slot to
    -inf, so padding never wins a top-K selection over a real entry; it is
    selected only when a class has fewer than K entries, and then its zero
    weight drops it from the log-sum-exp.
    """

    def __init__(self, groups: dict[int, tuple[np.ndarray, np.ndarray]]):
        self._groups = groups
        self.classes = sorted(groups)
        sizes = [self.size(c) for c in self.classes]
        m_max = max(sizes, default=0)
        self.dim = d = groups[self.classes[0]][0].shape[1] if self.classes else 0
        feats = np.zeros((len(sizes), m_max, d))
        weights = np.zeros((len(sizes), m_max))
        bias = np.full((len(sizes), m_max), -np.inf)
        for row, c in enumerate(self.classes):
            m = sizes[row]
            feats[row, :m] = self.features(c)
            weights[row, :m] = self.weights(c)
            bias[row, :m] = 0.0
        self._stack_feats = feats.reshape(len(sizes) * m_max, d)
        self._stack_weights = weights
        self._stack_bias = bias
        for a in (self._stack_feats, weights, bias):
            a.flags.writeable = False
        # (point, params, potential, class, gradient)
        self._memo = None

    @classmethod
    def from_arrays(cls, features, weights, labels,
                    capacity_per_class: int | None = None) -> "BankSnapshot":
        """Bank holding row i of `features` with `weights[i]` in class `labels[i]`.

        Every row must pass what `UnitVector` and `BankEntry` check one entry
        at a time: features (n, d) with d >= 2, each row finite and unit-norm
        to NORM_TOL, each weight finite and in [0, 1], each label >= 0, and
        one weight and label per row; ValueError otherwise.  With a cap, each
        class keeps its last `capacity_per_class` rows in input order, the
        entries a FeatureBank of that capacity keeps after adding the rows one
        by one.
        """
        feats = np.asarray(features, dtype=np.float64)
        weights = np.asarray(weights, dtype=np.float64)
        labels = np.asarray(labels)
        if feats.ndim != 2 or feats.shape[1] < 2:
            raise ValueError(f"features must be (n, d) with d >= 2, got {feats.shape}")
        if weights.shape != labels.shape or weights.shape != feats.shape[:1]:
            raise ValueError(f"{feats.shape[0]} features need as many weights and "
                             f"labels, got {weights.shape} and {labels.shape}")
        check_unit_rows(feats, "row")
        bad = np.flatnonzero(~((weights >= 0.0) & (weights <= 1.0)))
        if bad.size:
            raise ValueError(f"weight must be in [0, 1], got {float(weights[bad[0]])} "
                             f"at row {bad[0]}")
        if labels.size and (labels.dtype.kind not in "iu" or labels.min() < 0):
            raise ValueError("labels must be non-negative integers")
        if capacity_per_class is not None and capacity_per_class < 1:
            raise ValueError("capacity_per_class must be >= 1")
        groups = {}
        for c in np.unique(labels):
            rows = np.flatnonzero(labels == c)
            if capacity_per_class is not None:
                rows = rows[-capacity_per_class:]
            feats_c, weights_c = feats[rows], weights[rows]
            feats_c.flags.writeable = False
            weights_c.flags.writeable = False
            groups[int(c)] = (feats_c, weights_c)
        return cls(groups)

    def snapshot(self) -> "BankSnapshot":
        """A snapshot is its own snapshot, so banks and snapshots answer alike."""
        return self

    def _recall(self, z: UnitVector, params: EnergyParams):
        """The memo if it answers the query (z, params), else None."""
        memo = self._memo
        if memo is not None and memo[0] is z and memo[1] == params:
            return memo
        return None

    def features(self, class_id: int) -> np.ndarray:
        return self._groups[class_id][0]

    def weights(self, class_id: int) -> np.ndarray:
        return self._groups[class_id][1]

    def size(self, class_id: int) -> int:
        return self._groups[class_id][0].shape[0]

    def __contains__(self, class_id: int) -> bool:
        return class_id in self._groups

    def __len__(self) -> int:
        return sum(g[0].shape[0] for g in self._groups.values())


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
            self._snapshot = BankSnapshot.from_arrays(
                [e.feature.coords for e in entries], [e.weight for e in entries],
                [e.class_id for e in entries]) if entries else BankSnapshot({})
        return self._snapshot


@dataclass(frozen=True)
class EnergyParams:
    tau_energy: float = 0.1
    k_neighbors: int = 16  # capped at class size when the class is smaller

    def __post_init__(self):
        if not 0 < self.tau_energy < np.inf:  # NaN fails every comparison
            raise ValueError("tau_energy must be positive and finite")
        if self.k_neighbors < 1:
            raise ValueError("k_neighbors must be >= 1")


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
    as given and columns is None.
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


def _soft_min(sims: np.ndarray, weights: np.ndarray, params: EnergyParams,
              snap: BankSnapshot, classes) -> tuple:
    """-tau * log sum_j w_j exp(s_j / tau) over each row's `_top_k` selection.

    Row i of `sims` scores class `classes[i]`; `weights` is as for `_top_k`.
    Returns the (rows,) energies, the terms w_j exp((s_j - max) / tau), whose
    normalisation is the gradient's softmax, and `_top_k`'s columns.  The
    first row whose selection holds no positive weight raises EmptyClass if
    its class has no entries, else ZeroMass.
    """
    sims, weights, cols = _top_k(sims, weights, params.k_neighbors)
    live = weights > 0
    has_mass = live.any(axis=-1)
    if not has_mass.all():
        c = classes[int(has_mass.argmin())]
        if snap.size(c) == 0:
            raise EmptyClass(f"class {c} has no entries")
        raise ZeroMass(f"all selected weights are zero for class {c}")
    tau = params.tau_energy
    masked = np.where(live, sims, -np.inf)  # exp(-inf) = 0
    m = masked.max(axis=-1, keepdims=True)
    terms = weights * np.exp((masked - m) / tau)
    return -(m[..., 0] + tau * np.log(terms.sum(axis=-1))), terms, cols


def class_free_energy(z: UnitVector, bank, class_id: int,
                      params: EnergyParams = EnergyParams()) -> float:
    """-tau * log sum_j w_j exp(<z, k_j>/tau) over the K nearest entries of one class."""
    snap = bank.snapshot()
    if class_id not in snap:
        raise EmptyClass(f"class {class_id} has no entries")
    sims = (snap.features(class_id) @ z.coords)[None, :]
    energies, _, _ = _soft_min(sims, snap.weights(class_id), params, snap, [class_id])
    return float(energies[0])


def _scan(z: UnitVector, snap: BankSnapshot, params: EnergyParams) -> tuple:
    """Score every class at z in one pass over the padded stack (one matvec,
    one `_soft_min` of the C rows) and return the memo entry that replaces
    the snapshot's memo: the potential, the argmin class (ties -> smallest
    id) and the tangent gradient built from that class's soft-min terms."""
    if not snap.classes:
        raise EmptyBank("bank has no entries")
    stack = snap._stack_bias.shape
    sims = (snap._stack_feats @ z.coords).reshape(stack)
    sims += snap._stack_bias
    energies, terms, cols = _soft_min(sims, snap._stack_weights, params, snap, snap.classes)
    best = int(energies.argmin())
    c = snap.classes[best]
    # a class smaller than K also selects padding, whose columns come last
    size = snap.size(c)
    cols = np.arange(size) if cols is None else cols[best, :size]
    terms = terms[best, :size]
    grad = project_tangent(
        -((terms / terms.sum()) @ snap._stack_feats[best * stack[1] + cols]), z)
    memo = (z, params, float(energies[best]), c, grad)
    snap._memo = memo
    return memo


def global_potential(z: UnitVector, bank,
                     params: EnergyParams = EnergyParams()) -> tuple[float, int]:
    """Minimum class free energy and its argmin class (ties -> smallest id).

    One `_scan` of the snapshot's padded stack scores every class.  The
    snapshot's memo answers a repeat of its last query without the scan.
    """
    snap = bank.snapshot()
    memo = snap._recall(z, params) or _scan(z, snap, params)
    return memo[2], memo[3]


def riemannian_grad_U(z: UnitVector, bank,
                      params: EnergyParams = EnergyParams()) -> TangentVector:
    """Tangent gradient of the global potential at z.

    The neighbor set of the argmin class is treated as locally constant, so the
    Euclidean gradient is -sum_j s_j k_j with s_j the weighted softmax of the
    selected similarities.  `_scan` builds it with the potential, and the
    snapshot's memo returns it again.  `global_potential` is looked up by
    name at call time, because perfbench's tracer reads the argmin class
    from that call.
    """
    snap = bank.snapshot()
    global_potential(z, snap, params)
    # another thread's query may have replaced the memo since: scan again
    return (snap._recall(z, params) or _scan(z, snap, params))[4]


def potential_batch(points: np.ndarray, bank,
                    params: EnergyParams = EnergyParams()) -> np.ndarray:
    """Global potential for each row of `points` (n, d); same math as global_potential.

    Each class scores `points` in the row blocks of `_row_blocks(n, m_c)`,
    into one similarity buffer per class, so every temporary (similarities,
    the top-K mask and gathers) holds about _BLOCK_SIMS elements, 0.5 MB of
    float64, whatever the number of points.  Only the (n, C) energies grow
    with n.  A row's energy does not depend on the other rows of its block.
    Every class is checked for mass in class order: each block's selection,
    or with no points each class's whole weight vector.
    `points` that are not finite and (n, d) with the bank's d raise ValueError.
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
    n = points.shape[0]
    if n == 0:
        # ranked by weight, a class's K heaviest entries hold mass iff any does
        _soft_min(snap._stack_weights + snap._stack_bias, snap._stack_weights,
                  params, snap, snap.classes)
    energies = np.empty((n, len(snap.classes)))
    for j, c in enumerate(snap.classes):
        feats = snap.features(c)
        blocks = _row_blocks(n, feats.shape[0])
        buf = np.empty((max(stop - r for r, stop in blocks), feats.shape[0]))
        for r, stop in blocks:
            sims = np.matmul(points[r:stop], feats.T, out=buf[:stop - r])
            energies[r:stop, j] = _soft_min(sims, snap.weights(c), params, snap,
                                            [c] * (stop - r))[0]
    return np.min(energies, axis=1)


def dump_bank(bank, fh) -> None:
    """One row per entry, json.dumps's text of {"class": c, "weight": w, "feature": [...]}."""
    snap = bank.snapshot()
    for c in snap.classes:  # a write per class: one class's text is held at once
        fh.write("".join(
            f'{{"class": {c}, "weight": {w}, "feature": {f}}}\n'
            for w, f in zip(float_texts(snap.weights(c)), list_texts(snap.features(c)))))


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
    if isinstance(label, bool) or not isinstance(label, int) or label < 0:
        raise ValueError(f"class labels must be non-negative integers, got {label!r}")
    if isinstance(weight, bool) or not isinstance(weight, (int, float)):
        raise ValueError(f"weight must be a number, got {weight!r}")
    if not 0.0 <= weight <= 1.0:  # NaN fails every comparison
        raise ValueError(f"weight must be in [0, 1], got {weight!r}")
    feature = np.asarray(values)
    # numpy reads true and false in a list of numbers as 1.0 and 0.0
    if feature.ndim != 1 or feature.dtype.kind not in "iuf" or bool in map(type, values):
        raise ValueError("feature must be a list of numbers")
    if feature.size < 2:
        raise ValueError(f"feature has {feature.size} values, at least 2 are needed")
    if d is not None and feature.size != d:
        raise ValueError(f"feature has {feature.size} values, the first row's has {d}")
    norm = math.hypot(*values)
    if not abs(norm - 1.0) <= NORM_TOL:  # NaN and inf coordinates fail too
        raise ValueError(f"feature is not unit norm: |v| = {norm!r}")
    return feature.astype(np.float64, copy=False), weight, label


def load_bank(fh) -> BankSnapshot:
    """Read a `dump_bank` file back into a snapshot that keeps every entry.

    Each line is checked as it is read, as `BankSnapshot.from_arrays` checks
    a row, and the first bad one raises ValueError naming its 1-based number.
    No rows: empty bank.
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
    if not feats:
        return BankSnapshot({})
    # the parsed floats are dropped line by line and the row arrays once
    # stacked, so the checks and the grouping never run beside either
    feats = np.array(feats)
    return BankSnapshot.from_arrays(feats, weights, labels)
