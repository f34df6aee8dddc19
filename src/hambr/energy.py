"""Free-energy landscape over a class-keyed bank of unit features.

The per-class free energy is a soft minimum of similarity distances to the K
nearest bank entries; the global potential is the minimum over classes.  Low
potential means "close to some class"; ridges between classes are where the
sampler is supposed to deposit virtual outliers.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass

import numpy as np

from ._jsonl import float_texts, list_texts
from .sphere import TangentVector, UnitVector, check_unit_rows, project_tangent

DEFAULT_CAPACITY = 256
_BLOCK_SIMS = 1 << 16  # similarities potential_batch holds at once per class


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
    """Immutable per-class view: feature matrices and weight vectors.

    Energy queries run against snapshots so a concurrent writer cannot change
    the neighbor set mid-query.

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
        d = groups[self.classes[0]][0].shape[1] if self.classes else 0
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
            raise ValueError(f"weight must be in [0, 1], got {weights[bad[0]]!r} "
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

    def extend(self, entries) -> None:
        for entry in entries:
            self.add(entry)

    def classes(self) -> list[int]:
        return sorted(c for c, g in self._groups.items() if g)

    def entries(self, class_id: int) -> list[BankEntry]:
        return list(self._groups.get(class_id, ()))

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
    """The k largest similarities in each row of `sims` (rows, m), with their weights.

    `weights` is one (m,) vector shared by every row or one (rows, m) row per
    row.  Returns (sims, weights, columns); when k covers the whole row,
    nothing is dropped, `weights` comes back as given and columns is None.
    """
    rows, m = sims.shape
    if k >= m:
        return sims, weights, None
    idx = np.argpartition(-sims, k - 1, axis=1)[:, :k]
    flat = idx + m * np.arange(rows)[:, None]
    w = weights[idx] if weights.ndim == 1 else weights.ravel()[flat]
    return sims.ravel()[flat], w, idx


def _soft_min_terms(sims: np.ndarray, weights: np.ndarray, tau: float):
    """Max similarity m and terms w_j exp((s_j - m) / tau) along the last axis.

    Zero-weight entries drop out of both.  Callers first make sure, through
    `_check_mass`, that every row keeps one with positive weight.  The terms
    normalise to the softmax weights of the gradient.
    """
    masked = np.where(weights > 0, sims, -np.inf)  # exp(-inf) = 0
    m = masked.max(axis=-1, keepdims=True)
    return m[..., 0], weights * np.exp((masked - m) / tau)


def _soft_min(sims: np.ndarray, weights: np.ndarray, tau: float) -> np.ndarray:
    """-tau * log sum_j w_j exp(s_j / tau) along the last axis."""
    m, terms = _soft_min_terms(sims, weights, tau)
    return -(m + tau * np.log(terms.sum(axis=-1)))


def _check_mass(snap: BankSnapshot, class_id: int, weights: np.ndarray) -> None:
    """Raise unless every row of the selected `weights` of one class keeps mass."""
    if snap.size(class_id) == 0:
        raise EmptyClass(f"class {class_id} has no entries")
    if not (weights > 0).any(axis=-1).all():
        raise ZeroMass(f"all selected weights are zero for class {class_id}")


def _select_class(snap: BankSnapshot, z: np.ndarray, class_id: int,
                  params: EnergyParams):
    """Top-K similarities, weights and columns of one class, as one row."""
    return _top_k((snap.features(class_id) @ z)[None, :], snap.weights(class_id),
                  params.k_neighbors)


def class_free_energy(z: UnitVector, bank, class_id: int,
                      params: EnergyParams = EnergyParams()) -> float:
    """-tau * log sum_j w_j exp(<z, k_j>/tau) over the K nearest entries of one class."""
    snap = bank.snapshot()
    if class_id not in snap:
        raise EmptyClass(f"class {class_id} has no entries")
    sims, weights, _ = _select_class(snap, z.coords, class_id, params)
    _check_mass(snap, class_id, weights)
    return float(_soft_min(sims, weights, params.tau_energy)[0])


def global_potential(z: UnitVector, bank,
                     params: EnergyParams = EnergyParams()) -> tuple[float, int]:
    """Minimum class free energy and its argmin class (ties -> smallest id).

    One pass over the snapshot's padded stack scores every class: one matvec,
    one row-wise top-K and one masked log-sum-exp.
    """
    snap = bank.snapshot()
    if not snap.classes:
        raise EmptyBank("bank has no entries")
    sims = (snap._stack_feats @ z.coords).reshape(snap._stack_bias.shape)
    sims += snap._stack_bias
    sims, weights, _ = _top_k(sims, snap._stack_weights, params.k_neighbors)
    live = (weights > 0).any(axis=1)
    if not live.all():
        row = int(live.argmin())  # the first class without mass raises
        _check_mass(snap, snap.classes[row], weights[row])
    energies = _soft_min(sims, weights, params.tau_energy)
    best = int(energies.argmin())
    return float(energies[best]), snap.classes[best]


def riemannian_grad_U(z: UnitVector, bank,
                      params: EnergyParams = EnergyParams()) -> TangentVector:
    """Tangent gradient of the global potential at z.

    The neighbor set of the argmin class is treated as locally constant, so the
    Euclidean gradient is -sum_j s_j k_j with s_j the weighted softmax of the
    selected similarities.
    """
    snap = bank.snapshot()
    _, c = global_potential(z, snap, params)  # has checked every class for mass
    sims, weights, idx = _select_class(snap, z.coords, c, params)
    terms = _soft_min_terms(sims, weights, params.tau_energy)[1][0]
    feats = snap.features(c) if idx is None else snap.features(c)[idx[0]]
    return project_tangent(-((terms / terms.sum()) @ feats), z)


def potential_batch(points: np.ndarray, bank,
                    params: EnergyParams = EnergyParams()) -> np.ndarray:
    """Global potential for each row of `points`; same math as global_potential.

    Each class scores `points` in row blocks of rows = max(2, _BLOCK_SIMS // m_c)
    (the last block takes up to rows + 1), so every temporary (similarities,
    their top-K indices and gathers) holds about _BLOCK_SIMS elements, 0.5 MB
    of float64, whatever the number of points.  Only the (n, C) energies grow
    with n.  No block has a single row unless `points` has one: numpy scores a
    1-row block with a matrix-vector product, which rounds differently from
    the matrix product of the other blocks.
    """
    snap = bank.snapshot()
    if not snap.classes:
        raise EmptyBank("bank has no entries")
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    energies = np.empty((n, len(snap.classes)))
    for j, c in enumerate(snap.classes):
        feats, w = snap.features(c), snap.weights(c)
        rows = max(2, _BLOCK_SIMS // max(feats.shape[0], 1))
        starts = range(0, max(n - 1, 1), rows)  # one (empty) block when n == 0
        for r in starts:
            stop = n if r == starts[-1] else r + rows
            sims, weights, _ = _top_k(points[r:stop] @ feats.T, w, params.k_neighbors)
            _check_mass(snap, c, weights)
            energies[r:stop, j] = _soft_min(sims, weights, params.tau_energy)
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
    label, weight, feature = row["class"], row["weight"], np.asarray(row["feature"])
    if isinstance(label, bool) or not isinstance(label, int) or label < 0:
        raise ValueError(f"class labels must be non-negative integers, got {label!r}")
    if isinstance(weight, bool) or not isinstance(weight, (int, float)):
        raise ValueError(f"weight must be a number, got {weight!r}")
    if feature.ndim != 1 or feature.dtype.kind not in "iuf":
        raise ValueError("feature must be a list of numbers")
    if d is not None and feature.size != d:
        raise ValueError(f"feature has {feature.size} values, the first row's has {d}")
    return feature.astype(np.float64, copy=False), weight, label


def load_bank(fh) -> BankSnapshot:
    """Read a `dump_bank` file back into a snapshot that keeps every entry.

    A malformed line raises ValueError naming its 1-based number, and the rows
    are checked as `BankSnapshot.from_arrays` checks them.  No rows: empty bank.
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
