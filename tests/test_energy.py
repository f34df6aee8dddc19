"""Free-energy surface tests: class energies, global potential, gradient."""

import io
import json
import re

import numpy as np
import pytest

from hambr import energy
from hambr.energy import (
    DEFAULT_CAPACITY,
    BankEntry,
    BankSnapshot,
    EmptyBank,
    EmptyClass,
    EnergyParams,
    FeatureBank,
    class_free_energy,
    dump_bank,
    global_potential,
    load_bank,
    potential_batch,
    riemannian_grad_U,
    _top_k,
)
from hambr.sphere import UnitVector, _norm, geodesic_step, normalize, project_tangent
from hambr.synthgen import sample_vmf
from reference import (
    BAD_BANK_FILES,
    BAD_BANK_LINES,
    BAD_LINE_PREFIX,
    bank_rows,
    class_energies,
    reference_gradient,
    reference_potential,
    soft_min_reference,
    stable_top_k,
    unblocked_potential_batch,
    unit_rows,
)

# frozen constants recomputed by tests/oracles/energy_constants.py
E_HALF_WEIGHT = -0.30685281944005466   # k=z, w=0.5, tau=1 -> ln 2 - 1
SHIFT_037 = 0.09942522733438669        # -tau*log(lam) at lam=0.37, tau=0.1


def e(i, d=3):
    v = np.zeros(d)
    v[i] = 1.0
    return UnitVector(v)


def single_entry_bank(feature, weight=1.0, class_id=0):
    bank = FeatureBank()
    bank.add(BankEntry(feature, weight, class_id))
    return bank


def groups_of(snap):
    """The snapshot's classes as {class id: (features, weights)}."""
    return {c: (snap.features(c), snap.weights(c)) for c in snap.classes}


def reference_batch(points, snap, params):
    """`unblocked_potential_batch` of the snapshot at the params' K and tau."""
    return unblocked_potential_batch(points, groups_of(snap), params.k_neighbors,
                                     params.tau_energy)


def random_bank(rng, d, n_entries, n_classes=2):
    bank = FeatureBank()
    for i in range(n_entries):
        bank.add(BankEntry(normalize(rng.standard_normal(d)),
                           float(rng.uniform(0.1, 1.0)), i % n_classes))
    return bank


class TestBankEntry:
    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError, match=re.escape("weight must be in (0, 1], got 0.0")):
            BankEntry(e(0), 0.0, 0)

    # the rules load_bank applies to a bank line's class and weight
    @pytest.mark.parametrize("weight, class_id, message", [
        (1.0, True, "class labels must be non-negative integers, got True"),
        (1.0, 1.5, "class labels must be non-negative integers, got 1.5"),
        (1.0, -1, "class labels must be non-negative integers, got -1"),
        (1.0, "1", "class labels must be non-negative integers, got '1'"),
        (1.0, 2 ** 63, "class labels must fit in a 64-bit integer, got 9223372036854775808"),
        (True, 0, "weight must be a number, got True"),
        ("1.0", 0, "weight must be a number, got '1.0'"),
        (float("nan"), 0, "weight must be in (0, 1], got nan"),
        (1.5, 0, "weight must be in (0, 1], got 1.5"),
    ])
    def test_rejects_what_a_bank_line_may_not_hold(self, weight, class_id, message):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            BankEntry(e(0), weight, class_id)
        line = json.dumps({"class": class_id, "weight": weight, "feature": [1.0, 0.0, 0.0]})
        with pytest.raises(ValueError, match="^" + re.escape(f"bank line 1: {message}") + "$"):
            load_bank(io.StringIO(line))

    def test_numpy_numbers_accepted(self):
        bank = FeatureBank()
        bank.add(BankEntry(e(0), np.float64(0.5), np.int64(2)))
        bank.add(BankEntry(e(1), np.float32(1.0), np.uint8(0)))
        snap = bank.snapshot()
        assert snap.classes == [0, 2]
        assert snap.weights(2).tolist() == [0.5] and snap.weights(0).tolist() == [1.0]


# |v| = 1 + NORM_TOL to within rounding: math.hypot gives 1.0000000009999999
# and np.linalg.norm(axis=1) 1.000000001, on either side of the tolerance;
# sqrt(v . v), the one norm every check takes, gives 1.0000000009999999
EDGE_FEATURE = [0.7499048544990807, -0.43527052428377805, 0.498178965722598]


class TestEdgeOfTheNormTolerance:
    def test_bank_entry_of_an_edge_vector_snapshots(self):
        bank = FeatureBank()
        bank.add(BankEntry(UnitVector(EDGE_FEATURE), 1.0, 0))
        assert bank.snapshot().features(0).tolist() == [EDGE_FEATURE]

    def test_bank_file_with_an_edge_vector_on_line_2_loads(self):
        text = "\n" + json.dumps({"class": 0, "weight": 1.0, "feature": EDGE_FEATURE}) + "\n"
        assert load_bank(io.StringIO(text)).features(0).tolist() == [EDGE_FEATURE]


class TestFeatureBank:
    def test_fifo_eviction(self):
        bank = FeatureBank(capacity_per_class=2)
        bank.add(BankEntry(e(0), 0.1, 0))
        bank.add(BankEntry(e(1), 0.2, 0))
        bank.add(BankEntry(e(2), 0.3, 0))
        assert bank.snapshot().weights(0).tolist() == [0.2, 0.3]

    def test_round_trip_serialization(self, tmp_path):
        rng = np.random.default_rng(3)
        bank = random_bank(rng, 4, 6, n_classes=3)
        path = tmp_path / "bank.jsonl"
        with open(path, "w") as fh:
            dump_bank(bank, fh)
        with open(path) as fh:
            loaded = load_bank(fh)
        assert isinstance(loaded, BankSnapshot)
        assert len(loaded) == len(bank)
        assert loaded.classes == bank.snapshot().classes
        for c in loaded.classes:
            assert loaded.features(c).tobytes() == bank.snapshot().features(c).tobytes()
            assert loaded.weights(c).tobytes() == bank.snapshot().weights(c).tobytes()

    def test_dump_bank_writes_the_same_bytes_as_its_snapshot(self):
        rng = np.random.default_rng(21)
        bank = random_bank(rng, 8, 400, n_classes=3)
        for feature in bank.snapshot().features(1)[:5]:
            bank.add(BankEntry(UnitVector(feature), float(rng.uniform(0.1, 1.0)), 1))
        via_bank, via_snap = io.StringIO(), io.StringIO()
        dump_bank(bank, via_bank)
        dump_bank(bank.snapshot(), via_snap)
        assert via_bank.getvalue() == via_snap.getvalue()
        assert via_bank.getvalue().count("\n") == len(bank)

    def test_load_keeps_every_entry(self, tmp_path):
        rng = np.random.default_rng(13)
        bank = FeatureBank(capacity_per_class=300)
        for _ in range(300):
            bank.add(BankEntry(normalize(rng.standard_normal(4)),
                               float(rng.uniform(0.1, 1.0)), 0))
        path = tmp_path / "bank.jsonl"
        with open(path, "w") as fh:
            dump_bank(bank, fh)
        with open(path) as fh:
            loaded = load_bank(fh)
        assert len(loaded) == 300
        assert loaded.weights(0).tolist() == bank.snapshot().weights(0).tolist()

    def test_load_dump_round_trip_is_bit_exact(self):
        # a 300-entry class, a 1-entry class and 20% unit weights, through
        # JSON text: every feature and weight comes back bit for bit
        rng = np.random.default_rng(17)
        labels = np.concatenate([np.zeros(300, dtype=np.int64), [4], rng.integers(1, 3, 57)])
        feats = unit_rows(rng, labels.size, 7)
        weights = rng.uniform(0.0, 1.0, labels.size)
        weights[rng.random(labels.size) < 0.2] = 1.0
        snap = BankSnapshot(feats, weights, labels)
        buf = io.StringIO()
        dump_bank(snap, buf)
        buf.seek(0)
        loaded = load_bank(buf)
        assert loaded.classes == snap.classes == [0, 1, 2, 4]
        assert loaded.size(0) == 300 and np.count_nonzero(loaded.weights(0) == 1) > 0
        for c in snap.classes:
            assert loaded.features(c).tobytes() == snap.features(c).tobytes()
            assert loaded.weights(c).tobytes() == snap.weights(c).tobytes()

    def test_load_empty_file_is_the_empty_bank(self):
        loaded = load_bank(io.StringIO("\n\n"))
        assert isinstance(loaded, BankSnapshot) and len(loaded) == 0
        with pytest.raises(EmptyBank):
            global_potential(e(0), loaded)

    @pytest.mark.parametrize("text, line, message", [row[1:] for row in BAD_BANK_FILES],
                             ids=[row[0] for row in BAD_BANK_FILES])
    def test_load_rejects_bad_rows(self, text, line, message):
        with pytest.raises(ValueError, match="^" + re.escape(f"bank line {line}: {message}")):
            load_bank(io.StringIO(text))

    @pytest.mark.parametrize("line, message", BAD_BANK_LINES)
    def test_load_names_the_bad_line(self, line, message):
        with pytest.raises(ValueError, match="^" + re.escape(f"bank line 3: {message}")):
            load_bank(io.StringIO(BAD_LINE_PREFIX + line + "\n"))


class TestClassFreeEnergy:
    def test_aligned_unit_weight(self):
        bank = single_entry_bank(e(0))
        val = class_free_energy(e(0), bank, 0, EnergyParams(tau_energy=0.5))
        assert val == pytest.approx(-1.0, abs=1e-12)

    def test_orthogonal_entry(self):
        bank = single_entry_bank(e(1))
        val = class_free_energy(e(0), bank, 0, EnergyParams(tau_energy=1.0))
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_half_weight(self):
        bank = single_entry_bank(e(0), weight=0.5)
        val = class_free_energy(e(0), bank, 0, EnergyParams(tau_energy=1.0))
        assert val == pytest.approx(E_HALF_WEIGHT, abs=1e-12)

    def test_empty_class_raises(self):
        bank = single_entry_bank(e(0), class_id=1)
        with pytest.raises(EmptyClass):
            class_free_energy(e(0), bank, 0)

    def test_zero_weight_rejected_before_any_query(self):
        with pytest.raises(ValueError, match=re.escape("weight must be in (0, 1], got 0.0")):
            single_entry_bank(e(0), weight=0.0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        entries = [BankEntry(normalize(rng.standard_normal(4)),
                             float(rng.uniform(0.2, 1.0)), 0) for _ in range(9)]
        z = normalize(rng.standard_normal(4))
        a, b = FeatureBank(), FeatureBank()
        for entry in entries:
            a.add(entry)
        for entry in entries[::-1]:
            b.add(entry)
        assert class_free_energy(z, a, 0) == pytest.approx(
            class_free_energy(z, b, 0), abs=1e-12)

    def test_weight_scaling_shifts_by_constant(self):
        rng = np.random.default_rng(9)
        z = normalize(rng.standard_normal(4))
        entries = [(normalize(rng.standard_normal(4)), float(rng.uniform(0.3, 0.9)))
                   for _ in range(6)]
        params = EnergyParams(tau_energy=0.1)
        base = FeatureBank()
        scaled = FeatureBank()
        for k, w in entries:
            base.add(BankEntry(k, w, 0))
            scaled.add(BankEntry(k, 0.37 * w, 0))
        shift = (class_free_energy(z, scaled, 0, params)
                 - class_free_energy(z, base, 0, params))
        assert shift == pytest.approx(SHIFT_037, abs=1e-12)


class TestGlobalPotential:
    def test_takes_the_min(self):
        bank = FeatureBank()
        bank.add(BankEntry(e(0), 1.0, 0))   # energy -1 at z=e0, tau=1
        bank.add(BankEntry(e(1), 1.0, 1))   # energy 0 at z=e0
        val, cls = global_potential(e(0), bank, EnergyParams(tau_energy=1.0))
        assert val == pytest.approx(-1.0)
        assert cls == 0

    def test_tie_breaks_to_smallest_id(self):
        bank = FeatureBank()
        bank.add(BankEntry(e(1), 1.0, 0))
        bank.add(BankEntry(e(2), 1.0, 1))   # both orthogonal to e0: equal energy
        _, cls = global_potential(e(0), bank, EnergyParams(tau_energy=1.0))
        assert cls == 0

    def test_single_class(self):
        bank = single_entry_bank(e(0), class_id=4)
        val, cls = global_potential(e(0), bank, EnergyParams(tau_energy=0.5))
        assert (val, cls) == (pytest.approx(-1.0), 4)

    def test_empty_bank_raises(self):
        with pytest.raises(EmptyBank):
            global_potential(e(0), FeatureBank())

    def test_weight_scaling_keeps_argmin_and_gradient(self):
        rng = np.random.default_rng(21)
        z = normalize(rng.standard_normal(4))
        params = EnergyParams(tau_energy=0.1)
        base = random_bank(rng, 4, 8, n_classes=2)
        snap = base.snapshot()
        feats, weights, labels = bank_rows(groups_of(snap))
        scaled = BankSnapshot(feats, 0.37 * weights, labels)
        _, c_base = global_potential(z, base, params)
        _, c_scaled = global_potential(z, scaled, params)
        assert c_base == c_scaled
        g_base = riemannian_grad_U(z, base, params)
        g_scaled = riemannian_grad_U(z, scaled, params)
        assert np.allclose(g_base, g_scaled, atol=1e-12)

    def test_grid_minimum_at_lone_unit_weight_feature(self):
        # singleton class: U over the whole sphere bottoms out at the feature
        for d in (2, 3):
            rng = np.random.default_rng(d)
            k = normalize(rng.standard_normal(d))
            bank = single_entry_bank(k)
            if d == 2:
                grid = np.stack([np.cos(t := np.linspace(0, 2 * np.pi, 720)),
                                 np.sin(t)], axis=1)
            else:
                grid = rng.standard_normal((4000, 3))
                grid /= np.linalg.norm(grid, axis=1)[:, None]
                grid = np.concatenate([grid, k.coords[None, :]])
            vals = potential_batch(grid, bank)
            best = grid[np.argmin(vals)]
            assert float(best @ k.coords) >= 1.0 - 1e-6

    def test_potential_batch_matches_scalar_path(self):
        rng = np.random.default_rng(33)
        bank = random_bank(rng, 5, 12, n_classes=3)
        pts = np.array([normalize(rng.standard_normal(5)).coords for _ in range(20)])
        batch = potential_batch(pts, bank)
        singles = [global_potential(UnitVector(p), bank)[0] for p in pts]
        assert np.allclose(batch, singles, atol=1e-12)


def uneven_bank(rng, d, n_classes, k):
    """Uneven classes, class 1 smaller than k, weights in [0.1, 1]."""
    bank = FeatureBank(capacity_per_class=6 * k)
    sizes = rng.integers(k + 1, 6 * k, size=n_classes)
    sizes[1] = k // 2
    for c, m in enumerate(sizes):
        for _ in range(m):
            w = float(rng.uniform(0.1, 1.0))
            bank.add(BankEntry(normalize(rng.standard_normal(d)), w, c))
    return bank


def tied_bank(rng, d, n_classes, k):
    """`uneven_bank` with 2k copies of e_0 among class 0's entries: any
    point's similarity to them ties exactly, so near e_0 more than k entries
    tie at class 0's k-th largest value."""
    classes = groups_of(uneven_bank(rng, d, n_classes, k).snapshot())
    feats, weights = classes[0]
    copies = np.tile(np.eye(d)[0], (2 * k, 1))
    copy_weights = rng.uniform(0.1, 1.0, size=2 * k)
    classes[0] = (np.concatenate([feats[:5], copies, feats[5:]]),
                  np.concatenate([weights[:5], copy_weights, weights[5:]]))
    return BankSnapshot(*bank_rows(classes))


class TestFusedPotential:
    # class 1 is smaller than K in both banks, so its padded row selects
    # padding; the tied bank's copies of e_0 tie at class 0's K-th value
    @pytest.mark.parametrize("d,n_classes,make_bank", [
        (8, 3, uneven_bank), (32, 10, uneven_bank), (8, 3, tied_bank)],
        ids=["8-3", "32-10", "8-3-tied"])
    def test_matches_per_class_loop(self, d, n_classes, make_bank):
        rng = np.random.default_rng(d)
        params = EnergyParams(tau_energy=0.1, k_neighbors=16)
        k, tau = params.k_neighbors, params.tau_energy
        bank = make_bank(rng, d, n_classes, k)
        classes = groups_of(bank.snapshot())
        anchors = [f[1] for f, _ in classes.values()]  # weighted bank points
        points = [UnitVector(a) for a in anchors] + [
            normalize(rng.standard_normal(d)) for _ in range(300)] + [
            normalize(np.eye(d)[0] + 0.05 * rng.standard_normal(d)) for _ in range(20)]
        argmins = set()
        for z in points:
            val, cls = global_potential(z, bank, params)
            ref_val, ref_cls = reference_potential(z.coords, classes, k, tau)
            assert cls == ref_cls
            assert val == pytest.approx(ref_val, abs=1e-12)
            argmins.add(cls)
            energies = [class_free_energy(z, bank, c, params) for c in classes]
            ref = class_energies(z.coords[None, :], classes, k, tau)[0]
            assert np.max(np.abs(np.subtract(energies, ref))) <= 1e-12
        assert len(argmins) > 1

    @pytest.mark.parametrize("massless", [(0,), (2,), (1, 2)])
    def test_massless_class_is_rejected_where_the_bank_is_built(self, massless):
        rng = np.random.default_rng(77)
        snap = uneven_bank(rng, 8, 3, 16).snapshot()
        feats, weights, labels = bank_rows(
            {c: (f, np.zeros(f.shape[0]) if c in massless else w)
             for c, (f, w) in groups_of(snap).items()})
        first = np.flatnonzero(labels == min(massless))[0]
        with pytest.raises(ValueError, match="^" + re.escape(
                f"weight must be in (0, 1], got 0.0 at row {first}") + "$"):
            BankSnapshot(feats, weights, labels)


class TestFusedGradient:
    @pytest.mark.parametrize("d,n_classes", [(8, 3), (32, 10)])
    def test_matches_one_class_reference(self, d, n_classes):
        rng = np.random.default_rng(100 + d)
        params = EnergyParams(tau_energy=0.1, k_neighbors=16)
        snap = tied_bank(rng, d, n_classes, params.k_neighbors)
        assert snap.size(1) < params.k_neighbors
        anchors = [UnitVector(snap.features(c)[1]) for c in snap.classes]
        near_e0 = [normalize(np.eye(d)[0] + 0.05 * rng.standard_normal(d))
                   for _ in range(20)]
        points = anchors + near_e0 + [normalize(rng.standard_normal(d)) for _ in range(200)]
        classes = groups_of(snap)
        argmins = []
        for z in points:
            grad = riemannian_grad_U(z, snap, params)
            ref, ref_cls = reference_gradient(z.coords, classes, params.k_neighbors,
                                              params.tau_energy)
            assert global_potential(z, snap, params)[1] == ref_cls
            assert np.max(np.abs(grad - ref)) <= 1e-12
            argmins.append(ref_cls)
        # the class smaller than K, the tied copies and other classes all won
        assert argmins[1] == 1 and set(argmins[n_classes:n_classes + 20]) == {0}
        assert len(set(argmins)) > 2



def cluster_centers(d, n_classes):
    """Unit centres at least 90 degrees apart: e_0, e_1, ... then -e_0, -e_1, ..."""
    return np.concatenate([np.eye(d), -np.eye(d)])[:n_classes]


def clustered_bank(rng, d, sizes):
    """One tight vMF cluster (kappa 25 d) of sizes[c] entries per class
    around cluster_centers, weights in [0.1, 1]: classes far from a point
    can be bounded away from its minimum."""
    centers = cluster_centers(d, len(sizes))
    return BankSnapshot(*bank_rows({c: (sample_vmf(centers[c], 25.0 * d, m, rng),
                                        rng.uniform(0.1, 1.0, size=m))
                                    for c, m in enumerate(sizes)}))


def clustered_points(rng, d, counts):
    """counts[c] points drawn as clustered_bank draws class c, classes interleaved."""
    centers = cluster_centers(d, len(counts))
    points = np.concatenate([sample_vmf(centers[c], 25.0 * d, m, rng)
                             for c, m in enumerate(counts)])
    return points[rng.permutation(len(points))]


def rows_scored(monkeypatch, *args):
    """potential_batch(*args) and the number of rows it passed to _soft_min."""
    rows = []
    soft_min = energy._soft_min

    def spy(sims, *rest):
        rows.append(sims.shape[0])
        return soft_min(sims, *rest)

    monkeypatch.setattr(energy, "_soft_min", spy)
    return potential_batch(*args), sum(rows)


class TestBlockedPotentialBatch:
    # block heights under the 2^16-similarity budget: 32 rows for a 2000-entry
    # class, 218 for 300, and the floor of 2 for 70,000 (larger than the budget)
    SMALL = (2000, 9, 300)
    LARGE = (2000, 70_000, 9)

    def snapshot(self, rng, d, sizes):
        return BankSnapshot(*bank_rows({c: (unit_rows(rng, m, d), rng.uniform(0.1, 1.0, size=m))
                                        for c, m in enumerate(sizes)}))

    # n = 33 and 1001 are no multiple of 32; the reference's (n, m_c) slabs
    # stay under 20 MB
    @pytest.mark.parametrize("d", [8, 32])
    @pytest.mark.parametrize("sizes,n", [
        pytest.param(sizes, n, id=f"{name}-{n}")
        for name, sizes, ns in (("small", SMALL, (97, 1001)), ("large", LARGE, (1, 2, 3, 33)))
        for n in ns])
    def test_matches_unblocked_reference(self, d, sizes, n):
        rng = np.random.default_rng(d * 10_000 + n)
        snap = self.snapshot(rng, d, sizes)
        points = unit_rows(rng, n, d)
        params = EnergyParams()
        got = potential_batch(points, snap, params)
        ref = reference_batch(points, snap, params)
        if d == 8:
            assert np.array_equal(got, ref)
        else:
            assert np.max(np.abs(got - ref)) <= 1e-15

    def test_peak_memory_does_not_grow_with_points(self):
        import tracemalloc

        rng = np.random.default_rng(4)
        snap = self.snapshot(rng, 8, (2000, 500))
        peaks = []
        for n in (4000, 8000):
            points = unit_rows(rng, n, 8)
            tracemalloc.start()
            try:
                potential_batch(points, snap)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # one (4000, 2000) slab of similarities alone would be 64 MB
        assert max(peaks) < 4 * 2 ** 20

    def test_no_points_give_no_values(self):
        rng = np.random.default_rng(6)
        d = 8
        none = np.empty((0, d))
        for sizes in ((40,), (40, 9), (9, 40, 300)):
            assert potential_batch(none, self.snapshot(rng, d, sizes)).shape == (0,)

    # classes in reverse order, (300, 9, 40, 2000) rows: the first zero
    # weight is in the massless class given first
    @pytest.mark.parametrize("massless, row", [((0,), 349), ((2,), 300), ((1, 3), 0)])
    def test_massless_class_is_rejected_at_its_first_row(self, massless, row):
        rng = np.random.default_rng(8)
        snap = self.snapshot(rng, 8, (2000, 40, 9, 300))
        rows = bank_rows({c: (f, np.zeros(f.shape[0]) if c in massless else w)
                          for c, (f, w) in reversed(groups_of(snap).items())})
        with pytest.raises(ValueError, match="^" + re.escape(
                f"weight must be in (0, 1], got 0.0 at row {row}") + "$"):
            BankSnapshot(*rows)

    @pytest.mark.parametrize("points,message", [
        (np.ones(8) / np.sqrt(8), r"points must be an \(n, d\) array, got shape \(8,\)"),
        (np.eye(4), "points have dimension 4, the bank's features have dimension 8"),
        (np.eye(9)[:3], "points have dimension 9, the bank's features have dimension 8"),
        (np.full((2, 8), np.nan), "points must be finite"),
    ])
    def test_rejects_points_that_do_not_fit_the_bank(self, points, message):
        snap = self.snapshot(np.random.default_rng(9), 8, (40, 9))
        with pytest.raises(ValueError, match=f"^{message}$"):
            potential_batch(points, snap)

    def test_tie_row_leaves_the_other_rows_alone(self):
        # class 0 has 10 entries with a positive first coordinate and 20 with
        # a zero one, so e_0 ties 20 entries at its 16th largest similarity
        rng = np.random.default_rng(10)
        d = 8
        pos = unit_rows(rng, 10, d)
        pos[:, 0] = np.abs(pos[:, 0])
        flat = unit_rows(rng, 20, d - 1)
        feats = np.concatenate([pos, np.hstack([np.zeros((20, 1)), flat])])
        snap = BankSnapshot(*bank_rows({
            0: (feats, rng.uniform(0.1, 1.0, size=30)),
            1: (unit_rows(rng, 40, d), rng.uniform(0.1, 1.0, size=40))}))
        params = EnergyParams()
        others = unit_rows(rng, 12, d)
        points = np.concatenate([others[:5], np.eye(d)[:1], others[5:]])
        got = potential_batch(points, snap, params)
        assert np.array_equal(np.delete(got, 5), potential_batch(others, snap, params))
        # the tie row keeps the 10 positive entries and the first 6 zero ones
        keep = np.arange(16)
        class0 = soft_min_reference(feats[keep, 0][None, :], snap.weights(0)[keep],
                                    params.tau_energy)
        class1 = unblocked_potential_batch(np.eye(d)[:1], {1: groups_of(snap)[1]},
                                           params.k_neighbors, params.tau_energy)
        assert got[5] == min(class0[0], class1[0])

    # the cases below skip the (point, class) pairs the bounds rule out
    def assert_matches_reference(self, points, snap, params):
        got = potential_batch(points, snap, params)
        ref = reference_batch(points, snap, params)
        if points.shape[1] == 8:
            assert np.array_equal(got, ref)
        else:
            assert np.max(np.abs(got - ref), initial=0.0) <= 1e-15

    # class 1 is smaller than K; n = 0, 1 and 2 reach the smallest blocks
    @pytest.mark.parametrize("d,n_classes", [(8, 3), (8, 10), (32, 3), (32, 10)])
    @pytest.mark.parametrize("n", [0, 1, 2, 97, 1001])
    def test_matches_unblocked_reference_where_most_classes_skip(self, d, n_classes, n):
        rng = np.random.default_rng([d, n_classes, n])
        sizes = [300, 9] + [int(m) for m in rng.integers(20, 400, size=n_classes - 2)]
        snap = clustered_bank(rng, d, sizes)
        points = clustered_points(rng, d, rng.multinomial(n, np.ones(n_classes) / n_classes))
        params = EnergyParams()
        assert params.k_neighbors > snap.size(1)
        self.assert_matches_reference(points, snap, params)
        if n >= 97:
            keep = energy._candidates(points, snap, params)
            assert keep.any(axis=1).all() and keep.mean() < 0.4

    @pytest.mark.parametrize("d", [8, 32])
    def test_class_with_one_surviving_point(self, d):
        rng = np.random.default_rng(20 + d)
        snap = clustered_bank(rng, d, (300, 40, 200))
        points = clustered_points(rng, d, (60, 60, 1))
        params = EnergyParams()
        assert energy._candidates(points, snap, params)[:, 2].sum() == 1
        self.assert_matches_reference(points, snap, params)

    # rows of the classes (200, 9, 150, 60), in class order
    @pytest.mark.parametrize("kind, position, row", [
        ("empty", 0, None), ("empty", 1, None), ("empty", 3, None),
        ("massless", 0, 0), ("massless", 1, 200), ("massless", 3, 359),
    ], ids=["empty-0", "empty-1", "empty-3", "massless-0", "massless-1", "massless-3"])
    def test_class_without_mass_is_rejected_where_the_bank_is_built(self, kind, position, row):
        rng = np.random.default_rng(30 + position)
        d = 8
        base = clustered_bank(rng, d, (200, 9, 150, 60))
        classes = groups_of(base)
        if kind == "empty":
            # rows carry no empty class: the bank lacks it and scores the rest
            classes[position] = (np.empty((0, d)), np.empty(0))
            snap = BankSnapshot(*bank_rows(classes))
            assert snap.classes == [c for c in range(4) if c != position]
            with pytest.raises(EmptyClass, match=f"^class {position} has no entries$"):
                class_free_energy(e(0, d), snap, position)
            points = clustered_points(rng, d, (30, 30, 30, 30))
            self.assert_matches_reference(points, snap, EnergyParams())
            return
        classes[position] = (sample_vmf(-np.eye(d)[4], 200.0, 30, rng), np.zeros(30))
        with pytest.raises(ValueError, match="^" + re.escape(
                f"weight must be in (0, 1], got 0.0 at row {row}") + "$"):
            BankSnapshot(*bank_rows(classes))

    def test_class_with_a_zero_weight_is_rejected(self):
        rng = np.random.default_rng(40)
        snap = clustered_bank(rng, 8, (200, 150, 60))
        weights = snap.weights(2).copy()
        weights[::7] = 0.0
        weights[0] = 0.5
        # class 2's rows start at row 200 + 150
        with pytest.raises(ValueError, match="^" + re.escape(
                "weight must be in (0, 1], got 0.0 at row 357") + "$"):
            BankSnapshot(*bank_rows({**groups_of(snap), 2: (snap.features(2), weights)}))

    def test_soft_min_sees_few_of_the_rows(self, monkeypatch):
        rng = np.random.default_rng(50)
        d = 8
        snap = clustered_bank(rng, d, (256, 256, 256))
        points = clustered_points(rng, d, (700, 700, 700))
        got, rows = rows_scored(monkeypatch, points, snap)
        assert rows <= 0.4 * points.shape[0] * len(snap.classes)
        assert np.array_equal(got, reference_batch(points, snap, EnergyParams()))

    def test_floored_weights_score_every_row(self, monkeypatch):
        # a fallback-like bank: every point against itself, weights floored
        # at 1e-6, so no class can be ruled out
        rng = np.random.default_rng(60)
        d = 8
        points = clustered_points(rng, d, (300, 300, 300))
        labels = np.argmax(points @ cluster_centers(d, 3).T, axis=1)
        weights = np.maximum(rng.uniform(-0.5, 1.0, size=len(points)), 1e-6)
        snap = BankSnapshot(points, weights, labels)
        got, rows = rows_scored(monkeypatch, points, snap)
        assert rows == points.shape[0] * len(snap.classes)
        assert np.array_equal(got, reference_batch(points, snap, EnergyParams()))

    def test_classes_within_rounding_of_the_minimum_are_kept(self):
        # with K = 1 and unit weights both bounds are -s, so the two classes'
        # energies at e_0 differ by the 5e-15 their similarities differ by,
        # which another block shape could round the other way
        d = 8
        near = np.eye(d)[0] + 1e-7 * np.eye(d)[1]
        feats = np.stack([np.eye(d)[0], near / np.linalg.norm(near), -np.eye(d)[0]])
        snap = BankSnapshot(feats, np.ones(3), [0, 1, 2])
        params = EnergyParams(k_neighbors=1)
        keep = energy._candidates(np.eye(d)[:2], snap, params)
        assert keep[0].tolist() == [True, True, False]
        assert np.array_equal(potential_batch(np.eye(d)[:2], snap, params),
                              reference_batch(np.eye(d)[:2], snap, params))


class TestEnergyBounds:
    """The bounds `_candidates` skips by hold for the reference energies."""

    @pytest.mark.parametrize("tau", [0.05, 1.0])
    @pytest.mark.parametrize("d,n_classes", [(8, 3), (8, 10), (32, 3), (32, 10)])
    def test_reference_energies_lie_within_the_bounds(self, d, n_classes, tau):
        rng = np.random.default_rng([d, n_classes, int(tau * 100)])
        params = EnergyParams(tau_energy=tau, k_neighbors=16)
        groups = {}
        for c in range(n_classes):
            m = int(rng.choice([1, 5, 16, 40, 200]))
            w = rng.uniform(1e-6, 1.0, size=m)
            w[rng.random(m) < 0.2] = 1.0
            groups[c] = (unit_rows(rng, m, d), w)
        # class 0 holds 2K exact copies of e_0, so points near e_0 tie
        copies = np.tile(np.eye(d)[0], (2 * params.k_neighbors, 1))
        groups[0] = (np.concatenate([groups[0][0], copies]),
                     np.concatenate([groups[0][1], rng.uniform(1e-3, 1.0, size=len(copies))]))
        snap = BankSnapshot(*bank_rows(groups))
        near_e0 = np.eye(d)[0] + 0.01 * rng.standard_normal((20, d))
        points = np.concatenate([unit_rows(rng, 300, d), np.eye(d)[:1],
                                 near_e0 / np.linalg.norm(near_e0, axis=1)[:, None],
                                 *(snap.features(c) for c in snap.classes)])
        for c in snap.classes:
            feats, w = snap.features(c), snap.weights(c)
            sims = points @ feats.T
            selected = stable_top_k(sims, w, min(params.k_neighbors, len(w)))
            ref = soft_min_reference(selected[0], selected[1], tau)
            (least,), (most,) = energy._bound_offsets(snap, [c], params)
            top = sims.max(axis=1)
            assert np.all(-top - most <= ref + 1e-12)
            assert np.all(ref <= -top - least + 1e-12)


class TestMassErrors:
    @pytest.mark.parametrize("size,weight", [(0, 1.0), (9, 0.0), (40, 0.0)],
                             ids=["empty", "massless-under-k", "massless-over-k"])
    def test_every_bank_builder_rejects_alike(self, size, weight):
        rng = np.random.default_rng(14)
        d = 8
        feats = [unit_rows(rng, 30, d), unit_rows(rng, size, d), unit_rows(rng, 20, d)]
        weights = [np.ones(30), np.full(size, weight), np.ones(20)]
        rows = (np.concatenate(feats), np.concatenate(weights),
                np.repeat([0, 1, 2], [30, size, 20]))
        if not size:  # rows carry no empty class: class 1 is one the bank lacks
            snap = BankSnapshot(*rows)
            assert snap.classes == [0, 2]
            with pytest.raises(EmptyClass, match="^class 1 has no entries$"):
                class_free_energy(e(0, d), snap, 1)
            return
        # the first zero weight is row 30
        with pytest.raises(ValueError, match="^" + re.escape(
                "weight must be in (0, 1], got 0.0 at row 30") + "$"):
            BankSnapshot(*rows)
        with pytest.raises(ValueError, match="^" + re.escape(
                "weight must be in (0, 1], got 0.0") + "$"):
            BankEntry(UnitVector(feats[1][0]), weight, 1)

    def test_query_for_a_class_the_bank_lacks_raises(self):
        snap = BankSnapshot([e(0).coords], [1.0], [0])
        with pytest.raises(EmptyClass, match="^class 1 has no entries$"):
            class_free_energy(e(0), snap, 1)


def padded_stack_sims(rng, d, sizes):
    """The similarities global_potential selects from: one unit point against
    a snapshot's padded (C, m_max) stack, -inf on padding."""
    snap = BankSnapshot(*bank_rows({c: (unit_rows(rng, m, d), rng.uniform(0.1, 1.0, size=m))
                                    for c, m in enumerate(sizes)}))
    sims = (snap._stack_feats @ unit_rows(rng, 1, d)[0]).reshape(snap._stack_bias.shape)
    return sims + snap._stack_bias, snap._stack_weights


class TestTopK:
    # the shapes the program selects from: a 1-row class (riemannian_grad_U),
    # the padded stack with a class smaller than K (global_potential), and
    # potential_batch's blocks of a 256-entry and a 2000-entry class
    SHAPES = [(1, 256), (256, 256), (32, 2000)]
    VALUES = ["distinct", "integers", "padded"]

    def assert_matches_oracle(self, sims, weights, k):
        got = _top_k(sims, weights, k)
        ref = stable_top_k(sims, weights, k)
        for a, b in zip(got, ref):
            assert a.shape == b.shape
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("values", VALUES)
    @pytest.mark.parametrize("shared", [True, False], ids=["shared-weights", "row-weights"])
    def test_matches_stable_sort(self, shape, values, shared):
        rng = np.random.default_rng([*shape, self.VALUES.index(values), shared])
        if values == "distinct":
            sims = rng.uniform(-1.0, 1.0, size=shape)
        else:  # heavy ties: four values, so every row ties at its 16th largest
            sims = rng.integers(-2, 2, size=shape).astype(np.float64)
        if values == "padded":  # rows whose tail is -inf padding, 7 real entries
            sims[::2, 7:] = -np.inf
        weights = rng.uniform(0.0, 1.0, size=shape[1] if shared else shape)
        self.assert_matches_oracle(sims, weights, 16)

    @pytest.mark.parametrize("d,sizes", [(8, (40, 7, 300)), (32, (256, 256, 3, 256, 1))])
    def test_padded_stack_with_a_class_smaller_than_k(self, d, sizes):
        rng = np.random.default_rng(d)
        sims, weights = padded_stack_sims(rng, d, sizes)
        assert np.isneginf(sims).any(axis=1).sum() == sum(m < max(sizes) for m in sizes)
        self.assert_matches_oracle(sims, weights, 16)

    def test_random_cases_against_the_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            rows, m = int(rng.integers(1, 40)), int(rng.integers(2, 80))
            k = int(rng.integers(1, m))
            sims = rng.integers(-3, 3, size=(rows, m)) / rng.choice([1.0, 7.0])
            sims[rng.random((rows, m)) < 0.2] = -np.inf
            self.assert_matches_oracle(sims, rng.uniform(size=m), k)

    def test_tie_row_selection_matches_the_row_alone(self):
        rng = np.random.default_rng(13)
        sims = rng.uniform(-1.0, 1.0, size=(32, 2000))
        sims[9, :40] = sims[9].max() + 1.0  # 40 ties above every other entry
        weights = rng.uniform(size=2000)
        got = _top_k(sims, weights, 16)
        assert np.array_equal(got[2][9], np.arange(16))
        for row in (0, 8, 10, 31):
            alone = _top_k(sims[row:row + 1], weights, 16)
            for a, b in zip(got, alone):
                assert np.array_equal(a[row], b[0])

    def test_k_covering_the_row_returns_it_whole(self):
        sims, weights = np.arange(6.0).reshape(2, 3), np.ones(3)
        got = _top_k(sims, weights, 3)
        assert got[0] is sims and got[1] is weights and got[2] is None


class TestRiemannianGrad:
    def test_aligned_entry_gives_zero_tangent(self):
        bank = single_entry_bank(e(0))
        g = riemannian_grad_U(e(0), bank)
        assert np.allclose(g, 0.0, atol=1e-12)

    def test_orthogonal_entry(self):
        bank = single_entry_bank(e(1))
        g = riemannian_grad_U(e(0), bank, EnergyParams(tau_energy=1.0))
        assert np.allclose(g, [0.0, -1.0, 0.0], atol=1e-12)

    def test_output_is_tangent(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            bank = random_bank(rng, 6, 10, n_classes=2)
            z = normalize(rng.standard_normal(6))
            g = riemannian_grad_U(z, bank)
            assert abs(float(g @ z.coords)) <= 1e-9

    def test_matches_finite_differences(self):
        # directional derivative along random tangent directions, h=1e-5.
        # tau=1 keeps the one-sided truncation error (h/2 * U'') below the
        # 1e-4 relative tolerance; the acceptance suite covers the default
        # temperature with central differences.
        rng = np.random.default_rng(55)
        params = EnergyParams(tau_energy=1.0)
        h = 1e-5
        checked = 0
        while checked < 40:
            bank = random_bank(rng, 4, 5, n_classes=1)
            z = normalize(rng.standard_normal(4))
            u = project_tangent(rng.standard_normal(4), z)
            if _norm(u) < 1e-6:
                continue
            g = riemannian_grad_U(z, bank, params)
            analytic = float(g @ u)
            if abs(analytic) < 0.1:   # relative error needs a live derivative
                continue
            u0 = global_potential(z, bank, params)[0]
            u1 = global_potential(geodesic_step(z, u, h), bank, params)[0]
            fd = (u1 - u0) / h
            assert analytic == pytest.approx(fd, rel=1e-4)
            checked += 1


def fresh(snap):
    """A new snapshot of the same entries, whose memo is empty."""
    return BankSnapshot(*bank_rows(groups_of(snap)))


def same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestQueryMemo:
    def setup_method(self):
        rng = np.random.default_rng(61)
        self.params = EnergyParams(k_neighbors=8)
        self.snap = uneven_bank(rng, 8, 3, self.params.k_neighbors).snapshot()
        self.points = [normalize(rng.standard_normal(8)) for _ in range(2)]

    def test_repeat_returns_the_same_answer(self):
        z, snap, params = self.points[0], self.snap, self.params
        first = global_potential(z, snap, params)
        grad = riemannian_grad_U(z, snap, params)
        again = global_potential(z, snap, params)
        assert same_bits(again, first)
        assert riemannian_grad_U(z, snap, params) is grad
        assert same_bits(global_potential(z, fresh(snap), params), first)
        assert same_bits(riemannian_grad_U(z, fresh(snap), params), grad)

    def test_equal_point_of_another_vector_gets_the_same_bits(self):
        z, snap, params = self.points[0], self.snap, self.params
        first = global_potential(z, snap, params)
        grad = riemannian_grad_U(z, snap, params)
        twin = UnitVector(z.coords.copy())
        assert same_bits(riemannian_grad_U(twin, snap, params), grad)
        assert same_bits(global_potential(twin, snap, params), first)

    @pytest.mark.parametrize("other", [EnergyParams(k_neighbors=12),
                                       EnergyParams(k_neighbors=8, tau_energy=0.5)],
                             ids=["k_neighbors", "tau_energy"])
    def test_other_params_get_the_fresh_answer(self, other):
        z, snap = self.points[0], self.snap
        memo_answer = global_potential(z, snap, self.params)
        riemannian_grad_U(z, snap, self.params)
        got = global_potential(z, snap, other)
        want = global_potential(z, fresh(snap), other)
        assert same_bits(got, want) and got[0] != memo_answer[0]
        assert same_bits(riemannian_grad_U(z, snap, other),
                         riemannian_grad_U(z, fresh(snap), other))

    def test_failed_query_is_not_remembered(self):
        # a point of the wrong dimension fails the scan's matvec
        feats = np.array([e(0).coords, e(1).coords, e(2).coords])
        snap = BankSnapshot(feats, [0.5, 1.0, 1.0], [0, 0, 1])
        z, wrong = normalize([1.0, 0.2, 0.1]), normalize([1.0, 0.2, 0.1, 0.3])
        two = EnergyParams(k_neighbors=2)
        queries = (global_potential, riemannian_grad_U,
                   lambda point, bank, params: class_free_energy(point, bank, 0, params))
        for query in queries:
            with pytest.raises(ValueError):
                query(wrong, snap, two)
            assert snap._memo is None
        good = riemannian_grad_U(z, snap, two)
        memo = snap._memo
        for query in queries:
            with pytest.raises(ValueError):
                query(wrong, snap, two)
            assert snap._memo is memo
        assert riemannian_grad_U(z, snap, two) is good
        assert same_bits(global_potential(z, snap, two), global_potential(z, fresh(snap), two))
        assert same_bits(good, riemannian_grad_U(z, fresh(snap), two))

    def race(self, monkeypatch):
        """Make every global_potential call query the second point after the
        one it answers, as another thread's query would."""
        real, other = energy.global_potential, self.points[1]

        def racing(point, bank, query_params):
            answer = real(point, bank, query_params)
            real(other, bank, query_params)
            return answer

        monkeypatch.setattr(energy, "global_potential", racing)

    def test_memo_replaced_after_the_potential_is_scanned_again(self, monkeypatch):
        z, snap, params = self.points[0], self.snap, self.params
        want = riemannian_grad_U(z, fresh(snap), params)
        self.race(monkeypatch)
        assert same_bits(riemannian_grad_U(z, snap, params), want)

    def test_gradient_is_read_only(self, monkeypatch):
        # the memo hands the same array out again, so no caller may write it
        z, snap, params = self.points[0], self.snap, self.params
        scanned = riemannian_grad_U(z, snap, params)
        recalled = riemannian_grad_U(z, snap, params)
        self.race(monkeypatch)
        rescanned = riemannian_grad_U(z, snap, params)  # the memo missed: a fresh scan
        assert recalled is scanned and rescanned is not scanned
        for grad in (scanned, recalled, rescanned):
            with pytest.raises(ValueError, match="read-only"):
                grad[0] = 1.0

    def test_every_scalar_query_at_a_point_reads_one_stacked_pass(self, monkeypatch):
        # a stacked pass selects from the (C, m_max) weight stack, a one-class
        # selection from one class's (m,) weights
        passes = []
        top_k = energy._top_k

        def counting(sims, weights, k):
            passes.append("stacked" if weights.ndim == 2 else "one class")
            return top_k(sims, weights, k)

        monkeypatch.setattr(energy, "_top_k", counting)
        z, snap, params = self.points[0], self.snap, self.params
        energies = [class_free_energy(z, snap, c, params) for c in snap.classes]
        potential, cls = global_potential(z, snap, params)
        riemannian_grad_U(z, snap, params)
        assert passes == ["stacked"]
        assert (potential, cls) == (min(energies), snap.classes[int(np.argmin(energies))])

    def test_interleaved_queries_match_fresh_snapshots(self):
        rng = np.random.default_rng(62)
        snaps = [self.snap, uneven_bank(rng, 8, 3, self.params.k_neighbors).snapshot()]
        order = [(0, 0), (0, 0), (0, 1), (1, 1), (0, 1), (1, 0), (1, 0), (0, 0), (1, 1)]
        for s, p in order:
            snap, z = snaps[s], self.points[p]
            for query in (global_potential, riemannian_grad_U):
                assert same_bits(query(z, snap, self.params),
                                 query(z, fresh(snap), self.params))


class TestBankSnapshot:
    """The one bank constructor: every row checked once, each class's last
    rows kept, in one padded stack."""

    # class sizes around the FIFO cap; class 3 has no rows at all
    SIZES = {0: 300, 1: DEFAULT_CAPACITY, 2: DEFAULT_CAPACITY + 1, 4: 40}

    def rows(self, seed=8, d=8):
        rng = np.random.default_rng(seed)
        labels = rng.permutation(np.repeat(list(self.SIZES), list(self.SIZES.values())))
        x = unit_rows(rng, labels.size, d)
        weights = rng.uniform(0.0, 1.0, labels.size)
        weights[rng.random(labels.size) < 0.2] = 1.0
        return x, weights, labels

    def per_sample_bank(self, x, weights, labels, capacity=DEFAULT_CAPACITY):
        bank = FeatureBank(capacity_per_class=capacity)
        for i in range(labels.size):
            bank.add(BankEntry(UnitVector(x[i]), float(weights[i]), int(labels[i])))
        return bank

    def test_capped_bank_equals_the_per_sample_fifo_bank(self):
        x, weights, labels = self.rows()
        want = self.per_sample_bank(x, weights, labels).snapshot()
        got = BankSnapshot(x, weights, labels, DEFAULT_CAPACITY)
        assert got.classes == want.classes == [0, 1, 2, 4]
        assert 3 not in got
        for c in got.classes:
            assert got.size(c) == min(self.SIZES[c], DEFAULT_CAPACITY)
            assert got.features(c).tobytes() == want.features(c).tobytes()
            assert got.weights(c).tobytes() == want.weights(c).tobytes()
            kept = np.flatnonzero(labels == c)[-DEFAULT_CAPACITY:]
            assert np.array_equal(got.weights(c), weights[kept])
        assert (got.weights(0) == 1.0).any()
        via_got, via_want = io.StringIO(), io.StringIO()
        dump_bank(got, via_got)
        dump_bank(want, via_want)
        assert via_got.getvalue() == via_want.getvalue()
        queries = unit_rows(np.random.default_rng(9), 500, x.shape[1])
        assert potential_batch(queries, got).tobytes() == \
            potential_batch(queries, want).tobytes()

    def test_consensus_subset_in_id_order(self):
        # the runner's call: rows of the consensus ids, ascending
        x, weights, labels = self.rows(seed=10)
        ids = np.flatnonzero(np.random.default_rng(11).random(labels.size) < 0.9)
        want = self.per_sample_bank(x[ids], weights[ids], labels[ids]).snapshot()
        got = BankSnapshot(x[ids], weights[ids], labels[ids], DEFAULT_CAPACITY)
        assert got.classes == want.classes
        for c in got.classes:
            assert got.features(c).tobytes() == want.features(c).tobytes()
            assert got.weights(c).tobytes() == want.weights(c).tobytes()

    def test_no_cap_keeps_every_row(self):
        x, weights, labels = self.rows()
        got = BankSnapshot(x, weights, labels)
        assert len(got) == labels.size
        for c, m in self.SIZES.items():
            assert got.size(c) == m
            assert np.array_equal(got.features(c), x[labels == c])

    def test_is_its_own_snapshot_and_read_only(self):
        x, weights, labels = self.rows()
        snap = BankSnapshot(x, weights, labels, 16)
        assert snap.snapshot() is snap
        assert not snap.features(0).flags.writeable
        assert not snap.weights(0).flags.writeable
        empty = BankSnapshot(np.empty((0, 8)), np.empty(0), np.empty(0, dtype=np.int64))
        assert len(empty) == 0 and empty.classes == [] and empty.dim == 0
        with pytest.raises(EmptyBank):
            global_potential(e(0, 8), empty)

    def test_classes_are_read_only_views_of_the_stack(self):
        x, weights, labels = self.rows()
        snap = BankSnapshot(x, weights, labels, DEFAULT_CAPACITY)
        for c in snap.classes:
            feats, w = snap.features(c), snap.weights(c)
            assert not feats.flags.writeable and not w.flags.writeable
            assert feats.flags.c_contiguous and feats.shape == (snap.size(c), 8)
            assert np.shares_memory(feats, snap._stack_feats)
            assert np.shares_memory(w, snap._stack_weights)

    def test_lists_score_like_arrays(self):
        rng = np.random.default_rng(15)
        x, weights, labels = bank_rows(groups_of(uneven_bank(rng, 8, 3, 16).snapshot()))
        lists = BankSnapshot(x.tolist(), weights.tolist(), labels.tolist())
        points = unit_rows(rng, 50, 8)
        assert np.array_equal(potential_batch(points, lists),
                              potential_batch(points, BankSnapshot(x, weights, labels)))

    @pytest.mark.parametrize("bad", ["non_unit_row", "nan_row", "inf_row",
                                     "weight_1.5", "nan_weight", "negative_weight",
                                     "zero_weight",
                                     "label_-1", "float_labels", "short_weights",
                                     "short_labels", "vector_features", "d_1",
                                     "cap_0"])
    def test_rejects_what_the_entry_types_reject(self, bad):
        x, weights, labels = self.rows()
        n, cap = labels.size, DEFAULT_CAPACITY
        if bad == "non_unit_row":
            x[7] *= 1.0 + 1e-6
            message = f"row 7 is not unit norm: |v| = {_norm(x[7])!r}"
        elif bad == "nan_row":
            x[7, 3] = np.nan
            message = "row 7 is not unit norm: |v| = nan"
        elif bad == "inf_row":
            x[7, 3] = np.inf
            message = "row 7 is not unit norm: |v| = inf"
        elif bad == "weight_1.5":
            weights[7] = 1.5
            message = "weight must be in (0, 1], got 1.5 at row 7"
        elif bad == "nan_weight":
            weights[7] = np.nan
            message = "weight must be in (0, 1], got nan at row 7"
        elif bad == "negative_weight":
            weights[7] = -0.1
            message = "weight must be in (0, 1], got -0.1 at row 7"
        elif bad == "zero_weight":
            weights[7] = 0.0
            message = "weight must be in (0, 1], got 0.0 at row 7"
        elif bad == "label_-1":
            labels[7] = -1
            message = "labels must be non-negative integers"
        elif bad == "float_labels":
            labels = labels.astype(np.float64)
            message = "labels must be non-negative integers"
        elif bad == "short_weights":
            weights = weights[:-1]
            message = f"{n} features need as many weights and labels, got ({n - 1},) and ({n},)"
        elif bad == "short_labels":
            labels = labels[:-1]
            message = f"{n} features need as many weights and labels, got ({n},) and ({n - 1},)"
        elif bad == "vector_features":
            x, weights, labels = x[0], weights[:1], labels[:1]
            message = "features must be (n, d) with d >= 2, got (8,)"
        elif bad == "d_1":
            x = np.ones((n, 1))
            message = f"features must be (n, d) with d >= 2, got ({n}, 1)"
        elif bad == "cap_0":
            cap = 0
            message = "capacity_per_class must be >= 1"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            BankSnapshot(x, weights, labels, cap)

    @pytest.mark.parametrize("features, weights, labels, message", [
        ([[3.0, 4.0]], [1.0], [0], "row 0 is not unit norm: |v| = 5.0"),
        (np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), np.ones(3), [0, 1, 1],
         "row 2 is not unit norm: |v| = 1.4142135623730951"),
        ([[1.0, 0.0], [1.0, 1.0]], [1.0, 1.0], [0, 1],
         "row 1 is not unit norm: |v| = 1.4142135623730951"),
        (np.array([[1.0, 0.0], [np.nan, 0.0]]), np.ones(2), [0, 1],
         "row 1 is not unit norm: |v| = nan"),
        (np.eye(2), np.array([1.0, 1.5]), [0, 1], "weight must be in (0, 1], got 1.5 at row 1"),
        (np.eye(2), np.array([1.0, 0.0]), [0, 1], "weight must be in (0, 1], got 0.0 at row 1"),
        (np.array([1.0, 0.0]), np.ones(1), [0], "features must be (n, d) with d >= 2, got (2,)"),
        (np.ones((1, 1)), np.ones(1), [0], "features must be (n, d) with d >= 2, got (1, 1)"),
        (np.eye(2), np.ones(1), [0, 1],
         "2 features need as many weights and labels, got (1,) and (2,)"),
        (np.eye(2), np.ones((2, 1)), [0, 1],
         "2 features need as many weights and labels, got (2, 1) and (2,)"),
        (np.eye(2), np.ones(2), np.array([0, 2 ** 63], dtype=np.uint64),
         "labels must fit in a 64-bit integer, got 9223372036854775808"),
    ], ids=["norm-5", "off-norm-row-2", "lists", "nan-row", "weight-1.5", "zero-weight",
            "vector", "d-1", "short-weights", "column-weights", "label-2**63"])
    def test_names_the_first_bad_row(self, features, weights, labels, message):
        # range errors print plain floats, not numpy reprs
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            BankSnapshot(features, weights, labels)
