"""Dataset generation, corruption, splits, episodes, IDX files, F1."""

import numpy as np
import pytest

import bilevelopt as bl
from bilevelopt.data import Dataset
from bilevelopt.problems import softmax


class TestGenSynthetic:
    def test_deterministic_in_seed(self):
        a = bl.gen_synthetic(3, 100, 5, 3, 2.0)
        b = bl.gen_synthetic(3, 100, 5, 3, 2.0)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.y, b.y)

    def test_center_separation_equals_margin(self):
        ds = bl.gen_synthetic(0, 4, 4, 4, 7.5)
        # recover centers from noiseless geometry: pairwise center distance
        centers = np.zeros((4, 4))
        centers[np.arange(4), np.arange(4)] = 7.5 / np.sqrt(2.0)
        for i in range(4):
            for j in range(i + 1, 4):
                assert np.linalg.norm(centers[i] - centers[j]) == pytest.approx(7.5)

    def test_wide_margin_is_linearly_separable(self):
        ds = bl.gen_synthetic(1, 200, 2, 2, 10.0)
        # a short softmax regression fit reaches near-perfect train accuracy
        W = np.zeros((2, 2))
        Y = np.eye(2)[ds.y]
        for _ in range(200):
            P = softmax(ds.X @ W)
            W -= 0.01 * (ds.X.T @ (P - Y))
        acc = float((np.argmax(ds.X @ W, axis=1) == ds.y).mean())
        assert acc >= 0.99

    def test_single_class(self):
        ds = bl.gen_synthetic(0, 10, 3, 1, 1.0)
        assert np.all(ds.y == 0)
        assert not ds.mask.any()

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="too-few-samples"):
            bl.gen_synthetic(0, 2, 5, 3, 1.0)


class TestCorruptLabels:
    def test_rho_zero_is_identity(self):
        ds = bl.gen_synthetic(0, 50, 4, 3, 2.0)
        out = bl.corrupt_labels(ds, 0.0, 1)
        assert np.array_equal(out.y, ds.y)
        assert not out.mask.any()

    def test_exact_count_and_all_changed(self):
        ds = bl.gen_synthetic(0, 1000, 4, 4, 2.0)
        out = bl.corrupt_labels(ds, 0.8, 1)
        assert out.mask.sum() == 800
        changed = out.y != ds.y
        assert np.array_equal(changed, out.mask)
        # exhaustive: every masked label differs from its original
        assert np.all(out.y[out.mask] != ds.y[out.mask])
        assert np.all(out.y[~out.mask] == ds.y[~out.mask])

    def test_floor_rounding(self):
        ds = bl.gen_synthetic(0, 7, 4, 2, 2.0)
        out = bl.corrupt_labels(ds, 0.5, 1)
        assert out.mask.sum() == 3

    def test_full_corruption_binary_flips_everything(self):
        ds = bl.gen_synthetic(0, 40, 4, 2, 2.0)
        out = bl.corrupt_labels(ds, 1.0, 2)
        assert np.all(out.y == 1 - ds.y)

    def test_single_class_cannot_corrupt(self):
        ds = bl.gen_synthetic(0, 10, 3, 1, 1.0)
        with pytest.raises(ValueError, match="cannot-corrupt-single-class"):
            bl.corrupt_labels(ds, 0.5, 0)

    def test_original_untouched(self):
        ds = bl.gen_synthetic(0, 30, 4, 2, 2.0)
        y_before = ds.y.copy()
        bl.corrupt_labels(ds, 1.0, 3)
        assert np.array_equal(ds.y, y_before)


class TestSplit:
    def test_disjoint_exact_sizes(self):
        ds = bl.gen_synthetic(0, 100, 4, 2, 2.0)
        tr, va = bl.split(ds, 60, 30, 5)
        assert len(tr) == 60 and len(va) == 30
        # disjointness via row identity against the source
        seen = {tuple(row) for row in tr.X}
        assert not any(tuple(row) in seen for row in va.X)

    def test_partition_covers_everything(self):
        ds = bl.gen_synthetic(0, 50, 4, 2, 2.0)
        tr, va = bl.split(ds, 30, 20, 5)
        combined = np.vstack([tr.X, va.X])
        assert combined.shape == ds.X.shape
        assert {tuple(r) for r in combined} == {tuple(r) for r in ds.X}

    def test_deterministic(self):
        ds = bl.gen_synthetic(0, 100, 4, 2, 2.0)
        a = bl.split(ds, 60, 30, 5)
        b = bl.split(ds, 60, 30, 5)
        assert np.array_equal(a[0].X, b[0].X)
        assert np.array_equal(a[1].X, b[1].X)

    @pytest.mark.parametrize("n_tr, n_val", [(-5, 20), (20, 0)])
    def test_counts_below_one_rejected(self, n_tr, n_val):
        ds = bl.gen_synthetic(0, 50, 4, 2, 2.0)
        with pytest.raises(ValueError, match="split-too-small"):
            bl.split(ds, n_tr, n_val, 0)

    def test_budget_exceeded(self):
        ds = bl.gen_synthetic(0, 50, 4, 2, 2.0)
        with pytest.raises(ValueError, match="split-too-large"):
            bl.split(ds, 40, 20, 0)


class TestEpisodes:
    def test_shapes_follow_way_shot(self):
        ds = bl.gen_synthetic(0, 600, 12, 12, 3.0)
        eps = bl.make_episodes(ds, way=5, shot=1, val_per_class=10, n_tasks=4, seed=2)
        assert len(eps) == 4
        assert eps.X_tr.shape == (4, 5, 12) and eps.y_tr.shape == (4, 5)
        assert eps.X_val.shape == (4, 50, 12) and eps.y_val.shape == (4, 50)

    def test_labels_remapped_to_way_range(self):
        ds = bl.gen_synthetic(0, 600, 12, 12, 3.0)
        eps = bl.make_episodes(ds, way=4, shot=2, val_per_class=3, n_tasks=5, seed=3)
        for y_tr, y_val in zip(eps.y_tr, eps.y_val):
            assert set(y_tr) == set(range(4))
            assert set(y_val) == set(range(4))

    def test_train_val_disjoint_within_task(self):
        ds = bl.gen_synthetic(0, 400, 10, 8, 3.0)
        eps = bl.make_episodes(ds, way=3, shot=2, val_per_class=4, n_tasks=6, seed=4)
        for X_tr, X_val in zip(eps.X_tr, eps.X_val):
            tr_rows = {tuple(r) for r in X_tr}
            assert not any(tuple(r) in tr_rows for r in X_val)

    def test_all_classes_deterministic_selection(self):
        ds = bl.gen_synthetic(0, 60, 6, 3, 3.0)
        eps = bl.make_episodes(ds, way=3, shot=2, val_per_class=2, n_tasks=2, seed=5)
        assert len(eps) == 2

    def test_zero_tasks(self):
        ds = bl.gen_synthetic(0, 60, 6, 3, 3.0)
        eps = bl.make_episodes(ds, 3, 1, 1, 0, 0)
        assert len(eps) == 0
        assert eps.X_tr.shape == (0, 3, 6) and eps.X_val.shape == (0, 3, 6)

    def test_infeasible_inventory(self):
        ds = bl.gen_synthetic(0, 12, 6, 6, 3.0)   # 2 samples per class
        with pytest.raises(ValueError, match="episode-infeasible"):
            bl.make_episodes(ds, way=3, shot=2, val_per_class=2, n_tasks=1, seed=0)

    def test_deterministic(self):
        ds = bl.gen_synthetic(0, 600, 12, 12, 3.0)
        a = bl.make_episodes(ds, 5, 1, 10, 4, 9)
        b = bl.make_episodes(ds, 5, 1, 10, 4, 9)
        for name in ("X_tr", "y_tr", "X_val", "y_val"):
            assert np.array_equal(getattr(a, name), getattr(b, name))


class TestIdx:
    def test_byte_values_scale_linearly(self, tmp_path):
        X = np.array([[0.0, 1.0, 128 / 255.0, 0.0]])
        ds = Dataset(X=X, y=np.array([1]), mask=np.array([False]), C=2)
        bl.write_idx(ds, tmp_path / "img", tmp_path / "lab", rows=2, cols=2)
        back = bl.load_idx(tmp_path / "img", tmp_path / "lab")
        np.testing.assert_array_equal(back.X, X)
        assert back.y[0] == 1

    def test_round_trip_exact_on_byte_grid(self, tmp_path):
        rng = np.random.default_rng(0)
        X = rng.integers(0, 256, size=(17, 12)).astype(np.float64) / 255.0
        y = rng.integers(0, 4, size=17).astype(np.int64)
        ds = Dataset(X=X, y=y, mask=np.zeros(17, bool), C=4)
        bl.write_idx(ds, tmp_path / "img", tmp_path / "lab", rows=3, cols=4)
        back = bl.load_idx(tmp_path / "img", tmp_path / "lab")
        assert np.array_equal(back.X, X)
        assert np.array_equal(back.y, y)

    @pytest.mark.parametrize("rows, cols", [(0, 0), (-1, 0), (-1, -4), (2, -2)])
    def test_bad_shape_is_refused_before_any_file_opens(self, tmp_path, rows, cols):
        X = np.zeros((3, 4))
        ds = Dataset(X=X, y=np.zeros(3, np.int64), mask=np.zeros(3, bool), C=1)
        with pytest.raises(ValueError, match="rows must be at least 1 and cols at least 0"):
            bl.write_idx(ds, tmp_path / "img", tmp_path / "lab", rows=rows, cols=cols)
        assert not list(tmp_path.iterdir())

    def test_bad_magic_detected(self, tmp_path):
        rng = np.random.default_rng(1)
        X = rng.integers(0, 256, size=(3, 4)).astype(np.float64) / 255.0
        ds = Dataset(X=X, y=np.zeros(3, np.int64), mask=np.zeros(3, bool), C=1)
        bl.write_idx(ds, tmp_path / "img", tmp_path / "lab", rows=2, cols=2)
        # an image file offered as the label file has the wrong magic
        with pytest.raises(ValueError, match="idx-bad-magic"):
            bl.load_idx(tmp_path / "img", tmp_path / "img")

    def test_count_mismatch_detected(self, tmp_path):
        import struct
        (tmp_path / "img").write_bytes(
            struct.pack(">IIII", 0x00000803, 2, 1, 1) + bytes([5, 9]))
        (tmp_path / "lab").write_bytes(
            struct.pack(">II", 0x00000801, 3) + bytes([0, 1, 0]))
        with pytest.raises(ValueError, match="idx-count-mismatch"):
            bl.load_idx(tmp_path / "img", tmp_path / "lab")


class TestF1:
    def test_perfect_detection(self):
        mask = np.array([True, False, True, False])
        assert bl.f1_score(mask, mask) == 1.0

    def test_hand_computed_value(self):
        # TP=2, FP=1, FN=1: precision 2/3, recall 2/3, F1 = 2/3
        pred = np.array([True, True, True, False, False])
        mask = np.array([True, True, False, True, False])
        assert bl.f1_score(pred, mask) == pytest.approx(2.0 / 3.0)

    def test_no_positives_convention(self):
        zero = np.zeros(4, dtype=bool)
        assert bl.f1_score(zero, zero) == 0.0
        assert bl.f1_score(zero, np.array([True, False, False, False])) == 0.0

    def test_bounds_and_fp_degradation(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            pred = rng.random(30) < 0.4
            mask = rng.random(30) < 0.3
            f1 = bl.f1_score(pred, mask)
            assert 0.0 <= f1 <= 1.0
            # adding one false positive never helps
            fp_candidates = np.flatnonzero(~pred & ~mask)
            if fp_candidates.size:
                worse = pred.copy()
                worse[fp_candidates[0]] = True
                assert bl.f1_score(worse, mask) <= f1 + 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            bl.f1_score(np.zeros(3, bool), np.zeros(4, bool))
