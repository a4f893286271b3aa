import numpy as np
import pytest

from psm.data import (
    AugmentPolicy,
    DataFormatError,
    Dataset,
    gen_clusters,
    load_csv,
    save_csv,
    split_dataset,
    two_views,
)
from psm.numerics import RngState


class TestDataset:
    def test_properties(self):
        ds = Dataset(np.zeros((6, 3)), np.array([0, 0, 1, 1, 2, 2]))
        assert (ds.n, ds.dim) == (6, 3)

    def test_features_must_be_2d(self):
        with pytest.raises(ValueError, match="2-d"):
            Dataset(np.zeros(5), np.zeros(5, dtype=np.int64))

    def test_one_label_per_row(self):
        with pytest.raises(ValueError, match="one label per row"):
            Dataset(np.zeros((5, 2)), np.zeros(4, dtype=np.int64))


class TestGenClusters:
    def test_shapes_and_label_blocks(self):
        ds = gen_clusters(3, 10, 8, 4.0, seed=0)
        assert ds.features.shape == (30, 8)
        np.testing.assert_array_equal(ds.labels, np.repeat([0, 1, 2], 10))

    def test_seed_determinism(self):
        a = gen_clusters(3, 5, 8, 4.0, seed=9)
        b = gen_clusters(3, 5, 8, 4.0, seed=9)
        np.testing.assert_array_equal(a.features, b.features)
        c = gen_clusters(3, 5, 8, 4.0, seed=10)
        assert not np.array_equal(a.features, c.features)

    def test_splits_share_means_but_not_noise(self):
        train = gen_clusters(3, 50, 8, 6.0, seed=2, split="train")
        test = gen_clusters(3, 50, 8, 6.0, seed=2, split="test")
        assert not np.array_equal(train.features, test.features)
        for c in range(3):
            mu_train = train.features[train.labels == c].mean(axis=0)
            mu_test = test.features[test.labels == c].mean(axis=0)
            assert np.linalg.norm(mu_train - mu_test) < 1.5

    def test_nearest_centroid_separates_well_separated_classes(self):
        train = gen_clusters(4, 64, 16, 10.0, seed=5, split="train")
        test = gen_clusters(4, 32, 16, 10.0, seed=5, split="test")
        centroids = np.stack(
            [train.features[train.labels == c].mean(axis=0) for c in range(4)]
        )
        d2 = ((test.features[:, None, :] - centroids[None]) ** 2).sum(axis=2)
        acc = float((d2.argmin(axis=1) == test.labels).mean())
        assert acc >= 0.99

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(classes=1, n_per_class=4, dim=8, separation=4.0),
            dict(classes=3, n_per_class=4, dim=1, separation=4.0),
            dict(classes=3, n_per_class=0, dim=8, separation=4.0),
            dict(classes=3, n_per_class=4, dim=8, separation=0.0),
            dict(classes=3, n_per_class=4, dim=8, separation=float("nan")),
            dict(classes=3, n_per_class=4, dim=8, separation=float("inf")),
        ],
    )
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            gen_clusters(seed=0, **kwargs)


class TestTwoViews:
    def test_identity_policy_is_exact(self):
        policy = AugmentPolicy(sigma=0.0, dropout=0.0, scale_lo=1.0, scale_hi=1.0)
        x = RngState(1).normal((6, 5))
        x1, x2 = two_views(x, policy, RngState(2).split("aug"))
        np.testing.assert_array_equal(x1, x)
        np.testing.assert_array_equal(x2, x)

    def test_deterministic_per_stream(self):
        policy = AugmentPolicy()
        x = RngState(3).normal((4, 5))
        rng = RngState(4).split("aug", 7)
        a1, a2 = two_views(x, policy, rng)
        b1, b2 = two_views(x, policy, RngState(4).split("aug", 7))
        np.testing.assert_array_equal(a1, b1)
        np.testing.assert_array_equal(a2, b2)

    def test_views_differ_from_each_other(self):
        x = RngState(5).normal((4, 5))
        x1, x2 = two_views(x, AugmentPolicy(), RngState(6))
        assert not np.array_equal(x1, x2)

    def test_single_row_round_trips_shape(self):
        x = RngState(7).normal((1, 5))
        x1, x2 = two_views(x, AugmentPolicy(), RngState(8))
        assert x1.shape == (1, 5) and x2.shape == (1, 5)

    def test_noise_scale_matches_sigma(self):
        policy = AugmentPolicy(sigma=0.5, dropout=0.0, scale_lo=1.0, scale_hi=1.0)
        x = np.zeros((2000, 4))
        x1, _ = two_views(x, policy, RngState(9))
        assert abs(float(x1.std()) - 0.5) < 0.02

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(sigma=-0.1),
            dict(dropout=1.0),
            dict(dropout=-0.1),
            dict(scale_lo=0.0),
            dict(scale_lo=1.5, scale_hi=1.0),
            dict(sigma=float("nan")),
            dict(dropout=float("nan")),
            dict(scale_hi=float("inf")),
            dict(sigma="0.3"),
            dict(dropout=True),
        ],
    )
    def test_policy_validation(self, kwargs):
        with pytest.raises(ValueError):
            AugmentPolicy(**kwargs)


class TestCsv:
    def test_round_trip_is_exact(self, tmp_path):
        ds = gen_clusters(3, 7, 5, 4.0, seed=11)
        path = tmp_path / "d.csv"
        save_csv(ds, path)
        back = load_csv(path)
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("label,f0,f1\n0,1.0,2.0\n\n1,3.0,4.0\n")
        ds = load_csv(path)
        assert ds.n == 2

    def test_ragged_row_reports_line_number(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("label,f0,f1\n0,1.0,2.0\n1,3.0\n")
        with pytest.raises(DataFormatError, match="line 3"):
            load_csv(path)

    def test_non_numeric_field_reports_line_number(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("label,f0,f1\n0,1.0,oops\n")
        with pytest.raises(DataFormatError, match="line 2"):
            load_csv(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_field_reports_line_number(self, tmp_path, value):
        path = tmp_path / "d.csv"
        path.write_text(f"label,f0,f1\n0,1.0,2.0\n\n1,3.0,{value}\n")
        with pytest.raises(DataFormatError, match="line 4: non-finite"):
            load_csv(path)

    def test_negative_label_reports_line_number(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("label,f0,f1\n0,1.0,2.0\n\n-1,3.0,4.0\n")
        with pytest.raises(DataFormatError, match="line 4: negative label"):
            load_csv(path)

    def test_label_must_fit_int64(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(f"label,f0\n{2**63 - 1},1.0\n")
        assert load_csv(path).labels[0] == 2**63 - 1
        path.write_text(f"label,f0\n0,1.0\n{2**63},2.0\n")
        with pytest.raises(DataFormatError, match=f"line 3: label {2**63} does not fit int64"):
            load_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("foo,f0,f1\n0,1.0,2.0\n")
        with pytest.raises(DataFormatError, match="header"):
            load_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(DataFormatError, match="empty"):
            load_csv(path)

    def test_header_without_rows(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("label,f0,f1\n")
        with pytest.raises(DataFormatError, match="no data rows"):
            load_csv(path)


class TestSplitDataset:
    def _tagged(self, n=20):
        feats = np.stack([np.arange(float(n)), np.zeros(n)], axis=1)
        return Dataset(feats, np.arange(n, dtype=np.int64) % 3)

    def test_sizes_and_partition(self):
        train, test = split_dataset(self._tagged(), 0.25, seed=0)
        assert (train.n, test.n) == (15, 5)
        ids = np.concatenate([train.features[:, 0], test.features[:, 0]])
        np.testing.assert_array_equal(np.sort(ids), np.arange(20.0))

    def test_small_fraction_keeps_one_test_row(self):
        train, test = split_dataset(self._tagged(), 0.01, seed=0)
        assert test.n == 1 and train.n == 19

    def test_seed_determinism(self):
        a_train, a_test = split_dataset(self._tagged(), 0.25, seed=3)
        b_train, b_test = split_dataset(self._tagged(), 0.25, seed=3)
        np.testing.assert_array_equal(a_train.features, b_train.features)
        np.testing.assert_array_equal(a_test.features, b_test.features)
        c_train, _ = split_dataset(self._tagged(), 0.25, seed=4)
        assert not np.array_equal(a_train.features, c_train.features)

    def test_labels_follow_rows(self):
        train, test = split_dataset(self._tagged(), 0.25, seed=5)
        for part in (train, test):
            np.testing.assert_array_equal(
                part.labels, part.features[:, 0].astype(np.int64) % 3
            )

    @pytest.mark.parametrize("frac", [0.0, 1.0, -0.5])
    def test_fraction_validation(self, frac):
        with pytest.raises(ValueError):
            split_dataset(self._tagged(), frac, seed=0)
