"""Synthetic datasets, normalization, the delimited-table loader and the CSV writer."""

import math

import numpy as np
import pytest

from fisherjscc.data import (DataError, Dataset, Normalizer, load_table,
                             make_blobs, make_rings, save_table, write_csv)
from fisherjscc.models import DecoderModel, EncoderModel
from fisherjscc.train import FixedPsnr, TrainConfig, train

from _oracles import fit_linear_probe


class TestMakeBlobs:
    def test_zero_spread_collapses_to_centers(self):
        ds = make_blobs(3, 10, dim=4, spread=0.0, seed=1)
        for c in range(3):
            block = ds.features[ds.labels == c]
            np.testing.assert_array_equal(block, np.tile(block[0], (10, 1)))
            assert np.linalg.norm(block[0]) == pytest.approx(3.0, rel=1e-12)

    def test_same_seed_identical(self):
        a = make_blobs(4, 25, dim=3, spread=0.5, seed=9)
        b = make_blobs(4, 25, dim=3, spread=0.5, seed=9)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_splits_share_centers_but_differ(self):
        train_set = make_blobs(2, 20, dim=3, spread=0.2, seed=4, split="train")
        test_set = make_blobs(2, 20, dim=3, spread=0.2, seed=4, split="test")
        assert not np.array_equal(train_set.features, test_set.features)
        for c in range(2):
            mean_train = train_set.features[train_set.labels == c].mean(axis=0)
            mean_test = test_set.features[test_set.labels == c].mean(axis=0)
            assert np.linalg.norm(mean_train - mean_test) < 0.5

    def test_class_balance_exact(self):
        ds = make_blobs(5, 17, dim=2, spread=1.0, seed=2)
        counts = np.bincount(ds.labels, minlength=5)
        assert counts.tolist() == [17] * 5

    def test_linear_probe_separates_distant_blobs(self):
        """C=2, small spread: a trained softmax probe reaches 99% accuracy."""
        train_set = make_blobs(2, 100, dim=3, spread=0.1, seed=11, split="train")
        test_set = make_blobs(2, 100, dim=3, spread=0.1, seed=11, split="test")
        centers = [train_set.features[train_set.labels == c].mean(axis=0) for c in range(2)]
        assert np.linalg.norm(centers[0] - centers[1]) >= 3.0
        assert fit_linear_probe(train_set, test_set) >= 0.99


class TestMakeRings:
    def test_zero_noise_exact_radii(self):
        ds = make_rings(3, 50, noise=0.0, seed=6)
        radii = np.linalg.norm(ds.features, axis=1)
        for c in range(3):
            np.testing.assert_allclose(radii[ds.labels == c], c + 1.0, rtol=1e-12)

    def test_same_seed_identical(self):
        a = make_rings(2, 30, noise=0.05, seed=8)
        b = make_rings(2, 30, noise=0.05, seed=8)
        np.testing.assert_array_equal(a.features, b.features)

    def test_rings_need_a_nonlinear_model(self):
        """Linear probe stays weak; a 2-layer MLP separates the rings."""
        train_set = make_rings(2, 150, noise=0.05, seed=13, split="train")
        test_set = make_rings(2, 150, noise=0.05, seed=13, split="test")
        assert fit_linear_probe(train_set, test_set) <= 0.70

        encoder = EncoderModel(2, 4, power=4.0, hidden=(32, 32), seed=0)
        head = DecoderModel(4, 2, hidden=(), seed=1)
        config = TrainConfig(lam=0.0, noise_draws=1, epochs=60, batch_size=32,
                             seed=5, psnr=FixedPsnr(60.0))
        train(config, train_set, encoder, head)
        predictions = np.argmax(head.decode(encoder.encode(test_set.features)), axis=1)
        mlp_accuracy = float(np.mean(predictions == test_set.labels))
        assert mlp_accuracy >= 0.95


class TestNormalizer:
    def test_train_statistics_applied_to_test(self):
        train_set = make_blobs(2, 50, dim=3, spread=0.5, seed=21, split="train")
        test_set = make_blobs(2, 50, dim=3, spread=0.5, seed=21, split="test")
        norm = Normalizer.fit(train_set)
        scaled_train = norm.apply(train_set)
        scaled_test = norm.apply(test_set)
        np.testing.assert_allclose(scaled_train.features.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(scaled_train.features.std(axis=0), 1.0, atol=1e-12)
        # Test statistics are near but not exactly standardized: no leakage.
        assert not np.allclose(scaled_test.features.mean(axis=0), 0.0, atol=1e-12)

    def test_round_trip_dict(self):
        norm = Normalizer(mean=np.array([1.0, 2.0]), std=np.array([3.0, 4.0]))
        again = Normalizer.from_dict(norm.to_dict())
        np.testing.assert_array_equal(again.mean, norm.mean)
        np.testing.assert_array_equal(again.std, norm.std)


class TestLoadTable:
    def test_hand_written_file(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("1.5,-2.0,cat\n0.25,3.0,dog\n-1.0,0.5,cat\n")
        ds = load_table(path)
        np.testing.assert_array_equal(ds.features,
                                      [[1.5, -2.0], [0.25, 3.0], [-1.0, 0.5]])
        assert ds.labels.tolist() == [0, 1, 0]
        assert ds.label_names == ["cat", "dog"]

    def test_round_trip_identity(self, tmp_path):
        original = make_blobs(3, 20, dim=4, spread=0.7, seed=31)
        path = tmp_path / "round.csv"
        save_table(original, path)
        loaded = load_table(path)
        np.testing.assert_array_equal(loaded.features, original.features)
        np.testing.assert_array_equal(loaded.labels, original.labels)

    def test_unseen_test_label_rejected(self, tmp_path):
        train_path = tmp_path / "train.csv"
        train_path.write_text("1.0,a\n2.0,b\n")
        test_path = tmp_path / "test.csv"
        test_path.write_text("1.5,a\n2.5,zebra\n")
        train_ds = load_table(train_path)
        label_map = {name: i for i, name in enumerate(train_ds.label_names)}
        with pytest.raises(DataError, match="label"):
            load_table(test_path, label_map=label_map)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1.0,2.0,a\n1.0,b\n")
        with pytest.raises(DataError, match="ragged"):
            load_table(path)

    def test_non_numeric_feature_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,oops,a\n2.0,3.0,b\n")
        with pytest.raises(DataError, match="non-numeric"):
            load_table(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError, match="no data rows"):
            load_table(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_feature_rejected(self, tmp_path, cell):
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"1.0,2.0,a\n3.0,{cell},b\n")
        with pytest.raises(DataError, match=r"nonfinite\.csv: non-finite feature value in row 2"):
            load_table(path)

    def test_header_skipped_when_flagged(self, tmp_path):
        path = tmp_path / "with_header.csv"
        path.write_text("x1,x2,label\n1.0,2.0,a\n3.0,4.0,b\n")
        ds = load_table(path, has_header=True)
        assert len(ds) == 2


class TestWriteCsv:
    def test_schema_line_header_and_cells(self, tmp_path):
        """float, np.float64 and inf come out as repr(float); int and str as they are."""
        path = tmp_path / "out.csv"
        write_csv(path, "fisherjscc.test.v1", ("n", "x", "y", "label"),
                  [(3, 0.1, np.float64(1 / 3), "a<b"), [-1, math.inf, np.float64(-0.0), "tie"]])
        assert path.read_bytes() == (b"# schema=fisherjscc.test.v1\n"
                                     b"n,x,y,label\n"
                                     b"3,0.1,0.3333333333333333,a<b\n"
                                     b"-1,inf,-0.0,tie\n")

    def test_float_cells_read_back_bit_for_bit(self, tmp_path):
        values = np.array([1e-300, 2.0 ** -1074, 1.7976931348623157e308, 0.1 + 0.2])
        path = tmp_path / "out.csv"
        write_csv(path, "s", ("v",), [(v,) for v in values])
        cells = path.read_text().splitlines()[2:]
        np.testing.assert_array_equal([float(cell) for cell in cells], values)

    def test_empty_rows_give_the_header_only(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, "s", ["a", "b"], [])
        assert path.read_text() == "# schema=s\na,b\n"


class TestDatasetInvariants:
    def test_labels_out_of_range_rejected(self):
        with pytest.raises(DataError):
            Dataset(np.ones((2, 2)), np.array([0, 5]), num_classes=2)

    def test_empty_features_rejected(self):
        with pytest.raises(DataError):
            Dataset(np.ones((0, 2)), np.array([], dtype=np.int64), num_classes=2)

    def test_non_finite_features_rejected(self):
        with pytest.raises(DataError, match="non-finite"):
            Dataset(np.array([[0.0, np.nan]]), np.array([0]), num_classes=2)
