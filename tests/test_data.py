"""CSV loading, scaling, synthetic data, folds, and the RMSE metric."""

from __future__ import annotations

import numpy as np
import pytest

from sipr.data import (
    higdon,
    higdon_truth,
    kfold,
    load_csv,
    load_probe_csv,
    minmax_scale,
    rmse,
)
from sipr.errors import (
    ConstantFeature,
    DimensionMismatch,
    IOError_,
    KTooLarge,
    MissingValue,
    ParseError,
    ValidationError,
)


class TestLoadCsv:
    def test_roundtrip_with_target_in_middle(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,y,b\n1,10,4\n2,20,5\n3,30,6\n")
        ds = load_csv(str(p), target="y")
        assert ds.feature_names == ("a", "b")
        assert ds.target_name == "y"
        np.testing.assert_array_equal(ds.X, [[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]])
        np.testing.assert_array_equal(ds.y, [10.0, 20.0, 30.0])
        assert ds.scaling is None

    def test_whitespace_and_blank_lines_tolerated(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x , y\n 1.5 , 2.5 \n\n2.5,3.5\n")
        ds = load_csv(str(p), target="y")
        np.testing.assert_array_equal(ds.X[:, 0], [1.5, 2.5])

    def test_parse_error_names_row_and_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,y\n1,2\noops,4\n")
        with pytest.raises(ParseError, match="data row 2, column 'x'"):
            load_csv(str(p), target="y")

    def test_missing_value_names_row_and_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,y\n1,2\n3,\n")
        with pytest.raises(MissingValue, match="data row 2, column 'y'"):
            load_csv(str(p), target="y")

    def test_non_finite_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,y\ninf,2\n")
        with pytest.raises(ParseError, match="non-finite"):
            load_csv(str(p), target="y")

    def test_ragged_row_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,y\n1,2,3\n")
        with pytest.raises(ParseError, match="data row 1 has 3 cells"):
            load_csv(str(p), target="y")

    def test_first_bad_cell_in_file_order_is_named(self, tmp_path):
        # Rows in order, each row's length before its cells, cells left to
        # right whether they hold a feature or the target.
        p = tmp_path / "d.csv"
        p.write_text("a,y,b\n1,2,3\n4,,oops\n5,6\n")
        with pytest.raises(MissingValue, match="data row 2, column 'y'"):
            load_csv(str(p), target="y")
        p.write_text("a,y,b\n1,2,3\n4,5,oops\n5,6\n")
        with pytest.raises(ParseError, match="cannot parse 'oops' at data row 2, column 'b'"):
            load_csv(str(p), target="y")

    def test_unknown_target_lists_columns(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,y\n1,2\n")
        with pytest.raises(ValidationError, match="available columns: x, y"):
            load_csv(str(p), target="z")

    def test_missing_file(self, tmp_path):
        with pytest.raises(IOError_):
            load_csv(str(tmp_path / "absent.csv"), target="y")

    def test_repeated_column_name_rejected(self, tmp_path):
        # Two columns called x would both become feature "x", and a probe
        # file looks each name up once, so the second column would be lost.
        p = tmp_path / "d.csv"
        p.write_text("x,x,y\n0.1,0.2,1\n0.3,0.4,2\n")
        with pytest.raises(ValidationError, match="repeated column name.*: x$"):
            load_csv(str(p), target="y")
        probes = tmp_path / "p.csv"
        probes.write_text("x, x,z,z\n0.5,100,1,2\n")
        with pytest.raises(ValidationError, match="repeated column name.*: x, z$"):
            load_probe_csv(str(probes), ["x"])


class TestLoadProbeCsv:
    def test_ragged_row_rejected(self, tmp_path):
        p = tmp_path / "p.csv"
        p.write_text("x,z\n1,2\n3\n")
        with pytest.raises(ParseError, match="data row 2 has 1 cells, header has 2"):
            load_probe_csv(str(p), ["x"])

    def test_parse_error_names_row_and_column(self, tmp_path):
        p = tmp_path / "p.csv"
        p.write_text("z,x\n1,2\n3,oops\n")
        with pytest.raises(ParseError, match="cannot parse 'oops' at data row 2, column 'x'"):
            load_probe_csv(str(p), ["x"])

    def test_missing_value_names_row_and_column(self, tmp_path):
        p = tmp_path / "p.csv"
        p.write_text("x,w\n1,2\n , 4\n")
        with pytest.raises(MissingValue, match="empty cell at data row 2, column 'x'"):
            load_probe_csv(str(p), ["w", "x"])

    def test_cells_outside_the_features_are_not_parsed(self, tmp_path):
        p = tmp_path / "p.csv"
        p.write_text("x,y,w\n1,,4\n2,oops,5\n")
        np.testing.assert_array_equal(load_probe_csv(str(p), ["w", "x"]), [[4.0, 1.0], [5.0, 2.0]])


class TestMinmaxScale:
    def test_three_point_example(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,y\n2,0\n4,0\n6,0\n")
        ds = minmax_scale(load_csv(str(p), target="y"))
        np.testing.assert_allclose(ds.X[:, 0], [0.0, 0.5, 1.0])
        np.testing.assert_allclose(ds.scaling.shift, [2.0])
        np.testing.assert_allclose(ds.scaling.scale, [4.0])

    def test_constant_feature_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b,y\n1,7,0\n2,7,0\n")
        with pytest.raises(ConstantFeature, match="'b'"):
            minmax_scale(load_csv(str(p), target="y"))


class TestHigdon:
    def test_noise_free_matches_truth(self):
        ds = higdon(50, 0.0, seed=3)
        np.testing.assert_array_equal(ds.y, higdon_truth(ds.X[:, 0]))
        np.testing.assert_allclose(ds.X[:, 0], np.linspace(0.0, 10.0, 50))

    def test_noise_variance(self):
        # At n = 10^4 the empirical sd of the residuals is within 5%.
        ds = higdon(10_000, 0.3, seed=0)
        resid = ds.y - higdon_truth(ds.X[:, 0])
        assert abs(resid.std() / 0.3 - 1.0) < 0.05
        assert abs(resid.mean()) < 0.01

    def test_reproducible_per_seed(self):
        np.testing.assert_array_equal(higdon(30, 0.1, seed=4).y, higdon(30, 0.1, seed=4).y)
        assert not np.array_equal(higdon(30, 0.1, seed=4).y, higdon(30, 0.1, seed=5).y)

    def test_validation(self):
        with pytest.raises(ValidationError):
            higdon(1, 0.1)
        with pytest.raises(ValidationError):
            higdon(10, -0.1)


class TestKfold:
    def test_partition_properties(self):
        folds = kfold(10, 5, seed=0)
        assert len(folds) == 5
        all_test = np.concatenate([test for _, test in folds])
        assert sorted(all_test.tolist()) == list(range(10))
        for train, test in folds:
            assert test.shape == (2,)
            assert train.shape == (8,)
            assert np.intersect1d(train, test).size == 0
            assert sorted(np.concatenate([train, test]).tolist()) == list(range(10))

    def test_uneven_split_stays_balanced(self):
        folds = kfold(11, 3, seed=1)
        sizes = sorted(test.size for _, test in folds)
        assert sizes == [3, 4, 4]

    def test_leave_one_out(self):
        folds = kfold(5, 5, seed=2)
        assert all(test.size == 1 for _, test in folds)

    def test_deterministic_and_shuffled(self):
        f1 = kfold(20, 4, seed=7)
        f2 = kfold(20, 4, seed=7)
        for (a, b), (c, d) in zip(f1, f2):
            np.testing.assert_array_equal(a, c)
            np.testing.assert_array_equal(b, d)
        # A different seed deals different folds.
        f3 = kfold(20, 4, seed=8)
        assert any(not np.array_equal(b, d) for (_, b), (_, d) in zip(f1, f3))

    def test_validation(self):
        with pytest.raises(KTooLarge):
            kfold(4, 5)
        with pytest.raises(ValidationError):
            kfold(10, 1)


class TestRmse:
    def test_zero_on_identical(self):
        v = np.random.default_rng(0).normal(size=17)
        assert rmse(v, v) == 0.0

    def test_known_value(self):
        assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(np.sqrt(12.5), rel=1e-15)

    def test_validation(self):
        with pytest.raises(DimensionMismatch):
            rmse([1.0], [1.0, 2.0])
        with pytest.raises(ValidationError):
            rmse([], [])
