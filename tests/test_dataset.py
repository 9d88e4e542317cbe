import json
import math

import numpy as np
import pytest

from alr.dataset import (
    Dataset,
    NormalizationParams,
    SplitConfig,
    apply_normalization,
    gen_synthetic,
    load_csv,
    normalize_features,
    split_train_test,
    write_csv,
)
from alr.regression import SolverConfig, fit, predict


CSV_3x5 = "f1,f2,v,a,d\n1.0,2.0,0.1,0.2,0.3\n4.0,5.0,0.4,0.5,0.6\n7.0,8.0,0.7,0.8,0.9\n"


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_column_arithmetic(self, tmp_path):
        data = load_csv(_write(tmp_path, CSV_3x5), task_count=3)
        assert data.n_samples == 3
        assert data.n_features == 2
        assert data.n_tasks == 3
        assert data.feature_names == ("f1", "f2")
        assert data.task_names == ("v", "a", "d")
        assert data.features[1, 0] == 4.0
        assert data.labels[2, 2] == 0.9

    @pytest.mark.parametrize("header, kind, name", [("x,x,y", "feature", "x"), ("x,y,y", "task", "y")])
    def test_repeated_column_names_the_file(self, tmp_path, header, kind, name):
        path = _write(tmp_path, header + "\n1.0,2.0,3.0\n4.0,5.0,6.0\n")
        with pytest.raises(ValueError) as err:
            load_csv(path, task_count=header.count("y"))
        assert str(err.value) == f"{path}: duplicate {kind} name(s): '{name}'"

    def test_missing_group_column(self, tmp_path):
        with pytest.raises(ValueError, match="gender"):
            load_csv(_write(tmp_path, CSV_3x5), task_count=3, group_column="gender")

    def test_group_column_parsed(self, tmp_path):
        text = "f1,gender,v\n1.0,m,0.1\n2.0,f,0.2\n"
        data = load_csv(_write(tmp_path, text), task_count=1, group_column="gender")
        assert data.group == ("m", "f")
        assert data.n_features == 1

    def test_non_numeric_cell_cites_location(self, tmp_path):
        text = "f1,f2,v\n1.0,abc,0.1\n"
        with pytest.raises(ValueError) as exc:
            load_csv(_write(tmp_path, text), task_count=1)
        assert "abc" in str(exc.value)
        assert "f2" in str(exc.value)
        assert "line 2" in str(exc.value)

    def test_nan_cell_rejected(self, tmp_path):
        text = "f1,f2,v\n1.0,nan,0.1\n"
        with pytest.raises(ValueError, match="non-finite.*line 2.*f2"):
            load_csv(_write(tmp_path, text), task_count=1)

    def test_non_finite_cell_past_group_column_cites_location(self, tmp_path):
        text = "f1,gender,f2,v\n1.0,m,2.0,0.1\n3.0,f,-inf,0.2\n"
        with pytest.raises(ValueError, match="non-finite value at line 3, column 'f2'"):
            load_csv(_write(tmp_path, text), task_count=1, group_column="gender")

    @pytest.mark.parametrize("cell, message", [("abc", "non-numeric value 'abc' at line 4, column 'f1'"),
                                               ("nan", "non-finite value at line 4, column 'f1'")])
    def test_quoted_newline_keeps_later_lines(self, tmp_path, cell, message):
        # the first data row spans lines 2 and 3, so the second starts on line 4
        path = _write(tmp_path, f'f1,v\n"1.0\n",0.1\n{cell},0.2\n')
        with pytest.raises(ValueError) as exc:
            load_csv(path, task_count=1)
        assert str(exc.value) == f"{path}: {message}"

    def test_oversized_cell_cites_file_and_line(self, tmp_path):
        # a stray opening quote makes one cell of the rest of the file; here the cell itself is too large
        path = _write(tmp_path, "f1,v\n1.0,0.1\n\"" + "9" * 200_000 + "\",0.2\n")
        with pytest.raises(ValueError) as exc:
            load_csv(path, task_count=1)
        assert str(exc.value) == f"{path}: line 3: field larger than field limit (131072)"

    def test_too_few_numeric_columns(self, tmp_path):
        text = "a,b,c\n1,2,3\n"
        with pytest.raises(ValueError, match="at least 4 numeric columns"):
            load_csv(_write(tmp_path, text), task_count=3)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv", task_count=1)

    def test_ragged_row_rejected(self, tmp_path):
        text = "f1,f2,v\n1.0,2.0,0.1\n1.0,2.0\n"
        with pytest.raises(ValueError, match="line 3"):
            load_csv(_write(tmp_path, text), task_count=1)


class TestRoundTrip:
    def test_write_load_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        data = Dataset(
            features=rng.standard_normal((17, 4)) * 1e3,
            labels=rng.standard_normal((17, 2)) * 1e-7,
            feature_names=("a", "b", "c", "d"),
            task_names=("t1", "t2"),
            group=tuple(rng.choice(["m", "f"], size=17)),
        )
        path = tmp_path / "rt.csv"
        write_csv(data, path)
        back = load_csv(path, task_count=2, group_column="group")
        assert (back.features == data.features).all()
        assert (back.labels == data.labels).all()
        assert back.feature_names == data.feature_names
        assert back.task_names == data.task_names
        assert back.group == data.group


class TestNormalize:
    def test_two_point_column(self):
        data = Dataset([[1.0], [3.0]], [[0.0], [0.0]], ("x",), ("y",))
        normalized, params = normalize_features(data)
        expected = 1.0 / math.sqrt(2.0)
        assert normalized.features[0, 0] == pytest.approx(-expected, abs=1e-12)
        assert normalized.features[1, 0] == pytest.approx(expected, abs=1e-12)
        assert params.means[0] == pytest.approx(2.0)
        assert params.stds[0] == pytest.approx(math.sqrt(2.0))

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        data = Dataset(
            rng.standard_normal((25, 3)) * 7 + 2,
            rng.standard_normal((25, 1)),
            ("a", "b", "c"),
            ("y",),
        )
        once, _ = normalize_features(data)
        twice, _ = normalize_features(once)
        assert np.abs(twice.features - once.features).max() < 1e-12

    def test_mean_zero_std_one(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            data = Dataset(
                rng.standard_normal((30, 4)) * rng.uniform(0.1, 50),
                rng.standard_normal((30, 2)),
                ("a", "b", "c", "d"),
                ("u", "v"),
            )
            normalized, _ = normalize_features(data)
            assert np.abs(normalized.features.mean(axis=0)).max() < 1e-12
            assert np.abs(normalized.features.std(axis=0, ddof=1) - 1).max() < 1e-12

    def test_constant_column(self):
        data = Dataset([[5.0], [5.0], [5.0]], [[1.0], [2.0], [3.0]], ("x",), ("y",))
        normalized, params = normalize_features(data)
        assert (normalized.features == 0.0).all()
        assert params.stds[0] == 1.0

    def test_needs_two_rows(self):
        data = Dataset([[1.0]], [[1.0]], ("x",), ("y",))
        with pytest.raises(ValueError):
            normalize_features(data)

    def test_heldout_application(self):
        rng = np.random.default_rng(4)
        pool = Dataset(rng.standard_normal((10, 2)) * 3 + 1, rng.standard_normal((10, 1)), ("a", "b"), ("y",))
        test = Dataset(rng.standard_normal((6, 2)), rng.standard_normal((6, 1)), ("a", "b"), ("y",))
        _, params = normalize_features(pool)
        applied = apply_normalization(test, params)
        manual = (test.features - params.means) / params.stds
        assert np.allclose(applied.features, manual, atol=0, rtol=0)

    def test_params_json_roundtrip(self, tmp_path):
        params = NormalizationParams(("a", "b"), [1.5, -2.0], [0.5, 3.0])
        payload = params.to_json_dict()
        assert payload == {"a": {"mean": 1.5, "std": 0.5}, "b": {"mean": -2.0, "std": 3.0}}
        assert json.loads(json.dumps(payload)) == payload
        path = tmp_path / "params.json"
        params.save(path)
        assert json.loads(path.read_text(encoding="utf-8")) == payload


class TestSplit:
    def test_947_sample_sizes(self):
        data = gen_synthetic(947, 3, 3, 0.1, seed=0)
        pool, test = split_train_test(data, SplitConfig(0.3, seed=12))
        assert pool.n_samples == 284
        assert test.n_samples == 663

    def test_deterministic(self):
        data = gen_synthetic(50, 2, 1, 0.0, seed=1)
        a = split_train_test(data, SplitConfig(0.4, seed=9))
        b = split_train_test(data, SplitConfig(0.4, seed=9))
        assert np.array_equal(a[0].features, b[0].features)
        assert np.array_equal(a[1].features, b[1].features)

    def test_half_split_of_four(self):
        data = gen_synthetic(4, 1, 1, 0.0, seed=2)
        pool, test = split_train_test(data, SplitConfig(0.5, seed=0))
        assert pool.n_samples == 2 and test.n_samples == 2

    def test_disjoint_cover_property(self):
        for n, frac, seed in [(10, 0.3, 0), (31, 0.5, 7), (100, 0.77, 3), (11, 0.2, 5)]:
            data = gen_synthetic(n, 2, 1, 0.0, seed=seed)
            pool, test = split_train_test(data, SplitConfig(frac, seed=seed))
            combined = np.vstack([pool.features, test.features])
            assert combined.shape[0] == n
            original = {tuple(row) for row in data.features}
            assert {tuple(row) for row in combined} == original

    def test_degenerate_split_rejected(self):
        data = gen_synthetic(3, 1, 1, 0.0, seed=0)
        with pytest.raises(ValueError, match="degenerate"):
            split_train_test(data, SplitConfig(0.01, seed=0))


class TestSynthetic:
    def test_deterministic(self):
        a = gen_synthetic(40, 3, 2, 0.5, seed=11)
        b = gen_synthetic(40, 3, 2, 0.5, seed=11)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_noiseless_identifiability(self):
        data = gen_synthetic(50, 4, 2, 0.0, seed=3)
        for p in range(2):
            model = fit(data.features, data.labels[:, p], SolverConfig("ols"))
            assert np.abs(predict(model, data.features) - data.labels[:, p]).max() < 1e-8
            assert abs(model.intercept) < 1e-8

    def test_label_variance_matches_signal_plus_noise(self):
        # law of total variance: Var(y) = ||coef||^2 + noise^2 for standard
        # normal features; checked by Monte Carlo over seeds. The noise is the
        # last draw, so the noise-free twin shares the features and coefficients,
        # and OLS on it recovers the true coefficients.
        ratios = []
        for seed in range(30):
            data = gen_synthetic(300, 10, 3, 0.1, seed=seed)
            twin = gen_synthetic(300, 10, 3, 0.0, seed=seed)
            for p in range(3):
                truth = fit(twin.features, twin.labels[:, p], SolverConfig("ols")).coefficients
                expected = float(truth @ truth) + 0.01
                observed = float(np.var(data.labels[:, p], ddof=1))
                ratios.append(observed / expected)
                assert abs(observed - expected) / expected < 0.35
        assert abs(np.mean(ratios) - 1.0) < 0.05

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            gen_synthetic(0, 1, 1, 0.0, seed=0)
        with pytest.raises(ValueError):
            gen_synthetic(5, 1, 1, -0.1, seed=0)


class TestDatasetInvariants:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Dataset([[np.inf]], [[1.0]], ("x",), ("y",))
        with pytest.raises(ValueError):
            Dataset([[1.0]], [[np.nan]], ("x",), ("y",))

    def test_rejects_mismatched_names(self):
        with pytest.raises(ValueError):
            Dataset([[1.0, 2.0]], [[1.0]], ("x",), ("y",))

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="duplicate feature name\\(s\\): 'x'"):
            Dataset([[1.0, 2.0]], [[1.0]], ("x", "x"), ("y",))
        with pytest.raises(ValueError, match="duplicate task name\\(s\\): 'y'"):
            Dataset([[1.0]], [[1.0, 2.0]], ("x",), ("y", "y"))

    def test_rejects_bad_group_length(self):
        with pytest.raises(ValueError):
            Dataset([[1.0], [2.0]], [[1.0], [2.0]], ("x",), ("y",), group=("m",))

    def test_arrays_read_only(self):
        data = gen_synthetic(5, 2, 1, 0.0, seed=0)
        with pytest.raises(ValueError):
            data.features[0, 0] = 99.0
