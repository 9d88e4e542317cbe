import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from alr.dataset import Dataset
from alr.harness import MetricRecord
from alr.metrics import group_fraction, label_std, pearson_cc, rmse
from alr.regression import coefficient_mae


class TestRmse:
    def test_zero_on_equal(self):
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_hand_value(self):
        assert rmse([1.0, 2.0, 3.0], [1.0, 2.0, 5.0]) == pytest.approx(math.sqrt(4.0 / 3.0))

    def test_homogeneity(self):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal(20), rng.standard_normal(20)
        for c in (0.1, -3.0, 7.5):
            assert rmse(c * a, c * b) == pytest.approx(abs(c) * rmse(a, b))

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        a, b = rng.standard_normal(9), rng.standard_normal(9)
        assert rmse(a, b) == rmse(b, a)

    def test_errors(self):
        with pytest.raises(ValueError):
            rmse([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            rmse([], [])


class TestPearson:
    def test_positive_scaling_gives_one(self):
        truth = np.array([1.0, 2.0, 3.0, 4.0])
        assert pearson_cc(2 * truth, truth) == pytest.approx(1.0)

    def test_negation_gives_minus_one(self):
        truth = np.array([1.0, 2.0, 3.0])
        assert pearson_cc(-truth, truth) == pytest.approx(-1.0)

    def test_hand_value(self):
        assert pearson_cc([1.0, 2.0, 3.0], [1.0, 3.0, 2.0]) == pytest.approx(0.5)

    def test_affine_invariance(self):
        rng = np.random.default_rng(2)
        a, b = rng.standard_normal(15), rng.standard_normal(15)
        base = pearson_cc(a, b)
        assert pearson_cc(3.0 * a + 5.0, b) == pytest.approx(base, abs=1e-12)
        assert pearson_cc(a, 0.25 * b - 9.0) == pytest.approx(base, abs=1e-12)

    def test_constant_input_is_undefined(self):
        assert math.isnan(pearson_cc([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]))
        assert math.isnan(pearson_cc([1.0, 2.0, 3.0], [4.0, 4.0, 4.0]))
        # the mean of three 0.1s is not 0.1, so the centred row is not exactly zero
        assert math.isnan(pearson_cc([0.1] * 3, [0.0, 1.0, 2.0]))

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            pearson_cc([1.0], [1.0])


def _pool_with_labels(labels, group=None):
    labels = np.asarray(labels, dtype=float)
    n = labels.shape[0]
    return Dataset(
        features=np.arange(n, dtype=float)[:, None],
        labels=labels,
        feature_names=("x",),
        task_names=tuple(f"t{i}" for i in range(labels.shape[1])),
        group=group,
    )


class TestLabelStd:
    def test_identical_labels(self):
        assert label_std([2.0, 2.0, 2.0]) == 0.0

    def test_two_values(self):
        assert label_std([0.0, 1.0]) == pytest.approx(math.sqrt(0.5))

    def test_permutation_invariant(self):
        labels = np.array([0.3, 1.7, -2.0, 0.9])
        assert label_std(labels) == label_std(labels[[3, 1, 0, 2]])

    def test_one_value_per_task(self):
        assert label_std([[0.0, 1.0, 5.0], [2.0, 2.0, 2.0]]) == pytest.approx([math.sqrt(7.0), 0.0])

    def test_fewer_than_two_is_nan(self):
        assert math.isnan(label_std([1.0]))
        assert np.isnan(label_std(np.ones((3, 1)))).all()


@st.composite
def _row_pair(draw):
    """Prediction and truth arrays of one (P, n) shape, with some constant rows, each
    possibly a transposed (non-contiguous) view."""
    p, n = draw(st.integers(1, 4)), draw(st.sampled_from((1, 2)) | st.integers(1, 40))
    values = st.integers(-5, 5).map(float) | st.floats(-1e3, 1e3, allow_subnormal=False)
    pair = []
    for _ in range(2):
        a = draw(arrays(float, (p, n), elements=values))
        for row in draw(st.sets(st.integers(0, p - 1))):
            a[row] = a[row, 0]
        pair.append(np.ascontiguousarray(a.T).T if draw(st.booleans()) else a)
    return pair


class TestRowForms:
    @settings(max_examples=300, deadline=None)
    @given(_row_pair())
    def test_2d_call_equals_1d_call_on_each_row(self, pair):
        pred, truth = pair
        same = lambda a, b: np.array_equal(a, b, equal_nan=True)
        assert same(rmse(pred, truth), [rmse(a, b) for a, b in zip(pred, truth)])
        assert same(label_std(pred), [label_std(a) for a in pred])
        assert same(coefficient_mae(pred, truth), [coefficient_mae(a, b) for a, b in zip(pred, truth)])
        if pred.shape[1] < 2:
            with pytest.raises(ValueError, match="2 points"):
                pearson_cc(pred, truth)
            return
        cc = pearson_cc(pred, truth)
        assert same(cc, [pearson_cc(a, b) for a, b in zip(pred, truth)])
        constant = np.ptp(pred, axis=1) == 0
        assert np.isnan(cc[constant]).all()


class TestGroupFraction:
    def test_all_match(self):
        pool = _pool_with_labels([[1.0]] * 3, group=("m", "m", "m"))
        assert group_fraction(pool, [0, 1, 2], "m") == 1.0

    def test_none_match(self):
        pool = _pool_with_labels([[1.0]] * 3, group=("f", "f", "f"))
        assert group_fraction(pool, [0, 1, 2], "m") == 0.0

    def test_two_of_five(self):
        pool = _pool_with_labels([[1.0]] * 5, group=("m", "f", "m", "f", "f"))
        assert group_fraction(pool, [0, 1, 2, 3, 4], "m") == pytest.approx(0.4)

    def test_missing_group_column(self):
        pool = _pool_with_labels([[1.0]] * 3)
        with pytest.raises(ValueError, match="group"):
            group_fraction(pool, [0], "m")


class TestMetricRecord:
    def test_accepts_nan_cc(self):
        rec = MetricRecord(k=3, rmse=np.array([0.1]), cc=np.array([math.nan]),
                           coef_mae=np.array([0.0]), label_std=np.array([0.2]))
        assert math.isnan(rec.cc[0])

    def test_keeps_arrays_as_given(self):
        given = {"rmse": np.array([0.1, 0.2]), "cc": np.array([0.5, math.nan]),
                 "coef_mae": np.array([0.0, 0.3]), "label_std": np.array([0.2, 0.4])}
        rec = MetricRecord(k=2, **given)
        for name, array in given.items():
            assert getattr(rec, name) is array, name
