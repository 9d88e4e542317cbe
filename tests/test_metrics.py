import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alr.harness import MetricRecord
from alr.metrics import label_std, pearson_cc, rmse
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

    def test_nan_counts_as_missing(self):
        assert label_std([0.0, math.nan, 1.0]) == label_std([0.0, 1.0])
        assert np.isnan(label_std([[1.0, math.nan], [math.nan, math.nan]])).all()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 3), st.sampled_from((1, 2, 7, 8, 9, 127, 128, 129, 257)) | st.integers(1, 300),
           st.integers(0, 2**32 - 1))
    def test_nan_padded_prefixes_equal_1d_std(self, p, n, seed):
        """One call on a (K's, tasks, n) stack padded with NaN past each K's prefix gives,
        bit for bit, np.std(ddof=1) of every prefix (NaN below 2 labels)."""
        rng = np.random.default_rng(seed)
        labels = rng.standard_normal((p, n)) * 10.0 ** rng.integers(-6, 7)
        ks = np.arange(n + 1)
        padded = np.where(np.arange(n) < ks[:, None, None], labels, np.nan)
        stds = label_std(padded)
        assert stds.shape == (n + 1, p)
        for k in ks:
            for row, std in zip(labels, stds[k]):
                if k < 2:
                    assert math.isnan(std)
                else:
                    assert std == np.std(row[:k], ddof=1)


@st.composite
def _row_pair(draw):
    """Prediction and truth arrays of one (P, n) shape, with some constant rows, each
    possibly a transposed (non-contiguous) view. Both come from one drawn seed; an array
    mixes small integers (ties) and floats in a drawn proportion."""
    p, n = draw(st.integers(1, 4)), draw(st.sampled_from((1, 2)) | st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pair = []
    for _ in range(2):
        ints = rng.integers(-5, 6, (p, n)).astype(float)
        a = np.where(rng.random((p, n)) < rng.random(), ints, rng.uniform(-1e3, 1e3, (p, n)))
        constant = rng.random(p) < 0.3
        a[constant] = a[constant, :1]
        pair.append(np.ascontiguousarray(a.T).T if rng.random() < 0.5 else a)
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
