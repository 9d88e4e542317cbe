"""Evaluation and selection-diagnostic metric functions.

`rmse`, `pearson_cc` and `label_std` reduce along the last axis, one contiguous row at a time,
so a call on a (tasks, samples) array equals the 1-D calls on its rows bit for bit, and a run
scores every task at a K with one call each. Each gives NaN where undefined: CC of a constant
input, label_std of fewer than 2 samples. Each bounds its own range (RMSE is a square root,
CC is clipped to [-1, 1]), so the records a run keeps are not checked again. The coefficient
MAE against the full-pool model is `regression.coefficient_mae`, which reduces the same way.
`_defined_stats`, the one NaN-dropping reduction, gives `label_std` and the curve cells.
"""

from __future__ import annotations

import numpy as np

__all__ = ["rmse", "pearson_cc", "label_std"]


def _rows(pred, truth) -> tuple[np.ndarray, np.ndarray]:
    p, t = np.ascontiguousarray(pred, dtype=float), np.ascontiguousarray(truth, dtype=float)
    if p.shape != t.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {t.shape}")
    return p, t


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a · b per row, as (1, n) @ (n, 1) matmuls: each row rounds as `a_row @ b_row` does."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def rmse(pred, truth):
    """Root mean squared error along the last axis."""
    p, t = _rows(pred, truth)
    if p.shape[-1] == 0:
        raise ValueError("rmse of empty vectors is undefined")
    return np.sqrt(np.mean((p - t) ** 2, axis=-1))


def pearson_cc(pred, truth):
    """Pearson correlation coefficient in [-1, 1] along the last axis; NaN for a constant input."""
    p, t = _rows(pred, truth)
    if p.shape[-1] < 2:
        raise ValueError("correlation needs at least 2 points")
    pc = p - p.mean(axis=-1, keepdims=True)
    tc = t - t.mean(axis=-1, keepdims=True)
    denom = np.sqrt(_row_dot(pc, pc)) * np.sqrt(_row_dot(tc, tc))
    # a constant row need not centre to exact zeros: the mean of equal floats can round off them
    defined = (denom != 0.0) & (np.ptp(p, axis=-1) != 0.0) & (np.ptp(t, axis=-1) != 0.0)
    cc = np.divide(_row_dot(pc, tc), denom, out=np.full_like(denom, np.nan), where=defined)
    return np.clip(cc, -1.0, 1.0)


def _defined_stats(values) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Count, mean and sample std (ddof=1) of the non-NaN entries along the last axis, each
    row's bit for bit `np.mean` and `np.std` of its defined values: a stable sort moves them to
    the front in order and both sums run over that prefix. The mean is NaN with no defined value
    and the std with fewer than 2, without a warning."""
    x = np.asarray(values, dtype=float)
    missing = np.isnan(x)
    x = np.take_along_axis(x, np.argsort(missing, axis=-1, kind="stable"), axis=-1)
    n = x.shape[-1] - np.count_nonzero(missing, axis=-1)
    prefix = np.arange(x.shape[-1]) < n[..., None]
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = np.add.reduce(x, axis=-1, keepdims=True, where=prefix) / n[..., None]
        dev = x - mean
        std = np.sqrt(np.add.reduce(dev * dev, axis=-1, where=prefix) / np.maximum(n - 1, 0))
    return n, mean[..., 0], std


def label_std(labels):
    """Sample standard deviation (ddof=1) of labels along the last axis; NaN entries count as
    missing, and a row with fewer than 2 labels gives NaN."""
    return _defined_stats(labels)[2][()]
