"""Evaluation and selection-diagnostic metrics.

`rmse`, `pearson_cc` and `label_std` reduce along the last axis, one contiguous row at a time,
so a call on a (tasks, samples) array equals the 1-D calls on its rows bit for bit. Each
gives NaN where undefined: CC of a constant input, label_std of fewer than 2 samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset

__all__ = [
    "MetricRecord",
    "rmse",
    "pearson_cc",
    "label_std",
    "group_fraction",
]


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
    cc = np.divide(_row_dot(pc, tc), denom, out=np.full_like(denom, np.nan), where=denom != 0.0)
    return np.clip(cc, -1.0, 1.0)[()]


def label_std(labels):
    """Sample standard deviation (ddof=1) of labels along the last axis; NaN for fewer than 2."""
    x = np.ascontiguousarray(labels, dtype=float)
    if x.shape[-1] < 2:
        return np.full(x.shape[:-1], np.nan)[()]
    return np.std(x, axis=-1, ddof=1)


def group_fraction(pool: Dataset, labeled, group_value: str) -> float:
    """Fraction of selected samples whose group tag equals `group_value`."""
    if pool.group is None:
        raise ValueError("dataset has no group column")
    idx = list(labeled)
    if not idx:
        raise ValueError("no selected samples")
    hits = sum(1 for i in idx if pool.group[i] == group_value)
    return hits / len(idx)


@dataclass(frozen=True)
class MetricRecord:
    """Per-iteration evaluation snapshot at labeled count k.

    cc and label_std entries are NaN where undefined (constant predictions,
    fewer than 2 selected samples). `nonconverged` counts the task models
    fitted at k that report converged=False.
    """

    k: int
    rmse: tuple[float, ...]
    cc: tuple[float, ...]
    coef_mae: tuple[float, ...]
    label_std: tuple[float, ...]
    group_fraction: float | None = None
    nonconverged: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "rmse", tuple(float(v) for v in self.rmse))
        object.__setattr__(self, "cc", tuple(float(v) for v in self.cc))
        object.__setattr__(self, "coef_mae", tuple(float(v) for v in self.coef_mae))
        object.__setattr__(self, "label_std", tuple(float(v) for v in self.label_std))
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if any(not (v >= 0) for v in self.rmse):
            raise ValueError("rmse values must be nonnegative")
        if any(not math.isnan(v) and abs(v) > 1.0 for v in self.cc):
            raise ValueError("cc values must lie in [-1, 1] or be NaN")
        if any(not (v >= 0) for v in self.coef_mae):
            raise ValueError("coef_mae values must be nonnegative")
        if self.group_fraction is not None and not 0.0 <= self.group_fraction <= 1.0:
            raise ValueError("group_fraction must lie in [0, 1]")
