"""Scalar evaluation and selection-diagnostic metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset

__all__ = [
    "UndefinedCorrelation",
    "MetricRecord",
    "rmse",
    "pearson_cc",
    "label_std",
    "group_fraction",
]


class UndefinedCorrelation(ValueError):
    """Pearson correlation is undefined when either input is constant."""


def rmse(pred, truth) -> float:
    """Root mean squared error between two equal-length vectors."""
    p = np.asarray(pred, dtype=float).ravel()
    t = np.asarray(truth, dtype=float).ravel()
    if p.size != t.size:
        raise ValueError(f"length mismatch: {p.size} vs {t.size}")
    if p.size == 0:
        raise ValueError("rmse of empty vectors is undefined")
    return float(np.sqrt(np.mean((p - t) ** 2)))


def pearson_cc(pred, truth) -> float:
    """Pearson correlation coefficient in [-1, 1].

    Raises UndefinedCorrelation for constant inputs so callers can record the
    value as missing instead of silently mapping it to 0.
    """
    p = np.asarray(pred, dtype=float).ravel()
    t = np.asarray(truth, dtype=float).ravel()
    if p.size != t.size:
        raise ValueError(f"length mismatch: {p.size} vs {t.size}")
    if p.size < 2:
        raise ValueError("correlation needs at least 2 points")
    pc = p - p.mean()
    tc = t - t.mean()
    denom = math.sqrt(float(pc @ pc)) * math.sqrt(float(tc @ tc))
    if denom == 0.0:
        raise UndefinedCorrelation("correlation undefined for constant input")
    return float(np.clip(float(pc @ tc) / denom, -1.0, 1.0))


def label_std(pool: Dataset, labeled, task: int) -> float:
    """Sample standard deviation of the true labels of the selected samples."""
    idx = list(labeled)
    if len(idx) < 2:
        raise ValueError("label_std needs at least 2 selected samples")
    return float(np.std(pool.labels[idx, task], ddof=1))


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
