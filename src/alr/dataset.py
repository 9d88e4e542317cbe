"""Tabular multi-output regression data: loading, normalization, splitting, synthesis.

A :class:`Dataset` is an immutable table of N samples holding a feature matrix
(N x d), a label matrix (N x P, one column per task), and an optional
per-sample categorical group tag. Every operation in this module is a pure
function of its inputs plus an explicit seed, so datasets can be shared freely
across concurrent readers. Every CSV table alr reads or writes, data or curves,
goes through :func:`_read_table` and :func:`_write_table`.
"""

from __future__ import annotations

import contextlib
import csv
import json
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "Dataset",
    "SplitConfig",
    "NormalizationParams",
    "load_csv",
    "write_csv",
    "normalize_features",
    "apply_normalization",
    "split_train_test",
    "gen_synthetic",
]


def _readonly_matrix(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a 2-D array, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable sample table.

    Attributes:
        features: N x d feature matrix (unitless after normalization).
        labels: N x P label matrix, one column per task.
        feature_names: d distinct column identifiers.
        task_names: P distinct task identifiers.
        group: optional per-sample categorical tag (length N).
    """

    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...]
    task_names: tuple[str, ...]
    group: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        features = _readonly_matrix(self.features, "features")
        labels = _readonly_matrix(self.labels, "labels")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        object.__setattr__(self, "task_names", tuple(self.task_names))
        if self.group is not None:
            object.__setattr__(self, "group", tuple(str(g) for g in self.group))

        n, d = features.shape
        if n < 1 or d < 1:
            raise ValueError(f"need at least 1 sample and 1 feature, got {n} x {d}")
        if labels.shape[0] != n:
            raise ValueError(
                f"labels have {labels.shape[0]} rows but features have {n}"
            )
        if labels.shape[1] < 1:
            raise ValueError("need at least 1 task column")
        if not np.isfinite(features).all():
            raise ValueError("features contain non-finite values")
        if not np.isfinite(labels).all():
            raise ValueError("labels contain non-finite values")
        for kind, names, columns in (("feature", self.feature_names, d), ("task", self.task_names, labels.shape[1])):
            if len(names) != columns:
                raise ValueError(f"{len(names)} {kind} names for {columns} {kind} columns")
            duplicates = [name for name, count in Counter(names).items() if count > 1]
            if duplicates:
                raise ValueError(f"duplicate {kind} name(s): {', '.join(map(repr, duplicates))}")
        if self.group is not None and len(self.group) != n:
            raise ValueError(f"group has {len(self.group)} entries for {n} samples")

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_tasks(self) -> int:
        return self.labels.shape[1]

    def subset(self, indices) -> "Dataset":
        """Rows at `indices`, in the given order, as a new Dataset."""
        idx = np.asarray(indices, dtype=int)
        group = None
        if self.group is not None:
            group = tuple(self.group[i] for i in idx)
        return Dataset(
            features=self.features[idx],
            labels=self.labels[idx],
            feature_names=self.feature_names,
            task_names=self.task_names,
            group=group,
        )


@dataclass(frozen=True)
class SplitConfig:
    """Pool/test split parameters: pool fraction and the shuffle seed."""

    train_fraction: float
    seed: int

    def __post_init__(self) -> None:
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(f"train_fraction must be in (0, 1), got {self.train_fraction}")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")


@dataclass(frozen=True)
class NormalizationParams:
    """Per-column (mean, std) pairs recorded by :func:`normalize_features`."""

    feature_names: tuple[str, ...]
    means: np.ndarray
    stds: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        means = np.array(self.means, dtype=float)
        stds = np.array(self.stds, dtype=float)
        means.setflags(write=False)
        stds.setflags(write=False)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "stds", stds)
        if not (len(self.feature_names) == means.size == stds.size):
            raise ValueError("feature_names, means, and stds must have equal length")
        if (stds <= 0).any():
            raise ValueError("recorded stds must be positive")

    def to_json_dict(self) -> dict:
        return {
            name: {"mean": float(m), "std": float(s)}
            for name, m, s in zip(self.feature_names, self.means, self.stds)
        }

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict(), indent=2), encoding="utf-8")


def _read_table(path, text):
    """Stream a headered CSV table: yield its header, then (line, values) per row, `line` the file line it ends on.
    Cells are stripped; a row's values are floats but for the columns named in `text`, kept as strings. A breach
    cites the file: no file, no header, a row of another width, a non-numeric cell, a csv.Error (a stray quote)."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise ValueError(f"{path}: empty file, header row required")
            header = [name.strip() for name in header]
            yield header
            parsers = [str.strip if name in text else float for name in header]
            for row in reader:
                if len(row) != len(header):
                    raise ValueError(f"{path}: line {reader.line_num} has {len(row)} cells, expected {len(header)}")
                try:
                    values = [parse(cell) for parse, cell in zip(parsers, row)]
                except ValueError:  # find the first cell that is not a number
                    for name, parse, cell in zip(header, parsers, row):
                        try:
                            parse(cell)
                        except ValueError:
                            raise ValueError(f"{path}: non-numeric value '{cell.strip()}' at line "
                                             f"{reader.line_num}, column '{name}'") from None
                yield reader.line_num, values
        except csv.Error as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None


def _write_table(path, header, rows) -> None:
    """Write `header`, then `rows`, as a CSV table to the file at `path`, or to stdout when `path` is None."""
    with contextlib.nullcontext(sys.stdout) if path is None else open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def load_csv(path, task_count: int, group_column: str | None = None) -> Dataset:
    """Load a Dataset from a headered CSV file (read as :func:`_read_table` reads any table).

    The last `task_count` numeric columns are the task labels; every other
    column except the optional `group_column` must be numeric and becomes a
    feature. Cells must be finite; violations are reported with their file
    line and column name, a non-numeric cell ahead of any non-finite one.
    """
    path = Path(path)
    if task_count < 1:
        raise ValueError("task_count must be >= 1")
    records = _read_table(path, text=() if group_column is None else (group_column,))
    header = next(records)
    if group_column is not None and header.count(group_column) != 1:
        raise ValueError(f"{path}: group column '{group_column}' must appear once in header {header}")
    group_pos = header.index(group_column) if group_column is not None else None
    numeric_names = [h for i, h in enumerate(header) if i != group_pos]
    if len(numeric_names) < task_count + 1:
        raise ValueError(
            f"{path}: need at least {task_count + 1} numeric columns "
            f"(features + {task_count} tasks), found {len(numeric_names)}"
        )

    rows, groups, lines = [], [], []  # lines: the file line each row ends on
    for line, values in records:
        if group_pos is not None:
            groups.append(values.pop(group_pos))
        rows.append(values)
        lines.append(line)

    if not rows:
        raise ValueError(f"{path}: no data rows")
    table = np.array(rows, dtype=float)
    bad = np.argwhere(~np.isfinite(table))
    if bad.size:
        row, col = bad[0]
        raise ValueError(f"{path}: non-finite value at line {lines[row]}, column '{numeric_names[col]}'")
    try:
        return Dataset(
            features=table[:, : -task_count],
            labels=table[:, -task_count:],
            feature_names=tuple(numeric_names[:-task_count]),
            task_names=tuple(numeric_names[-task_count:]),
            group=tuple(groups) if group_column is not None else None,
        )
    except ValueError as exc:  # the table's own invariants, such as repeated column names
        raise ValueError(f"{path}: {exc}") from None


def write_csv(data: Dataset, path, group_column: str = "group") -> None:
    """Write a Dataset as CSV: features, then the group column (if any), then labels.

    Floats are printed with 17 significant digits so a load/write cycle
    round-trips values exactly.
    """
    header = [*data.feature_names, *([] if data.group is None else [group_column]), *data.task_names]
    tags = [()] * data.n_samples if data.group is None else [(tag,) for tag in data.group]
    rows = ([*(format(v, ".17g") for v in x), *tag, *(format(v, ".17g") for v in y)]
            for x, tag, y in zip(data.features, tags, data.labels))
    _write_table(path, header, rows)


def normalize_features(data: Dataset) -> tuple[Dataset, NormalizationParams]:
    """Rescale every feature column to sample mean 0 and sample std 1.

    Uses the N-1 denominator. Constant columns map to all-zeros with their
    std recorded as 1 so the transform is total and invertible. Returns the
    transformed dataset and the per-column parameters for applying the same
    transform to held-out data.
    """
    if data.n_samples < 2:
        raise ValueError("normalization needs at least 2 samples")
    means = data.features.mean(axis=0)
    stds = data.features.std(axis=0, ddof=1)
    stds = np.where(stds == 0.0, 1.0, stds)
    params = NormalizationParams(
        feature_names=data.feature_names, means=means, stds=stds
    )
    return apply_normalization(data, params), params


def apply_normalization(data: Dataset, params: NormalizationParams) -> Dataset:
    """Apply previously recorded (mean, std) pairs to a dataset's features."""
    if params.feature_names != data.feature_names:
        raise ValueError(
            "normalization parameters were recorded for different feature columns"
        )
    transformed = (data.features - params.means) / params.stds
    return Dataset(
        features=transformed,
        labels=data.labels,
        feature_names=data.feature_names,
        task_names=data.task_names,
        group=data.group,
    )


def split_train_test(data: Dataset, cfg: SplitConfig) -> tuple[Dataset, Dataset]:
    """Disjoint uniform-random pool/test partition, deterministic per seed.

    The pool receives round(N * train_fraction) rows. Row order within each
    part follows the original dataset order.
    """
    n = data.n_samples
    n_pool = round(n * cfg.train_fraction)
    if n_pool < 1 or n - n_pool < 1:
        raise ValueError(
            f"degenerate split: {n} samples at fraction {cfg.train_fraction} "
            f"gives pool={n_pool}, test={n - n_pool}"
        )
    rng = np.random.default_rng(cfg.seed)
    perm = rng.permutation(n)
    pool_idx = np.sort(perm[:n_pool])
    test_idx = np.sort(perm[n_pool:])
    return data.subset(pool_idx), data.subset(test_idx)


def gen_synthetic(
    n: int, d: int, p: int, noise_std: float, seed: int
) -> Dataset:
    """Generate a linear-response synthetic dataset.

    Features are i.i.d. standard normal; each task's labels are
    features @ coef + N(0, noise_std^2) noise, with the coefficient matrix
    drawn from the seed.
    """
    if n < 1 or d < 1 or p < 1:
        raise ValueError("n, d, and p must be positive")
    if noise_std < 0:
        raise ValueError("noise_std must be nonnegative")
    rng = np.random.default_rng(seed)
    coef = rng.standard_normal((d, p))
    features = rng.standard_normal((n, d))
    noise = rng.standard_normal((n, p)) * noise_std
    labels = features @ coef + noise
    return Dataset(
        features=features,
        labels=labels,
        feature_names=tuple(f"x{i + 1}" for i in range(d)),
        task_names=tuple(f"y{i + 1}" for i in range(p)),
    )
