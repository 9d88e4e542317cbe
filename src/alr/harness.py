"""Repeated randomized active-learning experiments and learning-curve aggregation.

One experiment = `runs` independent repetitions of: split the dataset into a
training pool and a test set, query one pool sample per iteration with the
configured strategy, refit all per-task models after every query, and score
them on the test set. Per-run results are aggregated into a
:class:`LearningCurve` of per-K means and standard deviations.

A run is queried, then scored: the query loop returns the final selection and
a (K's, tasks) model stack, and `run_single` scores the finished run in one
pass, one `predict` and one call per metric per block of K's, each score bit
for bit that K's alone. `_SCORE_BLOCK` bounds a block's predictions.

Runs execute one after another and derive their seeds as
``seed ^ run_index``.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dataset import Dataset, SplitConfig, apply_normalization, normalize_features, split_train_test
from .metrics import group_fraction, label_std, pearson_cc, rmse
from .regression import LinearModel, SolverConfig, coefficient_mae, fit, predict, resolve_lambda, solver_to_string
from .strategies import PoolState, StrategySpec, select_next, strategy_to_string

__all__ = [
    "ExperimentConfig",
    "MetricRecord",
    "RunResult",
    "CurveCell",
    "LearningCurve",
    "run_single",
    "run_experiment",
    "selection_sequence",
    "saved_queries",
    "unique_query_count",
    "write_curves_csv",
    "write_curves_json",
    "read_curves_csv",
    "CURVE_CSV_HEADER",
]

CURVE_CSV_HEADER = ("strategy", "solver", "task", "K", "metric", "mean", "std", "n_runs")

_METRIC_ORDER = ("rmse", "cc", "coef_mae", "label_std", "bl2_rmse", "bl2_cc", "group_fraction")

# test predictions (K's x tasks x test rows) scored in one pass: about 0.5 MB per block array
_SCORE_BLOCK = 1 << 16


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment."""

    strategy: StrategySpec
    solver: SolverConfig
    train_fraction: float = 0.3
    runs: int = 100
    k_max: int | None = None
    normalize_before_split: bool = True
    seed: int = 0
    group_value: str | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if self.k_max is not None and self.k_max < 1:
            raise ValueError("k_max must be >= 1 when set")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")


@dataclass(frozen=True, eq=False)
class MetricRecord:
    """A run's scores at labeled count k, each metric a (tasks,) array as computed.

    cc and label_std entries are NaN where undefined (constant predictions,
    fewer than 2 selected samples). `nonconverged` counts the task models
    fitted at k whose `nonconverged` flag is set.
    """

    k: int
    rmse: np.ndarray
    cc: np.ndarray
    coef_mae: np.ndarray
    label_std: np.ndarray
    group_fraction: float | None = None
    nonconverged: int = 0


@dataclass(frozen=True, eq=False)
class RunResult:
    """Outcome of a single run: per-K records plus the full-pool reference's (tasks,) scores."""

    records: tuple[MetricRecord, ...]
    selection: tuple[int, ...]
    bl2_rmse: np.ndarray
    bl2_cc: np.ndarray


def _block_scores(models: LinearModel, test: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Test RMSE and CC (..., tasks) of a stack of task models. Each entry is bit for bit the
    score of that model's row of `predict`, as the metrics reduce row by row."""
    preds = predict(models, test.features)
    truth = np.broadcast_to(test.labels.T, preds.shape)
    return rmse(preds, truth), pearson_cc(preds, truth)


def _queries(
    pool: Dataset, strategy: StrategySpec, solver: SolverConfig, k_max: int | None, seed: int
) -> tuple[PoolState, LinearModel]:
    """The query loop: label one pool sample per step and refit every task from k0 on.

    Returns the final state and the task models fitted at K = k0..k_max, one
    stack. A budget-scaled lambda is resolved against k_max before the first fit, so
    state.solver holds the solver every fit of the run used.
    """
    state = PoolState(pool, rng=np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    if k_max is None and pool.n_samples < state.k0:
        raise ValueError(f"pool of {pool.n_samples} samples is smaller than k0={state.k0} (one label per feature)")
    k_max = pool.n_samples if k_max is None else k_max
    if not state.k0 <= k_max <= pool.n_samples:
        raise ValueError(
            f"k_max must lie in [k0={state.k0}, pool size={pool.n_samples}], got {k_max}"
        )
    solver = resolve_lambda(solver, budget=k_max)
    coefs = np.empty((k_max - state.k0 + 1, pool.n_tasks, pool.n_features))
    intercepts, nonconverged = np.empty(coefs.shape[:2]), np.empty(coefs.shape[:2], dtype=bool)
    while state.n_labeled < k_max:
        state.add(select_next(state, strategy))
        if state.n_labeled >= state.k0:
            state.fit_models(solver)
            fitted, i = state.models, state.n_labeled - state.k0
            coefs[i], intercepts[i], nonconverged[i] = fitted.coefficients, fitted.intercept, fitted.nonconverged
    return state, LinearModel(coefs, intercepts, nonconverged=nonconverged)


def run_single(pool: Dataset, test: Dataset, cfg: ExperimentConfig, seed: int | None = None) -> RunResult:
    """Run one active-learning pass over a fixed pool/test split.

    Queries one sample per iteration until the pool is exhausted or
    cfg.k_max is reached, refitting all per-task models from scratch after
    every query (single-task strategies still fit every task for
    evaluation). The finished run is then scored: a MetricRecord for each
    K >= k0, counting the task models that did not converge, with test
    scores computed in blocks of K's and coefficient MAE measured against
    the full-pool reference model.
    """
    if pool.n_features != test.n_features or pool.n_tasks != test.n_tasks:
        raise ValueError("pool and test must share feature and task dimensions")
    if cfg.group_value is not None and pool.group is None:
        raise ValueError("group_value set but the pool has no group column")
    state, models = _queries(pool, cfg.strategy, cfg.solver, cfg.k_max, cfg.seed if seed is None else seed)

    reference = fit(pool.features, pool.labels, state.solver)
    bl2_rmse, bl2_cc = _block_scores(reference, test)

    coefs = models.coefficients
    block = max(1, _SCORE_BLOCK // (pool.n_tasks * test.n_samples))
    blocks = [_block_scores(models[i:i + block], test) for i in range(0, len(coefs), block)]
    rmse_k, cc_k = (np.concatenate(scores) for scores in zip(*blocks))
    mae_k = coefficient_mae(coefs, np.broadcast_to(reference.coefficients, coefs.shape))

    labels = pool.labels[state.labeled].T
    records = tuple(
        MetricRecord(
            k=k, rmse=rmse_k[i], cc=cc_k[i], coef_mae=mae_k[i], label_std=label_std(labels[:, :k]),
            group_fraction=None if cfg.group_value is None else group_fraction(pool, state.labeled[:k], cfg.group_value),
            nonconverged=int(models.nonconverged[i].sum()),
        )
        for i, k in enumerate(range(state.k0, state.n_labeled + 1))
    )
    return RunResult(records=records, selection=tuple(state.labeled), bl2_rmse=bl2_rmse, bl2_cc=bl2_cc)


def selection_sequence(
    pool: Dataset,
    strategy: StrategySpec,
    solver: SolverConfig,
    k_max: int | None = None,
    seed: int = 0,
) -> list[int]:
    """The ordered query sequence a strategy produces on a fixed pool (run_single's loop)."""
    return list(_queries(pool, strategy, solver, k_max, seed)[0].labeled)


@dataclass(frozen=True)
class CurveCell:
    mean: float
    std: float
    n_runs: int


@dataclass(frozen=True, eq=False)
class LearningCurve:
    """Per-K aggregates of every metric, over runs.

    Cells are keyed by (metric, task_label, k); task_label is a task name,
    or "all" for metrics without a task axis (group_fraction). Cell counts
    are effective run counts: runs where the metric was defined.
    `nonconverged` maps each K to the task models, summed over runs, that
    did not converge there; it is written to the JSON curves, not the CSV.
    """

    strategy: str
    solver: str
    task_names: tuple[str, ...]
    ks: tuple[int, ...]
    cells: dict
    n_runs: int
    config: dict = field(default_factory=dict)
    nonconverged: dict = field(default_factory=dict)

    def cell(self, metric: str, task: str, k: int) -> CurveCell:
        try:
            return self.cells[(metric, task, k)]
        except KeyError:
            raise ValueError(f"{self.strategy}: no {metric} value for task '{task}' at K={k}") from None

    def mean(self, metric: str, task: str, k: int) -> float:
        return self.cell(metric, task, k).mean


def _aggregate(values: list[float]) -> CurveCell:
    arr = np.asarray(values, dtype=float)
    good = arr[~np.isnan(arr)]
    if good.size == 0:
        return CurveCell(mean=math.nan, std=math.nan, n_runs=0)
    std = float(np.std(good, ddof=1)) if good.size > 1 else 0.0
    return CurveCell(mean=float(good.mean()), std=std, n_runs=int(good.size))


def _run_splits(data: Dataset, cfg: ExperimentConfig) -> Iterator[tuple[Dataset, Dataset, int]]:
    """(pool, test, seed) of run r = 0..cfg.runs-1; run r splits with seed ``cfg.seed ^ r``.

    With cfg.normalize_before_split the whole dataset is normalized once up
    front; otherwise each run normalizes its pool and applies the pool
    statistics to its test set.
    """
    base = normalize_features(data)[0] if cfg.normalize_before_split else data
    for r in range(cfg.runs):
        seed = cfg.seed ^ r
        pool, test = split_train_test(base, SplitConfig(cfg.train_fraction, seed))
        if not cfg.normalize_before_split:
            pool, params = normalize_features(pool)
            test = apply_normalization(test, params)
        yield pool, test, seed


def run_experiment(data: Dataset, cfg: ExperimentConfig, threads: int = 1) -> LearningCurve:
    """Aggregate cfg.runs independent runs, one after another, into a learning curve.

    Runs come from :func:`_run_splits`. `threads` is accepted and ignored, but must be >= 1.
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    results = [run_single(pool, test, cfg, seed=seed) for pool, test, seed in _run_splits(data, cfg)]

    ks = tuple(rec.k for rec in results[0].records)  # every run splits the same data alike

    task_names = data.task_names
    cells: dict = {}
    for metric in ("bl2_rmse", "bl2_cc"):  # per run, so one cell serves every K
        for p, task in enumerate(task_names):
            cell = _aggregate([getattr(r, metric)[p] for r in results])
            cells.update(((metric, task, k), cell) for k in ks)
    for ki, k in enumerate(ks):
        records = [r.records[ki] for r in results]
        for metric in ("rmse", "cc", "coef_mae", "label_std"):
            for p, task in enumerate(task_names):
                cells[(metric, task, k)] = _aggregate([getattr(rec, metric)[p] for rec in records])
        if cfg.group_value is not None:
            cells[("group_fraction", "all", k)] = _aggregate([rec.group_fraction for rec in records])

    strategy, solver = strategy_to_string(cfg.strategy), solver_to_string(cfg.solver)
    return LearningCurve(
        strategy=strategy,
        solver=solver,
        task_names=task_names,
        ks=ks,
        cells=cells,
        n_runs=cfg.runs,
        nonconverged={k: sum(r.records[ki].nonconverged for r in results) for ki, k in enumerate(ks)},
        config={**dataclasses.asdict(cfg), "strategy": strategy, "solver": solver},
    )


def _curve_bl2(curve: LearningCurve, metric: str, task: str) -> float:
    return curve.mean(f"bl2_{metric}", task, curve.ks[0])


def saved_queries(
    curve_a: LearningCurve,
    curve_ref: LearningCurve,
    alpha: float,
    measure: str = "rmse",
) -> dict[str, tuple[int | None, int | None]]:
    """Smallest K at which each curve reaches the full-pool reference threshold.

    For RMSE the threshold is (100+alpha)% of the full-pool value (reached
    from above); for CC it is (100-alpha)% (reached from below). Returns, per
    task, the pair (K for curve_a, K for curve_ref); None marks a curve that
    never attains the threshold. A full-pool value undefined (NaN) on both
    curves agrees with itself and gives no threshold, so that task is (None, None).
    """
    if measure not in ("rmse", "cc"):
        raise ValueError("measure must be 'rmse' or 'cc'")
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    if curve_a.ks != curve_ref.ks or curve_a.task_names != curve_ref.task_names:
        raise ValueError("curves have mismatched K axes or task sets")

    out: dict[str, tuple[int | None, int | None]] = {}
    for task in curve_a.task_names:
        ref_bl2 = _curve_bl2(curve_ref, measure, task)
        a_bl2 = _curve_bl2(curve_a, measure, task)
        both_undefined = math.isnan(ref_bl2) and math.isnan(a_bl2)
        if not both_undefined and not math.isclose(ref_bl2, a_bl2, rel_tol=1e-6, abs_tol=1e-12):
            raise ValueError(
                f"curves disagree on the full-pool reference for task '{task}': "
                f"{a_bl2} vs {ref_bl2}"
            )
        if measure == "rmse":
            threshold = (100.0 + alpha) / 100.0 * ref_bl2
            reached = lambda v: v <= threshold
        else:
            threshold = (100.0 - alpha) / 100.0 * ref_bl2
            reached = lambda v: v >= threshold

        def first_k(curve: LearningCurve) -> int | None:
            for k in curve.ks:
                if reached(curve.mean(measure, task, k)):
                    return k
            return None

        out[task] = (first_k(curve_a), first_k(curve_ref))
    return out


def unique_query_count(mt_sequence, st_sequences) -> tuple[int, int]:
    """Query accounting: multi-task count vs the union of per-task sequences."""
    union: set[int] = set()
    for seq in st_sequences:
        union.update(seq)
    return len(list(mt_sequence)), len(union)


def _curve_cells(curve: LearningCurve) -> Iterator[tuple[str, str, int, CurveCell]]:
    """(metric, task, k, cell) in file order, for the cells the curve holds.

    Metrics follow _METRIC_ORDER, tasks the dataset order ("all" for
    group_fraction), and K ascends. Both curve writers walk this order.
    """
    for metric in _METRIC_ORDER:
        for task in ("all",) if metric == "group_fraction" else curve.task_names:
            for k in curve.ks:
                cell = curve.cells.get((metric, task, k))
                if cell is not None:
                    yield metric, task, k, cell


def write_curves_csv(curves, path) -> None:
    """Tidy plot-ready CSV: one row per (strategy, task, K, metric), in :func:`_curve_cells` order."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CURVE_CSV_HEADER)
        for curve in curves:
            writer.writerows(
                (curve.strategy, curve.solver, task, k, metric, repr(float(c.mean)), repr(float(c.std)), c.n_runs)
                for metric, task, k, c in _curve_cells(curve)
            )


def _json_safe(v: float) -> float | None:
    return None if isinstance(v, float) and math.isnan(v) else v


def write_curves_json(curves, path) -> None:
    """JSON twin of the CSV: per curve, its axes, config echo and per-K nonconverged counts,
    plus the CSV's points in the CSV's row order (NaN written as null)."""
    payload = [
        {
            "strategy": curve.strategy,
            "solver": curve.solver,
            "task_names": list(curve.task_names),
            "ks": list(curve.ks),
            "n_runs": curve.n_runs,
            "config": curve.config,
            "nonconverged": {str(k): n for k, n in curve.nonconverged.items()},
            "points": [
                {"metric": metric, "task": task, "k": int(k),
                 "mean": _json_safe(c.mean), "std": _json_safe(c.std), "n_runs": c.n_runs}
                for metric, task, k, c in _curve_cells(curve)
            ],
        }
        for curve in curves
    ]
    Path(path).write_text(json.dumps({"curves": payload}, indent=2), encoding="utf-8")


def read_curves_csv(path) -> list[LearningCurve]:
    """Rebuild LearningCurve objects from a tidy CSV (config echo not recoverable)."""
    path = Path(path)
    grouped: dict[tuple[str, str], dict] = {}
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != CURVE_CSV_HEADER:
            raise ValueError(f"{path}: expected header {','.join(CURVE_CSV_HEADER)}")
        for row in reader:
            if len(row) != len(header):
                raise ValueError(f"{path}: line {reader.line_num} has {len(row)} cells, expected {len(header)}")
            strategy, solver, task, k, metric, mean, std, n_runs = row
            try:
                k, cell = int(k), CurveCell(mean=float(mean), std=float(std), n_runs=int(n_runs))
            except ValueError as exc:
                raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
            entry = grouped.setdefault((strategy, solver), {"cells": {}, "tasks": [], "ks": set()})
            if task != "all" and task not in entry["tasks"]:
                entry["tasks"].append(task)
            entry["ks"].add(k)
            entry["cells"][(metric, task, k)] = cell
    curves = []
    for (strategy, solver), entry in grouped.items():
        n_runs = max((c.n_runs for c in entry["cells"].values()), default=0)
        curves.append(
            LearningCurve(
                strategy=strategy,
                solver=solver,
                task_names=tuple(entry["tasks"]),
                ks=tuple(sorted(entry["ks"])),
                cells=entry["cells"],
                n_runs=n_runs,
            )
        )
    return curves
