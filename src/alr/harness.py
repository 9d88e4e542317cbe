"""Repeated randomized active-learning experiments and learning-curve aggregation.

One experiment = `runs` independent repetitions of: split the dataset into a
training pool and a test set, query one pool sample per iteration with the
configured strategy, refit all per-task models after every query, and score
them on the test set. Per-run results are aggregated into a
:class:`LearningCurve` of per-K means and standard deviations.

A run is queried, then scored: the query loop returns the final selection and
a (K's, tasks) model stack, and `run_single` scores the finished run in one
pass, one `predict` and one call per metric per block of K's (`label_std` on
the selected labels padded with NaN past each K), each score bit for bit that
K's alone. `_SCORE_BLOCK` bounds a block's predictions and padded labels.
`run_experiment` stacks each metric over runs and aggregates it in one
`_aggregate` call into the curve's (mean, std, n_runs) arrays, each entry bit
for bit the reduction of its runs alone; the writers format rows from them.

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
from .metrics import _defined_stats, label_std, pearson_cc, rmse
from .regression import LinearModel, SolverConfig, coefficient_mae, fit, predict, resolve_lambda, solver_to_string
from .strategies import PoolState, StrategySpec, select_next, strategy_to_string

__all__ = [
    "ExperimentConfig",
    "MetricRecord",
    "RunResult",
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

# a block of K's scored in one pass: about 0.5 MB per prediction or padded-label array
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
    fewer than 2 selected samples). `group_fraction` is the group's share of
    the first k selected samples, or None. `nonconverged` counts the task
    models fitted at k whose `nonconverged` flag is set.
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
    mae_k = coefficient_mae(coefs, np.broadcast_to(reference.coefficients, coefs.shape))
    ks = np.arange(state.k0, state.n_labeled + 1)
    labels = pool.labels[state.labeled].T
    block = max(1, _SCORE_BLOCK // (pool.n_tasks * max(test.n_samples, state.n_labeled)))
    blocks = [
        (*_block_scores(models[i:i + block], test),
         label_std(np.where(np.arange(state.n_labeled) < ks[i:i + block, None, None], labels, np.nan)))
        for i in range(0, len(ks), block)
    ]
    rmse_k, cc_k, std_k = (np.concatenate(scores) for scores in zip(*blocks))
    shares = [None] * len(ks)
    if cfg.group_value is not None:  # matches among the first k selected, over k
        shares = (np.cumsum([pool.group[i] == cfg.group_value for i in state.labeled])[ks - 1] / ks).tolist()
    nonconverged = models.nonconverged.sum(axis=-1).tolist()
    records = tuple(map(MetricRecord, ks.tolist(), rmse_k, cc_k, mae_k, std_k, shares, nonconverged))
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


@dataclass(frozen=True, eq=False)
class LearningCurve:
    """Per-K aggregates of every metric, over runs.

    `stats` maps each metric to its (mean, std, n_runs) arrays, each of shape
    (rows, K's): the rows are :meth:`rows` of the metric, the columns `ks`.
    n_runs counts the runs where the metric was defined there.
    `nonconverged` maps each K to the task models, summed over runs, that
    did not converge there; it is written to the JSON curves, not the CSV.
    """

    strategy: str
    solver: str
    task_names: tuple[str, ...]
    ks: tuple[int, ...]
    stats: dict
    n_runs: int
    config: dict = field(default_factory=dict)
    nonconverged: dict = field(default_factory=dict)

    def rows(self, metric: str) -> tuple[str, ...]:
        """Row labels of a metric's arrays: the task names, or "all" for group_fraction (no task axis)."""
        return ("all",) if metric == "group_fraction" else self.task_names

    def mean(self, metric: str, task: str, k: int) -> float:
        rows = self.rows(metric)
        if metric not in self.stats or task not in rows or k not in self.ks:
            raise ValueError(f"{self.strategy}: no {metric} value for task '{task}' at K={k}")
        return self.stats[metric][0][rows.index(task), self.ks.index(k)].item()


def _aggregate(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(mean, std, n_runs) over the runs on the last axis of `values`: n_runs counts the runs where
    the metric is defined, the std is 0.0 for a single such run, and both are NaN for none."""
    n, mean, std = _defined_stats(values)
    std[n == 1] = 0.0
    return mean, std, n


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

    def over_runs(name: str) -> np.ndarray:
        """A record field of every run, runs last: (K's, tasks, runs), or (K's, runs) for a scalar."""
        return np.stack([[getattr(rec, name) for rec in r.records] for r in results], axis=-1)

    stats = {}  # each metric's arrays as (tasks, K's)
    for metric in ("bl2_rmse", "bl2_cc"):  # per run, so one value per task serves every K
        per_task = _aggregate(np.stack([getattr(r, metric) for r in results], axis=-1))
        stats[metric] = tuple(np.repeat(a[:, None], len(ks), axis=1) for a in per_task)
    for metric in ("rmse", "cc", "coef_mae", "label_std"):
        stats[metric] = tuple(a.T for a in _aggregate(over_runs(metric)))
    if cfg.group_value is not None:
        stats["group_fraction"] = tuple(a[None] for a in _aggregate(over_runs("group_fraction")))

    strategy, solver = strategy_to_string(cfg.strategy), solver_to_string(cfg.solver)
    return LearningCurve(
        strategy=strategy,
        solver=solver,
        task_names=data.task_names,
        ks=ks,
        stats=stats,
        n_runs=cfg.runs,
        nonconverged=dict(zip(ks, over_runs("nonconverged").sum(axis=-1).tolist())),
        config={**dataclasses.asdict(cfg), "strategy": strategy, "solver": solver},
    )


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
    for row, task in enumerate(curve_a.task_names):
        ref_bl2, a_bl2 = (curve.mean(f"bl2_{measure}", task, curve.ks[0]) for curve in (curve_ref, curve_a))
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
            curve.mean(measure, task, curve.ks[0])  # a curve without the measure fails here, by name
            hits = np.flatnonzero(reached(curve.stats[measure][0][row]))
            return curve.ks[hits[0]] if hits.size else None

        out[task] = (first_k(curve_a), first_k(curve_ref))
    return out


def unique_query_count(mt_sequence, st_sequences) -> tuple[int, int]:
    """Query accounting: multi-task count vs the union of per-task sequences."""
    union: set[int] = set()
    for seq in st_sequences:
        union.update(seq)
    return len(list(mt_sequence)), len(union)


def _curve_cells(curve: LearningCurve) -> Iterator[tuple[str, str, int, float, float, int]]:
    """(metric, task, k, mean, std, n_runs) in file order: metrics in _METRIC_ORDER, tasks as
    :meth:`LearningCurve.rows`, K ascending. Both curve writers walk this order."""
    for metric in (m for m in _METRIC_ORDER if m in curve.stats):
        for task, *row in zip(curve.rows(metric), *(a.tolist() for a in curve.stats[metric])):
            for k, mean, std, n_runs in zip(curve.ks, *row):
                yield metric, task, k, mean, std, n_runs


def write_curves_csv(curves, path) -> None:
    """Tidy plot-ready CSV: one row per (strategy, task, K, metric), in :func:`_curve_cells` order."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CURVE_CSV_HEADER)
        for curve in curves:
            writer.writerows(
                (curve.strategy, curve.solver, task, k, metric, repr(float(mean)), repr(float(std)), n_runs)
                for metric, task, k, mean, std, n_runs in _curve_cells(curve)
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
                 "mean": _json_safe(mean), "std": _json_safe(std), "n_runs": n_runs}
                for metric, task, k, mean, std, n_runs in _curve_cells(curve)
            ],
        }
        for curve in curves
    ]
    Path(path).write_text(json.dumps({"curves": payload}, indent=2), encoding="utf-8")


def read_curves_csv(path) -> list[LearningCurve]:
    """Rebuild LearningCurve objects from a tidy CSV (config echo not recoverable). A curve's axes are
    the tasks and K's its rows name; each metric must give one row at every task and K, and none twice."""
    path = Path(path)
    grouped: dict[tuple[str, str], tuple[dict, list, set]] = {}
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
                k, cell = int(k), (float(mean), float(std), int(n_runs))
            except ValueError as exc:
                raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
            cells, tasks, ks = grouped.setdefault((strategy, solver), ({}, [], set()))
            if (metric, task, k) in cells:
                raise ValueError(f"{path}: line {reader.line_num} repeats {metric} for task '{task}' at K={k}")
            if metric == "group_fraction" and task != "all":
                raise ValueError(f"{path}: line {reader.line_num} gives group_fraction for task '{task}', not 'all'")
            if metric != "group_fraction" and task not in tasks:  # "all" is group_fraction's
                tasks.append(task)
            ks.add(k)
            cells[metric, task, k] = cell
    curves = []
    for (strategy, solver), (cells, tasks, ks) in grouped.items():
        curve = LearningCurve(strategy, solver, tuple(tasks), tuple(sorted(ks)), {},
                              n_runs=max(n for _, _, n in cells.values()))
        for metric in dict.fromkeys(metric for metric, _, _ in cells):
            keys = [(metric, task, k) for task in curve.rows(metric) for k in curve.ks]
            for _, task, k in (key for key in keys if key not in cells):
                raise ValueError(f"{path}: {strategy}: no {metric} value for task '{task}' at K={k}")
            curve.stats[metric] = tuple(np.reshape(a, (-1, len(curve.ks))) for a in zip(*map(cells.get, keys)))
        curves.append(curve)
    return curves
