"""Repeated randomized active-learning experiments and learning-curve aggregation.

One experiment = `runs` independent repetitions of: split the dataset into a
training pool and a test set, query one pool sample per iteration with the
configured strategy, refit all per-task models after every query, and score
them on the test set. Per-run results are aggregated into a
:class:`LearningCurve` of per-K means and standard deviations.

The query loop fits every model of a run (its full-pool reference, before the first query, and a
(K's, tasks) model stack) and returns them with the run's selection; no run's ledger outlives the
loop. Runs advance in lockstep, each from its own stream seeded ``seed ^ run_index``:
at each K every run selects and labels its sample, in run order (a committee phase scores all runs in
one pass, each run drawing its own resamples, in run order), then one `fit` covers every run.
`run_single` only scores the finished run: one `predict` and one call per metric per block of K's
(`label_std` on the selected labels padded with NaN past each K), each score bit for bit that K's
alone. `_SCORE_BLOCK` bounds a block's predictions and padded labels, and the stacked pools of one
reference fit. Its :class:`RunResult` keeps the (K's, ...) arrays the scoring produced; per-K
records are only a view of their rows. `run_experiment` stacks each array over runs and aggregates
it in one `_aggregate` call into the curve's (mean, std, n_runs) arrays, each entry bit for bit the
reduction of its runs alone; the writers format rows from them.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import json
import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dataset import Dataset, SplitConfig, _csv_records, apply_normalization, normalize_features, split_train_test
from .metrics import _defined_stats, label_std, pearson_cc, rmse
from .regression import LinearModel, SolverConfig, coefficient_mae, fit, predict, resolve_lambda, solver_to_string
from .strategies import (SINGLE_TASK_KINDS, PoolState, StrategySpec, _committee_phase, _committee_picks,
                         _resolve_focus_task, select_next, strategy_to_string)

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

# numbers per block of K's scored at once (0.5 MB per prediction or padded-label array), or of pools fitted at once
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
    """Outcome of a single run, as scored: at each K of `ks`, (K's, tasks) arrays of every metric, the
    group's (K's,) share or None, and the (K's,) count of nonconverged task models; plus the selection
    and the full-pool reference's (tasks,) scores. `records` views the rows as one MetricRecord per K."""

    ks: np.ndarray
    rmse: np.ndarray
    cc: np.ndarray
    coef_mae: np.ndarray
    label_std: np.ndarray
    group_fraction: np.ndarray | None
    nonconverged: np.ndarray
    selection: tuple[int, ...]
    bl2_rmse: np.ndarray
    bl2_cc: np.ndarray

    @functools.cached_property
    def records(self) -> tuple[MetricRecord, ...]:
        shares = [None] * len(self.ks) if self.group_fraction is None else self.group_fraction.tolist()
        return tuple(map(MetricRecord, self.ks.tolist(), self.rmse, self.cc, self.coef_mae, self.label_std,
                         shares, self.nonconverged.tolist()))


def _block_scores(models: LinearModel, test: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Test RMSE and CC (..., tasks) of a stack of task models. Each entry is bit for bit the
    score of that model's row of `predict`, as the metrics reduce row by row."""
    preds = predict(models, test.features)
    truth = np.broadcast_to(test.labels.T, preds.shape)
    return rmse(preds, truth), pearson_cc(preds, truth)


def _check_split(pool: Dataset, test: Dataset, cfg: ExperimentConfig) -> None:
    """Reject a split the run could not score, before any query."""
    if pool.n_features != test.n_features or pool.n_tasks != test.n_tasks:
        raise ValueError("pool and test must share feature and task dimensions")
    if test.n_samples < 2:
        raise ValueError(f"test set of {test.n_samples} samples cannot be scored (correlation needs at least 2); "
                         f"lower train_fraction={cfg.train_fraction}")
    if cfg.group_value is not None and pool.group is None:
        raise ValueError("group_value set but the pool has no group column")


def _queries(
    pools, strategy: StrategySpec, solver: SolverConfig, k_max: int | None, seeds
) -> list[tuple[np.ndarray, LinearModel, LinearModel]]:
    """The query loop of R runs in lockstep on pools of one shape, and the one place that fits their models.
    It checks k_max and a single-task kind's focus task and resolves a budget-scaled lambda against k_max; then,
    before the first query, `fit` on the stacked pools gives every run's full-pool reference. Each step labels one
    sample per run, in run order and from its own stream (seeds[r]), and from k0 on one `fit` refits all tasks of
    all runs on the rows kept in (R, k_max, d) and (R, k_max, P) buffers. Returns each run's selection (k_max pool
    indices in query order), K = k0..k_max models as a stack, and reference; no run's ledger outlives the loop."""
    states = [PoolState(pool, rng=np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
              for pool, seed in zip(pools, seeds)]
    (n, d), n_tasks, k0 = pools[0].features.shape, pools[0].n_tasks, states[0].k0
    if k_max is None and n < k0:
        raise ValueError(f"pool of {n} samples is smaller than k0={k0} (one label per feature)")
    k_max = n if k_max is None else k_max
    if not k0 <= k_max <= n:
        raise ValueError(f"k_max must lie in [k0={k0}, pool size={n}], got {k_max}")
    if strategy.kind in SINGLE_TASK_KINDS:
        _resolve_focus_task(strategy, n_tasks)
    solver = resolve_lambda(solver, budget=k_max)
    # in chunks: a larger array freed here would raise the allocator's mmap threshold, and the loop's peak RSS
    step, references = max(1, _SCORE_BLOCK // (n * d)), []
    for chunk in (pools[i:i + step] for i in range(0, len(pools), step)):
        fitted = fit(np.stack([pool.features for pool in chunk]), np.stack([pool.labels for pool in chunk]), solver)
        references += (fitted[r] for r in range(len(chunk)))
    for state in states:
        state.solver = solver
    features, labels = np.empty((len(states), k_max, d)), np.empty((len(states), k_max, n_tasks))
    coefs = np.empty((len(states), k_max - k0 + 1, n_tasks, d))
    intercepts, nonconverged = np.empty(coefs.shape[:3]), np.empty(coefs.shape[:3], dtype=bool)
    for k in range(1, k_max + 1):
        batch = _committee_phase(states[0], strategy)  # every run holds k - 1 labels: one phase for all
        picks = _committee_picks(states, strategy) if batch else [select_next(state, strategy) for state in states]
        for r, (state, index) in enumerate(zip(states, picks)):
            state.add(index)
            features[r, k - 1], labels[r, k - 1] = state.pool.features[index], state.pool.labels[index]
        if k >= k0:
            fitted = fit(features[:, :k], labels[:, :k], solver)
            coefs[:, k - k0], intercepts[:, k - k0], nonconverged[:, k - k0] = (
                fitted.coefficients, fitted.intercept, fitted.nonconverged)
            for r, state in enumerate(states):
                state.models = fitted[r]
    models = LinearModel(coefs, intercepts, nonconverged=nonconverged)
    return [(np.array(state.labeled), models[r], references[r]) for r, state in enumerate(states)]


def run_single(pool: Dataset, test: Dataset, cfg: ExperimentConfig, seed: int | None = None, *,
               queried: tuple[np.ndarray, LinearModel, LinearModel] | None = None) -> RunResult:
    """Score one active-learning run over a fixed pool/test split; it fits nothing itself.

    `queried` is the run's (selection, models, reference) from the query loop; without it the run is queried here,
    as the one-run case, from cfg.seed or `seed`. Each K >= k0 gets a row of every array: test scores in blocks
    of K's, coefficient MAE against the reference and the count of task models that did not converge.
    """
    if queried is None:  # run_experiment queries its runs in lockstep and passes each run's outcome
        _check_split(pool, test, cfg)
        queried = _queries([pool], cfg.strategy, cfg.solver, cfg.k_max, [cfg.seed if seed is None else seed])[0]
    selection, models, reference = queried
    bl2_rmse, bl2_cc = _block_scores(reference, test)

    mae_k = coefficient_mae(models.coefficients, np.broadcast_to(reference.coefficients, models.coefficients.shape))
    ks = np.arange(pool.n_features, len(selection) + 1)
    labels = pool.labels[selection].T
    block = max(1, _SCORE_BLOCK // (pool.n_tasks * max(test.n_samples, len(selection))))
    blocks = [
        (*_block_scores(models[i:i + block], test),
         label_std(np.where(np.arange(len(selection)) < ks[i:i + block, None, None], labels, np.nan)))
        for i in range(0, len(ks), block)
    ]
    rmse_k, cc_k, std_k = (np.concatenate(scores) for scores in zip(*blocks))
    shares = None
    if cfg.group_value is not None:  # matches among the first k selected, over k
        shares = np.cumsum(np.asarray(pool.group)[selection] == cfg.group_value)[ks - 1] / ks
    return RunResult(ks, rmse_k, cc_k, mae_k, std_k, shares, models.nonconverged.sum(axis=-1),
                     tuple(selection.tolist()), bl2_rmse, bl2_cc)


def selection_sequence(
    pool: Dataset,
    strategy: StrategySpec,
    solver: SolverConfig,
    k_max: int | None = None,
    seed: int = 0,
) -> list[int]:
    """The ordered query sequence a strategy produces on a fixed pool (run_single's loop)."""
    return _queries([pool], strategy, solver, k_max, [seed])[0][0].tolist()


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
    """Aggregate cfg.runs independent runs into a learning curve.

    The runs come from :func:`_run_splits` and are queried in lockstep. Each is then scored by its
    own :func:`run_single` call, handed its selection and models, so that the benchmark's checks,
    which wrap `run_single`, still see every run. `threads` is accepted and ignored, but must be >= 1.
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    pools, tests, seeds = zip(*_run_splits(data, cfg))
    _check_split(pools[0], tests[0], cfg)  # the splits of one dataset share their shapes and group column
    queried = _queries(pools, cfg.strategy, cfg.solver, cfg.k_max, seeds)
    results = [run_single(pool, test, cfg, seed, queried=q)
               for pool, test, seed, q in zip(pools, tests, seeds, queried)]

    ks = tuple(results[0].ks.tolist())  # every run splits the same data alike
    stats = {}  # each metric's arrays as (tasks, K's), from its runs stacked last
    for metric in (m for m in _METRIC_ORDER if m != "group_fraction" or cfg.group_value is not None):
        aggregated = _aggregate(np.stack([getattr(r, metric) for r in results], axis=-1))
        if metric in ("bl2_rmse", "bl2_cc"):  # per run, so one value per task serves every K
            stats[metric] = tuple(np.repeat(a[:, None], len(ks), axis=1) for a in aggregated)
        else:  # (K's, tasks), or (K's,) for group_fraction
            stats[metric] = tuple(np.atleast_2d(a.T) for a in aggregated)
    nonconverged = np.stack([r.nonconverged for r in results], axis=-1).sum(axis=-1)

    strategy, solver = strategy_to_string(cfg.strategy), solver_to_string(cfg.solver)
    return LearningCurve(
        strategy=strategy,
        solver=solver,
        task_names=data.task_names,
        ks=ks,
        stats=stats,
        n_runs=cfg.runs,
        nonconverged=dict(zip(ks, nonconverged.tolist())),
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
        records = _csv_records(reader, path)
        header = next(records, None)
        if header is None or tuple(header) != CURVE_CSV_HEADER:
            raise ValueError(f"{path}: expected header {','.join(CURVE_CSV_HEADER)}")
        for row in records:
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
