import dataclasses
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alr import harness
from alr.dataset import Dataset, SplitConfig, gen_synthetic, normalize_features, split_train_test
from alr.harness import (
    CURVE_CSV_HEADER,
    ExperimentConfig,
    LearningCurve,
    read_curves_csv,
    run_experiment,
    run_single,
    saved_queries,
    selection_sequence,
    unique_query_count,
    write_curves_csv,
    write_curves_json,
)
from alr.metrics import label_std, pearson_cc, rmse
from alr.regression import SolverConfig, coefficient_mae, fit, parse_solver, predict
from alr.strategies import SINGLE_TASK_KINDS, parse_strategy

RIDGE_10_K = parse_solver("ridge")
RIDGE_10_KMAX = parse_solver("ridge:lambda=10/kmax")
ALL_KINDS = ("random", "gsx", "gsy", "igs", "mt_gsy", "mt_igs", "qbc", "emcm")


def _split_synthetic(n=40, d=3, p=2, noise=0.1, seed=0, fraction=0.3):
    data, _ = normalize_features(gen_synthetic(n, d, p, noise, seed=seed))
    return split_train_test(data, SplitConfig(fraction, seed))


def _cell(curve, metric, task, k):
    """(mean, std, n_runs) of one curve entry, as Python scalars."""
    i, j = curve.rows(metric).index(task), curve.ks.index(k)
    return tuple(a[i, j].item() for a in curve.stats[metric])


def _cfg(strategy="mt_igs", **kwargs):
    defaults = dict(
        strategy=parse_strategy(strategy),
        solver=RIDGE_10_K,
        train_fraction=0.3,
        runs=2,
        seed=0,
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


class TestRunSingle:
    def test_coef_mae_zero_at_full_pool(self):
        pool, test = _split_synthetic()
        for kind in ALL_KINDS:
            cfg = _cfg(strategy=f"{kind}:task=0" if kind in SINGLE_TASK_KINDS else kind)
            result = run_single(pool, test, cfg, seed=3)
            final = result.records[-1]
            assert final.k == pool.n_samples
            assert max(final.coef_mae) < 1e-10

    def test_full_pool_reference_is_constant(self):
        pool, test = _split_synthetic()
        result = run_single(pool, test, _cfg(), seed=1)
        assert len(result.bl2_rmse) == pool.n_tasks
        # final-iteration model coincides with the reference model
        assert result.records[-1].rmse == pytest.approx(result.bl2_rmse, abs=1e-10)

    def test_records_hold_one_float_per_task(self):
        pool, test = _split_synthetic(p=3)
        result = run_single(pool, test, _cfg(), seed=6)
        for scores in (result.bl2_rmse, result.bl2_cc):
            assert isinstance(scores, np.ndarray) and scores.shape == (3,) and scores.dtype == float
        for record in result.records:
            for scores in (record.rmse, record.cc, record.coef_mae, record.label_std):
                assert isinstance(scores, np.ndarray) and scores.shape == (3,) and scores.dtype == float

    def test_k_max_equal_k0_gives_one_record(self):
        pool, test = _split_synthetic()
        result = run_single(pool, test, _cfg(k_max=pool.n_features), seed=2)
        assert len(result.records) == 1
        assert result.records[0].k == pool.n_features

    def test_k_axis_is_contiguous(self):
        pool, test = _split_synthetic()
        result = run_single(pool, test, _cfg(), seed=5)
        ks = [r.k for r in result.records]
        assert ks == list(range(pool.n_features, pool.n_samples + 1))

    def test_noiseless_identifiability(self):
        pool, test = _split_synthetic(n=40, d=3, p=2, noise=0.0, seed=4)
        for kind in ALL_KINDS:
            strategy = f"{kind}:task=0" if kind in SINGLE_TASK_KINDS else kind
            cfg = _cfg(strategy=strategy, solver=SolverConfig("ols"))
            result = run_single(pool, test, cfg, seed=4)
            for record in result.records:
                if record.k > pool.n_features:
                    assert max(record.rmse) <= 1e-6, f"{kind} at K={record.k}"

    def test_all_zero_coefficients_give_nan_cc(self):
        # lambda=100 zeroes every coefficient, so each prediction row is the constant intercept
        pool, test = _split_synthetic(n=60, d=3, p=2)
        result = run_single(pool, test, _cfg(strategy="random", solver=parse_solver("lasso:lambda=100")), seed=0)
        for record in result.records:
            assert np.isnan(record.cc).all(), f"K={record.k}"

    def test_dimension_mismatch_rejected(self):
        pool, _ = _split_synthetic(d=3)
        _, test = _split_synthetic(d=4)
        with pytest.raises(ValueError, match="share"):
            run_single(pool, test, _cfg(), seed=0)

    def test_k_max_out_of_range_rejected(self):
        pool, test = _split_synthetic()
        with pytest.raises(ValueError, match="k_max"):
            run_single(pool, test, _cfg(k_max=pool.n_features - 1), seed=0)
        with pytest.raises(ValueError, match="k_max"):
            run_single(pool, test, _cfg(k_max=pool.n_samples + 1), seed=0)

    def test_group_fraction_tracked(self):
        base = gen_synthetic(30, 2, 1, 0.1, seed=6)
        tagged = Dataset(
            base.features,
            base.labels,
            base.feature_names,
            base.task_names,
            group=tuple("m" if i % 3 == 0 else "f" for i in range(30)),
        )
        data, _ = normalize_features(tagged)
        pool, test = split_train_test(data, SplitConfig(0.4, 0))
        result = run_single(pool, test, _cfg(group_value="m"), seed=0)
        for record in result.records:
            assert 0.0 <= record.group_fraction <= 1.0

    def test_group_value_without_group_column_rejected(self):
        with pytest.raises(ValueError, match="group_value set but the pool has no group column"):
            run_single(*_split_synthetic(), _cfg(group_value="m"), seed=0)

    @pytest.mark.parametrize("tagged, share_at_5", [
        (lambda pos: True, 1.0),
        (lambda pos: False, 0.0),
        (lambda pos: pos in (0, 2), 0.4),
    ], ids=("all_match", "none_match", "two_of_five"))
    def test_group_share_of_first_k_selected(self, tagged, share_at_5):
        """A record's group share is the matching fraction of the first k selected samples."""
        pool, test = _split_synthetic(d=2)
        cfg = _cfg(strategy="random", k_max=8)
        order = selection_sequence(pool, cfg.strategy, cfg.solver, cfg.k_max, seed=4)
        position = {row: pos for pos, row in enumerate(order)}
        group = tuple("m" if tagged(position.get(i, -1)) else "f" for i in range(pool.n_samples))
        pool = Dataset(pool.features, pool.labels, pool.feature_names, pool.task_names, group=group)
        result = run_single(pool, test, dataclasses.replace(cfg, group_value="m"), seed=4)
        assert result.selection == tuple(order)
        shares = {r.k: r.group_fraction for r in result.records}
        assert shares[5] == share_at_5
        for k, share in shares.items():
            assert share == sum(tagged(pos) for pos in range(k)) / k


class TestScoringBlocks:
    """run_single scores its K's in blocks; every record equals scoring that K alone."""

    @staticmethod
    def _tagged_split():
        base = gen_synthetic(60, 10, 2, 0.1, seed=2)
        tagged = Dataset(base.features, base.labels, base.feature_names, base.task_names,
                         group=tuple("m" if i % 3 == 0 else "f" for i in range(60)))
        return split_train_test(normalize_features(tagged)[0], SplitConfig(0.4, 2))

    @staticmethod
    def _per_k_reference(pool, test, cfg, selection):
        """(k, rmse, cc, coef_mae, label_std, group_fraction, nonconverged) per K, and the
        bl2 pair, from one-column fits, `predict` and 1-D metric calls."""
        def models_on(rows):
            return [fit(pool.features[rows], pool.labels[rows, p], cfg.solver) for p in range(pool.n_tasks)]

        def scores(models):
            preds = [predict(m, test.features) for m in models]
            return ([rmse(pr, test.labels[:, p]) for p, pr in enumerate(preds)],
                    [pearson_cc(pr, test.labels[:, p]) for p, pr in enumerate(preds)])

        reference = models_on(np.arange(pool.n_samples))
        per_k = []
        for k in range(pool.n_features, len(selection) + 1):
            rows = list(selection[:k])
            models = models_on(rows)
            per_k.append((
                k, *scores(models),
                [coefficient_mae(m.coefficients, r.coefficients) for m, r in zip(models, reference)],
                [label_std(pool.labels[rows, p]) for p in range(pool.n_tasks)],
                sum(pool.group[i] == cfg.group_value for i in rows) / len(rows),
                sum(not m.converged for m in models),
            ))
        return per_k, scores(reference)

    @pytest.mark.filterwarnings("ignore:LASSO path did not converge:RuntimeWarning")
    # ridge fills every coefficient, so a product rounded otherwise than predict's shows; at
    # lambda=30 a one-step LASSO path converges at some K's and not at others
    @pytest.mark.parametrize("solver", ("ridge", "lasso:lambda=30,max_iters=1"))
    @pytest.mark.parametrize("budget", ("default", "one", "one_k", "two_k_plus_one", "three_k"))
    def test_records_equal_per_k_scoring(self, monkeypatch, solver, budget):
        pool, test = self._tagged_split()
        per_k_size = pool.n_tasks * test.n_samples
        sizes = {"one": 1, "one_k": per_k_size, "two_k_plus_one": 2 * per_k_size + 1, "three_k": 3 * per_k_size}
        if budget != "default":
            monkeypatch.setattr(harness, "_SCORE_BLOCK", sizes[budget])
        # nine K's (10..18): blocks of 2 leave one K over, blocks of 3 divide them evenly
        cfg = _cfg(solver=parse_solver(solver), k_max=18, group_value="m")
        result = run_single(pool, test, cfg, seed=0)
        per_k, (bl2_rmse, bl2_cc) = self._per_k_reference(pool, test, cfg, result.selection)

        assert np.array_equal(result.bl2_rmse, bl2_rmse) and np.array_equal(result.bl2_cc, bl2_cc, equal_nan=True)
        assert len(result.records) == len(per_k) == 9
        for record, (k, rmse_v, cc_v, mae_v, std_v, frac, nonconverged) in zip(result.records, per_k):
            assert record.k == k
            assert np.array_equal(record.rmse, rmse_v)
            assert np.array_equal(record.cc, cc_v, equal_nan=True)
            assert np.array_equal(record.coef_mae, mae_v)
            assert np.array_equal(record.label_std, std_v, equal_nan=True)
            assert record.group_fraction == frac
            assert record.nonconverged == nonconverged
        # the per-K counts and fractions that cross the block edges are not all alike
        assert len({r.nonconverged for r in result.records}) > 1 or solver == "ridge"
        assert len({r.group_fraction for r in result.records}) > 1


def _assert_records_view_rows(result):
    """Each record's fields are its K's rows of the result's arrays, bit for bit (NaN equal to NaN)."""
    assert len(result.records) == len(result.ks)
    for i, record in enumerate(result.records):
        assert record.k == result.ks[i] and record.nonconverged == result.nonconverged[i]
        for name in ("rmse", "cc", "coef_mae", "label_std"):
            assert np.array_equal(getattr(record, name), getattr(result, name)[i], equal_nan=True), (i, name)
        if result.group_fraction is None:
            assert record.group_fraction is None
        else:
            assert record.group_fraction == result.group_fraction[i]


class TestRunResultArrays:
    """A RunResult holds the arrays its scoring produced; `records` views their rows, built once."""

    @pytest.mark.parametrize("group_value", (None, "m"))
    def test_shapes_dtypes_and_records_view(self, group_value):
        pool, test = TestScoringBlocks._tagged_split()
        result = run_single(pool, test, _cfg(k_max=18, group_value=group_value), seed=1)
        n_k = 18 - pool.n_features + 1
        assert np.array_equal(result.ks, np.arange(pool.n_features, 19)) and result.ks.dtype.kind == "i"
        for name in ("rmse", "cc", "coef_mae", "label_std"):
            array = getattr(result, name)
            assert isinstance(array, np.ndarray) and array.shape == (n_k, pool.n_tasks) and array.dtype == float
        assert result.nonconverged.shape == (n_k,) and result.nonconverged.dtype.kind == "i"
        if group_value is None:
            assert result.group_fraction is None
        else:
            assert result.group_fraction.shape == (n_k,) and result.group_fraction.dtype == float
        assert isinstance(result.selection, tuple) and len(result.selection) == 18
        _assert_records_view_rows(result)
        assert result.records is result.records

    def test_nan_cells_view_as_nan(self):
        # d = 1: label_std at K = 1 is undefined; lambda=100 zeroes every coefficient, so no CC is defined
        pool, test = _split_synthetic(n=60, d=1, p=2)
        result = run_single(pool, test, _cfg(strategy="random", solver=parse_solver("lasso:lambda=100")), seed=0)
        assert np.isnan(result.label_std[0]).all() and np.isnan(result.cc).all()
        _assert_records_view_rows(result)

    @pytest.mark.filterwarnings("ignore:LASSO path did not converge:RuntimeWarning")
    def test_nonconverged_counts_the_task_models_of_each_k(self):
        pool, test = TestScoringBlocks._tagged_split()
        cfg = _cfg(solver=parse_solver("lasso:lambda=30,max_iters=1"), k_max=18)
        result = run_single(pool, test, cfg, seed=0)
        _, models, _ = harness._queries([pool], cfg.strategy, cfg.solver, cfg.k_max, [0])[0]
        assert np.array_equal(result.nonconverged, models.nonconverged.sum(axis=-1))
        # at lambda=30 a one-step LASSO path converges at some K's and not at others
        assert len(set(result.nonconverged.tolist())) > 1
        _assert_records_view_rows(result)


class TestRunExperiment:
    def test_single_run_curve_equals_run(self):
        data = gen_synthetic(40, 3, 2, 0.1, seed=1)
        cfg = _cfg(runs=1, seed=8)
        curve = run_experiment(data, cfg)
        base, _ = normalize_features(data)
        pool, test = split_train_test(base, SplitConfig(cfg.train_fraction, 8))
        manual = run_single(pool, test, cfg, seed=8)
        for i, k in enumerate(curve.ks):
            for p, task in enumerate(curve.task_names):
                mean, std, n_runs = _cell(curve, "rmse", task, k)
                assert mean == manual.records[i].rmse[p]
                assert std == 0.0
                assert n_runs == 1

    def test_aggregation_is_run_mean(self):
        data = gen_synthetic(40, 3, 2, 0.1, seed=2)
        cfg = _cfg(runs=2, seed=9)
        curve = run_experiment(data, cfg)
        base, _ = normalize_features(data)
        manual = []
        for r in range(2):
            pool, test = split_train_test(base, SplitConfig(cfg.train_fraction, 9 ^ r))
            manual.append(run_single(pool, test, cfg, seed=9 ^ r))
        k = curve.ks[3]
        for p, task in enumerate(curve.task_names):
            values = [m.records[3].rmse[p] for m in manual]
            assert curve.mean("rmse", task, k) == pytest.approx(np.mean(values), abs=1e-15)
            assert _cell(curve, "rmse", task, k)[1] == pytest.approx(np.std(values, ddof=1), abs=1e-15)

    def test_deterministic_and_thread_invariant(self, tmp_path):
        data = gen_synthetic(36, 2, 2, 0.1, seed=3)
        cfg = _cfg(runs=4, seed=5)
        paths = []
        for i, threads in enumerate((1, 1, 3)):
            curve = run_experiment(data, cfg, threads=threads)
            path = tmp_path / f"curve{i}.csv"
            write_curves_csv([curve], path)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1] == paths[2]

    def test_full_pool_reference_constant_across_k(self):
        data = gen_synthetic(36, 2, 1, 0.1, seed=4)
        curve = run_experiment(data, _cfg(runs=2))
        values = {curve.mean("bl2_rmse", "y1", k) for k in curve.ks}
        assert len(values) == 1

    def test_normalize_after_split_mode(self):
        data = gen_synthetic(40, 3, 1, 0.1, seed=5)
        curve = run_experiment(data, _cfg(runs=2, normalize_before_split=False))
        assert curve.config["normalize_before_split"] is False
        assert len(curve.ks) > 0

    def test_undefined_cells_reduce_effective_counts(self):
        # d=1 gives a K=1 record where label_std is undefined for all runs
        data = gen_synthetic(30, 1, 1, 0.1, seed=6)
        curve = run_experiment(data, _cfg(runs=3))
        first_mean, _, first_n = _cell(curve, "label_std", "y1", 1)
        assert first_n == 0 and math.isnan(first_mean)
        later_mean, _, later_n = _cell(curve, "label_std", "y1", 2)
        assert later_n == 3 and not math.isnan(later_mean)

    def test_d1_experiment_emits_no_warning(self):
        # K=1 leaves label_std undefined in every run, so its cells reduce over no value
        data = gen_synthetic(30, 1, 2, 0.1, seed=6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            curve = run_experiment(data, _cfg(runs=3))
        assert _cell(curve, "label_std", "y2", 1)[2] == 0


def _assert_same_run(got, want):
    """Two RunResults with the same selection, bl2 scores and records, bit for bit (NaN equal to NaN)."""
    assert got.selection == want.selection
    for name in ("bl2_rmse", "bl2_cc"):
        assert np.array_equal(getattr(got, name), getattr(want, name), equal_nan=True)
    assert len(got.records) == len(want.records)
    for a, b in zip(got.records, want.records):
        assert (a.k, a.group_fraction, a.nonconverged) == (b.k, b.group_fraction, b.nonconverged)
        for name in ("rmse", "cc", "coef_mae", "label_std"):
            assert np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True), (a.k, name)


class TestLockstep:
    """run_experiment queries its runs in lockstep; each run equals run_single on its split alone."""

    @pytest.mark.filterwarnings("ignore:LASSO path did not converge:RuntimeWarning")
    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(
        kind=st.sampled_from(ALL_KINDS),
        solver=st.sampled_from(("ols", "ridge:lambda=10/k", "ridge:lambda=10/kmax", "lasso:max_iters=1",
                                "elastic_net")),
        runs=st.integers(1, 4),
        grouped=st.booleans(),
        normalize_before_split=st.booleans(),
        shape=st.tuples(st.integers(1, 3), st.integers(1, 2)),
        seed=st.integers(0, 2**16),
    )
    def test_each_run_equals_run_single_alone(self, kind, solver, runs, grouped, normalize_before_split,
                                              shape, seed):
        d, p = shape
        data = gen_synthetic(40, d, p, 0.1, seed=seed)
        if grouped:
            data = Dataset(data.features, data.labels, data.feature_names, data.task_names,
                           group=tuple("m" if i % 3 == 0 else "f" for i in range(40)))
        cfg = _cfg(strategy=f"{kind}:task=0" if kind in SINGLE_TASK_KINDS else kind, solver=parse_solver(solver),
                   runs=runs, k_max=d + 6, seed=seed, normalize_before_split=normalize_before_split,
                   group_value="m" if grouped else None)
        captured = []

        def capture(pool, test, cfg, *args, **kwargs):
            result = run_single(pool, test, cfg, *args, **kwargs)
            captured.append((pool, test, result))
            return result

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(harness, "run_single", capture)
            run_experiment(data, cfg)
        assert len(captured) == runs
        for r, (pool, test, result) in enumerate(captured):
            _assert_same_run(result, run_single(pool, test, cfg, seed=cfg.seed ^ r))

    def test_bad_config_fails_before_any_query(self, monkeypatch):
        def no_query(*args, **kwargs):
            raise AssertionError("select_next ran before the config was checked")

        monkeypatch.setattr(harness, "select_next", no_query)
        data = gen_synthetic(30, 2, 1, 0.1, seed=0)
        with pytest.raises(ValueError, match="group_value set but the pool has no group column"):
            run_experiment(data, _cfg(group_value="a", runs=3))
        with pytest.raises(ValueError, match="group_value set but the pool has no group column"):
            run_single(*_split_synthetic(), _cfg(group_value="a"), seed=0)
        pool, _ = _split_synthetic(d=3)
        _, test = _split_synthetic(d=4)
        with pytest.raises(ValueError, match="share"):
            run_single(pool, test, _cfg(), seed=0)
        # 99% of 60 rows leaves a test set of 1 sample, on which no correlation is defined
        message = r"test set of 1 samples cannot be scored .*train_fraction=0\.99"
        with pytest.raises(ValueError, match=message):
            run_experiment(gen_synthetic(60, 3, 2, 0.1, seed=0), _cfg(train_fraction=0.99, runs=3))
        with pytest.raises(ValueError, match=message):
            run_single(*_split_synthetic(n=60, fraction=0.99), _cfg(train_fraction=0.99), seed=0)
        # a single-task kind on 3-task data with no focus task, or one out of range
        three_tasks = gen_synthetic(60, 3, 3, 0.1, seed=1)
        pool, test = _split_synthetic(n=60, p=3)
        for strategy, message in (("gsy", "needs a focus task"), ("qbc", "needs a focus task"),
                                  ("igs:task=7", "focus_task 7 out of range for 3 tasks")):
            cfg = _cfg(strategy=strategy, runs=3, k_max=8)
            with pytest.raises(ValueError, match=message):
                run_experiment(three_tasks, cfg)
            with pytest.raises(ValueError, match=message):
                run_single(pool, test, cfg, seed=0)
            with pytest.raises(ValueError, match=message):
                selection_sequence(pool, cfg.strategy, cfg.solver, cfg.k_max)


class TestQueryLoopFits:
    """The query loop makes every fit of an experiment, and run_single handed its outcome makes none."""

    @staticmethod
    def _count_fits(monkeypatch) -> list:
        calls = []

        def counting_fit(features, *args, **kwargs):
            calls.append(np.shape(features))
            return fit(features, *args, **kwargs)

        monkeypatch.setattr(harness, "fit", counting_fit)
        return calls

    @pytest.mark.parametrize("kind", ("random", "mt_igs"))
    @pytest.mark.parametrize("runs", (1, 3))
    def test_one_fit_per_k_and_one_for_every_reference(self, monkeypatch, kind, runs):
        data = gen_synthetic(40, 3, 2, 0.1, seed=1)
        calls = self._count_fits(monkeypatch)
        run_experiment(data, _cfg(strategy=kind, runs=runs, k_max=8))
        n_pool = round(40 * 0.3)
        # the references first, from the whole pools, then K = k0..k_max on every run's labeled rows
        assert calls == [(runs, n_pool, 3)] + [(runs, k, 3) for k in range(3, 9)]

    @pytest.mark.filterwarnings("ignore:LASSO path did not converge:RuntimeWarning")
    @pytest.mark.parametrize("solver", (RIDGE_10_KMAX, parse_solver("lasso:lambda=0.01,max_iters=1")))
    def test_references_in_chunks_of_runs_each_equal_its_own_fit(self, monkeypatch, solver):
        cfg = _cfg(runs=5, k_max=6, solver=solver)
        pools = [pool for pool, _, _ in harness._run_splits(gen_synthetic(40, 3, 2, 0.1, seed=1), cfg)]
        n_pool = len(pools[0].labels)
        monkeypatch.setattr(harness, "_SCORE_BLOCK", 2 * n_pool * 3)  # two runs' pools per reference fit
        calls = self._count_fits(monkeypatch)
        queried = harness._queries(pools, cfg.strategy, solver, cfg.k_max, range(5))
        assert calls[:4] == [(2, n_pool, 3), (2, n_pool, 3), (1, n_pool, 3), (5, 3, 3)]
        budget_solver = harness.resolve_lambda(solver, budget=cfg.k_max)
        for pool, (_, _, reference) in zip(pools, queried):
            alone = fit(pool.features, pool.labels, budget_solver)
            for name in ("coefficients", "intercept", "nonconverged"):
                assert np.array_equal(getattr(reference, name), getattr(alone, name)), name

    def test_run_single_handed_its_queries_fits_nothing(self, monkeypatch):
        pool, test = _split_synthetic()
        cfg = _cfg(k_max=8)
        expected = run_single(pool, test, cfg, seed=5)
        queried = harness._queries([pool], cfg.strategy, cfg.solver, cfg.k_max, [5])[0]
        calls = self._count_fits(monkeypatch)
        result = run_single(pool, test, cfg, queried=queried)
        assert calls == []
        _assert_same_run(result, expected)


def _aggregate_reference(values) -> tuple[float, float, int]:
    """The former one-cell formula: (mean, sample std, count) of the defined runs, std 0.0 for one."""
    arr = np.asarray(values, dtype=float)
    good = arr[~np.isnan(arr)]
    if good.size == 0:
        return math.nan, math.nan, 0
    std = float(np.std(good, ddof=1)) if good.size > 1 else 0.0
    return float(good.mean()), std, int(good.size)


class TestAggregate:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 4),
           st.sampled_from((1, 2, 7, 8, 9, 127, 128, 129, 257)) | st.integers(1, 300),
           st.integers(0, 2**32 - 1))
    def test_cells_equal_one_cell_formula(self, n_k, p, runs, seed):
        """One call on a (K's, tasks, runs) stack gives (K's, tasks) arrays holding, bit for bit, the
        one-cell formula on each (K, task) row, whatever runs are NaN: none, some, all but one, all."""
        rng = np.random.default_rng(seed)
        values = rng.standard_normal((n_k, p, runs)) * 10.0 ** rng.integers(-8, 9)
        for row in values.reshape(-1, runs):
            pattern = rng.integers(4)
            if pattern == 1:
                row[rng.random(runs) < rng.random()] = np.nan
            elif pattern == 2:
                row[np.arange(runs) != rng.integers(runs)] = np.nan
            elif pattern == 3:
                row[:] = np.nan
        mean, std, n_runs = harness._aggregate(values)
        assert mean.shape == std.shape == n_runs.shape == (n_k, p)
        reference = [_aggregate_reference(row) for row in values.reshape(-1, runs)]
        ref_mean, ref_std, ref_n = (np.reshape(a, (n_k, p)) for a in zip(*reference))
        assert np.array_equal(mean, ref_mean, equal_nan=True) and np.array_equal(std, ref_std, equal_nan=True)
        assert np.array_equal(n_runs, ref_n)


class TestCurveFromRuns:
    """A curve is `_aggregate` over the runs' arrays stacked last, bit for bit (NaN equal to NaN)."""

    @pytest.mark.filterwarnings("ignore:LASSO path did not converge:RuntimeWarning")
    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(
        kind=st.sampled_from(ALL_KINDS),
        solver=st.sampled_from(("ridge:lambda=10/k", "lasso:max_iters=1")),
        runs=st.integers(1, 4),
        shape=st.tuples(st.integers(1, 3), st.integers(1, 3)),
        grouped=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_stats_equal_aggregate_of_stacked_runs(self, kind, solver, runs, shape, grouped, seed):
        d, p = shape  # d = 1 leaves every run's label_std undefined at K = 1
        data = gen_synthetic(40, d, p, 0.1, seed=seed)
        if grouped:
            data = Dataset(data.features, data.labels, data.feature_names, data.task_names,
                           group=tuple("m" if i % 3 == 0 else "f" for i in range(40)))
        cfg = _cfg(strategy=f"{kind}:task=0" if kind in SINGLE_TASK_KINDS else kind, solver=parse_solver(solver),
                   runs=runs, k_max=d + 5, seed=seed, group_value="m" if grouped else None)
        curve = run_experiment(data, cfg)
        results = [run_single(pool, test, cfg, seed=run_seed)
                   for pool, test, run_seed in harness._run_splits(data, cfg)]
        ks = tuple(range(d, d + 6))
        assert curve.ks == ks and all(r.ks.tolist() == list(ks) for r in results)

        def stacked(name):
            return np.stack([getattr(r, name) for r in results], axis=-1)

        expected = {name: tuple(a.T for a in harness._aggregate(stacked(name)))
                    for name in ("rmse", "cc", "coef_mae", "label_std")}
        for name in ("bl2_rmse", "bl2_cc"):
            expected[name] = tuple(np.repeat(a[:, None], len(ks), axis=1) for a in harness._aggregate(stacked(name)))
        if grouped:
            expected["group_fraction"] = tuple(a[None] for a in harness._aggregate(stacked("group_fraction")))
        assert curve.stats.keys() == expected.keys()
        for name, arrays in expected.items():
            assert len(curve.stats[name]) == 3
            for got, want in zip(curve.stats[name], arrays):
                assert got.shape == want.shape and np.array_equal(got, want, equal_nan=True), name
        assert curve.nonconverged == dict(zip(ks, stacked("nonconverged").sum(axis=-1).tolist()))


class TestSavedQueries:
    @staticmethod
    def _curve(strategy, ks, values_by_task, bl2_by_task, measure="rmse"):
        def stats(means):
            means = np.array(means, dtype=float)
            return means, np.zeros_like(means), np.full(means.shape, 4)

        bl2 = [[bl2_by_task[task]] * len(ks) for task in values_by_task]
        return LearningCurve(
            strategy=strategy,
            solver="ridge:lambda=10/k",
            task_names=tuple(values_by_task),
            ks=tuple(ks),
            stats={measure: stats(list(values_by_task.values())), f"bl2_{measure}": stats(bl2)},
            n_runs=4,
        )

    def test_identical_curves_save_nothing(self):
        curve = self._curve("gsx", (5, 6, 7, 8), {"y": [1.0, 0.6, 0.5, 0.4]}, {"y": 0.5})
        assert saved_queries(curve, curve, alpha=10, measure="rmse") == {"y": (7, 7)}

    def test_first_k_at_or_past_threshold(self):
        ks = (5, 6, 7, 8)
        a = self._curve("igs", ks, {"y": [1.0, 0.6, 0.5, 0.4]}, {"y": 0.5})
        ref = self._curve("random", ks, {"y": [1.0, 0.9, 0.7, 0.4]}, {"y": 0.5})
        # threshold (100+10)% * 0.5 = 0.55
        assert saved_queries(a, ref, alpha=10, measure="rmse") == {"y": (7, 8)}

    def test_cc_threshold_from_below(self):
        ks = (5, 6, 7)
        a = self._curve("igs", ks, {"y": [0.3, 0.92, 0.95]}, {"y": 1.0}, measure="cc")
        ref = self._curve("random", ks, {"y": [0.3, 0.5, 0.91]}, {"y": 1.0}, measure="cc")
        # threshold (100-10)% * 1.0 = 0.9
        assert saved_queries(a, ref, alpha=10, measure="cc") == {"y": (6, 7)}

    def test_unreached_threshold_reports_none(self):
        ks = (5, 6)
        a = self._curve("igs", ks, {"y": [1.0, 0.9]}, {"y": 0.5})
        ref = self._curve("random", ks, {"y": [1.0, 0.52]}, {"y": 0.5})
        assert saved_queries(a, ref, alpha=5, measure="rmse") == {"y": (None, 6)}

    def test_mismatched_axes_rejected(self):
        a = self._curve("igs", (5, 6), {"y": [1.0, 0.4]}, {"y": 0.5})
        ref = self._curve("random", (5, 6, 7), {"y": [1.0, 0.5, 0.4]}, {"y": 0.5})
        with pytest.raises(ValueError, match="mismatched"):
            saved_queries(a, ref, alpha=5)

    def test_disagreeing_reference_rejected(self):
        ks = (5, 6)
        a = self._curve("igs", ks, {"y": [1.0, 0.4]}, {"y": 0.5})
        ref = self._curve("random", ks, {"y": [1.0, 0.4]}, {"y": 0.7})
        with pytest.raises(ValueError, match="reference"):
            saved_queries(a, ref, alpha=5)

    def test_undefined_references_agree_and_reach_no_threshold(self):
        # constant predictions leave CC undefined on the curve and at the full pool alike
        ks = (5, 6)
        a = self._curve("gsy:task=1", ks, {"y": [math.nan, math.nan], "z": [0.3, 0.95]},
                        {"y": math.nan, "z": 1.0}, measure="cc")
        ref = self._curve("random", ks, {"y": [math.nan, math.nan], "z": [0.3, 0.91]},
                          {"y": math.nan, "z": 1.0}, measure="cc")
        assert saved_queries(a, ref, alpha=10, measure="cc") == {"y": (None, None), "z": (6, 6)}

    def test_undefined_against_finite_reference_rejected(self):
        ks = (5, 6)
        a = self._curve("igs", ks, {"y": [0.3, 0.5]}, {"y": math.nan}, measure="cc")
        ref = self._curve("random", ks, {"y": [0.3, 0.5]}, {"y": 0.9}, measure="cc")
        for curve, reference in ((a, ref), (ref, a)):
            with pytest.raises(ValueError, match="reference"):
                saved_queries(curve, reference, alpha=5, measure="cc")


class TestSharedQueryLoop:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("seed", (3, 11))
    @pytest.mark.parametrize("k_max", (None, 8))
    def test_run_single_selection_matches_selection_sequence(self, kind, seed, k_max):
        pool, test = _split_synthetic(seed=seed)
        strategy = f"{kind}:task=0" if kind in SINGLE_TASK_KINDS else kind
        cfg = _cfg(strategy=strategy, solver=RIDGE_10_KMAX, k_max=k_max)
        result = run_single(pool, test, cfg, seed=seed)
        expected = selection_sequence(pool, cfg.strategy, cfg.solver, k_max=k_max, seed=seed)
        assert result.selection == tuple(expected)

    @pytest.mark.parametrize("kind", ("qbc", "emcm"))
    @pytest.mark.parametrize("seed", (3, 11))
    def test_committee_refits_apply_the_budget_lambda(self, kind, seed):
        # bootstrap members refit with lambda = 10/K_max, exactly as the main models do
        pool, _ = _split_synthetic(n=60, d=3, p=1, noise=0.5, seed=seed)
        k_max = 12
        fixed = parse_solver(f"ridge:lambda={10 / k_max!r}")
        strategy = parse_strategy(f"{kind}:task=0")
        budget_seq = selection_sequence(pool, strategy, RIDGE_10_KMAX, k_max=k_max, seed=seed)
        assert budget_seq == selection_sequence(pool, strategy, fixed, k_max=k_max, seed=seed)


class TestUniqueQueries:
    def test_identical_sequences(self):
        seq = [3, 1, 4, 1]
        assert unique_query_count(seq, [seq, seq, seq]) == (4, 3)

    def test_disjoint_sequences(self):
        assert unique_query_count([0, 1], [[0, 1], [2, 3], [4, 5]]) == (2, 6)

    def test_multitask_count_is_sequence_length(self):
        data, _ = normalize_features(gen_synthetic(60, 3, 3, 0.1, seed=7))
        pool, _ = split_train_test(data, SplitConfig(0.3, 7))
        k = 10
        mt = selection_sequence(pool, parse_strategy("mt_gsy"), RIDGE_10_K, k_max=k)
        st = [
            selection_sequence(pool, parse_strategy(f"gsy:task={p}"), RIDGE_10_K, k_max=k)
            for p in range(3)
        ]
        mt_count, st_union = unique_query_count(mt, st)
        assert mt_count == k
        assert k <= st_union <= 3 * k


@st.composite
def _drawn_curves(draw):
    """A LearningCurve built directly: 1-4 tasks (one may be named "all"), 1-6 ascending K's,
    every metric with NaN mean and std where n_runs is 0, and group_fraction or not."""
    name = st.text("abxy_019", min_size=1, max_size=3)
    tasks = tuple(draw(st.lists(st.just("all") | name, min_size=1, max_size=4, unique=True)))
    ks = tuple(sorted(draw(st.sets(st.integers(1, 400), min_size=1, max_size=6))))
    metrics = ("rmse", "cc", "coef_mae", "label_std", "bl2_rmse", "bl2_cc")
    metrics += ("group_fraction",) if draw(st.booleans()) else ()
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stats = {}
    for metric in metrics:
        shape = (1 if metric == "group_fraction" else len(tasks), len(ks))
        n_runs = rng.integers(0, 4, size=shape)
        mean = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, size=shape)
        std = np.where(n_runs == 1, 0.0, np.abs(rng.standard_normal(shape)))
        mean[n_runs == 0] = std[n_runs == 0] = np.nan
        stats[metric] = (mean, std, n_runs)
    return LearningCurve(
        strategy=draw(st.sampled_from(("random", "gsx", "qbc:task=0"))),
        solver="ridge:lambda=10/k",
        task_names=tasks,
        ks=ks,
        stats=stats,
        n_runs=max(int(arrays[2].max()) for arrays in stats.values()),
    )


class TestCurveSerialization:
    def _tagged_experiment(self):
        base = gen_synthetic(30, 2, 2, 0.1, seed=9)
        tagged = Dataset(
            base.features,
            base.labels,
            base.feature_names,
            base.task_names,
            group=tuple("m" if i % 2 == 0 else "f" for i in range(30)),
        )
        return run_experiment(tagged, _cfg(runs=2, group_value="m"))

    def test_csv_header_and_roundtrip(self, tmp_path):
        curve = self._tagged_experiment()
        path = tmp_path / "curves.csv"
        write_curves_csv([curve], path)
        first_line = path.read_text().splitlines()[0]
        assert first_line == ",".join(CURVE_CSV_HEADER)

        back = read_curves_csv(path)
        assert len(back) == 1
        restored = back[0]
        assert restored.strategy == curve.strategy
        assert restored.solver == curve.solver
        assert restored.task_names == curve.task_names
        assert restored.ks == curve.ks
        assert restored.stats.keys() == curve.stats.keys()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_drawn_curves(), min_size=1, max_size=2, unique_by=lambda curve: curve.strategy))
    def test_written_curves_read_back_equal(self, curves):
        """write -> read gives the same axes and arrays (NaN where no run is defined), and
        writing what was read gives the same bytes."""
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "first.csv", Path(tmp) / "second.csv"
            write_curves_csv(curves, first)
            back = read_curves_csv(first)
            write_curves_csv(back, second)
            assert second.read_bytes() == first.read_bytes()
        assert len(back) == len(curves)
        for curve, restored in zip(curves, back):
            assert (restored.strategy, restored.solver) == (curve.strategy, curve.solver)
            assert (restored.task_names, restored.ks) == (curve.task_names, curve.ks)
            assert restored.n_runs == curve.n_runs
            assert restored.stats.keys() == curve.stats.keys()
            for metric, arrays in curve.stats.items():
                for got, want in zip(restored.stats[metric], arrays):
                    assert got.shape == want.shape and np.array_equal(got, want, equal_nan=True)

    @pytest.mark.parametrize("group_value", (None, "m"))
    def test_task_named_all_round_trips(self, tmp_path, group_value):
        base = gen_synthetic(30, 2, 2, 0.1, seed=9)
        data = Dataset(base.features, base.labels, base.feature_names, ("all", "y2"),
                       group=tuple("m" if i % 2 == 0 else "f" for i in range(30)))
        curve = run_experiment(data, _cfg(runs=2, group_value=group_value))
        path = tmp_path / "curves.csv"
        write_curves_csv([curve], path)
        restored = read_curves_csv(path)[0]
        assert restored.task_names == ("all", "y2")
        assert restored.stats.keys() == curve.stats.keys()
        assert ("group_fraction" in restored.stats) == (group_value is not None)

    def test_json_output(self, tmp_path):
        import json

        curve = self._tagged_experiment()
        path = tmp_path / "curves.json"
        write_curves_json([curve], path)
        payload = json.loads(path.read_text())
        assert payload["curves"][0]["strategy"] == curve.strategy
        assert payload["curves"][0]["config"]["runs"] == 2
        points = payload["curves"][0]["points"]
        assert {p["metric"] for p in points} >= {"rmse", "cc", "coef_mae", "label_std", "group_fraction"}

    def test_json_points_follow_csv_rows(self, tmp_path):
        import csv
        import json

        base = gen_synthetic(30, 2, 3, 0.1, seed=9)
        vam = Dataset(
            base.features,
            base.labels,
            base.feature_names,
            ("valence", "arousal", "dominance"),
            group=tuple("m" if i % 3 == 0 else "f" for i in range(30)),
        )
        curve = run_experiment(vam, _cfg(runs=2, group_value="m"))
        write_curves_csv([curve], tmp_path / "c.csv")
        write_curves_json([curve], tmp_path / "c.json")
        with open(tmp_path / "c.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        points = json.loads((tmp_path / "c.json").read_text())["curves"][0]["points"]

        assert [(p["metric"], p["task"], p["k"]) for p in points] == [
            (r["metric"], r["task"], int(r["K"])) for r in rows
        ]
        assert rows[0]["task"] == "valence"
        for p, r in zip(points, rows):
            for key in ("mean", "std"):
                value = float(r[key])
                assert p[key] == (None if math.isnan(value) else value)
            assert p["n_runs"] == int(r["n_runs"])

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            read_curves_csv(path)


class TestConfigValidation:
    def test_rejects_bad_runs(self):
        with pytest.raises(ValueError):
            _cfg(runs=0)

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            _cfg(train_fraction=1.0)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            _cfg(seed=-1)
