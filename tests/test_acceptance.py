"""Acceptance suite: one test per release criterion, printing a pass line each.

Run with ``pytest tests/test_acceptance.py -v -s``. The final criterion needs
a licensed external feature table and is skipped unless ALR_VAM_CSV points at
it (ALR_VAM_GROUP and ALR_VAM_RUNS optionally tune it).
"""

import math
import os
import time

import numpy as np
import pytest

import bruteforce
from helpers import oracle_models, pool_as_lists, random_greedy_instance

from alr.cli import main
from alr.dataset import Dataset, SplitConfig, gen_synthetic, load_csv, normalize_features, split_train_test
from alr.harness import ExperimentConfig, run_experiment, run_single, selection_sequence, unique_query_count
from alr.regression import SolverConfig, fit, parse_solver
from alr.strategies import StrategySpec, parse_strategy, select_next

RIDGE_10_K = parse_solver("ridge")
RIDGE_FIXED = SolverConfig("ridge", lam=1.0)
ALL_KINDS = ("random", "gsx", "gsy", "igs", "mt_gsy", "mt_igs", "qbc", "emcm")


def _passline(text: str) -> None:
    print(f"\nPASS  {text}")


def test_c1_greedy_oracle_equivalence():
    started = time.perf_counter()
    for seed in range(1000):
        state, rng = random_greedy_instance(seed)
        features, labels = pool_as_lists(state)
        labeled = list(state.labeled)
        unlabeled = [int(i) for i in state.unlabeled_indices()]
        models = oracle_models(state)
        task = int(rng.integers(state.pool.n_tasks))

        assert select_next(state, StrategySpec("gsx")) == bruteforce.gs_input_choice(
            features, labeled, unlabeled
        )
        assert select_next(state, StrategySpec("gsy", focus_task=task)) == bruteforce.gsy_choice(
            features, labels, labeled, unlabeled, models[task], task
        )
        assert select_next(state, StrategySpec("igs", focus_task=task)) == bruteforce.igs_choice(
            features, labels, labeled, unlabeled, models[task], task
        )
        assert select_next(state, StrategySpec("mt_gsy")) == bruteforce.mtgsy_choice(
            features, labels, labeled, unlabeled, models
        )
        assert select_next(state, StrategySpec("mt_igs")) == bruteforce.mtigs_choice(
            features, labels, labeled, unlabeled, models
        )
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _passline(
        f"criterion 1: greedy steps match brute force on 1000 random instances ({elapsed:.1f}s)"
    )


def test_c2_multitask_degrades_to_single_task():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 14))
        d = int(rng.integers(1, 3))
        pool = Dataset(
            rng.standard_normal((n, d)),
            rng.standard_normal((n, 1)),
            tuple(f"x{i}" for i in range(d)),
            ("y",),
        )
        assert selection_sequence(pool, StrategySpec("mt_gsy"), RIDGE_FIXED) == selection_sequence(
            pool, StrategySpec("gsy"), RIDGE_FIXED
        )
        assert selection_sequence(pool, StrategySpec("mt_igs"), RIDGE_FIXED) == selection_sequence(
            pool, StrategySpec("igs"), RIDGE_FIXED
        )
    _passline("criterion 2: mt_gsy/mt_igs equal gsy/igs on 100 single-task pools")


def test_c3_selection_invariant_to_task_rescaling():
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(10, 16))
        d = int(rng.integers(1, 3))
        p = int(rng.integers(2, 4))
        features = rng.standard_normal((n, d))
        labels = rng.standard_normal((n, p))
        task = int(rng.integers(p))
        names = tuple(f"x{i}" for i in range(d))
        tasks = tuple(f"t{i}" for i in range(p))
        pool = Dataset(features, labels, names, tasks)
        reference = {
            kind: selection_sequence(pool, StrategySpec(kind), RIDGE_FIXED)
            for kind in ("mt_gsy", "mt_igs")
        }
        for c in (0.1, 10.0):
            scaled_labels = labels.copy()
            scaled_labels[:, task] *= c
            scaled = Dataset(features, scaled_labels, names, tasks)
            for kind, expected in reference.items():
                assert selection_sequence(scaled, StrategySpec(kind), RIDGE_FIXED) == expected
    _passline(
        "criterion 3: mt_gsy/mt_igs sequences unchanged under x0.1/x10 task rescaling (100 pools)"
    )


def test_c4_solver_correctness():
    rng = np.random.default_rng(0)
    for _ in range(100):
        x = rng.standard_normal(12)
        x -= x.mean()
        y = rng.standard_normal(12)
        y -= y.mean()
        lam = rng.uniform(0.01, 8.0)
        model = fit(x[:, None], y, SolverConfig("ridge", lam=lam))
        closed_form = float(x @ y) / (float(x @ x) + lam)
        assert abs(model.coefficients[0] - closed_form) < 1e-10

    def kkt(X, y, model, l1, l2):
        Xc = X - X.mean(axis=0)
        yc = y - y.mean()
        grad = -2.0 * Xc.T @ (yc - Xc @ model.coefficients) + 2.0 * l2 * model.coefficients
        worst = 0.0
        for j, b in enumerate(model.coefficients):
            if b != 0.0:
                worst = max(worst, abs(grad[j] + l1 * math.copysign(1.0, b)))
            else:
                worst = max(worst, max(0.0, abs(grad[j]) - l1))
        return worst

    for seed in range(25):
        prng = np.random.default_rng(seed)
        X = prng.standard_normal((40, 6))
        y = X @ prng.standard_normal(6) + 0.2 * prng.standard_normal(40)
        l1 = prng.uniform(0.001, 1.0)
        l2 = prng.uniform(0.01, 1.0)
        lasso = fit(X, y, SolverConfig("lasso", lam=l1))
        assert kkt(X, y, lasso, l1, 0.0) < 1e-5
        enet = fit(X, y, SolverConfig("elastic_net", lam=l1, lam2=l2))
        assert kkt(X, y, enet, l1, l2) < 1e-5

    for seed in range(100):
        prng = np.random.default_rng(seed)
        X = prng.standard_normal((30, 5))
        y = X @ prng.standard_normal(5) + 0.1 * prng.standard_normal(30)
        ridge0 = fit(X, y, SolverConfig("ridge", lam=0.0))
        ols = fit(X, y, SolverConfig("ols"))
        assert np.abs(ridge0.coefficients - ols.coefficients).max() < 1e-8
    _passline(
        "criterion 4: ridge closed form to 1e-10, lasso/elastic-net KKT to 1e-5, "
        "ridge(0)=OLS to 1e-8 on 100 problems"
    )


def test_c5_protocol_sanity_on_synthetic_data():
    started = time.perf_counter()
    exp_seed, d = 42, 10
    data = gen_synthetic(300, d, 3, 0.1, seed=exp_seed)
    threads = min(4, os.cpu_count() or 1)

    def avg_rmse(curve, k):
        return float(np.mean([curve.mean("rmse", t, k) for t in curve.task_names]))

    kinds = ["random", "gsx", "gsy:task=0", "igs:task=0", "mt_gsy", "mt_igs", "qbc:task=0", "emcm:task=0"]
    for kind in kinds:
        cfg = ExperimentConfig(
            strategy=parse_strategy(kind), solver=RIDGE_10_K, runs=50, k_max=60, seed=exp_seed
        )
        curve = run_experiment(data, cfg, threads=threads)
        limit = 0.02 * avg_rmse(curve, curve.ks[0])
        for k in range(2 * d, curve.ks[-1]):
            increase = avg_rmse(curve, k + 1) - avg_rmse(curve, k)
            assert increase <= limit, f"{kind}: RMSE rose by {increase:.4f} at K={k + 1}"

    base, _ = normalize_features(data)
    wins = 0
    for r in range(50):
        seed = exp_seed ^ r
        pool, test = split_train_test(base, SplitConfig(0.3, seed))
        per_run = {}
        for kind in ("mt_igs", "random"):
            cfg = ExperimentConfig(
                strategy=parse_strategy(kind), solver=RIDGE_10_K, runs=1, k_max=2 * d, seed=exp_seed
            )
            result = run_single(pool, test, cfg, seed=seed)
            per_run[kind] = float(np.mean(result.records[-1].rmse))
        wins += per_run["mt_igs"] < per_run["random"]
    elapsed = time.perf_counter() - started
    assert wins >= 40, f"mt_igs beat random in only {wins}/50 runs at K=2d"
    assert elapsed < 120.0
    _passline(
        f"criterion 5: curves non-increasing past K=2d and mt_igs < random at K=2d "
        f"in {wins}/50 runs ({elapsed:.1f}s)"
    )


def test_c6_full_pool_convergence_identity():
    data = gen_synthetic(40, 3, 2, 0.1, seed=6)
    base, _ = normalize_features(data)
    for run_seed in (0, 1):
        pool, test = split_train_test(base, SplitConfig(0.3, run_seed))
        for kind in ALL_KINDS:
            spec = StrategySpec(kind, focus_task=0)
            cfg = ExperimentConfig(strategy=spec, solver=RIDGE_10_K, runs=1, seed=run_seed)
            result = run_single(pool, test, cfg, seed=run_seed)
            final = result.records[-1]
            assert final.k == pool.n_samples
            assert max(final.coef_mae) <= 1e-10, f"{kind}: MAE {max(final.coef_mae):.2e}"
    _passline("criterion 6: coefficient MAE vs the full-pool model is 0 at K=pool size")


def test_c7_unique_query_accounting():
    data, _ = normalize_features(gen_synthetic(80, 3, 3, 0.1, seed=7))
    pool, _ = split_train_test(data, SplitConfig(0.3, 7))
    k = 12
    for family, mt_kind in (("gsy", "mt_gsy"), ("igs", "mt_igs")):
        mt_seq = selection_sequence(pool, parse_strategy(mt_kind), RIDGE_10_K, k_max=k)
        st_seqs = [
            selection_sequence(pool, parse_strategy(f"{family}:task={p}"), RIDGE_10_K, k_max=k)
            for p in range(3)
        ]
        mt_count, st_union = unique_query_count(mt_seq, st_seqs)
        assert mt_count == k
        assert k <= st_union <= 3 * k
        sequences_differ = len({tuple(s) for s in st_seqs}) > 1
        assert sequences_differ, "instance too degenerate for the accounting check"
        assert st_union > k
    _passline("criterion 7: mt count = K and single-task union in (K, 3K] when sequences differ")


def test_c8_cli_determinism_across_threads(tmp_path):
    data = tmp_path / "data.csv"
    assert main(["synth", "--n", "60", "--d", "3", "--p", "3", "--noise", "0.1",
                 "--seed", "1", "--out", str(data)]) == 0
    outputs = []
    for name, threads in (("a", "1"), ("b", "1"), ("c", "2"), ("d", "4")):
        out = tmp_path / f"{name}.csv"
        code = main(
            ["run", "--data", str(data), "--tasks", "3",
             "--strategy", "mt_igs", "--strategy", "emcm:task=1",
             "--runs", "5", "--seed", "13", "--k-max", "9",
             "--threads", threads, "--out", str(out)]
        )
        assert code == 0
        outputs.append((out.read_bytes(), out.with_suffix(".json").read_bytes()))
    assert all(o == outputs[0] for o in outputs[1:])
    _passline("criterion 8: identical CLI invocations are byte-identical at thread counts 1/2/4")


# Reference RMSE values for the VAM benchmark, rows K=50..250, columns
# BL1, EMCM, QBC, GSx, GSy, iGS, MT-GSy, MT-iGS.
VAM_REFERENCE_RMSE = {
    "valence": {
        50: (0.380, 0.356, 0.361, 0.326, 0.311, 0.310, 0.300, 0.299),
        100: (0.252, 0.235, 0.237, 0.237, 0.232, 0.230, 0.226, 0.225),
        150: (0.226, 0.217, 0.217, 0.219, 0.216, 0.216, 0.214, 0.213),
        200: (0.213, 0.210, 0.210, 0.210, 0.210, 0.210, 0.209, 0.208),
        250: (0.207, 0.206, 0.206, 0.206, 0.206, 0.206, 0.206, 0.205),
    },
    "arousal": {
        50: (0.374, 0.350, 0.357, 0.330, 0.311, 0.308, 0.300, 0.298),
        100: (0.253, 0.235, 0.236, 0.234, 0.235, 0.232, 0.226, 0.225),
        150: (0.224, 0.217, 0.216, 0.216, 0.219, 0.217, 0.213, 0.213),
        200: (0.213, 0.209, 0.209, 0.209, 0.210, 0.209, 0.208, 0.208),
        250: (0.207, 0.205, 0.205, 0.205, 0.206, 0.205, 0.205, 0.205),
    },
    "dominance": {
        50: (0.370, 0.354, 0.359, 0.321, 0.304, 0.303, 0.296, 0.296),
        100: (0.251, 0.236, 0.235, 0.235, 0.233, 0.231, 0.224, 0.224),
        150: (0.224, 0.217, 0.217, 0.217, 0.217, 0.216, 0.213, 0.213),
        200: (0.213, 0.209, 0.209, 0.209, 0.210, 0.210, 0.208, 0.208),
        250: (0.207, 0.205, 0.205, 0.205, 0.205, 0.206, 0.205, 0.205),
    },
}
_VAM_COLUMNS = ("random", "emcm", "qbc", "gsx", "gsy", "igs", "mt_gsy", "mt_igs")


def test_c9_vam_benchmark_reproduction():
    table_path = os.environ.get("ALR_VAM_CSV")
    if not table_path:
        pytest.skip("criterion 9 skipped: set ALR_VAM_CSV to the 46-feature table to run it")
    group_column = os.environ.get("ALR_VAM_GROUP") or None
    runs = int(os.environ.get("ALR_VAM_RUNS", "100"))
    data = load_csv(table_path, task_count=3, group_column=group_column)
    assert data.n_features == 46, f"expected the 46-feature table, got d={data.n_features}"
    assert data.n_tasks == 3
    check_ks = (50, 100, 150, 200, 250)
    threads = min(8, os.cpu_count() or 1)

    computed = {}
    for t, primitive in enumerate(VAM_REFERENCE_RMSE):
        for column in _VAM_COLUMNS:
            text = column if column in ("random", "gsx", "mt_gsy", "mt_igs") else f"{column}:task={t}"
            key = (primitive, column)
            cfg = ExperimentConfig(
                strategy=parse_strategy(text), solver=RIDGE_10_K, runs=runs, k_max=250, seed=1
            )
            curve = run_experiment(data, cfg, threads=threads)
            computed[key] = {k: curve.mean("rmse", data.task_names[t], k) for k in check_ks}

    mt_best_cells = 0
    total_cells = 0
    for primitive, by_k in VAM_REFERENCE_RMSE.items():
        for k, reference_row in by_k.items():
            total_cells += 1
            values = {col: computed[(primitive, col)][k] for col in _VAM_COLUMNS}
            for col, ref_value in zip(_VAM_COLUMNS, reference_row):
                assert abs(values[col] - ref_value) <= 0.01, (
                    f"{primitive} K={k} {col}: {values[col]:.3f} vs reference {ref_value:.3f}"
                )
            best_mt = min(values["mt_gsy"], values["mt_igs"])
            best_other = min(v for c, v in values.items() if c not in ("mt_gsy", "mt_igs", "random"))
            if best_mt <= best_other + 1e-3:
                mt_best_cells += 1
    assert mt_best_cells >= 0.8 * total_cells
    _passline(
        f"criterion 9: VAM reproduction within 0.01 RMSE; MT best/tied in "
        f"{mt_best_cells}/{total_cells} cells"
    )
