"""Workload shapes, seeded input generation, and the calls that run each workload.

Inputs are drawn here with the benchmark's own NumPy code (standard-normal
features, a standard-normal coefficient matrix, a linear response plus
Gaussian noise) and written as a headered CSV, so a change to
``alr.gen_synthetic`` cannot alter what is measured. alr sees only that CSV,
loaded through ``alr.load_csv``.

The workloads call alr only through its public entry points:
``alr.cli.main`` (c5_cli) and ``alr.run_experiment`` plus
``alr.write_curves_csv`` (wide_pool, vam_lasso). Every name is looked up at
call time, so the tracing wrappers installed by ``spans.py`` are the ones
that run.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    d: int
    p: int
    noise: float
    strategies: tuple[str, ...]
    solver: str
    runs: int
    k_max: int
    # L2 weight numerator for the benchmark's own ridge refit (lambda = ridge_lam / K);
    # None for solvers the benchmark cannot refit in closed form.
    ridge_lam: float | None
    via_cli: bool
    # Layer shares (see spans.py) whose sum the workload was chosen to push
    # past `dominant_min` of the traced wall time; reported, not gated.
    dominant: tuple[str, ...]
    dominant_min: float
    train_fraction: float = 0.3

    @property
    def pool_size(self) -> int:
        return round(self.n * self.train_fraction)

    @property
    def steps(self) -> int:
        """Selection steps the shape fixes: strategies x runs x K."""
        return len(self.strategies) * self.runs * self.k_max

    @property
    def operations(self) -> int:
        """One operation is one (strategy, run)."""
        return len(self.strategies) * self.runs


C5_STRATEGIES = (
    "random", "gsx", "gsy:task=0", "igs:task=0", "mt_gsy", "mt_igs", "qbc:task=0", "emcm:task=0",
)

WORKLOADS = {
    w.name: w
    for w in (
        # Acceptance-c5 shape through the CLI: thousands of tiny fits, predictions
        # and metric calls, so per-call overhead dominates.
        Workload("c5_cli", 300, 10, 3, 0.1, C5_STRATEGIES, "ridge:lambda=10/k",
                 runs=50, k_max=60, ridge_lam=10.0, via_cli=True,
                 dominant=("regression.fit.share", "metrics.share"), dominant_min=0.5),
        # Large pool, greedy kinds only: the n x k distance and gap matrices
        # (up to 1800 x 300 doubles) dominate, fits and metrics are cheap.
        Workload("wide_pool", 6000, 10, 3, 0.1, ("gsx", "igs:task=0", "mt_gsy", "mt_igs"),
                 "ridge:lambda=10/k", runs=1, k_max=300, ridge_lam=10.0, via_cli=False,
                 dominant=("strategies.select.share",), dominant_min=0.5),
        # VAM-shaped lasso at K = d: the centred design is rank deficient, so
        # every task's coordinate descent runs to its 10,000-sweep cap whatever
        # the seed. Selection is random and costs nothing.
        Workload("vam_lasso", 947, 46, 3, 0.1, ("random",), "lasso:lambda=0.001",
                 runs=1, k_max=46, ridge_lam=None, via_cli=False,
                 dominant=("regression.fit.share",), dominant_min=0.8),
    )
}


def write_dataset(workload: Workload, seed: int, path: Path) -> None:
    """Draw the workload's synthetic table from `seed` and write it as CSV."""
    rng = np.random.default_rng(seed)
    coef = rng.standard_normal((workload.d, workload.p))
    features = rng.standard_normal((workload.n, workload.d))
    labels = features @ coef + workload.noise * rng.standard_normal((workload.n, workload.p))
    header = [f"x{i + 1}" for i in range(workload.d)] + [f"y{i + 1}" for i in range(workload.p)]
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in np.hstack([features, labels]):
            writer.writerow([repr(float(v)) for v in row])


def run_workload(alr, workload: Workload, data, csv_path: Path, seed: int, work: Path) -> dict:
    """Produce every output of one repetition; returns the output file paths."""
    if workload.via_cli:
        return _run_cli(alr, workload, csv_path, seed, work)
    return _run_api(alr, workload, data, seed, work)


def _run_api(alr, workload: Workload, data, seed: int, work: Path) -> dict:
    curves, errors = [], []
    for text in workload.strategies:
        cfg = alr.ExperimentConfig(
            strategy=alr.parse_strategy(text),
            solver=alr.parse_solver(workload.solver),
            train_fraction=workload.train_fraction,
            runs=workload.runs,
            k_max=workload.k_max,
            seed=seed,
        )
        try:
            curves.append(alr.run_experiment(data, cfg, threads=1))
        except Exception as exc:  # a failing strategy counts against fail_ratio
            errors.append(f"{text}: {type(exc).__name__}: {exc}")
    curve_csv = work / "curves.csv"
    alr.write_curves_csv(curves, curve_csv)
    return {"curves": [curve_csv], "errors": errors}


def _run_cli(alr, workload: Workload, csv_path: Path, seed: int, work: Path) -> dict:
    common = [
        "--data", str(csv_path), "--tasks", str(workload.p), "--solver", workload.solver,
        "--runs", str(workload.runs), "--k-max", str(workload.k_max), "--seed", str(seed),
        "--threads", "1", "--train-fraction", str(workload.train_fraction),
    ]
    random_csv, curves_csv = work / "random.csv", work / "curves.csv"
    others = [s for s in workload.strategies if s != "random"]
    ks = ",".join(str(k) for k in range(2 * workload.d, workload.k_max + 1, workload.d))
    commands = {
        "run random": ["run", *common, "--strategy", "random", "--out", str(random_csv)],
        "run others": ["run", *common, *(a for s in others for a in ("--strategy", s)),
                       "--out", str(curves_csv)],
        "compare": ["compare", "--baseline", str(random_csv), "--curves", str(curves_csv),
                    "--k", ks, "--out", str(work / "compare.csv")],
        "saved-queries": ["saved-queries", "--curves", str(curves_csv), "--reference",
                          str(random_csv), "--out", str(work / "saved.csv")],
        "unique-queries": ["unique-queries", "--data", str(csv_path), "--tasks", str(workload.p),
                           "--family", "igs", "--solver", workload.solver, "--seed", str(seed),
                           "--k-max", str(workload.k_max), "--train-fraction",
                           str(workload.train_fraction), "--out", str(work / "unique.csv")],
    }
    errors = []
    for label, argv in commands.items():
        try:
            code = alr.cli.main(argv)
        except Exception as exc:  # a traceback out of the CLI is a failure, not a crash
            code = f"{type(exc).__name__}: {exc}"
        if code != 0:
            errors.append(f"alr {label}: exit {code}")
    return {
        "curves": [random_csv, curves_csv],
        "tables": [work / "compare.csv", work / "saved.csv"],
        "unique": work / "unique.csv",
        "errors": errors,
    }
