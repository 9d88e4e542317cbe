"""Golden outputs: small experiments whose selections and curve cells are pinned in golden.json.

Each experiment is a `gen_synthetic` table and an ExperimentConfig. Together they cover all
eight strategy kinds; ols, ridge 10/k, ridge 5/kmax and lasso (with max_iters low enough that
some fits fail, and with a penalty large enough that every prediction is constant, so the
greedy and committee scores tie); a group column; normalization before and after the split;
1 to 3 tasks; and 3 runs each.

`compute` runs one experiment and returns every run's selection, the curve's K axis, each
metric's (mean, std, n_runs) cells and the per-K nonconverged counts. Floats are stored as
their `repr`, so NaN and every bit survive the JSON file. `tests/test_golden.py` recomputes
the experiments and compares them with the file.

Re-record after an intended change of the engine's outputs with

    PYTHONPATH=src python tests/golden.py

and quote the largest relative move per metric with the change.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from alr import harness
from alr.dataset import gen_synthetic
from alr.harness import ExperimentConfig, run_experiment
from alr.regression import parse_solver
from alr.strategies import parse_strategy

GOLDEN_PATH = Path(__file__).with_name("golden.json")


@dataclasses.dataclass(frozen=True)
class Experiment:
    strategy: str
    solver: str
    p: int
    n: int = 50
    d: int = 3
    k_max: int = 12
    normalize_before_split: bool = True
    grouped: bool = False  # tag every third row "a", the rest "b", and track "a"
    grid: bool = False  # features rounded to integers, so input distances tie
    seed: int = 0


EXPERIMENTS = {
    "random_ols_p1": Experiment("random", "ols", p=1, seed=1),
    "gsx_ridge10k_p2_grid": Experiment("gsx", "ridge:lambda=10/k", p=2, grid=True, seed=2),
    "gsy_ridge5kmax_p2": Experiment("gsy:task=1", "ridge:lambda=5/kmax", p=2, seed=3),
    "igs_ridge10k_p3_after_split": Experiment("igs:task=2", "ridge:lambda=10/k", p=3, normalize_before_split=False,
                                              seed=4),
    "mt_gsy_ols_p3_group": Experiment("mt_gsy", "ols", p=3, grouped=True, seed=5),
    "mt_igs_ridge10k_p2": Experiment("mt_igs", "ridge:lambda=10/k", p=2, seed=6),
    "qbc_ridge10k_p2": Experiment("qbc:task=0", "ridge:lambda=10/k", p=2, seed=7),
    "emcm_ridge5kmax_p1_after_split": Experiment("emcm:committee=3", "ridge:lambda=5/kmax", p=1,
                                                 normalize_before_split=False, seed=8),
    "random_lasso_iters_p2_group": Experiment("random", "lasso:lambda=0.01,max_iters=2", p=2, grouped=True, seed=9),
    "mt_igs_lasso_iters_p3_after_split": Experiment("mt_igs", "lasso:lambda=0.01,max_iters=2", p=3,
                                                    normalize_before_split=False, seed=10),
    "gsy_lasso_constant_p2": Experiment("gsy:task=0", "lasso:lambda=100", p=2, seed=11),
    "qbc_lasso_constant_p1_group": Experiment("qbc:committee=4", "lasso:lambda=100", p=1, grouped=True, seed=12),
}


def _dataset(exp: Experiment):
    data = gen_synthetic(exp.n, exp.d, exp.p, noise_std=0.1, seed=exp.seed)
    if exp.grid:
        data = dataclasses.replace(data, features=np.round(data.features))
    if exp.grouped:
        data = dataclasses.replace(data, group=tuple("a" if i % 3 == 0 else "b" for i in range(exp.n)))
    return data


def compute(exp: Experiment) -> dict:
    """One experiment's outputs, in the form golden.json stores them."""
    cfg = ExperimentConfig(
        strategy=parse_strategy(exp.strategy),
        solver=parse_solver(exp.solver),
        runs=3,
        k_max=exp.k_max,
        normalize_before_split=exp.normalize_before_split,
        seed=exp.seed,
        group_value="a" if exp.grouped else None,
    )
    results, run_single = [], harness.run_single

    def capture(*args, **kwargs):  # run_experiment scores each run here; keep its selection
        result = run_single(*args, **kwargs)
        results.append(result)
        return result

    harness.run_single = capture
    try:
        with warnings.catch_warnings():  # non-convergence is pinned by the counts
            warnings.simplefilter("ignore", RuntimeWarning)
            curve = run_experiment(_dataset(exp), cfg)
    finally:
        harness.run_single = run_single
    return {
        "selections": [list(r.selection) for r in results],
        "ks": list(curve.ks),
        "mean": {m: [[repr(v) for v in row] for row in s[0].tolist()] for m, s in curve.stats.items()},
        "std": {m: [[repr(v) for v in row] for row in s[1].tolist()] for m, s in curve.stats.items()},
        "n_runs": {m: s[2].tolist() for m, s in curve.stats.items()},
        "nonconverged": {str(k): n for k, n in curve.nonconverged.items()},
    }


def _dumps(value, indent: int = 0) -> str:
    """JSON with one dict entry, or one row of a list of lists, per line, so a re-record's diff shows the rows
    that moved."""
    pad = " " * (indent + 1)
    if isinstance(value, dict):
        entries = (f"{pad}{json.dumps(key)}: {_dumps(item, indent + 1)}" for key, item in value.items())
        return "{\n" + ",\n".join(entries) + "\n" + " " * indent + "}"
    if isinstance(value, list) and value and all(isinstance(row, list) for row in value):
        return "[\n" + ",\n".join(pad + json.dumps(row) for row in value) + "\n" + " " * indent + "]"
    return json.dumps(value)


def record(path: Path = GOLDEN_PATH) -> None:
    golden = {name: compute(exp) for name, exp in EXPERIMENTS.items()}
    path.write_text(_dumps(golden) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record(Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN_PATH)
