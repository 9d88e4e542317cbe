"""Per-operation correctness checks and output digests.

Every ``RunResult`` that ``run_experiment`` produces is captured by wrapping
``run_single`` wherever alr binds that name. One captured run is one
operation; it passes when

* its selection has the expected length, no duplicates and stays in the pool;
* its K axis runs from k0 (one label per feature) to k_max;
* every RMSE, CC and coefficient MAE is finite and in bounds;
* for ridge, the benchmark's own closed-form refit on the final selection
  reproduces the final-K test RMSE within 1e-8 relative;

and its strategy's curve rows in the CSV equal the mean over the captured
runs. Operations that raised or never returned count as failed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from spans import patch_everywhere

RMSE_REL_TOL = 1e-8
CURVE_REL_TOL = 1e-9


class Capture:
    """Records (pool, test, cfg, result) of every run_single call, in call order."""

    def __init__(self, alr):
        self.runs: list[tuple] = []
        self.missing: list[str] = []
        original = getattr(alr.harness, "run_single", None)
        if original is None:
            self.missing.append("alr.harness.run_single")
            return

        def run_single(pool, test, cfg, *args, **kwargs):
            result = original(pool, test, cfg, *args, **kwargs)
            self.runs.append((pool, test, cfg, result))
            return result

        patch_everywhere(original, run_single)


def _ridge_rmse(pool, test, selection, lam: float) -> list[float]:
    X = np.asarray(pool.features)[list(selection)]
    Y = np.asarray(pool.labels)[list(selection)]
    x_mean, y_mean = X.mean(axis=0), Y.mean(axis=0)
    Xc, Yc = X - x_mean, Y - y_mean
    beta = np.linalg.solve(Xc.T @ Xc + lam * np.eye(X.shape[1]), Xc.T @ Yc)
    preds = (np.asarray(test.features) - x_mean) @ beta + y_mean
    return [float(v) for v in np.sqrt(np.mean((preds - np.asarray(test.labels)) ** 2, axis=0))]


def check_run(workload, pool, test, result) -> list[str]:
    """Problems found in one captured run (empty when it passes)."""
    problems = []
    n, d = pool.features.shape
    sel = list(result.selection)
    if len(sel) != workload.k_max:
        problems.append(f"selection length {len(sel)} != k_max {workload.k_max}")
    if len(set(sel)) != len(sel):
        problems.append("selection holds duplicates")
    if any(not 0 <= i < n for i in sel):
        problems.append("selection index out of range")
    ks = [rec.k for rec in result.records]
    if ks != list(range(d, workload.k_max + 1)):
        problems.append(f"K axis {ks[:1]}..{ks[-1:]} != {d}..{workload.k_max}")
    for rec in result.records:
        values = (*rec.rmse, *rec.cc, *rec.coef_mae)
        if not all(math.isfinite(v) for v in values):
            problems.append(f"non-finite metric at K={rec.k}")
        elif min(rec.rmse) < 0 or min(rec.coef_mae) < 0 or max(abs(v) for v in rec.cc) > 1:
            problems.append(f"metric out of bounds at K={rec.k}")
    if workload.ridge_lam is not None and result.records and not problems:
        expected = _ridge_rmse(pool, test, sel, workload.ridge_lam / len(sel))
        for got, want in zip(result.records[-1].rmse, expected):
            if abs(got - want) > RMSE_REL_TOL * abs(want):
                problems.append(f"final RMSE {got!r} != closed-form refit {want!r}")
    return problems


def _group_by_experiment(runs):
    """Captured runs grouped by the config they ran under, in first-call order."""
    groups: dict[int, list] = {}
    for pool, test, cfg, result in runs:
        groups.setdefault(id(cfg), []).append((pool, test, cfg, result))
    return list(groups.values())


def _curve_rmse_rows(paths) -> list[dict]:
    """RMSE means per strategy, in file order: [{(task, K): mean}, ...]."""
    curves: dict[str, dict] = {}
    for path in paths:
        with Path(path).open(newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                if row["metric"] == "rmse":
                    key = (path, row["strategy"])
                    curves.setdefault(key, {})[(row["task"], int(row["K"]))] = float(row["mean"])
    return list(curves.values())


def check_outputs(workload, capture: Capture, outputs: dict) -> dict:
    """Check every operation and output; returns counts, problems and digests."""
    problems = list(outputs["errors"]) + [f"missing: {name}" for name in capture.missing]
    groups = _group_by_experiment(capture.runs)
    run_ok = []
    for group in groups:
        flags = []
        for pool, test, _cfg, result in group:
            found = check_run(workload, pool, test, result)
            problems.extend(found[:3])
            flags.append(not found)
        run_ok.append(flags)
    try:
        curve_rows = _curve_rmse_rows(outputs["curves"])
    except (OSError, KeyError, ValueError) as exc:
        curve_rows = []
        problems.append(f"curve CSV unreadable: {exc}")
    if len(curve_rows) != len(groups):
        problems.append(f"{len(curve_rows)} curves in CSV for {len(groups)} experiments")
    for g, (group, rows) in enumerate(zip(groups, curve_rows)):
        tasks = group[0][0].task_names
        ks = [rec.k for rec in group[0][3].records]
        for t, task in enumerate(tasks):
            for ki, k in enumerate(ks):
                mean = float(np.mean([r.records[ki].rmse[t] for *_, r in group]))
                got = rows.get((task, k), math.nan)
                if not abs(got - mean) <= CURVE_REL_TOL * abs(mean):
                    # a curve that disagrees with its runs fails every one of them
                    run_ok[g] = [False] * len(group)
                    problems.append(f"curve RMSE {task}@K={k}: CSV {got!r} != run mean {mean!r}")
    passed = sum(sum(flags) for flags in run_ok)
    for path in outputs.get("tables", []):
        if not Path(path).is_file() or len(Path(path).read_text().splitlines()) < 2:
            problems.append(f"{Path(path).name} is missing or has no rows")
    if "unique" in outputs:
        problems.extend(_check_unique_table(workload, outputs["unique"]))
    attempted = workload.operations
    return {
        "attempted": attempted,
        "failed": attempted - min(passed, attempted),
        "outputs_ok": not problems,
        "problems": problems[:20],
        "digest": _digest(capture.runs, outputs),
    }


def _check_unique_table(workload, path) -> list[str]:
    try:
        with Path(path).open(newline="", encoding="utf-8") as fh:
            rows = [(int(r["K"]), int(r["mt_unique"]), int(r["st_union"])) for r in csv.DictReader(fh)]
    except (OSError, KeyError, ValueError) as exc:
        return [f"unique-queries table unreadable: {exc}"]
    if [k for k, _, _ in rows] != list(range(workload.d, workload.k_max + 1)):
        return ["unique-queries K axis is wrong"]
    if any(mt != k or not k <= st <= workload.p * k for k, mt, st in rows):
        return ["unique-queries counts out of bounds"]
    return []


def _digest(runs, outputs: dict) -> dict:
    curves = hashlib.sha256()
    for path in outputs["curves"]:
        curves.update(Path(path).read_bytes() if Path(path).exists() else b"<missing>")
    selections = json.dumps([list(map(int, r.selection)) for *_, r in runs]).encode()
    return {
        "curves_sha256": curves.hexdigest(),
        "selections_sha256": hashlib.sha256(selections).hexdigest(),
    }
