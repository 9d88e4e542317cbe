"""Span tracing from outside the library, and the per-layer metrics derived from it.

The tracer wraps alr's public functions at every module attribute that binds
them (``alr.harness.fit``, ``alr.strategies.fit``, ``alr.cli.run_experiment``,
...), because alr's modules import those names at load time. Spans (name,
start, end, parent) are kept in flat arrays in memory and saved at the end.
A layer's self time is its spans' durations minus their child spans.

A function listed in ``LAYER_FUNCTIONS`` that alr no longer defines is
reported as missing; the run goes on without it.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (home module, function) -> span name; the span name's prefix is the layer.
LAYER_FUNCTIONS = {
    ("dataset", "load_csv"): "dataset.load_csv",
    ("dataset", "split_train_test"): "dataset.split",
    ("dataset", "normalize_features"): "dataset.normalize",
    ("dataset", "apply_normalization"): "dataset.normalize",
    ("regression", "fit"): "regression.fit",
    ("regression", "predict"): "regression.predict",
    ("strategies", "select_next"): "strategies.select",
    ("metrics", "rmse"): "metrics",
    ("metrics", "pearson_cc"): "metrics",
    ("metrics", "label_std"): "metrics",
    ("regression", "coefficient_mae"): "metrics",
    ("harness", "run_single"): "harness.run_single",
    ("harness", "run_experiment"): "harness.aggregate",
    ("harness", "selection_sequence"): "harness.selection_sequence",
    ("harness", "write_curves_csv"): "harness.io",
    ("harness", "write_curves_json"): "harness.io",
    ("harness", "read_curves_csv"): "harness.io",
    ("harness", "saved_queries"): "harness.analysis",
    ("harness", "unique_query_count"): "harness.analysis",
    ("cli", "main"): "cli",
}

# The greedy kinds' first pick is the centroid, the pre-k0 picks the warm-up;
# random-init kinds draw at random in the same two phases.
PHASES = ("centroid", "warmup", "criterion")
# A fit whose returned model reports converged=False gets this span name.
NONCONVERGED = "regression.fit.nonconverged"

TAIL_PERCENTILES = (99.99, 99.9, 99.0, 90.0)


def patch_everywhere(original, replacement) -> None:
    """Rebind every alr module attribute that is `original` to `replacement`."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "alr" or mod_name.startswith("alr.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


class Tracer:
    """In-memory span recorder for a single-threaded run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack = [-1]
        self.missing: list[str] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def install(self, alr) -> None:
        """Wrap every function in LAYER_FUNCTIONS wherever alr binds it."""
        for (module, func), span in LAYER_FUNCTIONS.items():
            original = getattr(getattr(alr, module, None), func, None)
            if original is None:
                self.missing.append(f"alr.{module}.{func}")
                continue
            if span == "strategies.select":
                wrapper = self._wrap(original, name_of=self._select_name)
            elif span == "regression.fit":
                wrapper = self._wrap(original, span, rename=self._fit_name)
            else:
                wrapper = self._wrap(original, span)
            patch_everywhere(original, wrapper)

    def _wrap(self, fn, span=None, name_of=None, rename=None):
        """`fn` recording one span per call, named `span` or `name_of(*args)`."""
        name, end, stack, ids = self.name, self.end, self._stack, self._id
        name_append, parent_append = name.append, self.parent.append
        start_append, end_append = self.start.append, end.append
        push, pop = stack.append, stack.pop
        span_id = None if span is None else ids(span)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(end)
            name_append(span_id if name_of is None else ids(name_of(*args, **kwargs)))
            parent_append(stack[-1])
            end_append(0)
            push(i)
            start_append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                pop()
            if rename is not None:
                name[i] = ids(rename(result))
            return result

        return wrapper

    @staticmethod
    def _select_name(state, spec, *args, **kwargs) -> str:
        k, k0 = getattr(state, "n_labeled", None), getattr(state, "k0", None)
        if k is None or k0 is None:
            phase = "unknown"
        else:
            phase = PHASES[0] if k == 0 else PHASES[1] if k < k0 else PHASES[2]
        return f"strategies.select|{getattr(spec, 'kind', 'unknown')}|{phase}"

    @staticmethod
    def _fit_name(model) -> str:
        return "regression.fit" if getattr(model, "converged", True) else NONCONVERGED

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "names": np.array(self.names),
        }

    def save(self, path) -> None:
        np.savez(path, **self.arrays())


def _tail(values_us: np.ndarray) -> tuple[float, float]:
    """Highest percentile with at least 10 samples beyond it (p50 if none has)."""
    for pct in TAIL_PERCENTILES:
        if values_us.size * (1.0 - pct / 100.0) >= 10:
            return float(np.percentile(values_us, pct)), pct
    return float(np.percentile(values_us, 50.0)), 50.0


def layer_metrics(tracer: Tracer, traced_wall_s: float) -> tuple[dict, dict]:
    """Per-layer metrics from the recorded spans.

    Returns (metrics, detail), each mapping name -> (value, unit). `metrics`
    holds what every workload exercises; `detail` holds the per-kind and
    per-phase selection times and the layers only some workloads reach
    (vam_lasso never reaches the criterion phase, only c5_cli uses the CLI).
    """
    spans = tracer.arrays()
    names = list(spans["names"])
    name_idx, parent = spans["name"], spans["parent"]
    dur = (spans["end"] - spans["start"]).astype(float)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    self_s = (dur - child) / 1e9

    def mask(pred) -> np.ndarray:
        ids = [i for i, n in enumerate(names) if pred(n)]
        return np.isin(name_idx, ids)

    def total(pred) -> float:
        return float(self_s[mask(pred)].sum())

    is_fit = mask(lambda n: n.startswith("regression.fit"))
    is_select = mask(lambda n: n.startswith("strategies.select"))
    # fits made inside a select_next call (qbc/emcm committees); parents precede children
    in_select = is_select.tolist()
    for i, p in enumerate(parent.tolist()):
        if p >= 0 and in_select[p]:
            in_select[i] = True
    in_select = np.array(in_select, dtype=bool)

    m: dict[str, tuple[float, str]] = {}
    detail: dict[str, tuple[float, str]] = {}

    def timing(prefix: str, sel: np.ndarray) -> None:
        us = self_s[sel] * 1e6
        m[f"{prefix}.calls"] = (int(sel.sum()), "count")
        if us.size:
            tail, pct = _tail(us)
            m[f"{prefix}.p50_us"] = (float(np.median(us)), "us")
            m[f"{prefix}.tail_us"] = (tail, "us")
            detail[f"{prefix}.tail_pct"] = (pct, "%")

    fit_s = float(self_s[is_fit].sum())
    m["regression.fit_s"] = (fit_s, "s")
    timing("regression.fit", is_fit)
    nonconverged = int(mask(lambda n: n == NONCONVERGED).sum())
    m["regression.fit.nonconverged"] = (nonconverged, "count")
    m["regression.fit.converged_ratio"] = (
        (int(is_fit.sum()) - nonconverged) / max(int(is_fit.sum()), 1), "ratio")
    m["regression.fit.committee_calls"] = (int((is_fit & in_select).sum()), "count")
    m["regression.predict_s"] = (total(lambda n: n == "regression.predict"), "s")
    m["regression.predict.calls"] = (int(mask(lambda n: n == "regression.predict").sum()), "count")
    select_s = float(self_s[is_select].sum())
    m["strategies.select_self_s"] = (select_s, "s")
    timing("strategies.select", is_select)
    metrics_s = total(lambda n: n == "metrics")
    m["metrics_s"] = (metrics_s, "s")
    m["metrics.calls"] = (int(mask(lambda n: n == "metrics").sum()), "count")
    m["harness.run_single_self_s"] = (total(lambda n: n == "harness.run_single"), "s")
    m["harness.aggregate_s"] = (total(lambda n: n == "harness.aggregate"), "s")
    m["harness.io_s"] = (total(lambda n: n == "harness.io"), "s")
    m["dataset.load_csv_s"] = (total(lambda n: n == "dataset.load_csv"), "s")
    m["dataset.split_s"] = (total(lambda n: n == "dataset.split"), "s")
    m["dataset.normalize_s"] = (total(lambda n: n == "dataset.normalize"), "s")
    m["regression.fit.share"] = (fit_s / traced_wall_s, "ratio")
    m["strategies.select.share"] = (select_s / traced_wall_s, "ratio")
    m["metrics.share"] = (metrics_s / traced_wall_s, "ratio")
    m["trace.spans"] = (int(dur.size), "count")

    kinds = sorted({n.split("|")[1] for n in names if n.startswith("strategies.select|")})
    for kind in kinds:
        detail[f"strategies.select.{kind}_s"] = (
            total(lambda n, k=kind: n.split("|")[1:2] == [k]), "s")
    for phase in PHASES:
        detail[f"strategies.select.{phase}_s"] = (
            total(lambda n, p=phase: n.startswith("strategies.select|") and n.endswith("|" + p)), "s")
    detail["harness.selection_sequence_self_s"] = (
        total(lambda n: n == "harness.selection_sequence"), "s")
    detail["harness.analysis_s"] = (total(lambda n: n == "harness.analysis"), "s")
    detail["cli.self_s"] = (total(lambda n: n == "cli"), "s")
    return m, detail
