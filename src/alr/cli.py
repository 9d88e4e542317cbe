"""Command-line front end: dataset tools, experiment execution, analysis tables.

Subcommands: synth, normalize, run, compare, saved-queries, unique-queries.
All outputs are file-based; stdout carries one-line summaries, stderr carries
diagnostics. Exit codes: 0 success, 1 data error, 2 argument error.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

from .dataset import _write_table, gen_synthetic, load_csv, normalize_features, write_csv
from .harness import (
    ExperimentConfig,
    _run_splits,
    read_curves_csv,
    run_experiment,
    saved_queries,
    selection_sequence,
    unique_query_count,
    write_curves_csv,
    write_curves_json,
)
from .regression import parse_solver
from .strategies import SINGLE_TASK_KINDS, _resolve_focus_task, parse_strategy, strategy_to_string

_DEFAULT_COMPARE_KS = "50,100,150,200,250"
_DEFAULT_ALPHAS = "1,2,3,5,10"


def _parse_list(text: str, flag: str, kind=int) -> list:
    parts = [part.strip() for part in text.split(",") if part.strip()]
    try:
        values = [kind(part) for part in parts]
    except ValueError:
        raise ValueError(f"{flag} expects a comma-separated list of {kind.__name__} values, got '{text}'") from None
    if not values:
        raise ValueError(f"{flag} expects at least one value")
    for i, value in enumerate(values):
        if value in values[:i]:  # its table rows would repeat
            raise ValueError(f"{flag} gives {parts[i]} twice")
    return values


def _check_files(args) -> None:
    """Each set path in `args.outputs` (flags, in write order) must go to an existing directory and name
    neither a file in `args.inputs` nor an earlier output: writing it would replace that file."""
    def paths(flag):  # none when unset (stdout), one, or the list an nargs flag collects
        value = getattr(args, flag[2:].replace("-", "_"))
        return [] if value is None else [value] if isinstance(value, str) else value

    taken = [(flag, path) for flag in args.inputs for path in paths(flag)]
    for flag in args.outputs:
        for path in paths(flag):
            if not Path(path).parent.is_dir():
                raise ValueError(f"{flag}: no such directory: {Path(path).parent}")
            for other, used in taken:
                if Path(path).resolve() == Path(used).resolve():
                    raise ValueError(f"{flag}: {path} is the {other} file; the output would overwrite it")
            taken.append((flag, path))


def _k_spans(ks: list[int]) -> str:
    """Ascending K values as runs, e.g. [46, 47, 48, 50] -> "46..48,50"."""
    spans = []
    for k in ks:
        if spans and spans[-1][1] == k - 1:
            spans[-1][1] = k
        else:
            spans.append([k, k])
    return ",".join(str(a) if a == b else f"{a}..{b}" for a, b in spans)


def _load_dataset(args):
    return load_csv(args.data, args.tasks, group_column=args.group_column)


def cmd_synth(args, parser) -> int:
    data = gen_synthetic(args.n, args.d, args.p, args.noise, args.seed)
    write_csv(data, args.out)
    print(f"synth: wrote {data.n_samples}x{data.n_features} dataset with {data.n_tasks} tasks to {args.out}")
    return 0


def cmd_normalize(args, parser) -> int:
    data = _load_dataset(args)
    normalized, params = normalize_features(data)
    write_csv(normalized, args.out, group_column=args.group_column or "group")
    if args.params_out:
        params.save(args.params_out)
    print(f"normalize: wrote {args.out}" + (f" and {args.params_out}" if args.params_out else ""))
    return 0


def cmd_run(args, parser) -> int:
    json_out = Path(args.out).with_suffix(".json")  # the JSON twin, written after the CSV
    if json_out == Path(args.out):
        raise ValueError(f"--out: {args.out} would be overwritten by its JSON twin; give a path not ending in .json")
    if json_out.resolve() == Path(args.data).resolve():
        raise ValueError(f"--out: {json_out} is the --data file; the output would overwrite it")
    data = _load_dataset(args)
    solver = parse_solver(args.solver)
    if args.focus_task is not None and not 0 <= args.focus_task < data.n_tasks:
        raise ValueError(f"focus_task {args.focus_task} out of range for {data.n_tasks} tasks")

    specs = {}  # canonical spec -> StrategySpec; a repeated spec would repeat its curve rows
    for text in args.strategy:
        spec = parse_strategy(text)
        if spec.kind in SINGLE_TASK_KINDS and spec.focus_task is None and data.n_tasks > 1:
            if args.focus_task is None:
                parser.error(
                    f"--focus-task is required for strategy '{text}' on a "
                    f"{data.n_tasks}-task dataset"
                )
            spec = dataclasses.replace(spec, focus_task=args.focus_task)
        if spec.kind in SINGLE_TASK_KINDS:
            _resolve_focus_task(spec, data.n_tasks)
        label = strategy_to_string(spec)
        if label in specs:
            raise ValueError(f"--strategy {label} is given twice")
        specs[label] = spec

    curves = []
    for label, spec in specs.items():
        cfg = ExperimentConfig(
            strategy=spec,
            solver=solver,
            train_fraction=args.train_fraction,
            runs=args.runs,
            k_max=args.k_max,
            normalize_before_split=not args.normalize_after_split,
            seed=args.seed,
            group_value=args.group_value,
        )
        curve = run_experiment(data, cfg, threads=args.threads)
        curves.append(curve)
        k_end = curve.ks[-1]
        mean_rmse = sum(curve.mean("rmse", t, k_end) for t in curve.task_names) / len(curve.task_names)
        print(
            f"{label}: runs={args.runs} K={curve.ks[0]}..{k_end} "
            f"mean RMSE@{k_end}={mean_rmse:.4f} (avg over {len(curve.task_names)} tasks)"
        )
        failed = sum(curve.nonconverged.values())
        if failed:
            fits = curve.n_runs * len(curve.task_names) * len(curve.ks)
            where = _k_spans([k for k, n in curve.nonconverged.items() if n])
            print(f"{curve.strategy}: {failed} of {fits} fits did not converge (K={where})", file=sys.stderr)

    write_curves_csv(curves, args.out)
    write_curves_json(curves, json_out)
    return 0


def _single_curve(path: str):
    curves = read_curves_csv(path)
    if len(curves) != 1:
        raise ValueError(f"{path}: expected exactly one strategy, found {len(curves)}")
    return curves[0]


def cmd_compare(args, parser) -> int:
    ks = _parse_list(args.k, "--k")
    baseline = _single_curve(args.baseline)
    measures = ("rmse", "cc") if args.measure == "both" else (args.measure,)

    rows = []
    for path in args.curves:
        for curve in read_curves_csv(path):
            if curve.task_names != baseline.task_names:
                raise ValueError(f"{path}: task set differs from the baseline")
            for k in ks:
                if k not in curve.ks or k not in baseline.ks:
                    raise ValueError(
                        f"K={k} is not on the shared curve axis "
                        f"(have {baseline.ks[0]}..{baseline.ks[-1]})"
                    )
                for task in curve.task_names:
                    for measure in measures:
                        base = baseline.mean(measure, task, k)
                        value = curve.mean(measure, task, k)
                        gain = base - value if measure == "rmse" else value - base
                        pct = gain / base * 100.0 if base != 0 else math.nan
                        rows.append(
                            (
                                curve.strategy,
                                curve.solver,
                                task,
                                measure,
                                k,
                                repr(base),
                                repr(value),
                                round(pct) if math.isfinite(pct) else "",
                            )
                        )
    header = ("strategy", "solver", "task", "measure", "K", "baseline", "value", "improvement_pct")
    _write_table(args.out, header, rows)
    return 0


def cmd_saved_queries(args, parser) -> int:
    alphas = _parse_list(args.alpha, "--alpha", float)
    reference = _single_curve(args.reference)
    measures = ("rmse", "cc") if args.measure == "both" else (args.measure,)

    rows = []
    for path in args.curves:
        for curve in read_curves_csv(path):
            for measure in measures:
                for alpha in alphas:
                    result = saved_queries(curve, reference, alpha, measure)
                    for task, (k_curve, k_ref) in result.items():
                        if k_curve is not None and k_ref is not None:
                            saving = round((k_ref - k_curve) / k_curve * 100.0)
                        else:
                            saving = ""
                        rows.append(
                            (
                                curve.strategy,
                                task,
                                measure,
                                f"{alpha:g}",
                                "" if k_ref is None else k_ref,
                                "" if k_curve is None else k_curve,
                                saving,
                            )
                        )
    header = ("strategy", "task", "measure", "alpha_pct", "k_reference", "k_curve", "saving_pct")
    _write_table(args.out, header, rows)
    return 0


def cmd_unique_queries(args, parser) -> int:
    data = _load_dataset(args)
    solver = parse_solver(args.solver)
    mt_spec = parse_strategy({"gsy": "mt_gsy", "igs": "mt_igs"}[args.family])
    cfg = ExperimentConfig(mt_spec, solver, args.train_fraction, runs=1, k_max=args.k_max, seed=args.seed)
    pool, _, seed = next(_run_splits(data, cfg))  # run 0 of `alr run` with these options

    specs = [mt_spec] + [parse_strategy(f"{args.family}:task={p}") for p in range(pool.n_tasks)]
    mt_seq, *st_seqs = [selection_sequence(pool, spec, solver, k_max=cfg.k_max, seed=seed) for spec in specs]
    k0, k_max = pool.n_features, len(mt_seq)

    rows = []
    for k in range(k0, k_max + 1):
        mt_count, st_union = unique_query_count(mt_seq[:k], [seq[:k] for seq in st_seqs])
        rows.append((k, mt_count, st_union))
    _write_table(args.out, ("K", "mt_unique", "st_union"), rows)
    print(
        f"unique-queries: {args.family} on {pool.n_tasks} tasks, "
        f"K={k0}..{k_max}, final mt={rows[-1][1]} st_union={rows[-1][2]}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alr",
        description="Pool-based active learning for regression: benchmark tools.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("--data", required=True, help="input CSV path")
    data.add_argument("--tasks", type=int, required=True, help="number of label columns")
    data.add_argument("--group-column", default=None)

    experiment = argparse.ArgumentParser(add_help=False)
    experiment.add_argument(
        "--solver", default="ridge", help="solver spec (e.g. ridge:lambda=10/k, lasso:lambda=0.001)"
    )
    experiment.add_argument("--seed", type=int, default=ExperimentConfig.seed)
    experiment.add_argument("--train-fraction", type=float, default=ExperimentConfig.train_fraction)
    experiment.add_argument(
        "--k-max", type=int, default=ExperimentConfig.k_max, help="cap on queries (default: pool size)"
    )

    p = sub.add_parser("synth", help="generate a synthetic linear-response dataset")
    p.add_argument("--n", type=int, required=True, help="number of samples")
    p.add_argument("--d", type=int, required=True, help="number of features")
    p.add_argument("--p", type=int, required=True, help="number of tasks")
    p.add_argument("--noise", type=float, default=0.0, help="label noise std")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(handler=cmd_synth, outputs=("--out",), inputs=())

    p = sub.add_parser("normalize", parents=[data], help="normalize features to mean 0, std 1")
    p.add_argument("--out", required=True, help="normalized CSV path")
    p.add_argument("--params-out", default=None, help="JSON path for the (mean, std) pairs")
    p.set_defaults(handler=cmd_normalize, outputs=("--out", "--params-out"), inputs=("--data",))

    p = sub.add_parser("run", parents=[data, experiment], help="run learning-curve experiments")
    p.add_argument(
        "--strategy",
        action="append",
        required=True,
        help="strategy spec, repeatable (e.g. mt_igs, gsy:task=1, qbc:task=0,committee=8)",
    )
    p.add_argument("--focus-task", type=int, default=None, help="task index for single-task strategies")
    p.add_argument("--runs", type=int, default=ExperimentConfig.runs)
    p.add_argument(
        "--normalize-after-split",
        action="store_true",
        help="normalize each pool and apply its statistics to the test set "
        "(default: normalize the whole dataset once before splitting)",
    )
    p.add_argument("--group-value", default=None, help="track the selected fraction of this group tag")
    p.add_argument("--threads", type=int, default=1, help="accepted and ignored: runs execute one after another")
    p.add_argument("--out", required=True, help="output CSV path (JSON written alongside)")
    p.set_defaults(handler=cmd_run, outputs=("--out",), inputs=("--data",))

    p = sub.add_parser("compare", help="improvement-over-baseline table from curve files")
    p.add_argument("--baseline", required=True, help="curve CSV holding exactly one strategy")
    p.add_argument("--curves", nargs="+", required=True, help="curve CSVs to compare")
    p.add_argument("--k", default=_DEFAULT_COMPARE_KS, help="comma-separated K values")
    p.add_argument("--measure", choices=("rmse", "cc", "both"), default="both")
    p.add_argument("--out", default=None, help="output CSV (default: stdout)")
    p.set_defaults(handler=cmd_compare, outputs=("--out",), inputs=("--baseline", "--curves"))

    p = sub.add_parser("saved-queries", help="labels saved to reach the full-pool threshold")
    p.add_argument("--curves", nargs="+", required=True, help="curve CSVs to analyze")
    p.add_argument("--reference", required=True, help="reference curve CSV (e.g. the random baseline)")
    p.add_argument("--alpha", default=_DEFAULT_ALPHAS, help="comma-separated tolerance percentages")
    p.add_argument("--measure", choices=("rmse", "cc", "both"), default="both")
    p.add_argument("--out", default=None, help="output CSV (default: stdout)")
    p.set_defaults(handler=cmd_saved_queries, outputs=("--out",), inputs=("--reference", "--curves"))

    p = sub.add_parser(
        "unique-queries",
        parents=[data, experiment],
        help="unique samples queried: multi-task vs per-task single-task runs",
    )
    p.add_argument("--family", choices=("gsy", "igs"), required=True)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(handler=cmd_unique_queries, outputs=("--out",), inputs=("--data",))

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_files(args)
        return args.handler(args, parser)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
