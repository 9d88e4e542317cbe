"""alr benchmark: end-to-end and per-layer timings of the learning-curve engine.

Usage, from the repository root:

    python3 benchmarks/run.py --workload c5_cli --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 30 --trace 0

Each repetition runs in a fresh interpreter (worker.py), so set-up time and
peak RSS belong to that workload alone. Repetitions start until --seconds
have passed; the reported values are medians over them.

--trace 0 reports the end-to-end metrics: wall_s (one repetition's outputs),
queries_per_s (strategies x runs x K selection steps / wall_s), setup_s
(interpreter start through importing alr, NumPy and SciPy and loading and
normalizing the data; the median over every repetition and a few set-up-only
processes) and peak_rss_mb. fail_ratio is failed / attempted operations,
where one operation is one (strategy, run); it is printed and carried in the
result's attempted and failed fields.

--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones (see spans.py), plus
trace.overhead_ratio, the traced wall time over the untraced one. The
traced curves must match the untraced ones byte for byte.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. A full report, with quartiles, per-kind
selection times, output digests and machine metadata, is written to
benchmarks/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, write_dataset  # noqa: E402

SETUP_PROBES = 3
CHILD_TIMEOUT_S = 150
# One BLAS thread: on small matrices a second thread only adds noise.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env.update({k: "1" for k in BLAS_ENV})
    env.pop("ALR_THREADS", None)
    return env


class Runner:
    """Starts worker processes for one workload, seed and input file."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload, self.seed, self.work = workload, seed, work
        self.csv = work / "data.csv"
        write_dataset(WORKLOADS[workload], seed, self.csv)
        self.env = _child_env()
        self.count = 0

    def spawn(self, trace: int = 0, setup_only: bool = False) -> dict:
        self.count += 1
        result = self.work / f"result-{self.count}.json"
        cmd = [
            sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
            "--seed", str(self.seed), "--csv", str(self.csv),
            "--work", str(self.work / f"rep-{self.count}"), "--result", str(result),
            "--trace", str(trace),
        ]
        if setup_only:
            cmd.append("--setup-only")
        if trace:
            cmd += ["--spans", str(OUT / f"spans-{self.workload}-seed{self.seed}.npz")]
        started = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0 or not result.is_file():
            raise RuntimeError(
                f"worker exited {proc.returncode}:\n{proc.stderr.decode(errors='replace')[-3000:]}")
        out = json.loads(result.read_text())
        out["setup_s"] = out.pop("setup_end") - started
        return out


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
    return ref


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload for `seconds` and return its report."""
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{workload}-", dir=OUT))
    try:
        runner = Runner(workload, seed, work)
        meta = runner.spawn(setup_only=True)["meta"]  # warm-up: byte-compiles, fills the page cache
        modes = (0, 1) if trace else (0,)
        reps: list[tuple[int, dict]] = []
        deadline = time.monotonic() + seconds
        while len(reps) < len(modes) or time.monotonic() < deadline:
            mode = modes[len(reps) % len(modes)]
            reps.append((mode, runner.spawn(trace=mode)))
        probes = [runner.spawn(setup_only=True) for _ in range(SETUP_PROBES)]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return summarize(workload, seed, trace, reps, probes, meta)


def summarize(workload: str, seed: int, trace: int, reps, probes, meta) -> dict:
    spec = WORKLOADS[workload]
    plain = [r for mode, r in reps if mode == 0]
    traced = [r for mode, r in reps if mode == 1]
    walls = [r["wall_s"] for r in plain]
    attempted = sum(r["attempted"] for _, r in reps)
    failed = sum(r["failed"] for _, r in reps)
    digests = {json.dumps(r["digest"], sort_keys=True) for _, r in reps}
    problems = sorted({p for _, r in reps for p in r["problems"]})
    if len(digests) != 1:
        problems.append("output digests differ between repetitions (traced ones included)")
    correct = failed == 0 and not problems

    q1, wall, q3 = _quartiles(walls)
    metrics: dict[str, tuple[float, str]] = {}
    if trace:
        for name, (_, unit) in traced[0]["layers"].items():
            values = [r["layers"][name][0] for r in traced if name in r["layers"]]
            median = statistics.median_low if unit == "count" else statistics.median
            metrics[name] = (median(values), unit)
        metrics["trace.overhead_ratio"] = (
            statistics.median(r["wall_s"] for r in traced) / wall, "ratio")
    else:
        metrics["wall_s"] = (wall, "s")
        metrics["queries_per_s"] = (spec.steps / wall, "1/s")
        metrics["setup_s"] = (statistics.median([r["setup_s"] for _, r in reps] +
                                                [p["setup_s"] for p in probes]), "s")
        metrics["peak_rss_mb"] = (statistics.median(r["peak_rss_mb"] for r in plain), "MB")
    detail = {}
    dominance = None
    if traced:
        share = sum(metrics[name][0] for name in spec.dominant if name in metrics)
        dominance = {"layers": list(spec.dominant), "share": share, "min": spec.dominant_min,
                     "met": share >= spec.dominant_min}
        for name in traced[0]["detail"]:
            detail[name] = (statistics.median(r["detail"].get(name, (0.0,))[0] for r in traced),
                            traced[0]["detail"][name][1])
    return {
        "workload": workload,
        "shape": f"{spec.n}x{spec.d}x{spec.p}, pool {spec.pool_size}, {len(spec.strategies)} "
                 f"strategies x {spec.runs} runs, K <= {spec.k_max}, {spec.solver}",
        "seed": seed,
        "trace": trace,
        "repetitions": {"untraced": len(plain), "traced": len(traced)},
        "wall_s_quartiles": [q1, wall, q3],
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "correct": correct,
        "problems": problems[:20],
        "digest": json.loads(sorted(digests)[0]),
        "metrics": metrics,
        "detail": detail,
        "dominance": dominance,
        "missing": sorted({m for r in traced for m in r.get("missing", [])}),
        "meta": {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu": _cpu_model(),
            "git_commit": _git_commit(),
            "seed": seed,
            **meta,
        },
    }


def print_report(report: dict) -> None:
    reps = report["repetitions"]
    print(f"# {report['workload']} ({report['shape']}), seed {report['seed']}: "
          f"{reps['untraced']} untraced and {reps['traced']} traced repetitions")
    for name, (value, unit) in {**report["metrics"], **report["detail"]}.items():
        print(f"{report['workload']} {name} {value:.6g} {unit}")
    q1, med, q3 = report["wall_s_quartiles"]
    print(f"{report['workload']} wall_s quartiles {q1:.6g} {med:.6g} {q3:.6g} s")
    print(f"{report['workload']} fail_ratio {report['fail_ratio']:.6g} ratio "
          f"({report['failed']}/{report['attempted']})")
    if report["dominance"]:
        dom = report["dominance"]
        print(f"{report['workload']} dominant {'+'.join(dom['layers'])} {dom['share']:.3f} of traced "
              f"wall (expected >= {dom['min']}): {'met' if dom['met'] else 'NOT MET'}")
    for problem in report["problems"]:
        print(f"{report['workload']} problem: {problem}")
    for name in report["missing"]:
        print(f"{report['workload']} missing (not traced): {name}")
    print(f"{report['workload']} digest {json.dumps(report['digest'])}")
    print(f"{report['workload']} meta {json.dumps(report['meta'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "alr" / "__init__.py").is_file():
        print(f"error: no alr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    reports = []
    for name in names:
        try:
            report = measure(name, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        (OUT / f"report-{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(report, indent=2))
        print_report(report)
        reports.append(report)

    prefix = len(reports) > 1
    print(json.dumps({
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": {
            (f"{r['workload']}.{name}" if prefix else name): {"value": value, "unit": unit}
            for r in reports for name, (value, unit) in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
