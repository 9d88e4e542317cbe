"""One repetition of one workload in a fresh interpreter; run by run.py.

Set-up ends once alr, NumPy and SciPy are imported and the dataset is loaded
and normalized; the worker records that instant on the system-wide monotonic
clock so run.py can measure set-up from the moment it started the process.
It then runs the workload, checks its outputs and writes one JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy
import scipy

import alr
import alr.cli

from checks import Capture, check_outputs
from spans import Tracer, layer_metrics
from workloads import WORKLOADS, run_workload


def metadata() -> dict:
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "alr_threads": 1,
        "alr_version": getattr(alr, "__version__", "unknown"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--csv", type=Path, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, help="where a traced run saves its spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(alr)
    data = alr.load_csv(args.csv, workload.p)
    alr.normalize_features(data)
    out = {"setup_end": time.monotonic()}
    if args.setup_only:
        out["meta"] = metadata()
        args.result.write_text(json.dumps(out))
        return 0

    capture = Capture(alr)
    args.work.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    try:
        outputs = run_workload(alr, workload, data, args.csv, args.seed, args.work)
    except Exception as exc:  # recorded as a failed repetition, not a crash
        traceback.print_exc()
        outputs = {"curves": [], "errors": [f"workload raised {type(exc).__name__}: {exc}"]}
    out["wall_s"] = time.perf_counter() - started
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out.update(check_outputs(workload, capture, outputs))
    if tracer is not None:
        layers, detail = layer_metrics(tracer, out["wall_s"])
        out["layers"], out["detail"] = layers, detail
        out["missing"] = tracer.missing
        if args.spans is not None:
            tracer.save(args.spans)
    args.result.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
