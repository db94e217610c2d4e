#!/usr/bin/env python3
"""Benchmark entry point: one workload, one process.

Usage (from the repository root):

    python3 perfbench/run.py --workload ml100k-knn30 --seed 1 --seconds 5 --trace 0

The input is generated from --seed and written under .perfbench_work/;
the library is imported from the checkout's own src/ directory, never from
an installed copy.  --trace 0 prints the end-to-end metrics, --trace 1
runs the traced replay, prints the per-layer metrics and writes its spans
to .perfbench_out/.  Each run also keeps its evaluation report there, and
a later run of the same workload and seed must reproduce it exactly.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  Exit code 2 means
the benchmark could not run (no library source, bad arguments).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

BLAS_THREADS = 1


def _pin_cpu() -> dict:
    """Run on one CPU, so the reference loop that tracks the host's speed
    (workloads.SpeedProbe) runs where the measured work runs, and give
    BLAS one thread to match.  Must run before numpy loads."""
    cpus = os.sched_getaffinity(0)
    cpu = min(cpus)
    os.sched_setaffinity(0, {cpu})
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    return {"cpus_usable": len(cpus), "pinned_cpu": cpu,
            "blas_threads": BLAS_THREADS}


def _import_library():
    if not (SRC / "mccf" / "__init__.py").is_file():
        print(f"error: no library source at {SRC / 'mccf'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import mccf
    if Path(mccf.__file__).resolve().parent != (SRC / "mccf").resolve():
        print(f"error: imported mccf from {mccf.__file__}, not from {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return mccf


def machine() -> dict:
    import numpy as np
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def main(argv=None) -> int:
    pinned = _pin_cpu()
    mccf = _import_library()
    import workloads as wl

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2 ** 63:
        ap.error("--seed must be a non-negative 63-bit integer")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    w = wl.WORKLOADS[args.workload]
    info = {**machine(), **pinned, "mccf": mccf.__version__}
    print("# machine " + json.dumps(info, sort_keys=True))
    workdir = ROOT / ".perfbench_work" / f"{w.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    outdir = ROOT / ".perfbench_out"
    outdir.mkdir(exist_ok=True)
    ledger = wl.Ledger()
    try:
        if args.trace:
            trace_path = outdir / f"trace-{w.name}-seed{args.seed}.json"
            metrics = wl.traced_run(w, args.seed, workdir, ledger, outdir,
                                    trace_path, info)
            units = wl.PER_LAYER_UNITS
            print(f"# spans written to {trace_path.relative_to(ROOT)}")
        else:
            metrics = wl.timed_run(w, args.seed, args.seconds, workdir, ledger,
                                   outdir)
            units = wl.END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for what, n in sorted(ledger.known_defects.items()):
        print(f"# known defect, {n} call(s): {what}")
    print(json.dumps(ledger.result(metrics, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
