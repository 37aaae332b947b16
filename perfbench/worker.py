"""Benchmark worker: set up one workload, time its passes, write a JSON record.

run.py starts this process with the BLAS thread count already pinned in its
environment and `src` on PYTHONPATH, from the root of the checkout:

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 \
        --workdir DIR --out FILE --spawned-at T [--setup-only]

`--spawned-at` is run.py's perf_counter() just before the spawn; on Linux it
is CLOCK_MONOTONIC, shared by both processes, so set-up time includes
interpreter start.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import statistics
import time

import tracing


def _openblas_threads() -> int | None:
    """Ask the loaded OpenBLAS how many threads it will use."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def blas_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "name": blas.get("name"),
        "version": blas.get("version"),
        "threads_pinned": os.environ.get("OPENBLAS_NUM_THREADS"),
        "threads_effective": _openblas_threads(),
        "numpy": np.__version__,
    }


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def time_op(op, index: int, tracer) -> dict:
    cpu0, child0 = time.process_time(), _children_cpu()
    if tracer is not None:
        tracer.op = index
        root = tracer.begin(tracing.ROOT)
    t0 = time.perf_counter()
    error = None
    try:
        out = op.run()
    except Exception as exc:  # a raising op is a failed op, never a lost one
        out, error = None, f"raised {type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.end(root)
        tracer.op = None
    cpu = time.process_time() - cpu0 + _children_cpu() - child0
    c0 = time.perf_counter()
    if error is None:
        if tracer is not None and "spans" in op.child:
            tracer.graft(op.child.pop("spans"), root)
        try:
            op.check(out)
        except Exception as exc:  # CheckFailed, or output the check could not read
            error = f"{type(exc).__name__}: {exc}"
    del out
    return {
        "kind": op.kind,
        "lat": t1 - t0,
        "cpu": cpu,
        "ok": error is None,
        "why": error,
        "error_class": op.error_class,
        "bytes_in": op.bytes_in,
        "bytes_out": op.child.pop("bytes_out", 0),
        "check_s": time.perf_counter() - c0,
    }


def run_phase(wl, passes: int, first: int, tracer, records: list) -> float:
    """Run `passes` passes; return the phase's wall time minus its checks."""
    start = time.perf_counter()
    checks = 0.0
    for k in range(passes):
        for op in wl.pass_ops(first + k):
            rec = time_op(op, len(records), tracer)
            checks += rec["check_s"]
            records.append(rec)
    return time.perf_counter() - start - checks


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    t_import = time.perf_counter()
    import liftlab
    import_s = time.perf_counter() - t_import
    src = os.path.realpath("src")
    if not os.path.realpath(liftlab.__file__).startswith(src + os.sep):
        raise SystemExit(f"liftlab was imported from {liftlab.__file__}, not from {src}")

    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    warmup_failures = 0
    for op in wl.warm_ops():
        try:
            op.check(op.run())
        except Exception:  # counted and reported; the timed ops count it again
            warmup_failures += 1
    setup_s = time.perf_counter() - args.spawned_at
    result = {"setup_s": setup_s, "import_s": import_s, "warmup_failures": warmup_failures}
    if not args.setup_only:
        result["blas"] = blas_info()
        passes = max(1, round(args.seconds / workloads.NOMINAL_PASS_S[args.workload]))
        records: list[dict] = []
        if args.trace:
            # Untraced and traced passes alternate, so drift during the run
            # does not land on one side of trace.overhead_ratio.
            tracer = tracing.Tracer()
            plain, traced = [], []
            passes = 2 * max(1, round(passes / 2))
            for k in range(passes):
                if k % 2 == 0:
                    run_phase(wl, 1, k, None, plain)
                    continue
                if args.workload == "cli_mix":
                    wl.launcher = True
                else:
                    uninstall = tracing.install(tracer)
                run_phase(wl, 1, k, tracer, traced)
                if args.workload == "cli_mix":
                    wl.launcher = False
                else:
                    uninstall()
            layers = tracing.summarize(tracer.spans, len(traced))
            if layers["cli.import_s"] is None:
                layers["cli.import_s"] = import_s
            layers["jsonio.bytes_in"] = statistics.fmean(r["bytes_in"] for r in traced)
            layers["jsonio.bytes_out"] = statistics.fmean(r["bytes_out"] for r in traced)
            layers["trace.overhead_ratio"] = (statistics.median(r["lat"] for r in traced)
                                              / statistics.median(r["lat"] for r in plain))
            result["layers"] = layers
            result["traced_ops"] = len(traced)
            records = plain + traced
        else:
            result["timed_wall_s"] = run_phase(wl, passes, 0, None, records)
        who = resource.RUSAGE_CHILDREN if args.workload == "cli_mix" else resource.RUSAGE_SELF
        result["peak_rss_kib"] = resource.getrusage(who).ru_maxrss
        result["passes"] = passes
        result["records"] = records
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
