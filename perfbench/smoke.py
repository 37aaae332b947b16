"""Smoke test for the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload for one pass, untraced and traced, from the root of the
checkout, and checks the shape of what the benchmark reports: every
end-to-end metric is printed by name with its unit, fail_ratio is computed,
the last line carries exactly the metrics BENCHMARK.json declares, and in
the traced run the per-module self times of each op add up to its wall time.
It asserts nothing about speed: timing on a 2-core machine is not a gate,
which is also why this is not one of the repository's tests.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
UNITS = {"setup_s": "s", "op_p50_s": "s", "op_tail_s": "s", "ops_per_s": "1/s",
         "cpu_per_op_s": "s", "fail_ratio": "ratio", "peak_rss_mib": "MiB"}


def run(workload: str, trace: int, out: str) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--out", out],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, f"{workload} trace {trace} exited {proc.returncode}: {proc.stderr[-500:]}"
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    work = os.path.join(ROOT, ".perfbench_work", "smoke")
    os.makedirs(work, exist_ok=True)
    try:
        for w in (w["name"] for w in declared["workloads"]):
            t0 = time.perf_counter()
            out = os.path.join(work, f"{w}.json")
            lines, last = run(w, 0, out)
            assert set(last) == {"correct", "attempted", "failed", "metrics"}, last.keys()
            assert last["attempted"] >= 1 and 0 <= last["failed"] <= last["attempted"]
            for name, unit in UNITS.items():
                row = next((ln.split() for ln in lines if ln.split()[:1] == [name]), None)
                assert row is not None, f"{w}: {name} not printed"
                assert row[2] == unit and "n=" in " ".join(row[3:]), f"{w}: {name} row {row}"
                float(row[1])
            with open(out, encoding="utf-8") as fh:
                rec = json.load(fh)
            fail = rec["metrics"]["fail_ratio"]["value"]
            assert fail == last["failed"] / last["attempted"], (fail, last)
            for key in ("nproc", "python", "seed", "blas"):
                assert rec[key] is not None, key
            assert rec["blas"]["threads_pinned"] == "1", rec["blas"]
            assert list(last["metrics"]) == [m["name"] for m in declared["end_to_end"]]

            _, traced = run(w, 1, out)
            assert list(traced["metrics"]) == [m["name"] for m in declared["per_layer"]]
            with open(out, encoding="utf-8") as fh:
                layers = json.load(fh)["layers"]
            gap, spans = layers["trace.sum_gap_s"]["value"], layers["trace.spans_per_op"]["value"]
            # Each span adds at most a timer tick or two of disagreement.
            tick = time.get_clock_info("perf_counter").resolution
            assert gap <= 2 * tick * max(spans, 1), f"{w}: self times miss op wall by {gap} s"
            print(f"ok  {w:14s} {last['attempted']:4d} ops, {last['failed']} failed, "
                  f"trace gap {gap:.1e} s, {time.perf_counter() - t0:.0f} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
