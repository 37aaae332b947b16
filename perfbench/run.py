"""liftlab benchmark: run one workload from a seed and report its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Run from the root of a liftlab checkout; liftlab is imported from its `src`.
Workloads (see workloads.py): cli_mix, verify_all, pair_kernels,
chain_parties. Every workload is a closed loop: one client, one op in flight.

With --trace 0 the end-to-end metrics are printed, each with its unit and
sample count; with --trace 1 a run times half its passes untraced and half
with every liftlab module wrapped in spans, and prints the per-layer
metrics. The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics, holding the metrics that BENCHMARK.json
declares. The full record, per-op-kind medians and the environment included,
goes to --out (default perfbench/results/<workload>-seed<N>-trace<T>.json).
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cli_mix", "verify_all", "pair_kernels", "chain_parties")
SETUP_RUNS = 3
TIME_LIMIT_S = 170
# One BLAS thread: ops run one at a time, and on a 2-core x86-64 VM with
# OpenBLAS 0.3.31 a second thread turns small products into scheduler waits
# (qcp_from_channel then nonlinear_lift at d=8: 1.2 ms with one thread, 40 ms
# with two). Only the largest chains gain from two (n_nonlinear_lift at d=2,
# N=10: 0.70 s with one, 0.43 s with two). One is the setting at which runs
# are steady.
BLAS_THREADS = "1"
# Inherited variables that would change what a child imports or compiles.
DROPPED_VARS = ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX", "PYTHONSTARTUP",
                "PYTHONOPTIMIZE", "PYTHONDEVMODE", "PYTHONWARNINGS", "PYTHONMALLOC",
                "LIFTLAB_SEED", "SOURCE_DATE_EPOCH")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def pinned_env(root: str) -> dict:
    """The environment of every worker and CLI child: BLAS threads pinned,
    liftlab from the checkout, nothing inherited that changes imports."""
    env = {k: v for k, v in os.environ.items() if k not in DROPPED_VARS}
    env.update({var: BLAS_THREADS for var in BLAS_VARS})
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def tail(values: list[float]) -> tuple[float, int]:
    """The highest percentile with at least ten samples beyond it, and its
    0-based rank. Below eleven samples it is the maximum."""
    xs = sorted(values)
    k = len(xs) - 11 if len(xs) >= 11 else len(xs) - 1
    return xs[k], k


def end_to_end(rec: dict, setups: list[float]) -> dict:
    ops = rec["records"]
    lats = [r["lat"] for r in ops]
    ok = sum(r["ok"] for r in ops)
    tail_s, k = tail(lats)
    n = len(ops)
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s", "n": len(setups), "note": "median of set-ups"},
        "op_p50_s": {"value": statistics.median(lats), "unit": "s", "n": n},
        "op_tail_s": {"value": tail_s, "unit": "s", "n": n, "percentile": round(100.0 * (k + 1) / n, 2),
                      "beyond": n - k - 1},
        "ops_per_s": {"value": ok / rec["timed_wall_s"], "unit": "1/s", "n": n,
                      "note": f"{ok} correct ops over {rec['timed_wall_s']:.3f} s, checks excluded"},
        "cpu_per_op_s": {"value": sum(r["cpu"] for r in ops) / n, "unit": "s", "n": n},
        "fail_ratio": {"value": (n - ok) / n, "unit": "ratio", "n": n, "note": f"{n - ok} of {n} failed"},
        "peak_rss_mib": {"value": rec["peak_rss_kib"] / 1024.0, "unit": "MiB", "n": 1},
    }


LAYER_UNITS = {"calls": "count", "bytes_in": "B", "bytes_out": "B", "d_exp": "1",
               "N_growth": "ratio", "overhead_ratio": "ratio", "spans_per_op": "count"}


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    return "s" if last.endswith("_s") else LAYER_UNITS[last]


def by_kind(ops: list[dict]) -> dict:
    kinds: dict[str, list] = {}
    for r in ops:
        kinds.setdefault(r["kind"], []).append(r)
    return {k: {"n": len(v), "p50_s": statistics.median(r["lat"] for r in v),
                "failed": sum(not r["ok"] for r in v), "error_class": v[0]["error_class"],
                "why": next((r["why"] for r in v if not r["ok"]), None)}
            for k, v in sorted(kinds.items())}


def spawn(script_args: list[str], env: dict, root: str, deadline: float) -> dict:
    out = script_args[script_args.index("--out") + 1]
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *script_args,
           "--spawned-at", repr(time.perf_counter())]
    # Own session, so a worker that overruns is killed with its CLI children.
    proc = subprocess.Popen(cmd, env=env, cwd=root, start_new_session=True)
    try:
        code = proc.wait(timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise SystemExit("worker overran the time limit") from None
    if code != 0:
        raise SystemExit(f"worker exited with {code}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "liftlab", "__init__.py")):
        print("error: run from the root of a liftlab checkout (src/liftlab not found)", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)

    env = pinned_env(root)
    work = os.path.join(root, ".perfbench_work", str(os.getpid()))
    base = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
    try:
        setups = []
        for i in range(SETUP_RUNS - 1):
            d = os.path.join(work, f"setup{i}")
            os.makedirs(d)
            setups.append(spawn([*base, "--workdir", d, "--out", os.path.join(work, f"setup{i}.json"),
                                 "--setup-only"], env, root, deadline)["setup_s"])
            shutil.rmtree(d)
        d = os.path.join(work, "run")
        os.makedirs(d)
        rec = spawn([*base, "--workdir", d, "--out", os.path.join(work, "run.json")], env, root, deadline)
        setups.append(rec["setup_s"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = rec["records"]
    failed_valid = sum(not r["ok"] and r["error_class"] is None for r in ops)
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "passes": rec["passes"], "nproc": os.cpu_count(), "python": sys.version.split()[0],
        "blas": rec["blas"], "setup_runs": setups, "import_s": rec["import_s"],
        "warmup_failures": rec["warmup_failures"], "kinds": by_kind(ops),
    }
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  passes {rec['passes']}  "
          f"nproc {result['nproc']}  python {result['python']}  numpy {rec['blas']['numpy']}  "
          f"BLAS {rec['blas']['name']} {rec['blas']['version']}  threads {rec['blas']['threads_effective']}")
    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k), "n": rec["traced_ops"]}
                   for k, v in sorted(rec["layers"].items())}
        wanted = declared["per_layer"]
        result["layers"] = metrics
    else:
        metrics = end_to_end(rec, setups)
        wanted = declared["end_to_end"]
        result["metrics"] = metrics
    for name, m in metrics.items():
        extra = "  ".join(f"{k}={v}" for k, v in m.items() if k not in ("value", "unit"))
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:38s} {value:>12s} {m['unit']:6s} {extra}")
    errors = [r for r in ops if r["error_class"] is not None]
    if errors:
        print(f"  error-path ops: {sum(r['ok'] for r in errors)} of {len(errors)} ended with the README's exit code")
    for kind, k in result["kinds"].items():
        if k["failed"]:
            print(f"  FAILED {k['failed']}/{k['n']} {kind}: {k['why']}")

    out = args.out or os.path.join(HERE, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)

    line = {}
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None or got["value"] is None or got["unit"] != m["unit"]:
            print(f"error: metric {m['name']} was not measured in {m['unit']}", file=sys.stderr)
            return 1
        line[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": failed_valid == 0, "attempted": len(ops),
                      "failed": sum(not r["ok"] for r in ops), "metrics": line}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
