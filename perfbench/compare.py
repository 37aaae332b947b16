"""Compare two sets of benchmark result files.

    python3 perfbench/compare.py BASE CHANGE

BASE and CHANGE are result files written by run.py with --trace 0, or
directories of them: typically one run per seed and workload on the parent
commit and on the change, with the same seeds and --seconds. For each
workload and end-to-end metric it prints each side's median and quartiles
and a verdict under the bounds in BENCHMARK.json:

  regression   the change's median is worse than the base's by more than
               the bound
  unresolved   the base's own spread (quartile distance over median) is
               wider than the bound, and not every change run beats every
               base run
  gain         the change wins at least 9 of 10 seed-matched pairs (ties
               count for neither, at least 10 pairs) and the medians differ
               by more than the base's quartile distance
  better       the base spread is wider than the bound, but every change
               run beats every base run
  same         none of the above: within the bound

fail_ratio has no bound; its verdict is "more fail" when the change fails a
larger share of its ops than the base.
"""
from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path: str) -> dict:
    """{workload: {seed: metrics}} from a result file or a directory of them."""
    files = [path] if os.path.isfile(path) else sorted(
        os.path.join(path, f) for f in os.listdir(path) if f.endswith(".json"))
    out: dict[str, dict] = {}
    for f in files:
        with open(f, encoding="utf-8") as fh:
            rec = json.load(fh)
        if rec.get("trace") == 0:
            out.setdefault(rec["workload"], {})[rec["seed"]] = rec["metrics"]
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: dict, change: dict, better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    b, c = list(base.values()), list(change.values())
    bq1, bmed, bq3 = quartiles(b)
    cmed = statistics.median(c)
    if bmed == 0:
        return "same" if cmed == 0 else "unresolved"
    worse_by = sign * (cmed - bmed) / abs(bmed)
    spread = (bq3 - bq1) / abs(bmed)
    every_better = max(sign * x for x in c) < min(sign * x for x in b)
    if spread > bound:
        return "better" if every_better else "unresolved"
    if worse_by > bound:
        return "regression"
    seeds = sorted(set(base) & set(change))
    wins = sum(sign * change[s] < sign * base[s] for s in seeds)
    if len(seeds) >= 10 and wins >= 0.9 * len(seeds) and abs(cmed - bmed) > bq3 - bq1:
        return "gain"
    return "same"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    base, change = load(argv[0]), load(argv[1])
    worst = 0
    for workload in sorted(set(base) | set(change)):
        if workload not in base or workload not in change:
            print(f"{workload}: only on one side, not compared")
            continue
        b_runs, c_runs = base[workload], change[workload]
        print(f"{workload}: {len(b_runs)} base runs, {len(c_runs)} change runs, "
              f"{len(set(b_runs) & set(c_runs))} seed-matched pairs")
        print(f"  {'metric':14s} {'base median [q1, q3]':>34s} {'change median [q1, q3]':>34s}  verdict")
        for name in [*declared, "fail_ratio"]:
            b = {s: m[name]["value"] for s, m in b_runs.items()}
            c = {s: m[name]["value"] for s, m in c_runs.items()}
            if name == "fail_ratio":
                v = "more fail" if statistics.fmean(c.values()) > statistics.fmean(b.values()) else "ok"
                unit = "ratio"
            else:
                m = declared[name]
                v, unit = verdict(b, c, m["better"], m["bound"]), m["unit"]
            worst = max(worst, v in ("regression", "more fail"))
            cols = []
            for side in (b, c):
                q1, med, q3 = quartiles(list(side.values()))
                cols.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}] {unit}")
            print(f"  {name:14s} {cols[0]:>34s} {cols[1]:>34s}  {v}")
    return 1 if worst else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
