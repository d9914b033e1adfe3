#!/usr/bin/env python3
"""Compare the benchmark results of two commits.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file is a result set written by ``perfbench/run.py``
(``.perfbench_out/results-<src>.jsonl``; one line per run).  For every
workload and end-to-end metric this prints each side's median and
quartiles, the ratio new/base, and a verdict:

- ``improved``: at least 10 pairs, the new side wins at least 9 in 10 of
  them (ties count for neither), and the medians differ, in the better
  direction, by more than the base's interquartile range;
- ``worse``: the new median is worse than the base median by more than the
  metric's bound in BENCHMARK.json;
- ``unresolved``: either side's interquartile range, as a share of its
  median, exceeds the bound, and not every new run beats every base run;
- ``no worse``: otherwise.

Runs pair up in seed order.  Failed operations are compared separately, as
counts, since a gain does not count when more operations fail.  Exits 1
when any verdict is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    """Verdict for one metric; ``base`` and ``new`` are paired by index."""
    if len(base) < 2 or len(new) < 2:
        return "unresolved"
    sign = 1.0 if better == "lower" else -1.0   # sign * value: smaller is better
    bq1, bmed, bq3 = quartiles(base)
    nq1, nmed, nq3 = quartiles(new)
    pairs = list(zip(base, new))
    wins = sum(sign * n < sign * b for b, n in pairs)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and sign * (bmed - nmed) > bq3 - bq1):
        return "improved"
    if sign * (nmed - bmed) > bound * abs(bmed):
        return "worse"
    every_run_better = max(sign * v for v in new) < min(sign * v for v in base)
    if max((bq3 - bq1) / abs(bmed), (nq3 - nq1) / abs(nmed)) > bound and not every_run_better:
        return "unresolved"
    return "no worse"


def load(path: Path) -> dict[str, list[dict]]:
    """Untraced, correct runs by workload, in seed order."""
    runs: dict[str, list[dict]] = defaultdict(list)
    for line in path.read_text().splitlines():
        record = json.loads(line)
        if record["trace"] == 0 and record["correct"]:
            runs[record["workload"]].append(record)
    for records in runs.values():
        records.sort(key=lambda r: r["seed"])
    return runs


def compare(base_path: Path, new_path: Path, out=sys.stdout) -> bool:
    """Print the comparison; True when no verdict is ``worse``."""
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    base, new = load(base_path), load(new_path)
    ok = True
    for workload in sorted(set(base) & set(new)):
        b_runs, n_runs = base[workload], new[workload]
        print(f"{workload}: {len(b_runs)} base runs, {len(n_runs)} new runs", file=out)
        for m in metrics:
            b = [r["metrics"][m["name"]]["value"] for r in b_runs]
            n = [r["metrics"][m["name"]]["value"] for r in n_runs]
            v = verdict(b, n, m["better"], m["bound"])
            ok &= v != "worse"
            bq, nq = quartiles(b), quartiles(n)
            print(f"  {m['name']:<12} base {bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}] "
                  f"new {nq[1]:.6g} [{nq[0]:.6g}, {nq[2]:.6g}] {m['unit']}  "
                  f"new/base {nq[1] / bq[1]:.4f} (base {bq[1]:.6g})  "
                  f"bound {m['bound']:.0%}: {v}", file=out)
        fails = [(sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs))
                 for runs in (b_runs, n_runs)]
        more = fails[1][0] / fails[1][1] > fails[0][0] / fails[0][1]
        print(f"  failed       base {fails[0][0]}/{fails[0][1]} new {fails[1][0]}/{fails[1][1]}"
              + ("  (more failures: no gain counts)" if more else ""), file=out)
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="result set of the parent commit")
    parser.add_argument("new", type=Path, help="result set of the change")
    args = parser.parse_args(argv)
    return 0 if compare(args.base, args.new) else 1


if __name__ == "__main__":
    sys.exit(main())
