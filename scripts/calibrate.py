#!/usr/bin/env python3
"""Tune the default cluster profile against the capacity targets.

Targets (4 nodes): write capacity ~1400 tx/s, multi-node read capacity
~20500 tx/s, both under Poisson arrivals.  The script searches
``write_exec_us`` and ``read_service_us`` (all other knobs fixed at the
``ClusterConfig`` field defaults in src/chaincap/chainsim.py) so that
``bench.find_max_lambda`` lands within 2% of each target, then prints the
values to freeze into the profile.

Usage: python3 scripts/calibrate.py [--duration 60] [--seed 0]
"""

from __future__ import annotations

import argparse
from dataclasses import replace

from chaincap.arrival import ArrivalKind, TxKind
from chaincap.bench import find_max_lambda
from chaincap.chainsim import default_cluster

WRITE_TARGET = 1400.0
READ_TARGET = 20500.0
REL_TOL = 0.02


def measure(cluster, kind, duration, seed, start):
    return find_max_lambda(cluster, kind, ArrivalKind.POISSON, tolerance=0.005,
                           duration_s=duration, base_seed=seed, start=start)


def tune(base, field, kind, target, duration, seed, start, lo, hi, iters=20):
    """Bisect a cost knob: capacity is monotone decreasing in every cost."""
    best = None
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        cap = measure(replace(base, **{field: mid}), kind, duration, seed, start)
        print(f"  {field}={mid:.3f} -> capacity {cap:.1f}")
        best = (mid, cap)
        if abs(cap - target) / target <= REL_TOL:
            break
        if cap > target:
            lo = mid  # too fast, raise the cost
        else:
            hi = mid
    return best


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--duration", type=float, default=60.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    base = default_cluster()
    print(f"baseline profile: write_exec_us={base.write_exec_us}, "
          f"read_service_us={base.read_service_us}")

    print("tuning write_exec_us for write capacity ~%.0f ..." % WRITE_TARGET)
    write_exec, write_cap = tune(base, "write_exec_us", TxKind.WRITE, WRITE_TARGET,
                                 args.duration, args.seed, start=100.0,
                                 lo=100.0, hi=1500.0)

    print("tuning read_service_us for read capacity ~%.0f ..." % READ_TARGET)
    read_service, read_cap = tune(base, "read_service_us", TxKind.READ, READ_TARGET,
                                  args.duration, args.seed, start=1000.0,
                                  lo=100.0, hi=400.0)

    print("\nfreeze into the ClusterConfig defaults in src/chaincap/chainsim.py:")
    print(f"  write_exec_us = {write_exec:.1f}   (capacity {write_cap:.1f})")
    print(f"  read_service_us = {read_service:.1f}   (capacity {read_cap:.1f})")


if __name__ == "__main__":
    main()
