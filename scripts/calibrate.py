#!/usr/bin/env python3
"""Tune the default cluster profile against the capacity targets.

Targets: the 4-node write and multi-node read capacities of the shipped
reference endpoints, src/chaincap/data/paper.json, both under Poisson
arrivals.  The script searches ``write_exec_us`` and ``read_service_us``
(all other knobs fixed at the ``ClusterConfig`` field defaults in
src/chaincap/chainsim.py) so that ``bench.find_max_lambda``, run as the
``capacity`` command runs it, lands within 2% of each target, then prints the
values to freeze into the profile.  The shipped profile is measured first: a
knob whose capacity is already within 2% is printed unchanged, and only the
others are bisected.

Usage: python3 scripts/calibrate.py [--duration 60] [--seed 0]

Exits 0 when done, 2 on a bad argument and 3 when a search finds no steady
operating point, each failure with one ``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from chaincap.arrival import TxKind
from chaincap.bench import CapacityProfile, find_max_lambda
from chaincap.chainsim import default_cluster
from chaincap.cli import PAPER_CAPACITY_PATH
from chaincap.errors import ChaincapError

REL_TOL = 0.02


def measure(cluster, kind, duration, seed):
    """The capacity search of ``capacity --kind <kind>``, with its defaults."""
    return find_max_lambda(cluster, kind, duration_s=duration, base_seed=seed)


def tune(base, field, kind, target, duration, seed, lo, hi, iters=20):
    """Keep ``base``'s cost knob if its capacity is within REL_TOL of the target,
    else bisect it in [lo, hi]: capacity is monotone decreasing in every cost."""
    value = getattr(base, field)
    cap = measure(base, kind, duration, seed)
    print(f"  {field}={value:.3f} -> capacity {cap:.1f}")
    for _ in range(iters):
        if abs(cap - target) / target <= REL_TOL:
            break
        if cap > target:
            lo = value  # too fast, raise the cost
        else:
            hi = value
        value = 0.5 * (lo + hi)
        cap = measure(replace(base, **{field: value}), kind, duration, seed)
        print(f"  {field}={value:.3f} -> capacity {cap:.1f}")
    return value, cap


def calibrate(duration: float, seed: int) -> None:
    """Tune both knobs and print the values to freeze."""
    paper = CapacityProfile.from_json_dict(json.loads(PAPER_CAPACITY_PATH.read_text()))
    write_target, read_target = paper.max_lambda_write, paper.max_lambda_read
    base = default_cluster()
    print(f"baseline profile: write_exec_us={base.write_exec_us}, "
          f"read_service_us={base.read_service_us}")

    print("tuning write_exec_us for write capacity ~%.0f ..." % write_target)
    write_exec, write_cap = tune(base, "write_exec_us", TxKind.WRITE, write_target,
                                 duration, seed, lo=100.0, hi=1500.0)

    print("tuning read_service_us for read capacity ~%.0f ..." % read_target)
    read_service, read_cap = tune(base, "read_service_us", TxKind.READ, read_target,
                                  duration, seed, lo=100.0, hi=400.0)

    print("\nfreeze into the ClusterConfig defaults in src/chaincap/chainsim.py:")
    print(f"  write_exec_us = {write_exec:.1f}   (capacity {write_cap:.1f})")
    print(f"  read_service_us = {read_service:.1f}   (capacity {read_cap:.1f})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--duration", type=float, default=60.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    try:
        calibrate(args.duration, args.seed)
    except ChaincapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
