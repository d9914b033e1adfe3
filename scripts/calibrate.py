#!/usr/bin/env python3
"""Tune the default cluster profile against the capacity targets.

Targets: the 4-node write and multi-node read capacities of the shipped
reference endpoints, src/chaincap/data/paper.json.  Each endpoint calibrates
one closed form of ``model.capacity_bound``: the write endpoint the fluid
bound, a full block per block cycle, through ``write_exec_us``; the read
endpoint the nodes' service limit, N / read service time, through
``read_service_us``.  All other knobs stay at the ``ClusterConfig`` field
defaults in src/chaincap/chainsim.py.  A shipped knob whose bound lies within
2% of its target is printed unchanged; any other is solved so that its bound
meets the target.  No simulation runs, so the script takes no seed and prints
the same values on every run.

Usage: python3 scripts/calibrate.py

Exits 0 when done, 2 on any argument and 3 when a solved knob's bound misses
its target by more than 2% (as it does when the solved round falls below
``block_interval_ms``), each failure with one ``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from chaincap.arrival import TxKind
from chaincap.bench import CapacityProfile
from chaincap.chainsim import default_cluster
from chaincap.cli import PAPER_CAPACITY_PATH
from chaincap.errors import CalibrationError, ChaincapError
from chaincap.model import capacity_bound

REL_TOL = 0.02


def solve(cluster, field, kind, target):
    """The cost knob ``field`` at which ``capacity_bound`` is ``target``: 1/bound
    is affine in either knob (in ``write_exec_us`` while a full round outlasts
    ``block_interval_ms``), so its values at two points fix the line."""
    value = getattr(cluster, field)
    inv = 1.0 / capacity_bound(cluster, kind)
    slope = 1.0 / capacity_bound(replace(cluster, **{field: value + 1.0}), kind) - inv
    return value + (1.0 / target - inv) / slope


def calibrate() -> None:
    """Keep each knob whose bound is on target, solve any other; print the values."""
    paper = CapacityProfile.from_json_dict(json.loads(PAPER_CAPACITY_PATH.read_text()))
    base = default_cluster()
    print(f"baseline profile: write_exec_us={base.write_exec_us}, "
          f"read_service_us={base.read_service_us}")
    frozen = []
    for field, kind, target in (("write_exec_us", TxKind.WRITE, paper.max_lambda_write),
                                ("read_service_us", TxKind.READ, paper.max_lambda_read)):
        print(f"tuning {field} for {kind.value} capacity ~{target:.0f} ...")
        value = getattr(base, field)
        bound = capacity_bound(base, kind)
        print(f"  {field}={value:.3f} -> bound {bound:.1f}")
        if abs(bound - target) / target > REL_TOL:
            value = solve(base, field, kind, target)
            bound = capacity_bound(replace(base, **{field: value}), kind)
            print(f"  {field}={value:.3f} -> bound {bound:.1f}")
            if abs(bound - target) / target > REL_TOL:
                raise CalibrationError(
                    f"{field} = {value:.1f}, solved from capacity_bound for a target of "
                    f"{target:.0f}, gives bound {bound:.1f}, more than {REL_TOL:.0%} off")
        frozen.append(f"  {field} = {value:.1f}   (bound {bound:.1f})")

    print("\nfreeze into the ClusterConfig defaults in src/chaincap/chainsim.py:")
    print("\n".join(frozen))


def main(argv: list[str] | None = None) -> int:
    argparse.ArgumentParser(description=__doc__).parse_args(argv)
    try:
        calibrate()
    except ChaincapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
