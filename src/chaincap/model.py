"""Closed forms of the cluster model.

The arithmetic of one consensus round, and the capacity it bounds, stated
once on a :class:`~chaincap.chainsim.ClusterConfig`.  The block loop reads
each proposer's fixed part from :func:`round_bases_ms` and runs the rest
inline; the write search aims two probes at :func:`capacity_bound`, and the
read capacity is that bound less the search tolerance; no numpy is imported.

Message handling is charged in two ways that do not agree.  A round's
latency charges ``msg_proc_us * (2N^2 + N)``, every message of the round
(72 ms at N = 4 on the shipped profile); the simulator's cpu table charges
each node ``msg_proc_us * 2N`` per block (16 ms).  The model means the
round's charge: the calibrated endpoints rest on it, and no verdict reads
the cpu table.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .arrival import TxKind

if TYPE_CHECKING:
    from .chainsim import ClusterConfig


def quorum(node_count: int) -> int:
    """BFT quorum 2f + 1 of N validators, with f = floor((N-1)/3) faulty."""
    return 2 * ((node_count - 1) // 3) + 1


def round_bases_ms(cluster: ClusterConfig) -> list[float]:
    """Each proposer's part of a round that depends on nothing else, in ms.

    Three one-way hops at the quorum-th smallest peer latency, plus handling
    of the round's messages; without an ``[rtt_matrix]`` all are one value.
    """
    n = cluster.node_count
    # one pre-prepare broadcast (N) plus all-to-all prepare and commit (N^2 each)
    msg_ms = cluster.msg_proc_us * (2 * n * n + n) / 1000.0
    if cluster.rtt_matrix_ms is None:
        return [3.0 * (cluster.rtt_ms / 2.0) + msg_ms] * n
    # halving is monotone, so it may follow the sort
    return [3.0 * (sorted(row[:p] + row[p + 1:])[quorum(n) - 1] / 2.0) + msg_ms
            for p, row in enumerate(cluster.rtt_matrix_ms)]


def _round_ms(cluster: ClusterConfig, base_ms: float, block_fill: int, pool_depth: int) -> float:
    return (base_ms + cluster.write_exec_us * block_fill / 1000.0
            + cluster.pool_scan_cost_us_per_tx * pool_depth / 1000.0)


def consensus_round_latency(cluster: ClusterConfig, block_fill: int, pool_depth: int,
                            proposer: int = 0) -> float:
    """Wall-clock milliseconds for one three-phase round.

    The proposer's ``round_bases_ms`` plus block execution and its pool
    scan.  Monotone non-decreasing in block_fill and pool_depth.
    ``block_fill`` must not exceed ``block_tx_capacity``, unchecked.
    """
    return _round_ms(cluster, round_bases_ms(cluster)[proposer], block_fill, pool_depth)


def capacity_bound(cluster: ClusterConfig, kind: TxKind) -> float:
    """The fluid limit of the arrival rate the cluster sustains, per second.

    Reads: the service rate of the nodes that serve them, ``read_servers``
    / read service time; inf when a read takes no time, or so little that
    the rate overflows.  Writes: a full block of B per block cycle, where
    the cycle is the longer of the block interval and a full round with a
    pool of B, averaged over proposers (the next proposal waits for both).
    """
    if kind is TxKind.READ:
        if cluster.read_service_us == 0:
            return math.inf
        return cluster.read_servers * 1e6 / cluster.read_service_us
    full = cluster.block_tx_capacity
    round_ms = math.fsum(_round_ms(cluster, base, full, full)
                         for base in round_bases_ms(cluster)) / cluster.node_count
    return full * 1000.0 / max(cluster.block_interval_ms, round_ms)
