"""Closed forms of the cluster model.

The arithmetic of one consensus round, and the capacity it bounds, stated
once on a :class:`~chaincap.chainsim.ClusterConfig`.  The simulator runs
the round inline in its block loop; the write search aims two of its
probes at :func:`capacity_bound`, and the read capacity is that bound
less the search tolerance.  This module is plain Python and imports no
numpy.

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


def round_base_ms(cluster: ClusterConfig, proposer: int) -> float:
    """The part of a round that depends only on the proposer, in milliseconds.

    Three one-way hops at the quorum-th smallest peer latency, plus handling
    of the round's messages.
    """
    n = cluster.node_count
    peers = sorted(cluster.one_way_ms(proposer, b) for b in range(n) if b != proposer)
    hop_ms = peers[quorum(n) - 1]
    # one pre-prepare broadcast (N) plus all-to-all prepare and commit (N^2 each)
    msg_ms = cluster.msg_proc_us * (2 * n * n + n) / 1000.0
    return 3.0 * hop_ms + msg_ms


def consensus_round_latency(cluster: ClusterConfig, block_fill: int, pool_depth: int,
                            proposer: int = 0) -> float:
    """Wall-clock milliseconds for one three-phase round.

    ``round_base_ms`` plus block execution and the proposer's pool scan.
    Monotone non-decreasing in block_fill and pool_depth.  ``block_fill``
    must not exceed ``block_tx_capacity``, unchecked.
    """
    exec_ms = cluster.write_exec_us * block_fill / 1000.0
    scan_ms = cluster.pool_scan_cost_us_per_tx * pool_depth / 1000.0
    return round_base_ms(cluster, proposer) + exec_ms + scan_ms


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
    round_ms = math.fsum(consensus_round_latency(cluster, full, full, p)
                         for p in range(cluster.node_count)) / cluster.node_count
    return full * 1000.0 / max(cluster.block_interval_ms, round_ms)
