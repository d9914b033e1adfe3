"""The closed forms of ``chaincap.model`` against hand arithmetic and the simulator."""

import json
import math
import os
import statistics
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import chaincap
from chaincap.arrival import ArrivalKind, TxKind
from chaincap.bench import BOUND_MARGIN, run_trial
from chaincap.chainsim import default_cluster, load_cluster
from chaincap.model import capacity_bound, consensus_round_latency, round_bases_ms

ASYMMETRIC_CLUSTER = Path(__file__).parent / "data" / "asymmetric_cluster.ini"


def asymmetric_cluster():
    return load_cluster(ASYMMETRIC_CLUSTER.read_text())


@pytest.mark.parametrize("node_count,bound", [
    (4, 1375.2), (5, 1279.7), (6, 1180.4), (7, 1081.9), (8, 987.3), (9, 898.6), (10, 816.8),
])
def test_write_bound_by_node_count(node_count, bound):
    cluster = replace(default_cluster(), node_count=node_count)
    assert round(capacity_bound(cluster, TxKind.WRITE), 1) == bound


def test_write_bound_averages_the_round_over_proposers():
    # per-pair RTTs give each proposer its own round; a full block's round
    # adds execution and the scan of a pool of one full block
    cluster = asymmetric_cluster()
    bases = round_bases_ms(cluster)
    assert len(set(bases)) == 4
    round_ms = sum(bases) / 4 + (537.3 + 19.73) * 700 / 1000
    assert capacity_bound(cluster, TxKind.WRITE) == pytest.approx(700_000 / round_ms, rel=1e-12)
    assert round(capacity_bound(cluster, TxKind.WRITE), 1) == 1353.5


def fmean_write_bound(cluster):
    """The write bound with the round averaged by ``statistics.fmean``."""
    full = cluster.block_tx_capacity
    round_ms = statistics.fmean(consensus_round_latency(cluster, full, full, p)
                                for p in range(cluster.node_count))
    return full * 1000.0 / max(cluster.block_interval_ms, round_ms)


@pytest.mark.parametrize("cluster", [
    *(replace(default_cluster(), node_count=n) for n in (*range(4, 11), 1000)),
    asymmetric_cluster(),
    replace(default_cluster(), block_interval_ms=2000.0),
], ids=[*(f"nodes-{n}" for n in (*range(4, 11), 1000)), "asymmetric", "paced"])
def test_write_bound_equals_the_fmean_of_the_rounds_bit_for_bit(cluster):
    # the model sums with math.fsum and divides by N, as fmean does, without
    # importing statistics
    assert capacity_bound(cluster, TxKind.WRITE).hex() == fmean_write_bound(cluster).hex()


@pytest.mark.parametrize("node_count", [4, 7, 10])
def test_a_constant_rtt_matrix_gives_the_bases_of_rtt_ms(node_count):
    cluster = replace(default_cluster(), node_count=node_count)
    matrix = tuple(tuple(0.0 if a == b else cluster.rtt_ms for b in range(node_count))
                   for a in range(node_count))
    bases = round_bases_ms(cluster)
    assert len(bases) == node_count
    assert [b.hex() for b in round_bases_ms(replace(cluster, rtt_matrix_ms=matrix))] == \
        [b.hex() for b in bases]


def test_the_bound_sorts_no_peers_without_a_matrix(monkeypatch):
    # every peer is rtt_ms / 2 away, so no proposer's peers need sorting
    def no_sort(*args, **kwargs):
        raise AssertionError("a profile without a matrix sorted its peers")
    cluster = replace(default_cluster(), node_count=1000)
    monkeypatch.setattr(chaincap.model, "sorted", no_sort, raising=False)
    # 45 ms of hops, 4002 s of messages, and a full block's execution and scan
    round_ms = 45.0 + 2000.0 * (2 * 1000**2 + 1000) / 1000 + 378.0 + 14.0
    assert capacity_bound(cluster, TxKind.WRITE) == pytest.approx(700_000 / round_ms, rel=1e-12)


def test_write_bound_is_paced_by_a_longer_block_interval():
    # a full round takes 509 ms; a 2 s interval carries one block per interval
    cluster = replace(default_cluster(), block_interval_ms=2000.0)
    assert capacity_bound(cluster, TxKind.WRITE) == 350.0


@pytest.mark.parametrize("read_mode,bound", [("multi", 4e6 / 195), ("single", 1e6 / 195)])
def test_read_bound_is_the_service_rate(read_mode, bound):
    cluster = replace(default_cluster(), read_mode=read_mode)
    assert capacity_bound(cluster, TxKind.READ) == bound


@pytest.mark.parametrize("read_mode", ["multi", "single"])
def test_reads_that_take_no_time_are_unbounded(read_mode):
    cluster = replace(default_cluster(), read_service_us=0.0, read_mode=read_mode)
    assert capacity_bound(cluster, TxKind.READ) == math.inf


@pytest.mark.parametrize("cluster,kind", [
    (default_cluster(), TxKind.WRITE),
    (replace(default_cluster(), node_count=7), TxKind.WRITE),
    (replace(default_cluster(), block_tx_capacity=70), TxKind.WRITE),
    (asymmetric_cluster(), TxKind.WRITE),
    (default_cluster(), TxKind.READ),
    (replace(default_cluster(), read_mode="single"), TxKind.READ),
    (asymmetric_cluster(), TxKind.READ),
], ids=["write-4", "write-7", "write-small-blocks", "write-asymmetric", "read-multi",
        "read-single", "read-asymmetric"])
def test_simulator_is_steady_below_the_bound_and_not_above(cluster, kind):
    # evenly spaced arrivals carry no noise, so the margin decides each verdict
    bound = capacity_bound(cluster, kind)
    for factor, steady in ((1.0 - BOUND_MARGIN, True), (1.0 + BOUND_MARGIN, False)):
        trial = run_trial(cluster, kind, ArrivalKind.DETERMINISTIC, bound * factor, 20.0,
                          seed=0)
        assert trial.steady is steady, factor


def test_import_loads_no_numpy_and_no_simulator():
    src = Path(chaincap.__file__).resolve().parents[1]
    code = ("import json, sys\nimport chaincap.model\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('numpy.')"
            " or m == 'chaincap.chainsim')))")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120, check=True)
    assert json.loads(proc.stdout) == []
