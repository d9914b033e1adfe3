"""The closed forms of ``chaincap.model`` against hand arithmetic and the simulator."""

import json
import math
import os
import statistics
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import chaincap
from chaincap.arrival import SEED_LIMIT, ArrivalKind, ArrivalProcess, TxKind, generate_events
from chaincap.bench import (
    BOUND_MARGIN,
    SEARCH_TOLERANCE,
    STEADY_TOLERANCE,
    WARMUP_FRACTION,
    WINDOW_S,
    run_trial,
)
from chaincap.chainsim import default_cluster, load_cluster, run
from chaincap.model import (
    block_cycles_ms,
    capacity_bound,
    consensus_round_latency,
    round_bases_ms,
)

from test_chainsim import cluster_profiles, loop_proposal_times

ASYMMETRIC_CLUSTER = Path(__file__).parent / "data" / "asymmetric_cluster.ini"


def asymmetric_cluster():
    return load_cluster(ASYMMETRIC_CLUSTER.read_text())


def straddling_cluster(block_interval_ms):
    """The shipped profile with proposers 1 and 2 200 ms from node 3: bases of
    72, 372, 372 and 72 ms and full rounds of 464 and 764 ms, so an interval
    between them paces proposers 0 and 3 alone."""
    near, far = (0.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 200.0)
    return replace(default_cluster(), block_interval_ms=block_interval_ms,
                   rtt_matrix_ms=(near, far, far, near))


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


def test_write_bound_averages_each_proposers_cycle():
    # proposers 0 and 3 wait out the 600 ms interval; 1 and 2 run 764 ms rounds
    cluster = straddling_cluster(600.0)
    assert block_cycles_ms(cluster, 700) == [600.0, 764.0, 764.0, 600.0]
    assert capacity_bound(cluster, TxKind.WRITE) == 700_000 / ((600 + 764 + 764 + 600) / 4)
    assert round(capacity_bound(cluster, TxKind.WRITE), 2) == 1026.39


def fmean_write_bound(cluster):
    """The write bound with each proposer's cycle, the longer of the interval
    and its full round, averaged by ``statistics.fmean``."""
    full = cluster.block_tx_capacity
    cycle_ms = statistics.fmean(
        max(cluster.block_interval_ms, consensus_round_latency(cluster, full, full, p))
        for p in range(cluster.node_count))
    return full * 1000.0 / cycle_ms


@pytest.mark.parametrize("cluster", [
    *(replace(default_cluster(), node_count=n) for n in (*range(4, 11), 1000)),
    asymmetric_cluster(),
    replace(default_cluster(), block_interval_ms=2000.0),
    straddling_cluster(600.0),
], ids=[*(f"nodes-{n}" for n in (*range(4, 11), 1000)), "asymmetric", "paced", "straddling"])
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


@settings(max_examples=50, deadline=None)
@given(cluster=cluster_profiles(), interval_ms=st.floats(20.0, 1500.0), load=st.floats(0.0, 1.5),
       seed=st.integers(0, SEED_LIMIT - 1))
@example(cluster=straddling_cluster(600.0), interval_ms=600.0, load=1.0, seed=0)
def test_each_block_cycle_is_the_models(cluster, interval_ms, load, seed):
    # block k's proposer, k mod N, saw a pool of depths[k], and the next
    # proposal follows it by that proposer's cycle at that depth; the loop
    # adds the same cycle in s to the proposal time, which rounds by half an
    # ulp of the time, and so does the difference taken here
    cluster = replace(cluster, block_interval_ms=interval_ms)
    rate = load * capacity_bound(cluster, TxKind.WRITE)
    events = generate_events(ArrivalProcess(ArrivalKind.POISSON, rate, seed), TxKind.WRITE, 10.0)
    timeline = run(cluster, events, horizon=10.0)
    proposed = loop_proposal_times(cluster, timeline)
    gaps = np.diff(proposed)
    for k, depth in enumerate(timeline.depths.tolist()):
        cycle_s = block_cycles_ms(cluster, depth)[k % cluster.node_count] / 1000.0
        assert abs(gaps[k] - cycle_s) <= 2 * np.finfo(np.float64).eps * proposed[k + 1], (
            f"block {k} at depth {depth}: the loop's cycle is {gaps[k]!r} s, the model's "
            f"{cycle_s!r} s")


@pytest.mark.parametrize("read_mode,bound", [("multi", 4e6 / 195), ("single", 1e6 / 195)])
def test_read_bound_is_the_service_rate(read_mode, bound):
    cluster = replace(default_cluster(), read_mode=read_mode)
    assert capacity_bound(cluster, TxKind.READ) == bound


@pytest.mark.parametrize("read_mode", ["multi", "single"])
def test_reads_that_take_no_time_are_unbounded(read_mode):
    cluster = replace(default_cluster(), read_service_us=0.0, read_mode=read_mode)
    assert capacity_bound(cluster, TxKind.READ) == math.inf


# Proposers whose rounds straddle the interval run 60 s.  Over 20 s the block
# of 700 writes still in flight at the horizon is about 3.6% of the writes
# after warm-up, which alone reads the 500 ms case's lower trial as unsteady,
# and the 700 ms case's upper trial reads steady.
STRADDLING_INTERVALS_MS = (500.0, 550.0, 600.0, 700.0)


@pytest.mark.parametrize("cluster,kind,duration_s", [
    (default_cluster(), TxKind.WRITE, 20.0),
    (replace(default_cluster(), node_count=7), TxKind.WRITE, 20.0),
    (replace(default_cluster(), block_tx_capacity=70), TxKind.WRITE, 20.0),
    (asymmetric_cluster(), TxKind.WRITE, 20.0),
    *((straddling_cluster(interval), TxKind.WRITE, 60.0)
      for interval in STRADDLING_INTERVALS_MS),
    (default_cluster(), TxKind.READ, 20.0),
    (replace(default_cluster(), read_mode="single"), TxKind.READ, 20.0),
    (asymmetric_cluster(), TxKind.READ, 20.0),
], ids=["write-4", "write-7", "write-small-blocks", "write-asymmetric",
        *(f"write-straddling-{interval:.0f}ms" for interval in STRADDLING_INTERVALS_MS),
        "read-multi", "read-single", "read-asymmetric"])
def test_simulator_is_steady_below_the_bound_and_not_above(cluster, kind, duration_s):
    # evenly spaced arrivals carry no noise, so the margin decides each verdict
    bound = capacity_bound(cluster, kind)
    for factor, steady in ((1.0 - BOUND_MARGIN, True), (1.0 + BOUND_MARGIN, False)):
        trial = run_trial(cluster, kind, ArrivalKind.DETERMINISTIC, bound * factor,
                          duration_s, seed=0)
        assert trial.steady is steady, factor


# The read capacity is the closed form, so the simulator must agree with it
# under Poisson arrivals: (1 - SEARCH_TOLERANCE) x bound steady and
# (1 + BOUND_MARGIN) x bound not.  Past the bound the served rate stays at it,
# 1 - 1/1.03 = 2.9% short of the offered rate, outside the band; below it the
# served rate is the arrivals' own, whose Poisson noise over n post-warm-up
# arrivals is 1/sqrt(n).  NOISE_SIGMAS of it fit in the band once
# n >= (NOISE_SIGMAS / STEADY_TOLERANCE)^2, which sets the smallest bound drawn.
READ_PROBE_S = 20.0
NOISE_SIGMAS = 5
POST_WARMUP_S = READ_PROBE_S - int(READ_PROBE_S / WINDOW_S * WARMUP_FRACTION) * WINDOW_S
MIN_READ_BOUND = ((NOISE_SIGMAS / STEADY_TOLERANCE) ** 2
                  / ((1.0 - SEARCH_TOLERANCE) * POST_WARMUP_S))
# the largest keeps an example near 0.1 s; the shipped profile's is 20512.8
MAX_READ_BOUND = 25_000.0


@st.composite
def read_profiles(draw):
    """The shipped profile with 4 to 10 nodes, either read mode, and a read
    service time whose bound lies in [MIN_READ_BOUND, MAX_READ_BOUND]."""
    cluster = replace(default_cluster(), node_count=draw(st.integers(4, 10)),
                      read_mode=draw(st.sampled_from(["multi", "single"])))
    servers_us = cluster.read_servers * 1e6
    return replace(cluster, read_service_us=draw(
        st.floats(servers_us / MAX_READ_BOUND, servers_us / MIN_READ_BOUND)))


@settings(max_examples=30, deadline=None)
@given(cluster=read_profiles(), seed=st.integers(0, SEED_LIMIT - 1))
@example(cluster=default_cluster(), seed=0)
def test_simulator_serves_the_read_capacity_and_not_past_the_bound(cluster, seed):
    bound = capacity_bound(cluster, TxKind.READ)
    assert MIN_READ_BOUND * (1 - 1e-12) <= bound <= MAX_READ_BOUND * (1 + 1e-12)
    for factor, steady in ((1.0 - SEARCH_TOLERANCE, True), (1.0 + BOUND_MARGIN, False)):
        trial = run_trial(cluster, TxKind.READ, ArrivalKind.POISSON, bound * factor,
                          READ_PROBE_S, seed=seed)
        assert trial.steady is steady, (factor, trial.mean_tps)


def test_import_loads_no_numpy_and_no_simulator():
    src = Path(chaincap.__file__).resolve().parents[1]
    code = ("import json, sys\nimport chaincap.model\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('numpy.')"
            " or m == 'chaincap.chainsim')))")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120, check=True)
    assert json.loads(proc.stdout) == []
