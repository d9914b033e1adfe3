import math
from dataclasses import fields, replace
from functools import cached_property
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from chaincap.arrival import (
    DEFAULT_WRITE_PAYLOAD_BYTES,
    ArrivalKind,
    ArrivalProcess,
    EventStream,
    TxKind,
    generate_events,
)
from chaincap import chainsim
from chaincap.chainsim import (
    MAX_BLOCKS,
    MAX_NODES,
    MAX_CELLS,
    ClusterConfig,
    MetricsTimeline,
    _fifo_completions,
    check_run,
    default_cluster,
    load_cluster,
    read_config,
    run,
)
from chaincap.errors import InputError
from chaincap.model import capacity_bound, consensus_round_latency, quorum, round_bases_ms

ASYMMETRIC_CLUSTER = Path(__file__).parent / "data" / "asymmetric_cluster.ini"


class ReadServer:
    """Scalar oracle: FIFO read queues, one per node, constant service time."""

    def __init__(self, cluster: ClusterConfig):
        self._service_s = cluster.read_service_us * 1e-6
        self._busy_until = [0.0] * cluster.node_count

    def serve_read(self, node_id: int, arrival_s: float) -> float:
        """Queue one read at a node; returns its completion time in seconds."""
        done = max(arrival_s, self._busy_until[node_id]) + self._service_s
        self._busy_until[node_id] = done
        return done


def cpu_utilization(work_us: float, node_cpu_capacity: float, window_s: float) -> float:
    """Scalar oracle: fraction of one node's capacity used by ``work_us`` in a window."""
    if window_s <= 0:
        raise InputError(f"window must be > 0, got {window_s}")
    return min(1.0, work_us / (node_cpu_capacity * window_s * 1.0))


def window_widths(horizon: float, window_s: float, n_windows: int) -> list[float]:
    """Each window's width: ``window_s``, but a last window that ends more than
    1e-9 of a window past the horizon is cut there."""
    last = n_windows - 1
    partial = n_windows - horizon / window_s > 1e-9
    return [horizon - last * window_s if partial and w == last else window_s
            for w in range(n_windows)]


def reference_run(cluster: ClusterConfig, events: EventStream, horizon: float,
                  window_s: float = 1.0) -> SimpleNamespace:
    """Scalar oracle of ``run``, every series and total: one round per loop pass.

    Each block calls ``consensus_round_latency`` and adds its count, bytes,
    cpu share and pool scan into the window of its commit, in block order,
    and a non-empty block its writes' latency sum there: its fill x commit
    time less its arrivals, which add as the first plus ``np.add.reduce`` of
    the rest, ``np.add.reduceat``'s order.  A node's cpu
    work is its served reads times ``read_service_us``, plus the block
    shares, plus its own scans, each kept apart until the end.  Rates and
    cpu shares are per each window's width.
    """
    n_nodes = cluster.node_count
    n_windows = max(1, int(math.ceil(horizon / window_s - 1e-9)))
    widths = window_widths(horizon, window_s, n_windows)
    write_ts, read_ts = events.write_times, events.read_times

    def window_of(t: float) -> int:
        return min(n_windows - 1, int(t / window_s))

    committed_count = np.zeros(n_windows)
    committed_latency_sum = np.zeros(n_windows)
    served_count = np.zeros(n_windows, dtype=np.int64)
    served_latency_sum = np.zeros(n_windows)
    read_count = np.zeros((n_nodes, n_windows))
    share_us = np.zeros(n_windows)
    scan_us = np.zeros((n_nodes, n_windows))

    if cluster.read_mode == "single":
        assignment = np.zeros(read_ts.size, dtype=np.int64)
    else:
        assignment = np.arange(read_ts.size, dtype=np.int64) % n_nodes
    completions = np.empty(read_ts.size)
    for node in range(n_nodes):
        mask = assignment == node
        completions[mask] = _fifo_completions(read_ts[mask], cluster.read_service_us * 1e-6)
    served_reads = 0
    for node, arrival, done in zip(assignment, read_ts, completions):
        if done <= horizon:
            w = window_of(done)
            served_count[w] += 1
            served_latency_sum[w] += (done - arrival) * 1000.0
            read_count[node, w] += 1
            served_reads += 1

    i_commit = blocks = proposer = 0
    ledger: list[tuple[float, int]] = []    # (commit time, block bytes)
    commit_s, depths, fills = [], [], []    # one entry per committed block
    committed: list[tuple[float, int]] = []  # (commit time, committed total)
    t_prop = cluster.block_interval_ms / 1000.0
    while t_prop <= horizon + 1e-12:
        pool_depth = int(np.searchsorted(write_ts, t_prop, side="right")) - i_commit
        fill = min(cluster.block_tx_capacity, pool_depth)
        latency_ms = consensus_round_latency(cluster, fill, pool_depth, proposer)
        t_commit = t_prop + latency_ms / 1000.0
        if t_commit > horizon:
            break
        blocks += 1
        commit_s.append(t_commit)
        depths.append(pool_depth)
        fills.append(fill)
        ledger.append((t_commit, cluster.empty_block_bytes + DEFAULT_WRITE_PAYLOAD_BYTES * fill))
        w = window_of(t_commit)
        if fill:
            arrivals = write_ts[i_commit:i_commit + fill]
            committed_count[w] += fill
            committed_latency_sum[w] += (fill * t_commit
                                         - (arrivals[0] + np.add.reduce(arrivals[1:]))) * 1000.0
            i_commit += fill
        share_us[w] += cluster.write_exec_us * fill + cluster.msg_proc_us * 2 * n_nodes
        scan_us[proposer, w] += cluster.pool_scan_cost_us_per_tx * pool_depth
        committed.append((t_commit, i_commit))
        proposer = (proposer + 1) % n_nodes
        t_prop = max(t_commit, t_prop + cluster.block_interval_ms / 1000.0)

    def at_window_ends(points):
        # the running total of the last point at or before each window end
        series, total, k = [], 0, 0
        for w in range(n_windows):
            while k < len(points) and points[k][0] <= (w + 1) * window_s:
                total = points[k][1]
                k += 1
            series.append(total)
        return np.array(series, dtype=np.int64)

    ledger_cum, running = [], 0
    for t, size in ledger:
        running += size
        ledger_cum.append((t, running))
    work_us = read_count * cluster.read_service_us + share_us + scan_us
    arrived_by = [int(np.searchsorted(write_ts, (w + 1) * window_s, side="right"))
                  for w in range(n_windows)]
    return SimpleNamespace(
        window_s=window_s,
        committed_write_tps=np.array([c / width for c, width in zip(committed_count, widths)]),
        served_read_tps=np.array([c / width for c, width in zip(served_count, widths)]),
        committed_count=committed_count,
        served_count=served_count,
        write_latency_sum_ms=committed_latency_sum,
        read_latency_sum_ms=served_latency_sum,
        mean_write_latency_ms=np.array([s / c if c else 0.0 for s, c in
                                        zip(committed_latency_sum, committed_count)]),
        mean_read_latency_ms=np.array([s / c if c else 0.0 for s, c in
                                       zip(served_latency_sum, served_count)]),
        cpu_utilization=np.array([[cpu_utilization(work, cluster.node_cpu_capacity, width)
                                   for work, width in zip(row, widths)] for row in work_us]),
        pool_depth=np.array(arrived_by, dtype=np.int64) - at_window_ends(committed),
        ledger_bytes=at_window_ends(ledger_cum),
        arrived_writes=int(write_ts.size),
        committed_writes=i_commit,
        pending_writes=int(write_ts.size) - i_commit,
        arrived_reads=int(read_ts.size),
        served_reads=served_reads,
        blocks_produced=blocks,
        read_completions_s=completions,
        commit_s=np.array(commit_s, dtype=np.float64),
        depths=np.array(depths, dtype=np.int64),
        fills=np.array(fills, dtype=np.int64),
    )


def write_latencies_ms(timeline: MetricsTimeline) -> np.ndarray:
    """Each committed write's latency, block after block, one at a time: the
    per-write array ``run`` never makes."""
    commit_s = np.repeat(timeline.commit_s, timeline.fills)
    return (commit_s - timeline._events.write_times[:commit_s.size]) * 1000.0


def stream(times, write=True):
    """A hand-made single-kind event stream."""
    times = np.asarray(times, dtype=np.float64)
    none = np.empty(0)
    return EventStream(write_times=times if write else none,
                       read_times=none if write else times)


def with_writes(events, horizon, rate=1400.0, seed=0):
    """``events`` with its writes replaced by a Poisson write stream at ``rate``."""
    writes = generate_events(ArrivalProcess(ArrivalKind.POISSON, rate, seed), TxKind.WRITE,
                             horizon)
    return replace(events, write_times=writes.write_times)


def det_writes(rate, horizon):
    process = ArrivalProcess(ArrivalKind.DETERMINISTIC, rate, 0)
    return generate_events(process, TxKind.WRITE, horizon)


class TestConsensusParams:
    @pytest.mark.parametrize("n,f,quorum_size", [(4, 1, 3), (5, 1, 3), (6, 1, 3), (7, 2, 5),
                                                 (10, 3, 7)])
    def test_quorum_formula(self, n, f, quorum_size):
        assert quorum(n) == quorum_size == 2 * f + 1
        assert quorum(n) <= n and 3 * f + 1 <= n

    def test_three_hops_at_constant_rtt(self):
        for n in (4, 5, 7):
            cluster = ClusterConfig(node_count=n, rtt_ms=30.0, write_exec_us=0,
                                    msg_proc_us=0, pool_scan_cost_us_per_tx=0)
            assert consensus_round_latency(cluster, 0, 0) == pytest.approx(45.0)

    def test_latency_monotone_in_fill_and_pool(self):
        cluster = default_cluster()
        base = consensus_round_latency(cluster, 10, 10)
        assert consensus_round_latency(cluster, 20, 10) >= base
        assert consensus_round_latency(cluster, 10, 50) >= base

    def test_round_base_is_the_empty_round(self):
        cluster = asymmetric_cluster(7, 700)
        bases = round_bases_ms(cluster)
        assert bases == [consensus_round_latency(cluster, 0, 0, p) for p in range(7)]
        assert len(set(bases)) > 1  # the quorum-th peer latency depends on the proposer


class TestConfigValidation:
    def test_minimum_node_count(self):
        with pytest.raises(InputError):
            replace(default_cluster(), node_count=3)

    def test_maximum_node_count(self):
        assert ClusterConfig(node_count=MAX_NODES).node_count == MAX_NODES
        with pytest.raises(InputError, match="node_count"):
            replace(default_cluster(), node_count=MAX_NODES + 1)

    def test_negative_cost(self):
        with pytest.raises(InputError):
            replace(default_cluster(), write_exec_us=-1.0)

    def test_largest_full_block_and_smallest_cpu_capacity(self):
        # MAX_BLOCKS full blocks make a ledger that still fits in int64
        largest = (2**63 - 1) // MAX_BLOCKS - DEFAULT_WRITE_PAYLOAD_BYTES * 700
        assert replace(default_cluster(), empty_block_bytes=largest).empty_block_bytes == largest
        with pytest.raises(InputError, match="a full block"):
            replace(default_cluster(), empty_block_bytes=largest + 1)
        assert replace(default_cluster(), node_cpu_capacity=1.0).node_cpu_capacity == 1.0
        with pytest.raises(InputError, match="node_cpu_capacity must be >= 1"):
            replace(default_cluster(), node_cpu_capacity=0.999)

    def test_rtt_matrix_shape(self):
        with pytest.raises(InputError):
            replace(default_cluster(), rtt_matrix_ms=((0.0, 1.0), (1.0, 0.0)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("knob", ["block_interval_ms", "node_cpu_capacity", "rtt_matrix_ms"])
    def test_non_finite_knob_rejected(self, knob, bad):
        if knob == "rtt_matrix_ms":
            matrix = [[0.0 if i == j else 30.0 for j in range(4)] for i in range(4)]
            matrix[0][1] = bad
            value = tuple(map(tuple, matrix))
            section = "[cluster]\nnode_count = 4\n[rtt_matrix]\n" + "".join(
                f"node{i} = {','.join(map(str, row))}\n" for i, row in enumerate(matrix))
        else:
            value = bad
            section = f"[cluster]\n{knob} = {bad}\n"
        with pytest.raises(InputError, match=knob):
            replace(default_cluster(), **{knob: value})
        with pytest.raises(InputError, match=knob):
            load_cluster("[config]\nschema_version = 1\n" + section)

    def test_rtt_matrix_round_latency(self):
        n = 4
        matrix = tuple(tuple(0.0 if i == j else 10.0 * max(i, j) for j in range(n))
                       for i in range(n))
        cluster = ClusterConfig(node_count=n, rtt_matrix_ms=matrix, write_exec_us=0,
                                msg_proc_us=0, pool_scan_cost_us_per_tx=0)
        # proposer 0 one-way peers: 5, 10, 15; quorum 3 -> 3rd smallest = 15
        assert consensus_round_latency(cluster, 0, 0, proposer=0) == pytest.approx(45.0)


class TestRunBasics:
    def test_empty_stream(self):
        cluster = default_cluster()
        tl = run(cluster, stream([]), horizon=10.0)
        assert tl.committed_write_tps.sum() == 0
        assert tl.served_read_tps.sum() == 0
        assert tl.arrived_writes == tl.committed_writes == 0
        # empty blocks keep the ledger growing at the block cadence
        assert tl.blocks_produced > 0
        assert tl.ledger_bytes[-1] == tl.blocks_produced * cluster.empty_block_bytes
        assert np.all(np.diff(tl.ledger_bytes) >= 0)
        # idle consensus overhead still burns some cpu
        assert tl.cpu_utilization.mean() > 0

    def test_no_commit_leaves_an_empty_record(self):
        # the first round, proposed at 0.1 s, takes over 720 ms and commits
        # past the 0.5 s horizon, so no block has a depth, not even 0
        cluster = replace(default_cluster(), msg_proc_us=20_000.0)
        tl = run(cluster, det_writes(1000.0, 0.5), horizon=0.5)
        assert tl.arrived_writes == 500 and tl.blocks_produced == 0
        for name in ("commit_s", "depths", "fills"):
            assert getattr(tl, name).size == 0, name

    def test_single_write_first_block(self):
        cluster = default_cluster()
        tl = run(cluster, stream([0.0]), horizon=5.0)
        assert tl.committed_writes == 1
        latency = float(write_latencies_ms(tl)[0])
        assert latency >= cluster.block_interval_ms / 2
        assert latency >= 3 * cluster.rtt_ms / 2  # one full consensus round

    def test_sub_saturation_linearity(self):
        cluster = default_cluster()
        tl = run(cluster, det_writes(1000.0, 60.0), horizon=60.0)
        skip = 6
        assert tl.committed_write_tps[skip:].mean() == pytest.approx(1000.0, rel=0.01)

    def test_conservation_at_window_boundaries(self):
        cluster = default_cluster()
        events = generate_events(ArrivalProcess(ArrivalKind.POISSON, 1200.0, 11),
                                 TxKind.WRITE, 30.0)
        tl = run(cluster, events, horizon=30.0)
        ts = events.write_times
        committed = np.cumsum(tl.committed_write_tps * tl.window_s)
        for w in range(tl.n_windows):
            boundary = (w + 1) * tl.window_s
            arrived = int(np.count_nonzero(ts <= boundary))
            assert arrived == int(round(committed[w])) + int(tl.pool_depth[w])
        assert tl.arrived_writes == tl.committed_writes + tl.pending_writes

    def test_determinism(self):
        cluster = default_cluster()
        events = generate_events(ArrivalProcess(ArrivalKind.POISSON, 800.0, 3),
                                 TxKind.WRITE, 20.0)
        a = run(cluster, events, horizon=20.0)
        b = run(cluster, events, horizon=20.0)
        a_columns, b_columns = a.columns(), b.columns()
        assert list(a_columns) == list(b_columns)
        assert all(np.array_equal(a_columns[c], b_columns[c]) for c in a_columns)

    def test_invalid_config_fails_before_simulation(self):
        with pytest.raises(InputError):
            run(replace(default_cluster(), node_count=2), stream([]), horizon=5.0)

    def test_ledger_identity(self):
        cluster = default_cluster()
        events = det_writes(500.0, 20.0)
        tl = run(cluster, events, horizon=20.0)
        expected = (tl.blocks_produced * cluster.empty_block_bytes
                    + tl.committed_writes * DEFAULT_WRITE_PAYLOAD_BYTES)
        assert tl.ledger_bytes[-1] == expected


class TestSaturation:
    def test_post_peak_decline(self):
        cluster = default_cluster()
        at_cap = run(cluster, det_writes(1374.0, 40.0), horizon=40.0)
        beyond = run(cluster, det_writes(2748.0, 40.0), horizon=40.0)
        assert beyond.committed_write_tps[4:].mean() < at_cap.committed_write_tps[4:].mean()

    def test_node_count_peak_monotonicity(self):
        # raw throughput at a saturating offered load must not grow with N
        peaks = []
        for n in (4, 5, 6, 7):
            cluster = ClusterConfig(node_count=n)
            tl = run(cluster, det_writes(1500.0, 30.0), horizon=30.0)
            peaks.append(tl.committed_write_tps[3:].mean())
        assert all(a >= b for a, b in zip(peaks, peaks[1:]))


class TestReads:
    def test_serve_read_single_queue_rate(self):
        cluster = replace(default_cluster(), read_service_us=200.0, read_mode="single")
        server = ReadServer(cluster)
        done = 0.0
        for i in range(1000):
            done = server.serve_read(0, 0.0)
        assert 1000 / done == pytest.approx(5000.0)

    def test_serve_read_fifo(self):
        cluster = default_cluster()
        server = ReadServer(cluster)
        first = server.serve_read(0, 0.0)
        second = server.serve_read(0, 0.0)
        assert second == pytest.approx(first + cluster.read_service_us * 1e-6)

    def test_multi_node_scales_read_throughput(self):
        rate = 15000.0
        events = generate_events(ArrivalProcess(ArrivalKind.POISSON, rate, 2),
                                 TxKind.READ, 20.0)
        multi = run(default_cluster(), events, horizon=20.0)
        single = run(replace(default_cluster(), read_mode="single"), events, horizon=20.0)
        assert multi.served_read_tps[2:].mean() == pytest.approx(rate, rel=0.02)
        # one node saturates at ~1/read_service_us
        ceiling = 1e6 / default_cluster().read_service_us
        assert single.served_read_tps[2:].mean() == pytest.approx(ceiling, rel=0.05)

    def test_reads_independent_of_consensus(self):
        reads = generate_events(ArrivalProcess(ArrivalKind.POISSON, 4000.0, 6),
                                TxKind.READ, 15.0)
        with_blocks = run(default_cluster(), with_writes(reads, 15.0), horizon=15.0)
        without = run(default_cluster(), reads, horizon=15.0)
        assert with_blocks.committed_writes > 0 and without.committed_writes == 0
        assert np.array_equal(with_blocks.read_completions_s, without.read_completions_s)

    def test_merged_stream_splits_by_kind(self):
        cluster = default_cluster()
        writes = generate_events(ArrivalProcess(ArrivalKind.POISSON, 800.0, 4),
                                 TxKind.WRITE, 15.0)
        reads = generate_events(ArrivalProcess(ArrivalKind.POISSON, 4000.0, 5),
                                TxKind.READ, 15.0)
        merged = EventStream(write_times=writes.write_times, read_times=reads.read_times)
        both = run(cluster, merged, horizon=15.0)
        write_only = run(cluster, writes, horizon=15.0)
        read_only = run(cluster, reads, horizon=15.0)
        assert np.array_equal(both.committed_write_tps, write_only.committed_write_tps)
        assert np.array_equal(both.ledger_bytes, write_only.ledger_bytes)
        assert np.array_equal(both.served_read_tps, read_only.served_read_tps)
        assert np.array_equal(both.mean_read_latency_ms, read_only.mean_read_latency_ms)
        assert (both.arrived_writes, both.arrived_reads) == (len(writes), len(reads))

    def test_zero_reads(self):
        tl = run(default_cluster(), stream([]), horizon=5.0)
        assert tl.served_reads == 0
        assert tl.served_read_tps.sum() == 0

    def test_vectorized_fifo_matches_scalar_server(self):
        cluster = replace(default_cluster(), read_mode="single")
        rng = np.random.Generator(np.random.Philox(key=42))
        arrivals = np.sort(rng.random(500) * 5.0)
        server = ReadServer(cluster)
        scalar = [server.serve_read(0, float(t)) for t in arrivals]
        tl = run(cluster, stream(arrivals, write=False), horizon=10.0)
        assert np.allclose(tl.read_completions_s, scalar, rtol=0, atol=1e-9)


def asymmetric_cluster(n: int, capacity: int) -> ClusterConfig:
    """Non-integer costs and a per-pair RTT matrix where a->b differs from b->a."""
    matrix = tuple(tuple(0.0 if a == b else 7.3 + 3.1 * a + 11.7 * b + 0.37 * (a * b % 3)
                         for b in range(n)) for a in range(n))
    return ClusterConfig(node_count=n, rtt_matrix_ms=matrix, block_interval_ms=97.3,
                         block_tx_capacity=capacity, write_exec_us=537.3,
                         read_service_us=195.7, msg_proc_us=1987.61,
                         pool_scan_cost_us_per_tx=19.73, node_cpu_capacity=1_999_999.7)


def merged_stream(write_rate, read_rate, horizon, seed):
    """Uniformly scattered writes and reads."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    n_writes, n_reads = int(write_rate * horizon), int(read_rate * horizon)
    times = np.concatenate([rng.random(n_writes), rng.random(n_reads)]) * horizon
    return EventStream(np.sort(times[:n_writes]), np.sort(times[n_writes:]))


# every series and count a run reports; the lazily derived ones included
TIMELINE_FIELDS = (
    "window_s", "committed_write_tps", "served_read_tps", "committed_count", "served_count",
    "write_latency_sum_ms", "read_latency_sum_ms", "mean_write_latency_ms",
    "mean_read_latency_ms", "cpu_utilization", "pool_depth", "ledger_bytes",
    "arrived_writes", "committed_writes", "pending_writes", "arrived_reads",
    "served_reads", "blocks_produced", "read_completions_s", "commit_s", "depths", "fills",
)


def assert_same_timeline(got: MetricsTimeline, want: SimpleNamespace) -> None:
    for name in TIMELINE_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype, name
            assert np.array_equal(a, b), name
        else:
            assert type(a) is type(b) and a == b, name


class TestRunMatchesScalarReference:
    """``run`` must reproduce the one-round-per-pass oracle bit for bit."""

    def test_field_list_covers_the_timeline(self):
        tl = run(default_cluster(), stream([0.5]), horizon=10.0)
        public = {name for name in vars(tl) if not name.startswith("_")}
        lazy = {name for name, value in vars(MetricsTimeline).items()
                if isinstance(value, cached_property)}
        assert public | lazy == set(TIMELINE_FIELDS)
        assert set(vars(reference_run(default_cluster(), stream([0.5]), 10.0))) == public | lazy

    def test_lazy_series_do_not_depend_on_access_order(self):
        cluster = asymmetric_cluster(4, 7)
        events = merged_stream(1500.0, 900.0, 12.0, seed=2)
        want = reference_run(cluster, events, 12.0, window_s=0.7)
        for order in (TIMELINE_FIELDS, TIMELINE_FIELDS[::-1]):
            got = run(cluster, events, horizon=12.0, window_s=0.7)
            for name in order:
                getattr(got, name)
            assert_same_timeline(got, want)

    @pytest.mark.parametrize("write_rate", [300.0, 1500.0])
    @pytest.mark.parametrize("capacity", [1, 7, 700])
    @pytest.mark.parametrize("n", [4, 7])
    def test_asymmetric_rtt_non_integer_costs(self, n, capacity, write_rate):
        cluster = asymmetric_cluster(n, capacity)
        events = merged_stream(write_rate, 900.0, 12.0, seed=n * capacity)
        got = run(cluster, events, horizon=12.0, window_s=0.7)
        assert_same_timeline(got, reference_run(cluster, events, 12.0, window_s=0.7))
        assert got.blocks_produced > 0 and got.committed_writes > 0

    def test_default_profile_poisson_writes(self):
        cluster = default_cluster()
        events = generate_events(ArrivalProcess(ArrivalKind.POISSON, 1400.0, 8),
                                 TxKind.WRITE, 20.0)
        got = run(cluster, events, horizon=20.0)
        assert_same_timeline(got, reference_run(cluster, events, 20.0))

    @pytest.mark.parametrize("write_rate,paced_by", [(200.0, "interval"), (2000.0, "commit")])
    def test_block_interval_paces_short_rounds(self, write_rate, paced_by):
        # an empty round takes 52.2 ms and a full one 444.2 ms against a 100 ms
        # interval: light load proposes on the interval, overload at each commit
        cluster = replace(default_cluster(), msg_proc_us=200.0)
        assert consensus_round_latency(cluster, 0, 0) == pytest.approx(52.2)
        assert consensus_round_latency(cluster, 700, 700) == pytest.approx(444.2)
        events = generate_events(ArrivalProcess(ArrivalKind.POISSON, write_rate, 3),
                                 TxKind.WRITE, 12.0)
        got = run(cluster, events, horizon=12.0)
        assert_same_timeline(got, reference_run(cluster, events, 12.0))
        commit_s, fills, depths = (a.tolist() for a in (got.commit_s, got.fills, got.depths))
        steps = set()
        for k in range(1, len(commit_s)):
            round_s = consensus_round_latency(cluster, fills[k], depths[k],
                                              k % cluster.node_count) / 1000.0
            # a round proposed at the previous commit follows it without a gap
            steps.add("commit" if commit_s[k] == commit_s[k - 1] + round_s else "interval")
        assert steps == {paced_by}

    @pytest.mark.parametrize("read_mode,read_rate", [
        pytest.param("multi", 2000.0, id="multi"),
        pytest.param("single", 2000.0, id="single"),
        # past the read capacity: reads still queue at the horizon, and some
        # complete within the last window, which ends at 5.1 s
        pytest.param("multi", 30000.0, id="multi-overloaded"),
        pytest.param("single", 8000.0, id="single-overloaded"),
    ])
    def test_without_blocks(self, read_mode, read_rate):
        # reads alone, so only empty blocks, then the same reads under write load
        cluster = replace(asymmetric_cluster(4, 700), read_mode=read_mode)
        reads = merged_stream(0.0, read_rate, 5.0, seed=1)
        alone = run(cluster, reads, horizon=5.0, window_s=0.3)
        assert_same_timeline(alone, reference_run(cluster, reads, 5.0, window_s=0.3))
        loaded = with_writes(reads, 5.0)
        got = run(cluster, loaded, horizon=5.0, window_s=0.3)
        assert_same_timeline(got, reference_run(cluster, loaded, 5.0, window_s=0.3))
        for name in ("served_read_tps", "mean_read_latency_ms", "read_completions_s"):
            assert np.array_equal(getattr(got, name), getattr(alone, name)), name
        if read_rate > 2000.0:
            assert got.served_reads < got.arrived_reads
            done = got.read_completions_s
            assert np.any((done > 5.0) & (done <= got.n_windows * 0.3))

    def test_empty_stream(self):
        cluster = asymmetric_cluster(7, 7)
        got = run(cluster, stream([]), horizon=3.3, window_s=0.7)
        assert_same_timeline(got, reference_run(cluster, stream([]), 3.3, window_s=0.7))


class TestWindows:
    def test_window_cap(self):
        # a million 0.01 s windows, and 1e-3 of a window more
        assert check_run(default_cluster(), 10_000.0, 0.01) == MAX_CELLS // 4
        with pytest.raises(InputError, match="windows"):
            check_run(default_cluster(), 10_000.0 + 1e-5, 0.01)
        with pytest.raises(InputError, match="windows"):
            check_run(default_cluster(), 10.0, 1e-9)

    @pytest.mark.parametrize("horizon,window_s,count", [
        # a thousandth of a window past the cap needs one window more
        (10_000.00001, 0.01, "1,000,001"),
        (1e300, 1.0, "1e+300"),
        (10.0, 5e-324, "inf"),  # an inf ratio fails before it is rounded up
    ])
    def test_cpu_table_message_shows_the_excess(self, horizon, window_s, count):
        with pytest.raises(InputError) as err:
            check_run(default_cluster(), horizon, window_s)
        assert str(err.value).startswith(f"4 nodes over {count} windows of {window_s!r} s ")

    def test_block_cap(self, monkeypatch):
        cluster = default_cluster()
        at_cap = MAX_BLOCKS * cluster.block_interval_ms / 1000.0
        assert check_run(cluster, at_cap, 1.0) == 100_000

        # a run past the cap fails before its first round, not after hours of them
        def no_rounds(*args):
            raise AssertionError("no round may be simulated past the block cap")
        monkeypatch.setattr(chainsim, "round_bases_ms", no_rounds)
        with pytest.raises(InputError, match="block proposals"):
            run(cluster, stream([]), horizon=at_cap * 1.001, window_s=1.0)

    @pytest.mark.parametrize("node_count", [4, 5, 7, MAX_NODES])
    def test_cpu_table_cap(self, monkeypatch, node_count):
        # exactly as many one-second windows as fill the table, then one more;
        # one block per 2 s keeps the block cap from tripping first
        cluster = ClusterConfig(node_count=node_count, block_interval_ms=2000.0)
        at_cap = MAX_CELLS // node_count
        assert check_run(cluster, float(at_cap), 1.0) == at_cap

        def no_rounds(*args):
            raise AssertionError("no round may be simulated past the cpu table cap")
        monkeypatch.setattr(chainsim, "round_bases_ms", no_rounds)
        with pytest.raises(InputError, match="cpu table"):
            run(cluster, stream([]), horizon=at_cap + 1.0, window_s=1.0)

    @settings(max_examples=300, deadline=None)
    @given(node_count=st.integers(4, MAX_NODES),
           horizon=st.floats(1e-3, 1e7), window_s=st.floats(1e-3, 1e3))
    def test_cpu_table_cap_is_the_window_and_cell_caps(self, node_count, horizon, window_s):
        # the rule before the two were folded into one: a million windows, and
        # node_count x windows within 4 nodes at a million windows
        cluster = ClusterConfig(node_count=node_count, block_interval_ms=1e4)
        windows = horizon / window_s - 1e-9
        n_windows = max(1, math.ceil(windows))
        accepted = windows <= 1_000_000 and node_count * n_windows <= 4_000_000
        if accepted:
            assert check_run(cluster, horizon, window_s) == n_windows
        else:
            with pytest.raises(InputError, match="cpu table"):
                check_run(cluster, horizon, window_s)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_non_finite_or_non_positive_window_rejected(self, bad):
        with pytest.raises(InputError, match="window"):
            check_run(default_cluster(), 10.0, bad)
        with pytest.raises(InputError, match="window"):
            run(default_cluster(), stream([1.0]), horizon=10.0, window_s=bad)

    @pytest.mark.parametrize("horizon,window_s,n_windows,last_width", [
        # 0.9 / 0.3 rounds above 3; the slack keeps it at 3
        pytest.param(0.9, 0.3, 3, 0.3, id="whole"),
        # the last window, [9.9, 10], is partial
        pytest.param(10.0, 0.3, 34, 10.0 - 33 * 0.3, id="partial"),
    ])
    def test_window_rounding(self, horizon, window_s, n_windows, last_width):
        cluster = default_cluster()
        events = merged_stream(300.0, 900.0, horizon, seed=3)
        tl = run(cluster, events, horizon=horizon, window_s=window_s)
        assert check_run(cluster, horizon, window_s) == tl.n_windows == n_windows
        assert tl.cpu_utilization.shape == (cluster.node_count, n_windows)
        widths = np.array([window_s] * (n_windows - 1) + [last_width])
        # served reads: the scalar FIFO's completions within the horizon, and
        # each window's rate is its count over its width
        server = ReadServer(cluster)
        done = np.array([server.serve_read(i % cluster.node_count, float(t))
                         for i, t in enumerate(events.read_times)])
        served = np.bincount(np.minimum(done[done <= horizon] / window_s, n_windows - 1)
                             .astype(np.int64), minlength=n_windows)
        assert np.array_equal(tl.served_read_tps, served / widths)
        assert served.sum() == tl.served_reads
        committed = np.rint(tl.committed_write_tps * widths).astype(np.int64)
        assert np.array_equal(tl.committed_write_tps, committed / widths)
        assert committed.sum() == tl.committed_writes > 0
        assert tl.arrived_writes == events.write_times.size
        assert tl.arrived_reads == events.read_times.size
        assert tl.pool_depth[-1] == tl.pending_writes == tl.arrived_writes - tl.committed_writes
        assert tl.ledger_bytes[-1] == (tl.blocks_produced * cluster.empty_block_bytes
                                       + tl.committed_writes * DEFAULT_WRITE_PAYLOAD_BYTES)

    def test_partial_last_window_reads_the_offered_rate(self):
        # 10.5 s of 1 s windows ends in a half window; per its own half second
        # it reads as the whole windows before it, not at half their rates
        reads = generate_events(ArrivalProcess(ArrivalKind.DETERMINISTIC, 1000.0, 0),
                                TxKind.READ, 10.5)
        events = replace(det_writes(100.0, 10.5), read_times=reads.read_times)
        tl = run(default_cluster(), events, horizon=10.5)
        assert tl.n_windows == 11
        assert tl.committed_write_tps[-1] == pytest.approx(100.0, rel=0.02)
        assert tl.served_read_tps[-1] == pytest.approx(1000.0, rel=0.02)
        assert tl.cpu_utilization[:, -1] == pytest.approx(tl.cpu_utilization[:, -2], rel=0.02)


@st.composite
def cluster_profiles(draw) -> ClusterConfig:
    """The shipped profile with 4 to 7 nodes, any block size, a drawn per-pair
    RTT matrix (a->b apart from b->a), the pool scan cost 0 or shipped, and
    either read mode."""
    shipped = default_cluster()
    n = draw(st.integers(4, 7))
    rtt_ms = st.floats(0.0, 200.0)
    matrix = tuple(tuple(0.0 if a == b else draw(rtt_ms) for b in range(n)) for a in range(n))
    return replace(shipped, node_count=n, rtt_matrix_ms=matrix,
                   block_tx_capacity=draw(st.integers(1, 2 * shipped.block_tx_capacity)),
                   pool_scan_cost_us_per_tx=draw(
                       st.sampled_from([0.0, shipped.pool_scan_cost_us_per_tx])),
                   read_mode=draw(st.sampled_from(["multi", "single"])))


# every time cost of a profile, in ms or us
TIME_COSTS = ("rtt_ms", "block_interval_ms", "write_exec_us", "read_service_us",
              "msg_proc_us", "pool_scan_cost_us_per_tx")
# (seed, kind, rate): writes just below and near the bound, and heavy reads
RELATION_CASES = [(seed, kind, rate) for seed in range(5)
                  for kind, rate in ((TxKind.WRITE, 1350.0), (TxKind.WRITE, 1380.0),
                                     (TxKind.READ, 20_000.0))]
# drawn cases per relation beside RELATION_CASES, which keep the class under 3 s
MAX_RELATION_EXAMPLES = 10
# a drawn case's seed and (kind, rate): writes up to about twice the shipped
# bound, reads up to 1.25 x its read service limit
relation_seeds = st.integers(0, 2**32 - 1)
write_loads = st.tuples(st.just(TxKind.WRITE), st.floats(0.0, 2800.0))
read_rates = st.floats(0.0, 25_000.0)
relation_loads = st.one_of(write_loads, st.tuples(st.just(TxKind.READ), read_rates))


def relation_examples(kinds=tuple(TxKind), **fixed):
    """One ``@example`` on the shipped profile per RELATION_CASES entry of ``kinds``."""
    def apply(test):
        for seed, kind, rate in RELATION_CASES:
            if kind in kinds:
                test = example(cluster=default_cluster(), load=(kind, rate), seed=seed,
                               **fixed)(test)
        return test
    return apply


def relation_run(cluster, kind, rate, seed, horizon, window_s):
    events = generate_events(ArrivalProcess(ArrivalKind.POISSON, rate, seed), kind, horizon)
    return run(cluster, events, horizon=horizon, window_s=window_s)


def relation_columns(cluster, kind, rate, seed, horizon, window_s):
    return relation_run(cluster, kind, rate, seed, horizon, window_s).columns()


class TestMetamorphicRelations:
    """Two runs that must agree bit for bit, with no oracle between them."""

    @settings(max_examples=MAX_RELATION_EXAMPLES, deadline=None)
    @given(cluster=cluster_profiles(), load=relation_loads, seed=relation_seeds,
           k=st.sampled_from([0.25, 0.5, 2.0, 4.0]))
    @relation_examples(k=2.0)
    @relation_examples(k=0.5)
    def test_time_scaling(self, cluster, load, seed, k):
        # every time cost, each [rtt_matrix] entry too, times k, the rate over
        # k, horizon and window times k: the Poisson epochs divide to k times
        # the times, exactly for a power of two, so each series is the base
        # run's up to that factor
        kind, rate = load
        matrix = cluster.rtt_matrix_ms
        scaled = replace(cluster, **{name: getattr(cluster, name) * k for name in TIME_COSTS},
                         rtt_matrix_ms=matrix and tuple(tuple(v * k for v in row)
                                                        for row in matrix))
        want = relation_columns(cluster, kind, rate, seed, 30.0, 1.0)
        got = relation_columns(scaled, kind, rate / k, seed, 30.0 * k, k)
        for name, series in got.items():
            if name.endswith("_tps"):
                series = series * k
            elif "latency" in name or name == "window_start_s":
                series = series / k
            assert np.array_equal(series, want[name]), (
                f"time scaling by {k}: {name} differs at seed {seed}, "
                f"{kind.value} at {rate}/s")

    @settings(max_examples=MAX_RELATION_EXAMPLES, deadline=None)
    @given(cluster=cluster_profiles(), load=relation_loads, seed=relation_seeds)
    @relation_examples()
    def test_constant_rtt_matrix_is_the_constant_rtt(self, cluster, load, seed):
        kind, rate = load
        base = replace(cluster, rtt_matrix_ms=None)
        n = base.node_count
        matrix = replace(base, rtt_matrix_ms=tuple(
            tuple(0.0 if a == b else base.rtt_ms for b in range(n)) for a in range(n)))
        want = relation_columns(base, kind, rate, seed, 30.0, 1.0)
        got = relation_columns(matrix, kind, rate, seed, 30.0, 1.0)
        for name, series in got.items():
            assert np.array_equal(series, want[name]), (
                f"constant rtt matrix: {name} differs at seed {seed}, "
                f"{kind.value} at {rate}/s")

    @settings(max_examples=MAX_RELATION_EXAMPLES, deadline=None)
    @given(cluster=cluster_profiles(), load=write_loads, read_rate=read_rates,
           seed=relation_seeds)
    @relation_examples(kinds=(TxKind.WRITE,), read_rate=20_000.0)
    def test_reads_leave_the_write_columns_alone(self, cluster, load, read_rate, seed):
        # the reverse of test_without_blocks: reads joining the stream add
        # read and cpu series, and move no write, pool or ledger series
        _, write_rate = load
        writes = generate_events(ArrivalProcess(ArrivalKind.POISSON, write_rate, seed),
                                 TxKind.WRITE, 30.0)
        reads = generate_events(ArrivalProcess(ArrivalKind.POISSON, read_rate, seed + 1),
                                TxKind.READ, 30.0)
        want = run(cluster, writes, horizon=30.0).columns()
        got = run(cluster, replace(writes, read_times=reads.read_times), horizon=30.0).columns()
        for name in ("committed_write_tps", "mean_write_latency_ms", "pool_depth",
                     "ledger_bytes"):
            assert np.array_equal(got[name], want[name]), (
                f"reads joining: {name} differs at seed {seed}, writes at {write_rate}/s")

    @settings(max_examples=MAX_RELATION_EXAMPLES, deadline=None)
    @given(cluster=cluster_profiles(), load=relation_loads, seed=relation_seeds)
    @relation_examples()
    def test_shorter_horizon_is_a_prefix(self, cluster, load, seed):
        # a window that closes before the short run's last commit has seen
        # every block, write and read the long run puts in it; 12.5 s ends in
        # a partial window, which is not compared
        kind, rate = load
        short = relation_run(cluster, kind, rate, seed, 12.5, 1.0)
        want = relation_columns(cluster, kind, rate, seed, 30.0, 1.0)
        closed = int(short.commit_s[-1])  # the 1 s windows it closes
        for name, series in short.columns().items():
            assert np.array_equal(series[:closed], want[name][:closed]), (
                f"horizon prefix: {name} differs in the first {closed} windows at "
                f"seed {seed}, {kind.value} at {rate}/s")


class TestCpuProxy:
    def test_zero_work(self):
        assert cpu_utilization(0.0, 1e6, 1.0) == 0.0

    def test_saturated(self):
        assert cpu_utilization(1e6, 1e6, 1.0) == 1.0
        assert cpu_utilization(5e6, 1e6, 1.0) == 1.0  # capped

    def test_half_work(self):
        assert cpu_utilization(5e5, 1e6, 1.0) == 0.5

    def test_utilization_bounded_in_runs(self):
        tl = run(default_cluster(), det_writes(2000.0, 20.0), horizon=20.0)
        assert np.all(tl.cpu_utilization >= 0.0)
        assert np.all(tl.cpu_utilization <= 1.0)


class TestInvariants:
    """Properties of every run that hold in any order of additions."""

    @settings(max_examples=100, deadline=None)
    @given(cluster=cluster_profiles(), write_rate=st.floats(0.0, 2800.0),
           read_rate=st.floats(0.0, 25000.0), window_s=st.floats(0.05, 3.0),
           seed=st.integers(0, 2**32 - 1))
    @example(cluster=default_cluster(), write_rate=1400.0, read_rate=20000.0, window_s=1.0,
             seed=0)
    @example(cluster=load_cluster(ASYMMETRIC_CLUSTER.read_text()), write_rate=1500.0,
             read_rate=900.0, window_s=0.7, seed=1)
    @example(cluster=replace(default_cluster(), read_mode="single"), write_rate=300.0,
             read_rate=8000.0, window_s=0.3, seed=2)
    @example(cluster=replace(default_cluster(), pool_scan_cost_us_per_tx=0.0),
             write_rate=2800.0, read_rate=0.0, window_s=2.5, seed=3)
    def test_timeline_invariants(self, cluster, write_rate, read_rate, window_s, seed):
        horizon = 5.0
        writes = generate_events(ArrivalProcess(ArrivalKind.POISSON, write_rate, seed),
                                 TxKind.WRITE, horizon)
        reads = generate_events(ArrivalProcess(ArrivalKind.POISSON, read_rate, seed + 1),
                                TxKind.READ, horizon)
        tl = run(cluster, replace(writes, read_times=reads.read_times), horizon, window_s)
        assert tl.arrived_writes == tl.committed_writes + tl.pending_writes, "write conservation"
        assert tl.served_reads <= tl.arrived_reads, "served reads exceed arrived"
        assert np.all(np.diff(tl.commit_s) > 0), "commit times do not strictly increase"
        assert np.all(tl.fills <= cluster.block_tx_capacity), \
            "a block's fill exceeds block_tx_capacity"
        assert np.all(tl.pool_depth >= 0), "a pool_depth cell is negative"
        committed = tl.committed_write_tps * window_widths(horizon, window_s, tl.n_windows)
        assert math.fsum(committed) == pytest.approx(tl.committed_writes, rel=1e-12), \
            "committed tps times window width does not sum to the committed writes"
        latencies = write_latencies_ms(tl)
        assert math.fsum(tl.mean_write_latency_ms * committed) == pytest.approx(
            math.fsum(latencies), rel=1e-9), "mean write latency times count is not the latency sum"
        proposers = np.repeat(np.arange(tl.blocks_produced) % cluster.node_count, tl.fills)
        base_ms = np.array(round_bases_ms(cluster))
        assert np.all(latencies >= base_ms[proposers]), \
            "a write latency is below its proposer's round_bases_ms"
        assert np.all((tl.cpu_utilization >= 0.0) & (tl.cpu_utilization <= 1.0)), \
            "a cpu cell lies outside [0, 1]"
        served = tl.read_completions_s <= horizon
        read_ms = (tl.read_completions_s[served] - reads.read_times[served]) * 1000.0
        # the FIFO recurrence rounds at the scale of the run's times, so a
        # read served with no wait may come out up to about 1e-12 ms short
        assert np.all(read_ms >= cluster.read_service_us / 1000.0 - 1e-9), \
            "a served read's latency is below read_service_us"


def loop_proposal_times(cluster: ClusterConfig, timeline: MetricsTimeline) -> np.ndarray:
    """Each committed block's proposal time, and one more entry for the next
    proposal after the last commit.  Block k is proposed at the later of the
    last commit and one interval after the last proposal, the loop's rule."""
    interval_s = cluster.block_interval_ms / 1000.0
    proposed = np.empty(timeline.commit_s.size + 1)
    t_prop = interval_s
    for k, t_commit in enumerate(timeline.commit_s.tolist()):
        proposed[k] = t_prop
        t_prop = max(t_commit, t_prop + interval_s)
    proposed[-1] = t_prop
    return proposed


def loop_write_departures(cluster: ClusterConfig, timeline: MetricsTimeline) -> np.ndarray:
    """Each write's commit time as the block loop counted its pool (inf past
    the last block but one).  The loop saw a pool of ``depths[k]`` at block
    k's proposal, so the writes arrived by that time less that pool were
    committed before it, and the writes between two such counts left with
    the block between."""
    commit_s, arrivals = timeline.commit_s, timeline._events.write_times
    proposed = loop_proposal_times(cluster, timeline)[:-1]
    before = np.searchsorted(arrivals, proposed, side="right") - timeline.depths
    departures = np.full(arrivals.size, np.inf)
    for k in range(1, commit_s.size):
        departures[before[k - 1]:before[k]] = commit_s[k - 1]
    return departures


def assert_littles_law(what: str, arrivals, departures, latency_sum_ms, t0: int, t1: int):
    """Little's law (Little 1961) over the 1 s windows [t0, t1): the time the
    items spend in the system there, L x T, and the latencies of the items
    that leave there, lambda x W x T, differ by at most the edge terms.

    The latencies exceed the area by the time before t0 of the items in the
    system at t0 that leave in the interval, at most ``at_start``; they fall
    short of it by the time inside the interval of the items still in the
    system at t1, ``at_end``.
    """
    area = math.fsum(np.clip(np.minimum(departures, t1) - np.maximum(arrivals, t0), 0.0, None))
    in_at_start = (arrivals < t0) & (departures >= t0)
    at_start = math.fsum(t0 - arrivals[in_at_start])
    in_at_end = (arrivals < t1) & (departures >= t1)
    at_end = math.fsum(t1 - np.maximum(arrivals[in_at_end], t0))
    latencies = math.fsum(latency_sum_ms[t0:t1]) / 1000.0
    # the run sums latencies in ms per block or read, each rounded at the
    # scale of the run's times
    rounding = 1e-9 * t1 * arrivals.size
    assert area - at_end - rounding <= latencies <= area + at_start + rounding, (
        f"Little's law L = lambda W fails for {what} over [{t0}, {t1}) s: the latencies "
        f"sum to {latencies!r} s, the time in the system to {area!r} s, and the edge "
        f"terms allow -{at_end!r} s and +{at_start!r} s")


# seconds of warm-up before the law's windows, and of one run
LITTLE_WARM_UP_S = 5
LITTLE_HORIZON_S = 15.0


class TestLittlesLaw:
    """L = lambda W over post-warm-up windows: the pool as the block loop
    counted it against the latencies the timeline sums, and the read queues
    against the read latencies."""

    @pytest.mark.parametrize("kind", list(TxKind))
    @settings(max_examples=MAX_RELATION_EXAMPLES, deadline=None)
    @given(cluster=cluster_profiles(), load=st.floats(0.0, 1.25), seed=relation_seeds)
    @example(cluster=default_cluster(), load=0.9, seed=0)
    @example(cluster=default_cluster(), load=1.1, seed=1)
    def test_littles_law(self, kind, cluster, load, seed):
        # the load is a share of the profile's capacity bound
        rate = load * capacity_bound(cluster, kind)
        events = generate_events(ArrivalProcess(ArrivalKind.POISSON, rate, seed), kind,
                                 LITTLE_HORIZON_S)
        tl = run(cluster, events, horizon=LITTLE_HORIZON_S)
        what = f"{kind.value}s at {rate}/s, seed {seed}"
        if kind is TxKind.WRITE:
            # the windows closed before the last commit, whose departures the
            # loop's counts give
            assert_littles_law(what, events.write_times, loop_write_departures(cluster, tl),
                               tl.write_latency_sum_ms, LITTLE_WARM_UP_S,
                               int(tl.commit_s[-1]))
        else:
            assert_littles_law(what, events.read_times, tl.read_completions_s,
                               tl.read_latency_sum_ms, LITTLE_WARM_UP_S,
                               int(LITTLE_HORIZON_S))


class TestClusterProfiles:
    def test_default_profile_loads(self):
        cluster = default_cluster()
        assert cluster.node_count == 4
        assert cluster.rtt_ms == 30.0

    def test_profile_round_trip_keys(self):
        doc = """
[config]
schema_version = 1

[cluster]
node_count = 5
rtt_ms = 20
block_interval_ms = 50
read_mode = single
"""
        cluster = load_cluster(doc)
        assert cluster.node_count == 5
        assert cluster.rtt_ms == 20.0
        assert cluster.read_mode == "single"

    @pytest.mark.parametrize("key", ["noode_count", "node_mem_bytes"])
    def test_unknown_cluster_key(self, key):
        doc = f"[config]\nschema_version = 1\n\n[cluster]\n{key} = 4\n"
        with pytest.raises(InputError, match=rf"^\[cluster\]: unknown key '{key}'$"):
            load_cluster(doc)

    def test_rtt_matrix_parse(self):
        doc = ("[config]\nschema_version = 1\n\n[cluster]\nnode_count = 4\n\n"
               "[rtt_matrix]\n"
               "node0 = 0,30,30,30\nnode1 = 30,0,30,30\n"
               "node2 = 30,30,0,30\nnode3 = 30,30,30,0\n")
        cluster = load_cluster(doc)
        assert cluster.rtt_matrix_ms[0][1] == 30.0

    def test_rtt_ms_beside_rtt_matrix_rejected(self):
        # the matrix would silently override the [cluster] value
        doc = ("[config]\nschema_version = 1\n\n[cluster]\nnode_count = 4\nrtt_ms = 500\n\n"
               "[rtt_matrix]\n"
               "node0 = 0,30,30,30\nnode1 = 30,0,30,30\n"
               "node2 = 30,30,0,30\nnode3 = 30,30,30,0\n")
        with pytest.raises(InputError, match=r"rtt_ms and \[rtt_matrix\]") as excinfo:
            load_cluster(doc)
        assert "\n" not in str(excinfo.value)

    def test_missing_schema_version(self):
        with pytest.raises(InputError):
            load_cluster("[cluster]\nnode_count = 4\n")

    def test_empty_profile_needs_a_cluster_section(self):
        for doc in ("", "# only a comment\n", "[config]\nschema_version = 1\n"):
            with pytest.raises(InputError, match=r"missing \[cluster\] section"):
                load_cluster(doc)

    def test_repeated_section_is_a_conflict(self):
        doc = "[config]\nschema_version = 1\n[cluster]\nrtt_ms = 1\n[cluster]\nrtt_ms = 2\n"
        with pytest.raises(InputError, match=r"line 5: section \[cluster\] repeated"):
            load_cluster(doc)

    def test_unknown_section_rejected(self):
        doc = "[config]\nschema_version = 1\n[cluster]\n[DEFAULT]\nrtt_ms = 1\n"
        with pytest.raises(InputError, match=r"unknown section \[DEFAULT\]"):
            load_cluster(doc)

    def test_every_default_written_out_loads_as_the_default(self):
        # the [cluster] keys are the fields, each parsed as its default's type
        section = "".join(f"{f.name} = {f.default}\n" for f in fields(ClusterConfig)
                          if f.name != "rtt_matrix_ms")
        doc = "[config]\nschema_version = 1\n\n[cluster]\n" + section
        assert load_cluster(doc) == ClusterConfig()

    def test_timeline_csv_shape(self):
        tl = run(default_cluster(), det_writes(300.0, 10.0), horizon=10.0)
        columns = tl.columns()
        assert all(len(values) == tl.n_windows for values in columns.values())
        header = list(columns)
        assert header[0] == "window_index"
        assert "cpu_utilization_node3" in header
        assert header[-1] == "ledger_bytes"


class TestReadConfig:
    def test_sections_but_config_with_raw_values(self):
        doc = "[config]\nschema_version = 1\n\n[a]\nX = 1.5\n[b:c]\ny = two words\n"
        assert read_config(doc) == {"a": {"x": "1.5"}, "b:c": {"y": "two words"}}

    @pytest.mark.parametrize("doc", ["", "\n\n", "; comment\n# comment\n"])
    def test_document_without_sections_needs_no_config(self, doc):
        assert read_config(doc) == {}

    @pytest.mark.parametrize("doc,message", [
        ("not ini\n", "line 1: 'not ini' comes before the first [section]"),
        ("[config]\nschema_version = 1\n\nnot ini\n",
         "line 4: expected 'key = value', got 'not ini'"),
        ("[config]\r\nschema_version = 1\r\nnot ini\r\n",
         "line 3: expected 'key = value', got 'not ini'"),
        ("[config]\nschema_version = 1\n[config]\n", "line 3: section [config] repeated"),
        ("[config]\nschema_version = 1\nSchema_Version = 1\n",
         "line 3: key 'schema_version' repeated in [config]"),
        ("[a]\nx = 1\n", "missing [config] section with schema_version"),
        ("[config]\n", "[config] schema_version must be 1, got None"),
        ("[config]\nschema_version = 2\n", "[config] schema_version must be 1, got '2'"),
        ("[config]\nschema_version = 1\nfoo = 1\n", "[config]: unknown keys ['foo']"),
    ])
    def test_each_fault_is_one_line(self, doc, message):
        with pytest.raises(InputError) as excinfo:
            read_config(doc)
        assert str(excinfo.value).startswith(message)
        assert "\n" not in str(excinfo.value)


# the sections of a cluster profile and of a scenario override, each with
# the keys it takes; both documents use read_config's grammar
CLUSTER_INI_KEYS = {
    "cluster": tuple(f.name for f in fields(ClusterConfig) if f.name != "rtt_matrix_ms"),
    "rtt_matrix": tuple(f"node{i}" for i in range(6)),
}
SCENARIO_INI_KEYS = {
    "scenario:aaa": ("eta",),
    "scenario:id_mgmt": ("eta",),
    "use_case:aaa:authentication": ("reads_per_event", "writes_per_event"),
    "use_case:id_mgmt:new": ("reads_per_event", "writes_per_event"),
}
# values each parse step must face beside plausible ones
ODD_VALUES = ("", "-1", "-0", "1e400", "-1e400", "1e-320", "nan", "inf", "-inf", "1_000", "0x10",
              "1" * 5000, "two words", "multi", "single")
JUNK_LINES = ("; comment", "# comment", "  indented", "not ini", "= 1", "[", "[]", "[config]",
              "schema_version = 2", "node_count = 5", "[scenario:aaa]", "[rtt_matrix]",
              "[scenario:nope]", "[use_case:aaa]", "[DEFAULT]", "[other]")


@st.composite
def ini_documents(draw, sections: dict[str, tuple[str, ...]]) -> str:
    """A document of ``sections`` and their keys, each at most once, mostly
    with plausible values, at times without its [config] or with a junk
    line: a drawn key or line, or a header of a section of its own."""
    text = st.text(min_size=1, max_size=12)
    integer = st.integers(0, 2000).map(str)
    number = st.one_of(integer, integer, st.floats(0.0, 1e4).map(repr))
    row = st.lists(number, min_size=3, max_size=6).map(",".join)
    value = st.one_of(number, number, row, st.sampled_from(ODD_VALUES), text)
    known = st.sampled_from(sorted(sections))
    lines = ["[config]", "schema_version = 1"] if draw(st.integers(0, 9)) else []
    for section in draw(st.lists(known, min_size=1, max_size=3, unique=True)):
        lines.append(f"[{section}]")
        pairs = st.lists(st.tuples(st.sampled_from(sections[section]), value), max_size=7,
                         unique_by=lambda pair: pair[0])
        lines += [f"{key} = {raw}" for key, raw in draw(pairs)]
    junk = st.one_of(st.sampled_from(JUNK_LINES), text,
                     st.tuples(text, value).map(" = ".join))
    for _ in range(draw(st.integers(0, 4)) // 3):
        lines.insert(draw(st.integers(0, len(lines))), draw(junk))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines)


class TestLoadClusterFuzz:
    @settings(max_examples=100, deadline=None)
    @given(doc=ini_documents(CLUSTER_INI_KEYS))
    def test_a_document_loads_or_raises_input_error(self, doc):
        # any other exception, or a RuntimeWarning (an error in this suite), fails
        try:
            cluster = load_cluster(doc)
        except InputError:
            return
        assert isinstance(cluster, ClusterConfig)
