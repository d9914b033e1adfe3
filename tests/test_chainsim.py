import math
from dataclasses import fields, replace
from functools import cached_property
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
    _block_sums,
    _fifo_completions,
    check_run,
    default_cluster,
    load_cluster,
    read_config,
    run,
)
from chaincap.errors import InputError
from chaincap.model import consensus_round_latency, quorum, round_base_ms


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


def reference_run(cluster: ClusterConfig, events: EventStream, horizon: float,
                  window_s: float = 1.0) -> SimpleNamespace:
    """Scalar oracle of ``run``, every series and total: one round per loop pass.

    Each block calls ``consensus_round_latency`` and adds its counts, latency
    sum, bytes and cpu work into the window of its commit, in block order.
    """
    n_nodes = cluster.node_count
    n_windows = max(1, int(math.ceil(horizon / window_s - 1e-9)))
    write_ts, read_ts = events.write_times, events.read_times

    def window_of(t: float) -> int:
        return min(n_windows - 1, int(t / window_s))

    committed_count = np.zeros(n_windows)
    committed_latency_sum = np.zeros(n_windows)
    served_count = np.zeros(n_windows)
    served_latency_sum = np.zeros(n_windows)
    work_us = np.zeros((n_nodes, n_windows))

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
            work_us[node, w] += cluster.read_service_us
            served_reads += 1

    i_commit = blocks = proposer = 0
    ledger: list[tuple[float, int]] = []    # (commit time, block bytes)
    committed: list[tuple[float, int]] = []  # (commit time, committed total)
    latencies = [np.empty(0)]
    t_prop = cluster.block_interval_ms / 1000.0
    while t_prop <= horizon + 1e-12:
        pool_depth = int(np.searchsorted(write_ts, t_prop, side="right")) - i_commit
        fill = min(cluster.block_tx_capacity, pool_depth)
        latency_ms = consensus_round_latency(cluster, fill, pool_depth, proposer)
        t_commit = t_prop + latency_ms / 1000.0
        if t_commit > horizon:
            break
        blocks += 1
        ledger.append((t_commit, cluster.empty_block_bytes + DEFAULT_WRITE_PAYLOAD_BYTES * fill))
        w = window_of(t_commit)
        if fill:
            lat = (t_commit - write_ts[i_commit:i_commit + fill]) * 1000.0
            committed_count[w] += fill
            committed_latency_sum[w] += float(lat.sum())
            latencies.append(lat)
            i_commit += fill
        work_us[:, w] += cluster.write_exec_us * fill + cluster.msg_proc_us * 2 * n_nodes
        work_us[proposer, w] += cluster.pool_scan_cost_us_per_tx * pool_depth
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
    arrived_by = [int(np.searchsorted(write_ts, (w + 1) * window_s, side="right"))
                  for w in range(n_windows)]
    return SimpleNamespace(
        window_s=window_s,
        committed_write_tps=committed_count / window_s,
        served_read_tps=served_count / window_s,
        mean_write_latency_ms=np.array([s / c if c else 0.0 for s, c in
                                        zip(committed_latency_sum, committed_count)]),
        mean_read_latency_ms=np.array([s / c if c else 0.0 for s, c in
                                       zip(served_latency_sum, served_count)]),
        cpu_utilization=np.array([[cpu_utilization(work, cluster.node_cpu_capacity, window_s)
                                   for work in row] for row in work_us]),
        pool_depth=np.array(arrived_by, dtype=np.int64) - at_window_ends(committed),
        ledger_bytes=at_window_ends(ledger_cum),
        arrived_writes=int(write_ts.size),
        committed_writes=i_commit,
        pending_writes=int(write_ts.size) - i_commit,
        arrived_reads=int(read_ts.size),
        served_reads=served_reads,
        blocks_produced=blocks,
        read_completions_s=completions,
        write_latencies_ms=np.concatenate(latencies),
    )


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
        bases = [round_base_ms(cluster, p) for p in range(7)]
        assert bases == [consensus_round_latency(cluster, 0, 0, p) for p in range(7)]
        assert len(set(bases)) > 1  # the quorum-th peer latency depends on the proposer

    def test_fill_beyond_capacity_rejected(self):
        cluster = default_cluster()
        with pytest.raises(InputError):
            consensus_round_latency(cluster, cluster.block_tx_capacity + 1, 0)


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

    def test_single_write_first_block(self):
        cluster = default_cluster()
        tl = run(cluster, stream([0.0]), horizon=5.0)
        assert tl.committed_writes == 1
        latency = float(tl.write_latencies_ms[0])
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

    def test_unsorted_events_rejected(self):
        with pytest.raises(InputError):
            run(default_cluster(), stream([1.0, 0.5]), horizon=5.0)
        with pytest.raises(InputError):
            run(default_cluster(), stream([1.0, 0.5], write=False), horizon=5.0)

    def test_horizon_must_cover_events(self):
        with pytest.raises(InputError):
            run(default_cluster(), stream([9.0]), horizon=5.0)
        with pytest.raises(InputError):
            run(default_cluster(), stream([9.0], write=False), horizon=5.0)

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
    "window_s", "committed_write_tps", "served_read_tps", "mean_write_latency_ms",
    "mean_read_latency_ms", "cpu_utilization", "pool_depth", "ledger_bytes",
    "arrived_writes", "committed_writes", "pending_writes", "arrived_reads",
    "served_reads", "blocks_produced", "read_completions_s", "write_latencies_ms",
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
        commit_s, fills, depths = (a.tolist() for a in (got._commit_s, got._fills, got._depths))
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


class TestBlockSums:
    """The per-block latency sums, one reduceat over a zero-spliced array,
    equal np.add.reduce of each block's slice bit for bit; the golden
    digests of every write timeline rest on that identity."""

    # block fills around numpy's 8-way unrolled and 128-element pairwise
    # summation, up to a full block, plus any other size
    FILL = st.one_of(st.sampled_from([0, 1, 7, 8, 128, 129, 700]), st.integers(0, 1500))

    @settings(deadline=None)
    @given(fills=st.lists(FILL, max_size=40), seed=st.integers(0, 2**32 - 1))
    @example(fills=[], seed=0)
    @example(fills=[0, 0, 0], seed=0)
    @example(fills=[700], seed=1)
    @example(fills=[100_000], seed=2)
    def test_each_block_sums_as_reduce_of_its_slice(self, fills, seed):
        rng = np.random.default_rng(seed)
        fills = np.array(fills, dtype=np.int64)
        n = int(fills.sum())
        # magnitudes over nine decades, so a different order of additions
        # would round differently
        values = rng.random(n) * 10.0 ** rng.integers(-3, 6, n)
        ends = np.cumsum(fills)
        expected = np.array([np.add.reduce(values[i:j])
                             for i, j in zip((ends - fills).tolist(), ends.tolist())])
        got = _block_sums(values, fills)
        assert got.shape == fills.shape
        assert got.view(np.uint64).tolist() == expected.view(np.uint64).tolist()


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
        monkeypatch.setattr(chainsim, "round_base_ms", no_rounds)
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
        monkeypatch.setattr(chainsim, "round_base_ms", no_rounds)
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

    @pytest.mark.parametrize("horizon,window_s,n_windows", [
        (0.9, 0.3, 3),    # 0.9 / 0.3 rounds above 3; the slack keeps it at 3
        (10.0, 0.3, 34),  # the last window, [9.9, 10], is partial
    ])
    def test_window_rounding(self, horizon, window_s, n_windows):
        cluster = default_cluster()
        events = merged_stream(300.0, 900.0, horizon, seed=3)
        tl = run(cluster, events, horizon=horizon, window_s=window_s)
        assert check_run(cluster, horizon, window_s) == tl.n_windows == n_windows
        assert tl.cpu_utilization.shape == (cluster.node_count, n_windows)
        # served reads: the scalar FIFO's completions within the horizon
        server = ReadServer(cluster)
        done = np.array([server.serve_read(i % cluster.node_count, float(t))
                         for i, t in enumerate(events.read_times)])
        served = np.rint(tl.served_read_tps * window_s).astype(np.int64)
        assert served.sum() == tl.served_reads == np.count_nonzero(done <= horizon)
        last = (n_windows - 1) * window_s
        assert served[-1] == np.count_nonzero((done >= last) & (done <= horizon))
        committed = np.rint(tl.committed_write_tps * window_s).astype(np.int64)
        assert committed.sum() == tl.committed_writes > 0
        assert tl.arrived_writes == events.write_times.size
        assert tl.arrived_reads == events.read_times.size
        assert tl.pool_depth[-1] == tl.pending_writes == tl.arrived_writes - tl.committed_writes
        assert tl.ledger_bytes[-1] == (tl.blocks_produced * cluster.empty_block_bytes
                                       + tl.committed_writes * DEFAULT_WRITE_PAYLOAD_BYTES)


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
