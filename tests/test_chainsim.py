import io
import math
from dataclasses import replace
from functools import cached_property
from types import SimpleNamespace

import numpy as np
import pytest

from chaincap.arrival import (
    DEFAULT_WRITE_PAYLOAD_BYTES,
    ArrivalKind,
    ArrivalProcess,
    EventStream,
    TxKind,
    generate_events,
)
from chaincap.chainsim import (
    MAX_WINDOWS,
    ClusterConfig,
    MetricsTimeline,
    _fifo_completions,
    consensus_round_latency,
    default_cluster,
    load_cluster,
    quorum,
    round_base_ms,
    run,
    window_count,
)
from chaincap.errors import ConfigError, ContractError, SchemaError


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
        raise ContractError(f"window must be > 0, got {window_s}")
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
        with pytest.raises(ContractError):
            consensus_round_latency(cluster, cluster.block_tx_capacity + 1, 0)


class TestConfigValidation:
    def test_minimum_node_count(self):
        with pytest.raises(ConfigError):
            replace(default_cluster(), node_count=3)

    def test_negative_cost(self):
        with pytest.raises(ConfigError):
            replace(default_cluster(), write_exec_us=-1.0)

    def test_rtt_matrix_shape(self):
        with pytest.raises(ConfigError):
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
        with pytest.raises(ConfigError, match=knob):
            replace(default_cluster(), **{knob: value})
        with pytest.raises(ConfigError, match=knob):
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
        assert tl.mean_committed_write_tps(skip) == pytest.approx(1000.0, rel=0.01)

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
        buf_a, buf_b = io.StringIO(), io.StringIO()
        a.to_csv(buf_a)
        b.to_csv(buf_b)
        assert buf_a.getvalue() == buf_b.getvalue()

    def test_unsorted_events_rejected(self):
        with pytest.raises(ContractError):
            run(default_cluster(), stream([1.0, 0.5]), horizon=5.0)
        with pytest.raises(ContractError):
            run(default_cluster(), stream([1.0, 0.5], write=False), horizon=5.0)

    def test_horizon_must_cover_events(self):
        with pytest.raises(ContractError):
            run(default_cluster(), stream([9.0]), horizon=5.0)
        with pytest.raises(ContractError):
            run(default_cluster(), stream([9.0], write=False), horizon=5.0)

    def test_invalid_config_fails_before_simulation(self):
        with pytest.raises(ConfigError):
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
        assert beyond.mean_committed_write_tps(4) < at_cap.mean_committed_write_tps(4)

    def test_node_count_peak_monotonicity(self):
        # raw throughput at a saturating offered load must not grow with N
        peaks = []
        for n in (4, 5, 6, 7):
            cluster = default_cluster(node_count=n)
            tl = run(cluster, det_writes(1500.0, 30.0), horizon=30.0)
            peaks.append(tl.mean_committed_write_tps(3))
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
        assert multi.mean_served_read_tps(2) == pytest.approx(rate, rel=0.02)
        # one node saturates at ~1/read_service_us
        ceiling = 1e6 / default_cluster().read_service_us
        assert single.mean_served_read_tps(2) == pytest.approx(ceiling, rel=0.05)

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

    @pytest.mark.parametrize("read_mode", ["multi", "single"])
    def test_without_blocks(self, read_mode):
        # reads alone, so only empty blocks, then the same reads under write load
        cluster = replace(asymmetric_cluster(4, 700), read_mode=read_mode)
        reads = merged_stream(0.0, 2000.0, 5.0, seed=1)
        alone = run(cluster, reads, horizon=5.0, window_s=0.3)
        assert_same_timeline(alone, reference_run(cluster, reads, 5.0, window_s=0.3))
        loaded = with_writes(reads, 5.0)
        got = run(cluster, loaded, horizon=5.0, window_s=0.3)
        assert_same_timeline(got, reference_run(cluster, loaded, 5.0, window_s=0.3))
        for name in ("served_read_tps", "mean_read_latency_ms", "read_completions_s"):
            assert np.array_equal(getattr(got, name), getattr(alone, name)), name

    def test_empty_stream(self):
        cluster = asymmetric_cluster(7, 7)
        got = run(cluster, stream([]), horizon=3.3, window_s=0.7)
        assert_same_timeline(got, reference_run(cluster, stream([]), 3.3, window_s=0.7))


class TestWindows:
    def test_window_cap(self):
        assert window_count(float(MAX_WINDOWS), 1.0) == MAX_WINDOWS
        with pytest.raises(ContractError, match="windows"):
            window_count(MAX_WINDOWS + 1e-3, 1.0)
        with pytest.raises(ContractError, match="windows"):
            window_count(10.0, 1e-9)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_non_finite_or_non_positive_window_rejected(self, bad):
        with pytest.raises(ContractError, match="window"):
            window_count(10.0, bad)
        with pytest.raises(ContractError, match="window"):
            run(default_cluster(), stream([1.0]), horizon=10.0, window_s=bad)

    @pytest.mark.parametrize("horizon,window_s,n_windows", [
        (0.9, 0.3, 3),    # 0.9 / 0.3 rounds above 3; the slack keeps it at 3
        (10.0, 0.3, 34),  # the last window, [9.9, 10], is partial
    ])
    def test_window_count_rounding(self, horizon, window_s, n_windows):
        cluster = default_cluster()
        events = merged_stream(300.0, 900.0, horizon, seed=3)
        tl = run(cluster, events, horizon=horizon, window_s=window_s)
        assert window_count(horizon, window_s) == tl.n_windows == n_windows
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

    def test_unknown_cluster_key(self):
        doc = "[config]\nschema_version = 1\n\n[cluster]\nnoode_count = 4\n"
        with pytest.raises(SchemaError, match="noode_count"):
            load_cluster(doc)

    def test_rtt_matrix_parse(self):
        doc = ("[config]\nschema_version = 1\n\n[cluster]\nnode_count = 4\n\n"
               "[rtt_matrix]\n"
               "node0 = 0,30,30,30\nnode1 = 30,0,30,30\n"
               "node2 = 30,30,0,30\nnode3 = 30,30,30,0\n")
        cluster = load_cluster(doc)
        assert cluster.rtt_matrix_ms[0][1] == 30.0

    def test_missing_schema_version(self):
        with pytest.raises(SchemaError):
            load_cluster("[cluster]\nnode_count = 4\n")

    def test_node_mem_bytes_is_parsed_and_discarded(self):
        # schema-1 profiles written before the key was dropped still load
        doc = "[config]\nschema_version = 1\n\n[cluster]\nnode_mem_bytes = {}\n"
        assert load_cluster(doc.format(17179869184)) == load_cluster(doc.format(1))
        with pytest.raises(SchemaError, match="node_mem_bytes"):
            load_cluster(doc.format("16GiB"))

    def test_timeline_csv_shape(self):
        tl = run(default_cluster(), det_writes(300.0, 10.0), horizon=10.0)
        buf = io.StringIO()
        tl.to_csv(buf)
        lines = buf.getvalue().strip().split("\n")
        assert len(lines) == tl.n_windows + 1
        header = lines[0].split(",")
        assert header[0] == "window_index"
        assert "cpu_utilization_node3" in header
        assert header[-1] == "ledger_bytes"
