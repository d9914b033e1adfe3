"""Discrete-event simulation of an IBFT-style consortium blockchain cluster.

Writes go through three-phase BFT consensus (pre-prepare, prepare, commit):
a rotating proposer fills a block from the pending pool at each proposal
opportunity, the round latency covers three one-way network hops to reach
quorum plus message handling, block execution, and a pool-scan penalty that
grows with backlog.  Blocks are sequential; the next proposal starts at
``max(previous commit, previous proposal + block interval)``, so an idle
chain still produces empty blocks at the configured cadence.

Reads never touch consensus: each read queues FIFO at one node (round-robin
across nodes in multi-node mode, node 0 in single-node mode) and completes
after a fixed service time.

One run is single-threaded and fully deterministic in its inputs.
"""

from __future__ import annotations

import configparser
import csv
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .arrival import DEFAULT_WRITE_PAYLOAD_BYTES, EventStream
from .errors import ConfigError, ContractError, SchemaError

CONFIG_SCHEMA_VERSION = 1

# Largest number of metric windows in one run.  A run keeps about a dozen
# arrays with one entry per window (per node and window for cpu work), and
# simulate writes one CSV row per window: a 4-node simulate at 1M windows
# peaked 220 bytes per window above the interpreter's own memory and wrote a
# 64 MB timeline.  A window far below the horizon is rejected before any of
# that is allocated.
MAX_WINDOWS = 1_000_000


@dataclass(frozen=True)
class ClusterConfig:
    """Simulated cluster: topology, consensus costs, and node capacities.

    The field defaults are the calibrated profile, and its only copy: cost
    knobs are tuned so a 4-node cluster saturates near 1400 write tps and
    near 20500 read tps in multi-node read mode (see scripts/calibrate.py).
    A profile is checked when built, so an invalid one raises
    :class:`ConfigError` from the constructor or ``dataclasses.replace``.
    """

    node_count: int = 4
    rtt_ms: float = 30.0                      # constant pairwise RTT
    rtt_matrix_ms: tuple[tuple[float, ...], ...] | None = None  # optional per-pair RTTs
    block_interval_ms: float = 100.0
    block_tx_capacity: int = 700
    write_exec_us: float = 540.0              # per committed write, every node
    read_service_us: float = 195.0            # per read at the serving node
    msg_proc_us: float = 2000.0               # per consensus message
    pool_scan_cost_us_per_tx: float = 20.0    # proposer backlog penalty
    node_cpu_capacity: float = 2_000_000.0    # work units (us) per second per node
    empty_block_bytes: int = 1024
    read_mode: str = "multi"                  # "multi" or "single"

    def __post_init__(self) -> None:
        if self.node_count < 4:
            raise ConfigError(f"node_count must be >= 4 for BFT (f >= 1), got {self.node_count}")
        if self.block_tx_capacity < 1:
            raise ConfigError(f"block_tx_capacity must be >= 1, got {self.block_tx_capacity}")
        for name in ("block_interval_ms", "node_cpu_capacity"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0:
                raise ConfigError(f"{name} must be finite and > 0, got {value!r}")
        for name in ("rtt_ms", "write_exec_us", "read_service_us", "msg_proc_us",
                     "pool_scan_cost_us_per_tx"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ConfigError(f"{name} must be finite and >= 0, got {value!r}")
        if self.empty_block_bytes < 0:
            raise ConfigError(f"empty_block_bytes must be >= 0, got {self.empty_block_bytes}")
        if self.read_mode not in ("multi", "single"):
            raise ConfigError(f"read_mode must be 'multi' or 'single', got {self.read_mode!r}")
        if self.rtt_matrix_ms is not None:
            n = self.node_count
            if len(self.rtt_matrix_ms) != n or any(len(row) != n for row in self.rtt_matrix_ms):
                raise ConfigError(f"rtt_matrix_ms must be {n}x{n}")
            if any(not math.isfinite(v) or v < 0 for row in self.rtt_matrix_ms for v in row):
                raise ConfigError("rtt_matrix_ms entries must be finite and >= 0")

    def one_way_ms(self, a: int, b: int) -> float:
        if self.rtt_matrix_ms is not None:
            return self.rtt_matrix_ms[a][b] / 2.0
        return self.rtt_ms / 2.0


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


def _round_ms(cluster: ClusterConfig, base_ms: float, block_fill: int,
              pool_depth: int) -> float:
    """A round's milliseconds given its ``round_base_ms``."""
    exec_ms = cluster.write_exec_us * block_fill / 1000.0
    scan_ms = cluster.pool_scan_cost_us_per_tx * pool_depth / 1000.0
    return base_ms + exec_ms + scan_ms


def consensus_round_latency(cluster: ClusterConfig, block_fill: int, pool_depth: int,
                            proposer: int = 0) -> float:
    """Wall-clock milliseconds for one three-phase round.

    ``round_base_ms`` plus block execution and the proposer's pool scan.
    Monotone non-decreasing in block_fill and pool_depth.
    """
    if block_fill > cluster.block_tx_capacity:
        raise ContractError(
            f"block_fill {block_fill} exceeds block_tx_capacity {cluster.block_tx_capacity}")
    return _round_ms(cluster, round_base_ms(cluster, proposer), block_fill, pool_depth)


def _fifo_completions(arrivals: np.ndarray, service_s: float) -> np.ndarray:
    """Vectorized FIFO recurrence c_i = max(a_i, c_{i-1}) + s for one node."""
    i = np.arange(arrivals.size, dtype=np.float64)
    return service_s * (i + 1.0) + np.maximum.accumulate(arrivals - service_s * i)


def _mean_per_window(total: np.ndarray, count: np.ndarray) -> np.ndarray:
    """``total / count`` per window; 0 where a window counts nothing."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(count > 0, total / np.maximum(count, 1), 0.0)


class MetricsTimeline:
    """Per-window metrics of one simulation run plus end-of-run totals.

    ``run`` builds it from the read completions and the blocks, one entry
    per block in commit order; the per-window committed and served counts
    and the six totals are computed at once.  Every other series is derived
    on first access and then kept, so a caller that reads only throughput
    computes no latency, cpu, pool or ledger series.
    """

    def __init__(self, cluster: ClusterConfig, events: EventStream, horizon: float,
                 window_s: float, n_windows: int, read_completions_s: np.ndarray,
                 commit_s: np.ndarray, fills: np.ndarray, depths: np.ndarray):
        self.window_s = window_s
        self.read_completions_s = read_completions_s
        self._cluster, self._events, self._horizon = cluster, events, horizon
        self._n_windows = n_windows
        self._commit_s, self._fills, self._depths = commit_s, fills, depths
        self._block_windows = self._window_of(commit_s)
        # bincount adds each bin's weights in array order
        self._committed_count = np.bincount(self._block_windows, weights=fills,
                                            minlength=self._n_windows)
        _, read_windows = self._served()
        self._served_count = np.bincount(read_windows, minlength=self._n_windows)
        self.committed_write_tps = self._committed_count / window_s
        self.served_read_tps = self._served_count / window_s
        self.arrived_writes = int(events.write_times.size)
        self.committed_writes = int(fills.sum())
        self.pending_writes = self.arrived_writes - self.committed_writes
        self.arrived_reads = int(events.read_times.size)
        self.served_reads = read_windows.size
        self.blocks_produced = commit_s.size

    def _window_of(self, t: np.ndarray) -> np.ndarray:
        return np.minimum((t / self.window_s).astype(np.int64), self._n_windows - 1)

    def _served(self) -> tuple[np.ndarray, np.ndarray]:
        """Which reads complete within the run, and the window of each that does."""
        in_run = self.read_completions_s <= self._horizon
        return in_run, self._window_of(self.read_completions_s[in_run])

    @property
    def n_windows(self) -> int:
        return self._n_windows

    @cached_property
    def write_latencies_ms(self) -> np.ndarray:
        """Each committed write's latency, block after block."""
        latencies = np.repeat(self._commit_s, self._fills)
        np.subtract(latencies, self._events.write_times[:latencies.size], out=latencies)
        latencies *= 1000.0
        return latencies

    @cached_property
    def mean_write_latency_ms(self) -> np.ndarray:
        # a block sums its slice pairwise, as a sum over its own array would
        # (reduceat would not); bincount then sums a window's blocks in
        # commit order
        latencies = self.write_latencies_ms
        ends = np.cumsum(self._fills)
        starts = ends - self._fills
        latency_sums = [np.add.reduce(latencies[i:j])
                        for i, j in zip(starts.tolist(), ends.tolist())]
        latency_sum = np.bincount(self._block_windows, weights=latency_sums,
                                  minlength=self._n_windows)
        return _mean_per_window(latency_sum, self._committed_count)

    @cached_property
    def mean_read_latency_ms(self) -> np.ndarray:
        in_run, windows = self._served()
        latency_ms = (self.read_completions_s[in_run] - self._events.read_times[in_run]) * 1000.0
        latency_sum = np.bincount(windows, weights=latency_ms, minlength=self._n_windows)
        return _mean_per_window(latency_sum, self._served_count)

    @cached_property
    def cpu_utilization(self) -> np.ndarray:
        """Share of each node's capacity used, shape (node_count, n_windows)."""
        cluster = self._cluster
        n_nodes = cluster.node_count
        work_us = np.zeros((n_nodes, self._n_windows))
        # each node serves a strided view of the reads; its completions are
        # sorted, so those in the run are a prefix
        stride = n_nodes if cluster.read_mode == "multi" else 1
        for node in range(stride):
            done = self.read_completions_s[node::stride]
            windows = self._window_of(done[:done.searchsorted(self._horizon, side="right")])
            work_us[node] = np.bincount(windows,
                                        weights=np.full(windows.size, cluster.read_service_us),
                                        minlength=self._n_windows)
        # every node validates each block and handles ~2N messages; the proposer
        # also scans the pool.  add.at adds in index order, so each cell sums its
        # blocks' work in commit order, a block's share before its scan.
        block_us = cluster.write_exec_us * self._fills + cluster.msg_proc_us * 2 * n_nodes
        scan_us = cluster.pool_scan_cost_us_per_tx * self._depths
        pair_windows = np.repeat(self._block_windows, 2)
        pair_us = np.column_stack((block_us, scan_us)).ravel()
        proposers = np.arange(self._fills.size) % n_nodes
        keep = np.ones(pair_us.size, dtype=bool)
        for node in range(n_nodes):
            keep[1::2] = proposers == node
            np.add.at(work_us[node], pair_windows[keep], pair_us[keep])
        return np.minimum(1.0, work_us / (cluster.node_cpu_capacity * self.window_s))

    def _at_window_ends(self, running: np.ndarray) -> np.ndarray:
        """``running`` (one value per block) after the last block committed by
        each window end; 0 before the first."""
        blocks_by = np.searchsorted(self._commit_s, self._window_ends(), side="right")
        return np.concatenate(([0], running))[blocks_by]

    def _window_ends(self) -> np.ndarray:
        return np.arange(1, self._n_windows + 1) * self.window_s

    @cached_property
    def pool_depth(self) -> np.ndarray:
        """Pending writes at each window end."""
        arrived_by = np.searchsorted(self._events.write_times, self._window_ends(), side="right")
        return (arrived_by - self._at_window_ends(np.cumsum(self._fills))).astype(np.int64)

    @cached_property
    def ledger_bytes(self) -> np.ndarray:
        """Ledger size at each window end."""
        block_bytes = self._cluster.empty_block_bytes + DEFAULT_WRITE_PAYLOAD_BYTES * self._fills
        return self._at_window_ends(np.cumsum(block_bytes)).astype(np.int64)

    def mean_committed_write_tps(self, skip_windows: int = 0) -> float:
        return float(np.mean(self.committed_write_tps[skip_windows:]))

    def mean_served_read_tps(self, skip_windows: int = 0) -> float:
        return float(np.mean(self.served_read_tps[skip_windows:]))

    def to_csv(self, fp) -> None:
        """Write the timeline, one row per window, header row first."""
        n_nodes = self.cpu_utilization.shape[0]
        writer = csv.writer(fp, lineterminator="\n")
        header = ["window_index", "window_start_s", "committed_write_tps",
                  "served_read_tps", "mean_write_latency_ms", "mean_read_latency_ms"]
        header += [f"cpu_utilization_node{i}" for i in range(n_nodes)]
        header += ["pool_depth", "ledger_bytes"]
        writer.writerow(header)
        for w in range(self.n_windows):
            row = [w, repr(w * self.window_s),
                   repr(float(self.committed_write_tps[w])),
                   repr(float(self.served_read_tps[w])),
                   repr(float(self.mean_write_latency_ms[w])),
                   repr(float(self.mean_read_latency_ms[w]))]
            row += [repr(float(self.cpu_utilization[i, w])) for i in range(n_nodes)]
            row += [int(self.pool_depth[w]), int(self.ledger_bytes[w])]
            writer.writerow(row)


def window_count(horizon: float, window_s: float) -> int:
    """Metric windows covering ``horizon``; the last one may be partial.

    Raises :class:`ContractError` for a non-finite or non-positive horizon or
    window, and for more than MAX_WINDOWS windows.
    """
    if not math.isfinite(horizon) or horizon <= 0:
        raise ContractError(f"horizon must be finite and > 0, got {horizon!r}")
    if not math.isfinite(window_s) or window_s <= 0:
        raise ContractError(f"window must be finite and > 0, got {window_s!r}")
    # the slack keeps a horizon that is a whole number of windows from
    # gaining an extra one by rounding
    windows = horizon / window_s - 1e-9
    if windows > MAX_WINDOWS:
        raise ContractError(
            f"a {window_s!r} s window over {horizon!r} s makes {windows:.4g} windows, more "
            f"than the {MAX_WINDOWS:,} one run may hold; widen the window")
    return max(1, math.ceil(windows))


def run(cluster: ClusterConfig, events: EventStream, horizon: float,
        window_s: float = 1.0) -> MetricsTimeline:
    """Simulate the cluster against the writes and reads of ``events``.

    Each of its arrays must be sorted by time and fit within ``horizon``.
    The simulation is deterministic and draws no randomness.
    """
    n_windows = window_count(horizon, window_s)
    write_ts, read_ts = events.write_times, events.read_times
    for times in (write_ts, read_ts):
        if not np.all(times[1:] >= times[:-1]):
            raise ContractError("events must be sorted by time")
        if times.size and times[-1] > horizon:
            raise ContractError("horizon must cover the last event timestamp")

    n_nodes = cluster.node_count

    # --- reads: FIFO queues, no consensus involvement ---
    # round-robin assignment makes each node's reads a strided view
    stride = n_nodes if cluster.read_mode == "multi" else 1
    service_s = cluster.read_service_us * 1e-6
    completions = np.empty(read_ts.size)
    for node in range(stride):
        completions[node::stride] = _fifo_completions(read_ts[node::stride], service_s)

    # --- writes: sequential proposer-rotating block production ---
    # the loop runs the recurrence only; one entry per block
    commit_times: list[float] = []
    fills: list[int] = []
    depths: list[int] = []  # pool depth at each proposal
    i_commit = 0          # writes committed so far (FIFO prefix of write_ts)
    base_ms = [round_base_ms(cluster, p) for p in range(n_nodes)]
    interval_s = cluster.block_interval_ms / 1000.0
    proposer = 0
    t_prop = interval_s
    while t_prop <= horizon + 1e-12:
        pool_depth = int(write_ts.searchsorted(t_prop, side="right")) - i_commit
        fill = min(cluster.block_tx_capacity, pool_depth)
        t_commit = t_prop + _round_ms(cluster, base_ms[proposer], fill, pool_depth) / 1000.0
        if t_commit > horizon:
            break
        i_commit += fill
        commit_times.append(t_commit)
        fills.append(fill)
        depths.append(pool_depth)
        proposer = (proposer + 1) % n_nodes
        t_prop = max(t_commit, t_prop + interval_s)

    return MetricsTimeline(cluster, events, horizon, window_s, n_windows, completions,
                           np.array(commit_times), np.array(fills, dtype=np.int64),
                           np.array(depths, dtype=np.int64))


# --- cluster profile files -------------------------------------------------

_CLUSTER_KEYS = {
    "node_count": int,
    "rtt_ms": float,
    "block_interval_ms": float,
    "block_tx_capacity": int,
    "write_exec_us": float,
    "read_service_us": float,
    "msg_proc_us": float,
    "pool_scan_cost_us_per_tx": float,
    "node_cpu_capacity": float,
    "node_mem_bytes": int,        # schema-1 key; checked as an int, then discarded
    "empty_block_bytes": int,
    "read_mode": str,
}


def load_cluster(document: str) -> ClusterConfig:
    """Parse a cluster profile document (same INI grammar as scenario overrides)."""
    parser = configparser.ConfigParser(interpolation=None, strict=True)
    try:
        parser.read_string(document)
    except configparser.Error as exc:
        raise SchemaError(str(exc)) from None
    sections = set(parser.sections())
    if "config" not in sections:
        raise SchemaError("missing [config] section with schema_version")
    if parser["config"].get("schema_version", "").strip() != str(CONFIG_SCHEMA_VERSION):
        raise SchemaError(f"schema_version must be {CONFIG_SCHEMA_VERSION}")
    for key in parser["config"]:
        if key != "schema_version":
            raise SchemaError(f"[config]: unknown key {key!r}")
    unknown_sections = sections - {"config", "cluster", "rtt_matrix"}
    if unknown_sections:
        raise SchemaError(f"unknown sections {sorted(unknown_sections)}")
    if "cluster" not in sections:
        raise SchemaError("missing [cluster] section")

    kwargs = {}
    for key, raw in parser["cluster"].items():
        if key not in _CLUSTER_KEYS:
            raise SchemaError(f"[cluster]: unknown key {key!r}")
        conv = _CLUSTER_KEYS[key]
        try:
            kwargs[key] = conv(raw) if conv is not str else raw.strip()
        except ValueError:
            raise SchemaError(f"[cluster] {key}: expected {conv.__name__}, got {raw!r}") from None
    kwargs.pop("node_mem_bytes", None)

    if "rtt_matrix" in sections:
        n = kwargs.get("node_count", ClusterConfig.node_count)
        rows = []
        for i in range(n):
            key = f"node{i}"
            if key not in parser["rtt_matrix"]:
                raise SchemaError(f"[rtt_matrix]: missing row {key!r}")
            try:
                row = tuple(float(v) for v in parser["rtt_matrix"][key].split(","))
            except ValueError:
                raise SchemaError(f"[rtt_matrix] {key}: expected comma-separated floats") from None
            rows.append(row)
        extra = set(parser["rtt_matrix"]) - {f"node{i}" for i in range(n)}
        if extra:
            raise SchemaError(f"[rtt_matrix]: unexpected rows {sorted(extra)}")
        kwargs["rtt_matrix_ms"] = tuple(rows)

    return ClusterConfig(**kwargs)


def default_cluster(node_count: int | None = None) -> ClusterConfig:
    """The calibrated 4-node profile, optionally rescoped to N nodes."""
    if node_count is None:
        return ClusterConfig()
    return ClusterConfig(node_count=node_count)
