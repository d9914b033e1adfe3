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

import math
from bisect import bisect_right
from dataclasses import dataclass, fields
from functools import cached_property

from ._numpy import np
from .arrival import DEFAULT_WRITE_PAYLOAD_BYTES, EventStream, check_horizon
from .errors import InputError
# run looks round_bases_ms up here, so a test can replace it for this module.
# Nothing calls consensus_round_latency here, since run inlines it; the name
# stays because perfbench/spans.py wraps it in this namespace, so
# chainsim.consensus_round_latency.calls reads 0 until ROADMAP item 2 mends that
from .model import consensus_round_latency, round_bases_ms  # noqa: F401

CONFIG_SCHEMA_VERSION = 1

# Largest cpu table of one run, node_count x metric windows: a million windows
# at 4 nodes.  A run keeps it and about a dozen arrays with one entry per
# window, and simulate writes one CSV row per window from ``columns()``,
# converted to Python values a chunk of windows at a time: a 4-node simulate at
# 1M windows took 4.2 s, peaked about 130 bytes per window above the
# interpreter's own memory and wrote a 60 MB timeline.  A window far below the
# horizon is rejected before any of that is allocated.
MAX_CELLS = 4_000_000
# Largest number of block proposals in one run, horizon / block_interval_ms.
# The block loop runs once per proposal, even on an idle chain: a 4-node
# simulate with no writes took about 1.8 us and 117 bytes per block (1e5 s,
# 854,700 blocks: 1.6 s, 134 MB peak RSS), so a horizon far beyond this is
# rejected before the loop starts.
MAX_BLOCKS = 1_000_000
# Largest node_count of a profile.  An [rtt_matrix] holds N^2 entries, parsed
# and then sorted row by row: a 10 s write simulate at 1000 nodes took 0.32 s
# with one and 0.10 s without, numpy import included, on one Xeon core.  At
# 1000 nodes one round's message handling alone, msg_proc_us * (2N^2 + N),
# is 4002 s on the shipped profile, and the cpu table holds N cells a window.
MAX_NODES = 1000


@dataclass(frozen=True)
class ClusterConfig:
    """Simulated cluster: topology, consensus costs, and node capacities.

    The field defaults are the calibrated profile, and its only copy: cost
    knobs are set so that on 4 nodes the write capacity bound,
    ``model.capacity_bound``, lies within 2% of the paper's 1400 write tps
    and the multi-node read service limit within 2% of its 20500 read tps
    (see tests/test_calibrate.py).
    A profile is checked when built, so an invalid one raises
    :class:`InputError` from the constructor or ``dataclasses.replace``.
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
            raise InputError(f"node_count must be >= 4 for BFT (f >= 1), got {self.node_count}")
        if self.node_count > MAX_NODES:
            raise InputError(f"node_count must be <= {MAX_NODES:,}, got {self.node_count}")
        if self.block_tx_capacity < 1:
            raise InputError(f"block_tx_capacity must be >= 1, got {self.block_tx_capacity}")
        for name in ("block_interval_ms", "node_cpu_capacity"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0:
                raise InputError(f"{name} must be finite and > 0, got {value!r}")
        if self.node_cpu_capacity < 1:  # below 1 us/s a short window's cpu share overflows
            raise InputError(f"node_cpu_capacity must be >= 1, got {self.node_cpu_capacity!r}")
        for name in ("rtt_ms", "write_exec_us", "read_service_us", "msg_proc_us",
                     "pool_scan_cost_us_per_tx"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise InputError(f"{name} must be finite and >= 0, got {value!r}")
        if self.empty_block_bytes < 0:
            raise InputError(f"empty_block_bytes must be >= 0, got {self.empty_block_bytes}")
        # the ledger of a run's MAX_BLOCKS full blocks must fit in int64
        full_block = self.empty_block_bytes + DEFAULT_WRITE_PAYLOAD_BYTES * self.block_tx_capacity
        if full_block > (2**63 - 1) // MAX_BLOCKS:
            raise InputError(f"a full block, empty_block_bytes + {DEFAULT_WRITE_PAYLOAD_BYTES} "
                             f"* block_tx_capacity, must be <= {(2**63 - 1) // MAX_BLOCKS:,} "
                             f"bytes, got {full_block:,}")
        if self.read_mode not in ("multi", "single"):
            raise InputError(f"read_mode must be 'multi' or 'single', got {self.read_mode!r}")
        if self.rtt_matrix_ms is not None:
            n = self.node_count
            if len(self.rtt_matrix_ms) != n or any(len(row) != n for row in self.rtt_matrix_ms):
                raise InputError(f"rtt_matrix_ms must be {n}x{n}")
            if any(not math.isfinite(v) or v < 0 for row in self.rtt_matrix_ms for v in row):
                raise InputError("rtt_matrix_ms entries must be finite and >= 0")

    @property
    def read_servers(self) -> int:
        """The nodes that serve reads, round-robin from node 0: all N in
        ``multi`` mode, node 0 alone in ``single`` mode."""
        return self.node_count if self.read_mode == "multi" else 1


def _fifo_completions(arrivals: np.ndarray, service_s: float) -> np.ndarray:
    """Vectorized FIFO recurrence c_i = max(a_i, c_{i-1}) + s for one node."""
    i = np.arange(arrivals.size, dtype=np.float64)
    # a completion past the float range is inf, which lies past any horizon
    with np.errstate(over="ignore"):
        return service_s * (i + 1.0) + np.maximum.accumulate(arrivals - service_s * i)


def _mean_per_window(total: np.ndarray, count: np.ndarray) -> np.ndarray:
    """``total / count`` per window; 0 where a window counts nothing."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(count > 0, total / np.maximum(count, 1), 0.0)


class MetricsTimeline:
    """Per-window metrics of one simulation run plus end-of-run totals.

    ``run`` builds it from the read completions and each block's commit
    time and pool depth, in commit order; a block's fill is derived as
    ``min(depth, block_tx_capacity)``, the block loop's own rule.  At once
    it computes each block's and each read's window, once (a read still
    queued at the horizon goes to one bin past the last window, which every
    per-window series cuts off), the per-window committed and served counts
    and the six totals.  Every other series is derived on first access and
    then kept, so a caller that reads only throughput computes no latency,
    cpu, pool or ledger series.

    Each kind's latency is one per-window sum, and each mean latency that
    sum over the window's count.  A read adds its own latency.  A block's
    writes' latencies sum to its fill x commit time less their arrival
    times, so each non-empty block adds that difference, and no array with
    one entry per write is made.  Each per-window sum is one ``bincount``,
    which adds in array order: the blocks' differences in commit order, the
    read latencies in read order, and a node's cpu work as the reads it
    served times ``read_service_us``, plus every block's share, plus the
    pool scans of the blocks it proposed.
    """

    def __init__(self, cluster: ClusterConfig, events: EventStream, horizon: float,
                 window_s: float, n_windows: int, read_completions_s: np.ndarray,
                 commit_s: np.ndarray, depths: np.ndarray):
        self.window_s = window_s
        self.read_completions_s = read_completions_s
        self._cluster, self._events = cluster, events
        self._n_windows = n_windows
        self._commit_s, self._depths = commit_s, depths
        self._fills = np.minimum(depths, cluster.block_tx_capacity)
        self._block_windows = self._window_of(commit_s)
        # a read still queued at the horizon goes to one bin past the run
        self._read_windows = self._window_of(read_completions_s)
        self._read_windows[read_completions_s > horizon] = n_windows
        self.committed_count = self._per_window(self._block_windows, self._fills)
        self.served_count = self._per_window(self._read_windows)
        self._widths = np.full(n_windows, window_s)  # the last may be partial: see check_run
        if n_windows - horizon / window_s > 1e-9:
            self._widths[-1] = horizon - (n_windows - 1) * window_s
        self.committed_write_tps = self.committed_count / self._widths
        self.served_read_tps = self.served_count / self._widths
        self.arrived_writes = int(events.write_times.size)
        self.committed_writes = int(self._fills.sum())
        self.pending_writes = self.arrived_writes - self.committed_writes
        self.arrived_reads = int(events.read_times.size)
        self.served_reads = int(self.served_count.sum())
        self.blocks_produced = commit_s.size

    def _window_of(self, t: np.ndarray) -> np.ndarray:
        # clamped before the cast, which a time past the int64 range would fail
        with np.errstate(over="ignore"):
            return np.minimum(t / self.window_s, self._n_windows - 1).astype(np.int64)

    def _per_window(self, windows: np.ndarray, weights=None) -> np.ndarray:
        """Per-window sums, in array order, over the entries within the run;
        weighted sums are float, though bincount makes int zeros of no entries."""
        sums = np.bincount(windows, weights=weights, minlength=self._n_windows + 1)[:-1]
        return sums if weights is None else sums.astype(np.float64, copy=False)

    @property
    def n_windows(self) -> int:
        return self._n_windows

    @cached_property
    def write_latency_sum_ms(self) -> np.ndarray:
        """Sum of the latencies of the writes committed in each window.

        Each block commits the next ``fill`` writes, so one ``reduceat`` over
        the committed writes sums each non-empty block's arrival times, and
        the block adds its fill x commit time less that sum.  Taking the
        difference block by block keeps the commit times' magnitude from
        cancelling in one large difference.
        """
        nonempty = self._fills > 0
        fills = self._fills[nonempty]
        # reduceat would give an empty block the next block's first write
        arrived = np.add.reduceat(self._events.write_times[:self.committed_writes],
                                  np.cumsum(fills) - fills)
        latency_ms = (fills * self._commit_s[nonempty] - arrived) * 1000.0
        return self._per_window(self._block_windows[nonempty], latency_ms)

    @cached_property
    def read_latency_sum_ms(self) -> np.ndarray:
        """Sum of the latencies of the reads served in each window."""
        with np.errstate(over="ignore"):  # only a read completing past the run
            latency_ms = (self.read_completions_s - self._events.read_times) * 1000.0
        return self._per_window(self._read_windows, latency_ms)

    @cached_property
    def mean_write_latency_ms(self) -> np.ndarray:
        return _mean_per_window(self.write_latency_sum_ms, self.committed_count)

    @cached_property
    def mean_read_latency_ms(self) -> np.ndarray:
        return _mean_per_window(self.read_latency_sum_ms, self.served_count)

    @cached_property
    def cpu_utilization(self) -> np.ndarray:
        """Share of each node's capacity used, shape (node_count, n_windows)."""
        cluster = self._cluster
        n_nodes = cluster.node_count
        # every node executes each block and handles 2N of its messages, so a
        # block costs each node msg_proc_us * 2N here, though its round's
        # latency charges msg_proc_us * (2N^2 + N) (see chaincap.model)
        share_us = self._per_window(self._block_windows, cluster.write_exec_us * self._fills
                                    + cluster.msg_proc_us * 2 * n_nodes)
        scan_us = cluster.pool_scan_cost_us_per_tx * self._depths
        # node k serves reads k, k + stride, ... and proposes blocks k, k + N, ...
        stride = cluster.read_servers
        work_us = np.empty((n_nodes, self._n_windows))
        for node in range(n_nodes):
            served = self._per_window(self._read_windows[node::stride]) if node < stride else 0
            work_us[node] = (served * cluster.read_service_us + share_us
                             + self._per_window(self._block_windows[node::n_nodes],
                                                scan_us[node::n_nodes]))
        return np.minimum(1.0, work_us / (cluster.node_cpu_capacity * self._widths))

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

    def columns(self) -> dict[str, np.ndarray]:
        """The timeline table: each column name and its per-window series."""
        windows = np.arange(self.n_windows)
        cpu = enumerate(self.cpu_utilization)
        # k x window carries float noise (2.0999999999999996 for k = 3 at 0.7 s),
        # so each start is rounded to the decimals of the window's shortest
        # repr; past 22 decimals 10^decimals is inexact, and k x window stays
        starts = windows * self.window_s
        decimals = len(np.format_float_positional(self.window_s).partition(".")[2])
        return {
            "window_index": windows,
            "window_start_s": np.round(starts, decimals) if decimals <= 22 else starts,
            "committed_write_tps": self.committed_write_tps,
            "served_read_tps": self.served_read_tps,
            "mean_write_latency_ms": self.mean_write_latency_ms,
            "mean_read_latency_ms": self.mean_read_latency_ms,
            **{f"cpu_utilization_node{i}": node_cpu for i, node_cpu in cpu},
            "pool_depth": self.pool_depth,
            "ledger_bytes": self.ledger_bytes,
        }


def check_run(cluster: ClusterConfig, horizon: float, window_s: float) -> int:
    """The metric windows covering ``horizon``; the last one may be partial.

    A last window that ends more than 1e-9 of a window past the horizon is
    partial: its rates and cpu share are per its width, ``horizon`` less its
    start.  ``simulate`` keeps it; ``bench.check_duration`` admits only whole
    windows to a trial.

    Raises :class:`InputError` for a non-finite or non-positive horizon or
    window, for more than MAX_CELLS node-windows in the cpu table, and for
    more than MAX_BLOCKS block proposals.
    """
    horizon = check_horizon(horizon)
    if not math.isfinite(window_s) or window_s <= 0:
        raise InputError(f"window must be finite and > 0, got {window_s!r}")
    # the slack keeps a horizon that is a whole number of windows from
    # gaining an extra one by rounding; an inf ratio fails before ceil
    windows = horizon / window_s - 1e-9
    if windows > MAX_CELLS // cluster.node_count:
        # a count just past the cap is printed whole, so that it reads as past it
        count = f"{math.ceil(windows):,}" if windows < 2**53 else f"{windows:.4g}"
        raise InputError(
            f"{cluster.node_count} nodes over {count} windows of {window_s!r} s make a "
            f"cpu table of more than the {MAX_CELLS:,} cells one run may hold; shorten the "
            "duration or widen the window")
    blocks = horizon * 1000.0 / cluster.block_interval_ms
    if blocks > MAX_BLOCKS:
        raise InputError(
            f"a {horizon!r} s run at one block per {cluster.block_interval_ms!r} ms makes "
            f"{blocks:.4g} block proposals, more than the {MAX_BLOCKS:,} one run may "
            "hold; shorten the duration")
    return max(1, math.ceil(windows))


def run(cluster: ClusterConfig, events: EventStream, horizon: float,
        window_s: float = 1.0) -> MetricsTimeline:
    """Simulate the cluster against the writes and reads of ``events``.

    Each of its arrays must be non-decreasing and end by ``horizon``,
    unchecked: ``generate_events`` over the same horizon makes such streams.
    The simulation is deterministic and draws no randomness.
    """
    n_windows = check_run(cluster, horizon, window_s)
    write_ts, read_ts = events.write_times, events.read_times

    n_nodes = cluster.node_count

    # --- reads: FIFO queues, no consensus involvement ---
    # round-robin assignment makes each node's reads a strided view; a stream
    # of writes alone runs no queue
    stride = cluster.read_servers
    service_s = cluster.read_service_us * 1e-6
    completions = np.empty(read_ts.size)
    if read_ts.size:
        for node in range(stride):
            completions[node::stride] = _fifo_completions(read_ts[node::stride], service_s)

    # --- writes: sequential proposer-rotating block production ---
    # the loop runs the recurrence only and records each block's commit time
    # and pool depth; its fill is derived from the depth.  It runs once per
    # proposal, so everything it reads is bound to a local first, and the
    # round is model.consensus_round_latency's arithmetic, in the same
    # order.  The arrivals are searched through a memoryview, whose items are
    # Python floats, from the first uncommitted write on: every committed
    # write arrived by an earlier proposal, so the count is searchsorted's.
    commit_times: list[float] = []
    depths: list[int] = []  # pool depth at each proposal
    i_commit = 0          # writes committed so far (FIFO prefix of write_ts)
    base_ms = round_bases_ms(cluster)
    capacity = cluster.block_tx_capacity
    exec_us = cluster.write_exec_us
    scan_us = cluster.pool_scan_cost_us_per_tx
    arrivals = memoryview(write_ts)
    interval_s = cluster.block_interval_ms / 1000.0
    proposer = 0
    t_prop = interval_s
    while t_prop <= horizon + 1e-12:
        pool_depth = bisect_right(arrivals, t_prop, i_commit) - i_commit
        fill = capacity if pool_depth > capacity else pool_depth
        t_commit = t_prop + (base_ms[proposer] + exec_us * fill / 1000.0
                             + scan_us * pool_depth / 1000.0) / 1000.0
        if t_commit > horizon:
            break
        i_commit += fill
        commit_times.append(t_commit)
        depths.append(pool_depth)
        proposer += 1
        if proposer == n_nodes:
            proposer = 0
        t_next = t_prop + interval_s
        t_prop = t_commit if t_commit > t_next else t_next

    return MetricsTimeline(cluster, events, horizon, window_s, n_windows, completions,
                           np.array(commit_times), np.array(depths, dtype=np.int64))


# --- cluster profile files -------------------------------------------------

# a key parses as its field default's type
_CLUSTER_KEYS = {f.name: type(f.default) for f in fields(ClusterConfig)
                 if f.name != "rtt_matrix_ms"}


def read_config(document: str) -> dict[str, dict[str, str]]:
    """The sections of a cluster profile or scenario override, as raw keys.

    ``[config]``, required unless there is no section at all, must hold only
    ``schema_version = 1`` and is not returned.  Every fault is a one-line
    :class:`InputError`; a repeated section or key names its line.
    """
    import configparser

    # no header can be empty, so [DEFAULT] is an ordinary section, not one
    # whose keys every other section inherits
    parser = configparser.ConfigParser(interpolation=None, strict=True, default_section="")
    try:
        parser.read_string(document)
    except configparser.DuplicateOptionError as exc:
        raise InputError(f"line {exc.lineno}: key {exc.option!r} repeated in "
                         f"[{exc.section}]") from None
    except configparser.DuplicateSectionError as exc:
        raise InputError(f"line {exc.lineno}: section [{exc.section}] repeated") from None
    except configparser.MissingSectionHeaderError as exc:
        raise InputError(f"line {exc.lineno}: {exc.line.strip()!r} comes before "
                         "the first [section] header") from None
    except configparser.ParsingError as exc:
        lineno = exc.errors[0][0]
        line = document.split("\n")[lineno - 1].strip()  # read_string splits at \n only
        raise InputError(f"line {lineno}: expected 'key = value', got {line!r}") from None
    sections = {name: dict(parser.items(name)) for name in parser.sections()}
    if sections:
        config = sections.pop("config", None)
        if config is None:
            raise InputError("missing [config] section with schema_version")
        unknown = config.keys() - {"schema_version"}
        if unknown:
            raise InputError(f"[config]: unknown keys {sorted(unknown)}")
        if config.get("schema_version") != str(CONFIG_SCHEMA_VERSION):
            raise InputError(f"[config] schema_version must be {CONFIG_SCHEMA_VERSION}, "
                             f"got {config.get('schema_version')!r}")
    return sections


def load_cluster(document: str) -> ClusterConfig:
    """Parse a cluster profile: ``[cluster]`` keys and an optional ``[rtt_matrix]``."""
    sections = read_config(document)
    for name in sections:
        if name not in ("cluster", "rtt_matrix"):
            raise InputError(f"unknown section [{name}]")
    if "cluster" not in sections:
        raise InputError("missing [cluster] section")

    kwargs = {}
    for key, raw in sections["cluster"].items():
        if key not in _CLUSTER_KEYS:
            raise InputError(f"[cluster]: unknown key {key!r}")
        conv = _CLUSTER_KEYS[key]
        try:
            kwargs[key] = conv(raw)
        except ValueError:
            raise InputError(f"[cluster] {key}: expected {conv.__name__}, got {raw!r}") from None

    if "rtt_matrix" in sections:
        if "rtt_ms" in kwargs:
            raise InputError("[cluster] rtt_ms and [rtt_matrix] both set the RTTs; "
                             "give one of them")
        matrix = sections["rtt_matrix"]
        n = kwargs.get("node_count", ClusterConfig.node_count)
        rows = []
        for i in range(n):
            key = f"node{i}"
            if key not in matrix:
                raise InputError(f"[rtt_matrix]: missing row {key!r}")
            try:
                row = tuple(float(v) for v in matrix[key].split(","))
            except ValueError:
                raise InputError(f"[rtt_matrix] {key}: expected comma-separated floats") from None
            rows.append(row)
        extra = matrix.keys() - {f"node{i}" for i in range(n)}
        if extra:
            raise InputError(f"[rtt_matrix]: unexpected rows {sorted(extra)}")
        kwargs["rtt_matrix_ms"] = tuple(rows)

    return ClusterConfig(**kwargs)


def default_cluster() -> ClusterConfig:
    """The calibrated 4-node profile."""
    return ClusterConfig()
