"""Workload campaigns against the simulator.

Covers steady-state detection (arrival rate == throughput within tolerance),
multi-trial Poisson campaigns, maximum sustainable rates (for writes a
doubling ladder with two rungs aimed at the closed-form
``model.capacity_bound``, then bisection; for reads that bound itself,
confirmed by two probes), and node-count sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import cached_property

from .arrival import (
    MAX_EXPECTED_EVENTS,
    ArrivalKind,
    ArrivalProcess,
    TxKind,
    UnitDraws,
    check_event_count,
    check_rate,
    check_seed,
    generate_events,
)
from .chainsim import ClusterConfig, MetricsTimeline, check_run, run
from .errors import CalibrationError, InputError
from .model import capacity_bound

# trial policy: every trial uses 1 s metric windows, drops the first 10% of
# them as warm-up, and is steady when throughput is within 2% of the offered
# rate (relative; the source experiments report no tolerance)
WINDOW_S = 1.0
WARMUP_FRACTION = 0.1
STEADY_TOLERANCE = 0.02
# relative: the write bisection stops within it, and the read capacity is the
# read service limit less it
SEARCH_TOLERANCE = 0.01
# the write search's first probe rate, tx/s
FIRST_PROBE_RATE = 100.0
# the write search's two rungs around model.capacity_bound sit this far
# either side of it, relative.  On the shipped profile at 60 s (bound
# 1375.2), 80 of seeds 0..99 find 1364.4-1385.0, between the rungs at 1334.0
# and 1416.5; seeds 80 and 93 find 169.1 and 137.6, and 18 seeds exit 3 at
# the first probe.  A read capacity's unsteady probe sits at the upper rung too:
# past the service limit the served rate stays at the limit, so there the
# throughput falls 1 - 1/1.03 = 2.9% short, outside the +-2% band, which
# still calls 1.019 times the limit steady
BOUND_MARGIN = 0.03

# desk-scale defaults keep the acceptance suite laptop-sized
DESK_TRIALS = 3
DESK_DURATION_S = 60
# most trials one campaign may run, over all its rates.  A campaign keeps
# every trial's summary: over 100k of them tracemalloc read 264 bytes each
# (Python 3.11), so this holds the summaries near 0.26 GB, the scale of a
# write simulate's event cap.  A campaign with no rates still walks its seeds,
# so it counts as one rate.
MAX_CAMPAIGN_TRIALS = 1_000_000


def check_duration(cluster: ClusterConfig, duration_s: float) -> None:
    """Validate a trial duration: at least 10 windows, all of them whole, and a
    run ``check_run`` accepts.

    A partial last window's rates are per its own width, but a trial's means
    weigh each window equally, so a short one would weigh as a whole one.
    """
    if not (math.isfinite(duration_s) and duration_s >= 10 * WINDOW_S):
        raise InputError(f"duration must cover at least 10 windows of {WINDOW_S} s, "
                         f"got {duration_s!r}")
    if not (duration_s / WINDOW_S).is_integer():
        raise InputError(f"duration must be a whole number of {WINDOW_S} s windows, "
                         f"got {duration_s!r}")
    check_run(cluster, duration_s, WINDOW_S)


@dataclass(frozen=True)
class CampaignSpec:
    """A grid of (rate x trial) simulations on one cluster."""

    cluster: ClusterConfig
    kind: TxKind
    rates: tuple[float, ...]
    arrival_kind: ArrivalKind = ArrivalKind.POISSON
    trials: int = DESK_TRIALS
    duration_s: float = DESK_DURATION_S
    base_seed: int = 0

    def __post_init__(self):
        if self.trials < 1:
            raise InputError(f"trials must be >= 1, got {self.trials}")
        most = MAX_CAMPAIGN_TRIALS // max(1, len(self.rates))
        if self.trials > most:
            raise InputError(f"trials must be <= {most:,} at {len(self.rates)} rates, as one "
                             f"campaign may run {MAX_CAMPAIGN_TRIALS:,} trials, got {self.trials}")
        check_duration(self.cluster, self.duration_s)
        # trial i runs at seed base_seed + i
        check_seed(self.base_seed, "base_seed")
        check_seed(self.base_seed + self.trials - 1, "base_seed + trials - 1")
        if len(set(self.rates)) != len(self.rates):
            raise InputError(f"campaign rates must be distinct, got {list(self.rates)!r}")
        for r in self.rates:
            if check_rate(r, "rate") <= 0:
                raise InputError(f"trial rate must be > 0, got {r!r}")
            check_event_count(r, self.duration_s)


@dataclass(frozen=True)
class TrialSummary:
    """Post-warmup means of one simulation trial."""

    lambda_offered: float
    mean_tps: float
    mean_latency_ms: float
    mean_cpu: float
    steady: bool
    seed: int


@dataclass(frozen=True)
class RateAggregate:
    """Across-trial mean and sample standard deviation at one offered rate."""

    lambda_offered: float
    mean_tps: float
    std_tps: float
    mean_latency_ms: float
    std_latency_ms: float
    mean_cpu: float
    steady_trials: int
    trials: int


@dataclass(frozen=True)
class CapacityProfile:
    """Maximum sustainable arrival rates for one cluster size; the
    constructor raises :class:`InputError` for an invalid profile."""

    node_count: int
    max_lambda_read: float
    max_lambda_write: float
    search_tolerance: float
    source: str = "simulated"

    def __post_init__(self) -> None:
        # inf marks an axis not searched; NaN fails both comparisons
        if not (self.max_lambda_read > 0 and self.max_lambda_write > 0):
            raise InputError(f"capacity maxima must be > 0 or inf, got read="
                             f"{self.max_lambda_read!r}, write={self.max_lambda_write!r}")
        if self.node_count < 4:
            raise InputError(f"node_count must be >= 4 (BFT minimum), got {self.node_count}")
        if not (math.isfinite(self.search_tolerance) and self.search_tolerance >= 0):
            raise InputError(f"search_tolerance must be finite and >= 0, "
                             f"got {self.search_tolerance!r}")

    def to_json_dict(self) -> dict:
        # an axis never searched (inf) serializes as null
        return {
            "schema_version": 1,
            "node_count": self.node_count,
            "max_lambda_read": self.max_lambda_read if math.isfinite(self.max_lambda_read) else None,
            "max_lambda_write": self.max_lambda_write if math.isfinite(self.max_lambda_write) else None,
            "search_tolerance": self.search_tolerance,
            "source": self.source,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "CapacityProfile":
        """The profile of a parsed JSON document, in which a null maximum is inf;
        :class:`InputError` unless each value has its JSON type."""
        if not isinstance(doc, dict):
            raise InputError(f"a capacity profile must be a JSON object, got {type(doc).__name__}")
        if doc.get("schema_version") != 1:
            raise InputError(f"unsupported capacity schema_version {doc.get('schema_version')!r}")
        if "profiles" in doc:
            raise InputError("the file holds a --nodes sweep; assess needs one profile, "
                             "of one node count")
        unknown = doc.keys() - {f.name for f in fields(cls)} - {"schema_version"}
        if unknown:
            raise InputError(f"capacity profile has unknown keys {sorted(unknown)}")
        node_count = doc.get("node_count")
        if type(node_count) is not int:  # bool is a subclass of int
            raise InputError(f"capacity profile needs an integer node_count, got {node_count!r}")
        read, write = doc.get("max_lambda_read"), doc.get("max_lambda_write")
        source = doc.get("source", "file")
        if not isinstance(source, str):
            raise InputError(f"capacity profile source must be a string, got {source!r}")
        return cls(
            node_count=node_count,
            max_lambda_read=math.inf if read is None else _json_number("max_lambda_read", read),
            max_lambda_write=(math.inf if write is None
                              else _json_number("max_lambda_write", write)),
            search_tolerance=_json_number("search_tolerance", doc.get("search_tolerance", 0.0)),
            source=source,
        )


def _json_number(key: str, value) -> float:
    if type(value) not in (int, float):
        raise InputError(f"capacity profile {key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        raise InputError(f"capacity profile {key} is out of the float range") from None


def detect_steady_state(lambda_offered: float, mean_tps: float) -> bool:
    """Steady iff throughput matches the offered rate within STEADY_TOLERANCE."""
    if lambda_offered <= 0:
        raise InputError(f"lambda_offered must be > 0, got {lambda_offered}")
    return abs(mean_tps - lambda_offered) <= STEADY_TOLERANCE * lambda_offered


class Trial:
    """One trial's throughput verdict; its latency and cpu means are computed
    from the timeline on first access.

    A capacity probe reads only ``mean_tps`` and ``steady``.  ``summary``
    turns the trial into a plain record that no longer holds the timeline.
    """

    def __init__(self, kind: TxKind, lam: float, seed: int, timeline: MetricsTimeline):
        self.lambda_offered = lam
        self.seed = seed
        self._kind = kind
        self._timeline = timeline
        self._skip = int(timeline.n_windows * WARMUP_FRACTION)
        tps = timeline.committed_write_tps if kind is TxKind.WRITE else timeline.served_read_tps
        self.mean_tps = float(tps[self._skip:].mean())
        self.steady = detect_steady_state(lam, self.mean_tps)

    @cached_property
    def mean_latency_ms(self) -> float:
        """Mean latency of the writes committed, or the reads served, in the
        post-warm-up windows: their latency sums over their counts."""
        timeline = self._timeline
        sums, counts = ((timeline.write_latency_sum_ms, timeline.committed_count)
                        if self._kind is TxKind.WRITE
                        else (timeline.read_latency_sum_ms, timeline.served_count))
        count = counts[self._skip:].sum()
        return float(sums[self._skip:].sum() / count) if count > 0 else 0.0

    @cached_property
    def mean_cpu(self) -> float:
        return float(self._timeline.cpu_utilization[:, self._skip:].mean())

    def summary(self) -> TrialSummary:
        return TrialSummary(
            lambda_offered=self.lambda_offered,
            mean_tps=self.mean_tps,
            mean_latency_ms=self.mean_latency_ms,
            mean_cpu=self.mean_cpu,
            steady=self.steady,
            seed=self.seed,
        )


def run_trial(cluster: ClusterConfig, kind: TxKind, arrival_kind: ArrivalKind,
              lam: float, duration_s: float, seed: int,
              draws: UnitDraws | None = None) -> Trial:
    """One simulation at one offered rate; means exclude the warm-up prefix.

    ``draws``, if given, holds ``seed``'s unit-rate epochs shared with other trials.
    """
    process = ArrivalProcess(kind=arrival_kind, rate=lam, seed=seed)
    events = generate_events(process, kind, duration_s, draws=draws)
    return Trial(kind, lam, seed, run(cluster, events, horizon=duration_s, window_s=WINDOW_S))


def run_campaign(spec: CampaignSpec) -> tuple[tuple[TrialSummary, ...],
                                               tuple[RateAggregate, ...]]:
    """Run trials x rates with seeds base_seed + trial index; return the
    trials and the per-rate aggregates.

    Trial i of every rate runs at seed base_seed + i, so the campaign runs
    seed-major: the trials at one seed share its :class:`UnitDraws`, which a
    Poisson campaign reserves for its fastest rate before the seed's first
    trial, so each seed draws its uniforms in one call and every trial
    divides a prefix of them.  Each seed's draws take over the epoch buffer
    of the seed before, so one buffer serves the campaign and holds one
    seed's epochs at a time.  Trials run in ``rates`` order at each seed, and
    trials and aggregates are reported rate-major, trial after trial within
    a rate.
    """
    import statistics

    by_rate: dict[float, list[TrialSummary]] = {rate: [] for rate in spec.rates}
    draws = None
    for seed in range(spec.base_seed, spec.base_seed + spec.trials):
        draws = UnitDraws(seed, reuse=draws)
        if spec.rates and spec.arrival_kind is ArrivalKind.POISSON:
            draws.reserve(max(spec.rates), spec.duration_s)
        # the summary drops the trial's timeline before the next trial
        for rate in spec.rates:
            by_rate[rate].append(run_trial(spec.cluster, spec.kind, spec.arrival_kind, rate,
                                           spec.duration_s, seed=seed, draws=draws).summary())
    # a trial's arguments kept past the campaign hold no epochs either
    draws.forget()
    aggregates = []
    for rate, rate_trials in by_rate.items():
        tps = [t.mean_tps for t in rate_trials]
        lats = [t.mean_latency_ms for t in rate_trials]
        aggregates.append(RateAggregate(
            lambda_offered=rate,
            mean_tps=statistics.fmean(tps),
            std_tps=statistics.stdev(tps) if len(tps) > 1 else 0.0,
            mean_latency_ms=statistics.fmean(lats),
            std_latency_ms=statistics.stdev(lats) if len(lats) > 1 else 0.0,
            mean_cpu=statistics.fmean(t.mean_cpu for t in rate_trials),
            steady_trials=sum(t.steady for t in rate_trials),
            trials=spec.trials,
        ))
    return tuple(t for rate_trials in by_rate.values() for t in rate_trials), tuple(aggregates)


def _check_probe(cluster: ClusterConfig, kind: TxKind, lam: float,
                 duration_s: float) -> None:
    """:class:`InputError`, naming the search and a duration that fits, if a
    capacity search's probe at ``lam`` passes the event cap."""
    if lam * duration_s <= MAX_EXPECTED_EVENTS:
        return
    windows = math.floor(MAX_EXPECTED_EVENTS / (lam * WINDOW_S))
    if lam * windows * WINDOW_S > MAX_EXPECTED_EVENTS:  # the quotient rounded up
        windows -= 1
    hint = (f"give a --duration of at most {windows * WINDOW_S:g} s" if windows >= 10
            else f"even the shortest --duration, {10 * WINDOW_S:g} s, does not fit; "
                 "give fewer nodes")
    raise InputError(
        f"the {kind.value} capacity search at {cluster.node_count} nodes would probe "
        f"{lam!r}/s over {duration_s!r} s, which expects {lam * duration_s:.4g} events, "
        f"more than the {MAX_EXPECTED_EVENTS:,} one trial may hold; {hint}")


def _plan_search(cluster: ClusterConfig, kind: TxKind,
                 duration_s: float) -> tuple[float, float]:
    """The ``capacity_bound`` a capacity search aims at and its largest
    planned probe, once ``_check_probe`` accepts that probe.

    For reads that probe is the upper one, ``1 + BOUND_MARGIN`` times the
    bound.  For writes it is the larger of ``FIRST_PROBE_RATE`` and the upper
    rung, which the ladder reaches unless a probe below it is unsteady.  A
    ladder still steady at the upper rung doubles past it, and each such probe
    is checked when it comes.  The caller has run ``check_duration``, whose
    block cap keeps the write bound finite.  Raises :class:`InputError` for an
    infinite read bound, before the cap.
    """
    bound = capacity_bound(cluster, kind)
    upper = bound * (1.0 + BOUND_MARGIN)
    if kind is TxKind.READ:
        if bound == math.inf:
            # the shortest repr, since :g prints the subnormal 1e-320 as 9.99989e-321
            service_us = repr(cluster.read_service_us).removesuffix(".0")
            raise InputError(f"read_service_us = {service_us} makes the read service rate "
                             "infinite, so the read capacity has no bound; give a larger "
                             "read_service_us")
        largest = upper
    else:
        largest = max(FIRST_PROBE_RATE, upper)
    _check_probe(cluster, kind, largest, duration_s)
    return bound, largest


def find_max_lambda(cluster: ClusterConfig, kind: TxKind,
                    arrival_kind: ArrivalKind = ArrivalKind.POISSON,
                    duration_s: float = DESK_DURATION_S,
                    base_seed: int = 0) -> float:
    """Largest steady arrival rate: for reads the service limit, for writes
    the result of exponential bracketing then bisection.

    Reads never enter consensus, and each node serves them through a FIFO
    queue with a fixed service time, which is stable iff the arrival rate is
    below its service rate (Loynes 1962).  So the read capacity is
    ``capacity_bound * (1 - SEARCH_TOLERANCE)``, once the simulator confirms
    the bound: that rate must be steady, and ``1 + BOUND_MARGIN`` times the
    bound unsteady, or :class:`CalibrationError` names both probes.

    The write bracket doubles from ``FIRST_PROBE_RATE``.  Two rungs
    at ``1 -/+ BOUND_MARGIN`` times ``capacity_bound`` join its ladder: a
    rung above the last steady probe and at or below the next doubling is
    probed in that doubling's place, so the search usually brackets the
    capacity between the two rungs.  A rung at or below the first probe adds
    no probe.  Bisection stops once the bracket is within ``SEARCH_TOLERANCE``
    and returns its steady end, so the capacity is the simulator's verdict.

    Each probe reuses ``base_seed`` so the steady predicate is a deterministic
    function of the rate; the probes share that seed's unit-rate epochs.
    Before the first probe the search checks its largest planned probe
    against the event cap (:func:`_plan_search`) and, for a Poisson stream,
    reserves that probe's epochs, so it draws and sums its uniforms in one
    call unless its ladder doubles past the upper rung.  Raises
    :class:`CalibrationError` when even the smallest write probe is unsteady,
    and :class:`InputError` for reads whose service rate is infinite
    (``read_service_us = 0``, or so small that the rate overflows), whose
    capacity has no bound, and for a probe past the event cap.
    """
    check_duration(cluster, duration_s)
    bound, largest = _plan_search(cluster, kind, duration_s)
    draws = UnitDraws(base_seed)
    if arrival_kind is ArrivalKind.POISSON:
        draws.reserve(largest, duration_s)

    def probe(lam: float) -> tuple[float, float, bool]:
        """(rate, mean tps, steady) of a trial at ``lam``; the trial and its
        timeline are gone before the next probe runs."""
        _check_probe(cluster, kind, lam, duration_s)
        trial = run_trial(cluster, kind, arrival_kind, lam, duration_s, seed=base_seed,
                          draws=draws)
        return lam, trial.mean_tps, trial.steady

    if kind is TxKind.READ:
        above, below = (probe(r) for r in (largest, bound * (1.0 - SEARCH_TOLERANCE)))
        if below[2] and not above[2]:
            return below[0]
        raise CalibrationError(
            f"the simulator does not confirm the read capacity bound {bound:.1f}/s at seed "
            f"{base_seed}: " + ", ".join(
                f"{lam:.1f}/s serves {tps:.2f} tps and is {'steady' if steady else 'unsteady'} "
                f"(must be {want})"
                for (lam, tps, steady), want in ((below, "steady"), (above, "unsteady"))))

    lo = FIRST_PROBE_RATE
    _, first_tps, first_steady = probe(lo)
    if not first_steady:
        raise CalibrationError(
            f"no steady operating point at the smallest probe rate {lo}; "
            "the cluster profile looks miscalibrated: its mean throughput "
            f"{first_tps:.2f} tps is outside {lo} ±{STEADY_TOLERANCE:.0%} "
            f"[{lo * (1 - STEADY_TOLERANCE):.2f}, {lo * (1 + STEADY_TOLERANCE):.2f}] "
            f"at seed {base_seed}")
    rungs = [r for r in (bound * (1.0 - BOUND_MARGIN), bound * (1.0 + BOUND_MARGIN)) if lo < r]
    while True:
        hi = rungs.pop(0) if rungs and rungs[0] <= 2.0 * lo else 2.0 * lo
        _, _, steady = probe(hi)
        if not steady:
            break
        lo = hi
    while hi / lo - 1.0 > SEARCH_TOLERANCE:
        mid = math.sqrt(lo * hi)
        _, _, steady = probe(mid)
        if steady:
            lo = mid
        else:
            hi = mid
    return lo


def sweep_nodes(base_cluster: ClusterConfig, node_counts: list[int],
                kinds: tuple[TxKind, ...],
                arrival_kind: ArrivalKind = ArrivalKind.POISSON,
                duration_s: float = DESK_DURATION_S,
                base_seed: int = 0) -> list[CapacityProfile]:
    """Run the capacity search per node count and kind, ordered by node count.

    The axis of a kind not in ``kinds`` is left at inf.  Every node count's
    profile, run and searches' largest planned probes are checked, as
    :func:`find_max_lambda` checks them, before the first search.
    """
    if len(set(node_counts)) != len(node_counts):
        raise InputError(f"node counts must be distinct, got {node_counts!r}")
    clusters = [replace(base_cluster, node_count=n) for n in sorted(node_counts)]
    for cluster in clusters:
        check_duration(cluster, duration_s)
        for kind in kinds:
            _plan_search(cluster, kind, duration_s)
    profiles = []
    for cluster in clusters:
        found = {kind: find_max_lambda(cluster, kind, arrival_kind, duration_s=duration_s,
                                       base_seed=base_seed)
                 for kind in kinds}
        profiles.append(CapacityProfile(node_count=cluster.node_count,
                                        max_lambda_read=found.get(TxKind.READ, math.inf),
                                        max_lambda_write=found.get(TxKind.WRITE, math.inf),
                                        search_tolerance=SEARCH_TOLERANCE))
    return profiles
