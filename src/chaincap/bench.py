"""Workload campaigns against the simulator.

Covers steady-state detection (arrival rate == throughput within tolerance),
multi-trial Poisson campaigns, maximum-sustainable-rate search by
exponential bracketing plus bisection, and node-count sweeps.
"""

from __future__ import annotations

import csv
import math
import statistics
from dataclasses import dataclass, replace
from functools import cached_property

from .arrival import (
    ArrivalKind,
    ArrivalProcess,
    TxKind,
    UnitDraws,
    check_event_count,
    check_rate,
    check_seed,
    generate_events,
)
from .chainsim import ClusterConfig, MetricsTimeline, run
from .errors import CalibrationError, DomainError, InputError

# trial policy: every trial uses 1 s metric windows, drops the first 10% of
# them as warm-up, and is steady when throughput is within 2% of the offered
# rate (relative; the source experiments report no tolerance)
WINDOW_S = 1.0
WARMUP_FRACTION = 0.1
STEADY_TOLERANCE = 0.02
DEFAULT_SEARCH_TOLERANCE = 0.01
# hi / lo - 1 cannot fall below one ulp (about 2.2e-16), and near it the
# geometric midpoint rounds to an endpoint, so a finer tolerance never ends
MIN_SEARCH_TOLERANCE = 1e-9
MAX_SEARCH_TOLERANCE = 0.05

# full-protocol experiment shape: 5 trials of 10 minutes each
PAPER_TRIALS = 5
PAPER_DURATION_S = 600
# desk-scale defaults keep the acceptance suite laptop-sized
DESK_TRIALS = 3
DESK_DURATION_S = 60


def check_duration(duration_s: float) -> None:
    """Validate a trial duration: finite and at least 10 windows long."""
    if not (math.isfinite(duration_s) and duration_s >= 10 * WINDOW_S):
        raise DomainError(f"duration must cover at least 10 windows of {WINDOW_S} s, "
                          f"got {duration_s!r}")


@dataclass(frozen=True)
class CampaignSpec:
    """A grid of (rate x trial) simulations on one cluster."""

    cluster: ClusterConfig
    kind: TxKind
    rates: tuple[float, ...]
    arrival_kind: ArrivalKind = ArrivalKind.POISSON
    trials: int = PAPER_TRIALS
    duration_s: float = PAPER_DURATION_S
    base_seed: int = 0

    def __post_init__(self):
        if self.trials < 1:
            raise DomainError(f"trials must be >= 1, got {self.trials}")
        check_duration(self.duration_s)
        # trial i runs at seed base_seed + i
        check_seed(self.base_seed, "base_seed")
        check_seed(self.base_seed + self.trials - 1, "base_seed + trials - 1")
        for r in self.rates:
            check_event_count(check_rate(r, "rate"), self.duration_s)


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
class CampaignResult:
    spec: CampaignSpec
    trials: tuple[TrialSummary, ...]
    aggregates: tuple[RateAggregate, ...]


@dataclass(frozen=True)
class CapacityProfile:
    """Maximum sustainable arrival rates for one cluster size."""

    node_count: int
    max_lambda_read: float
    max_lambda_write: float
    search_tolerance: float
    source: str = "simulated"

    def validate(self) -> None:
        # inf marks an axis not searched; NaN fails both comparisons
        if not (self.max_lambda_read > 0 and self.max_lambda_write > 0):
            raise DomainError(f"capacity maxima must be > 0 or inf, got read="
                              f"{self.max_lambda_read!r}, write={self.max_lambda_write!r}")
        if self.node_count < 4:
            raise DomainError(f"node_count must be >= 4 (BFT minimum), got {self.node_count}")

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
        if not isinstance(doc, dict):
            raise InputError(f"a capacity profile must be a JSON object, got {type(doc).__name__}")
        if doc.get("schema_version") != 1:
            raise DomainError(f"unsupported capacity schema_version {doc.get('schema_version')!r}")
        read = doc.get("max_lambda_read")
        write = doc.get("max_lambda_write")
        try:
            profile = cls(
                node_count=int(doc["node_count"]),
                max_lambda_read=float(read) if read is not None else math.inf,
                max_lambda_write=float(write) if write is not None else math.inf,
                search_tolerance=float(doc.get("search_tolerance", 0.0)),
                source=str(doc.get("source", "file")),
            )
        except KeyError as exc:
            raise InputError(f"capacity profile lacks the key {exc}") from None
        except (TypeError, ValueError) as exc:
            raise InputError(f"malformed capacity profile: {exc}") from None
        profile.validate()
        return profile


def detect_steady_state(lambda_offered: float, mean_tps: float) -> bool:
    """Steady iff throughput matches the offered rate within STEADY_TOLERANCE."""
    if lambda_offered <= 0:
        raise DomainError(f"lambda_offered must be > 0, got {lambda_offered}")
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
        if kind is TxKind.WRITE:
            self.mean_tps = timeline.mean_committed_write_tps(self._skip)
        else:
            self.mean_tps = timeline.mean_served_read_tps(self._skip)
        self.steady = detect_steady_state(lam, self.mean_tps)

    @cached_property
    def mean_latency_ms(self) -> float:
        """Mean latency over the post-warm-up windows, weighted by throughput."""
        skip, timeline = self._skip, self._timeline
        if self._kind is TxKind.WRITE:
            lat = timeline.mean_write_latency_ms[skip:]
            counts = timeline.committed_write_tps[skip:]
        else:
            lat = timeline.mean_read_latency_ms[skip:]
            counts = timeline.served_read_tps[skip:]
        total = counts.sum()
        return float((lat * counts).sum() / total) if total > 0 else 0.0

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

    ``draws``, if given, holds ``seed``'s unit draws shared with other trials.
    """
    check_rate(lam, "lambda")
    if lam <= 0:
        raise DomainError("trial rate must be > 0")
    process = ArrivalProcess(kind=arrival_kind, rate=lam, seed=seed)
    events = generate_events(process, kind, duration_s, draws=draws)
    return Trial(kind, lam, seed, run(cluster, events, horizon=duration_s, window_s=WINDOW_S))


def run_campaign(spec: CampaignSpec) -> CampaignResult:
    """Run trials x rates with seeds base_seed + trial index; aggregate per rate."""
    trials: list[TrialSummary] = []
    aggregates: list[RateAggregate] = []
    for rate in spec.rates:
        rate_trials = []
        for i in range(spec.trials):
            # the summary drops the trial's timeline before the next trial
            rate_trials.append(run_trial(spec.cluster, spec.kind, spec.arrival_kind, rate,
                                         spec.duration_s, seed=spec.base_seed + i).summary())
        trials.extend(rate_trials)
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
    return CampaignResult(spec=spec, trials=tuple(trials), aggregates=tuple(aggregates))


def find_max_lambda(cluster: ClusterConfig, kind: TxKind,
                    arrival_kind: ArrivalKind = ArrivalKind.POISSON,
                    tolerance: float = DEFAULT_SEARCH_TOLERANCE,
                    duration_s: float = DESK_DURATION_S,
                    base_seed: int = 0,
                    start: float = 100.0) -> float:
    """Largest steady arrival rate, by exponential bracketing then bisection.

    Each probe reuses ``base_seed`` so the steady predicate is a deterministic
    function of the rate; the probes share that seed's unit draws, so the
    search draws its uniforms once.  Raises :class:`CalibrationError` when
    even the smallest probe is unsteady.
    """
    if not MIN_SEARCH_TOLERANCE <= tolerance <= MAX_SEARCH_TOLERANCE:
        raise DomainError(f"search tolerance must be in [{MIN_SEARCH_TOLERANCE}, "
                          f"{MAX_SEARCH_TOLERANCE}], got {tolerance!r}")
    check_duration(duration_s)

    draws = UnitDraws(base_seed)

    def probe(lam: float) -> Trial:
        return run_trial(cluster, kind, arrival_kind, lam, duration_s, seed=base_seed,
                         draws=draws)

    def steady(lam: float) -> bool:
        return probe(lam).steady

    lo = check_rate(start, "start")
    if lo <= 0:
        raise DomainError("start rate must be > 0")
    first = probe(lo)
    if not first.steady:
        raise CalibrationError(
            f"no steady operating point at the smallest probe rate {lo}; "
            "the cluster profile looks miscalibrated: its mean throughput "
            f"{first.mean_tps:.2f} tps is outside {lo} ±{STEADY_TOLERANCE:.0%} "
            f"[{lo * (1 - STEADY_TOLERANCE):.2f}, {lo * (1 + STEADY_TOLERANCE):.2f}] "
            f"at seed {base_seed}")
    hi = lo * 2.0
    while steady(hi):
        lo = hi
        hi *= 2.0
    while hi / lo - 1.0 > tolerance:
        mid = math.sqrt(lo * hi)
        if steady(mid):
            lo = mid
        else:
            hi = mid
    return lo


def sweep_nodes(base_cluster: ClusterConfig, node_counts: list[int],
                kinds: tuple[TxKind, ...],
                arrival_kind: ArrivalKind = ArrivalKind.POISSON,
                tolerance: float = DEFAULT_SEARCH_TOLERANCE,
                duration_s: float = DESK_DURATION_S,
                base_seed: int = 0,
                start: float = 100.0) -> list[CapacityProfile]:
    """Run the capacity search per node count and kind, ordered by node count.

    The axis of a kind not in ``kinds`` is left at inf.
    """
    for n in node_counts:
        if n < 4:
            raise DomainError(f"node counts must be >= 4 (BFT minimum), got {n}")
    profiles = []
    for n in sorted(node_counts):
        cluster = replace(base_cluster, node_count=n)
        found = {kind: find_max_lambda(cluster, kind, arrival_kind, tolerance=tolerance,
                                       duration_s=duration_s, base_seed=base_seed,
                                       start=start)
                 for kind in kinds}
        profiles.append(CapacityProfile(node_count=n,
                                        max_lambda_read=found.get(TxKind.READ, math.inf),
                                        max_lambda_write=found.get(TxKind.WRITE, math.inf),
                                        search_tolerance=tolerance))
    return profiles


# --- result emitters -------------------------------------------------------

def write_campaign_csv(result: CampaignResult, fp) -> None:
    """One row per trial, stable column order."""
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(["lambda_offered", "trial", "seed", "mean_tps",
                     "mean_latency_ms", "mean_cpu", "steady"])
    by_rate: dict[float, int] = {}
    for t in result.trials:
        idx = by_rate.get(t.lambda_offered, 0)
        by_rate[t.lambda_offered] = idx + 1
        writer.writerow([repr(t.lambda_offered), idx, t.seed, repr(t.mean_tps),
                         repr(t.mean_latency_ms), repr(t.mean_cpu), int(t.steady)])


def campaign_json_dict(result: CampaignResult) -> dict:
    spec = result.spec
    return {
        "schema_version": 1,
        "kind": spec.kind.value,
        "arrival_kind": spec.arrival_kind.value,
        "node_count": spec.cluster.node_count,
        "trials": spec.trials,
        "duration_s": spec.duration_s,
        "base_seed": spec.base_seed,
        "steady_tolerance": STEADY_TOLERANCE,
        "aggregates": [
            {
                "lambda_offered": a.lambda_offered,
                "mean_tps": a.mean_tps,
                "std_tps": a.std_tps,
                "mean_latency_ms": a.mean_latency_ms,
                "std_latency_ms": a.std_latency_ms,
                "mean_cpu": a.mean_cpu,
                "steady_trials": a.steady_trials,
                "trials": a.trials,
            }
            for a in result.aggregates
        ],
    }


def write_plot_data_csv(result: CampaignResult, fp) -> None:
    """Per-figure plot data: arrival rate vs tps, cpu and latency."""
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(["arrival_rate", "tps", "cpu_utilization", "latency_ms"])
    for a in result.aggregates:
        writer.writerow([repr(a.lambda_offered), repr(a.mean_tps),
                         repr(a.mean_cpu), repr(a.mean_latency_ms)])
