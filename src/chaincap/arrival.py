"""Transaction arrival model.

Transactions reach the blockchain as a stream of read/write events.  The
stream is either a Poisson process (exponential interarrivals at rate
``lambda``) or a deterministic comb at spacing ``1/lambda`` used as a
calibration baseline.

Streams are generated with a counter-based PRNG (Philox) so that identical
(kind, rate, seed) always reproduce the identical stream, and independent
trials can simply use different seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ContractError, DomainError


# Largest expected event count (rate x horizon) of one stream.  A trial holds
# its arrival buffer plus, for writes, the latency of every committed write
# (a capacity probe computes none) and, for reads, the completion times and
# their per-window temporaries: a 4M-event trial at a sustainable rate peaked
# 17 bytes per event above the interpreter's own memory for writes (9 as a
# probe) and 39 for reads, so this caps one trial near 1.2 GB, and a rate that
# would exhaust memory is rejected before anything is allocated.  The paper protocol's longest trial, 20k reads/s for
# 600 s, expects 12M events.
MAX_EXPECTED_EVENTS = 30_000_000

DEFAULT_WRITE_PAYLOAD_BYTES = 256  # hash-plus-signature class record

# a Philox key is 128 bits, so seeds are integers in [0, SEED_LIMIT)
SEED_LIMIT = 2**128


class ArrivalKind(Enum):
    POISSON = "poisson"
    DETERMINISTIC = "deterministic"


class TxKind(Enum):
    READ = "read"
    WRITE = "write"


def check_rate(value: float, name: str = "rate") -> float:
    """Validate a per-second rate: finite and non-negative."""
    value = float(value)
    if not math.isfinite(value) or value < 0.0:
        raise DomainError(f"{name} must be a finite non-negative rate, got {value!r}")
    return value


def check_seed(seed: int, name: str = "seed") -> None:
    """Validate a stream seed: an integer key of the Philox generator."""
    if not 0 <= seed < SEED_LIMIT:
        raise DomainError(f"{name} must be in [0, 2**128), got {seed!r}")


@dataclass(frozen=True)
class ArrivalProcess:
    """A reproducible interarrival generator.

    Identical (kind, rate, seed) produce bitwise-identical streams.
    """

    kind: ArrivalKind
    rate: float
    seed: int = 0

    def __post_init__(self):
        check_rate(self.rate, "rate")
        check_seed(self.seed)

    def rng(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this process's stream."""
        return np.random.Generator(np.random.Philox(key=self.seed))


@dataclass(frozen=True)
class EventStream:
    """A transaction arrival stream: write and read arrival times.

    Both arrays are seconds since stream start, sorted, float64; every write
    carries DEFAULT_WRITE_PAYLOAD_BYTES.
    """

    write_times: np.ndarray
    read_times: np.ndarray

    def __len__(self) -> int:
        return len(self.write_times) + len(self.read_times)


def _check_horizon(horizon: float) -> float:
    horizon = float(horizon)
    if not math.isfinite(horizon) or horizon <= 0.0:
        raise DomainError(f"horizon must be finite and > 0, got {horizon!r}")
    return horizon


def check_event_count(rate: float, horizon: float) -> float:
    """The expected event count ``rate * horizon``, if within MAX_EXPECTED_EVENTS."""
    expected = rate * horizon
    if expected > MAX_EXPECTED_EVENTS:
        raise DomainError(
            f"rate {rate!r}/s over {horizon!r} s expects {expected:.4g} events, more than "
            f"the {MAX_EXPECTED_EVENTS:,} one trial may hold; lower the rate or the duration")
    return expected


class UnitDraws:
    """Unit-rate exponential draws ``-log1p(-u)`` of one seed's uniforms.

    Draw ``i`` divided by a rate is interarrival ``i`` of that seed's Poisson
    stream at that rate, so the probes of a capacity search, which all use
    one seed, can share one buffer and each divide it by their own rate.
    The generator is created at the first draw, and the buffer grows, in
    stream order, when a call needs more draws than it holds.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self._rng: np.random.Generator | None = None
        self._draws = np.empty(0)

    def take(self, start: int, stop: int) -> np.ndarray:
        """Draws ``start`` to ``stop`` of the stream, as a view of the buffer."""
        held = self._draws.size
        if stop > held:
            if self._rng is None:
                self._rng = ArrivalProcess(ArrivalKind.POISSON, 0.0, self.seed).rng()
            grown = np.empty(stop)
            grown[:held] = self._draws
            more = grown[held:]
            self._rng.random(out=more)
            np.negative(more, out=more)
            np.log1p(more, out=more)
            np.negative(more, out=more)
            self._draws = grown
        return self._draws[start:stop]


def generate_times(process: ArrivalProcess, horizon: float,
                   draws: UnitDraws | None = None) -> np.ndarray:
    """Arrival timestamps in (0, horizon], non-decreasing.

    Poisson interarrivals are ``-log1p(-u) / rate`` over the process's
    uniforms, taken in order from ``draws`` (one seed's :class:`UnitDraws`,
    which a capacity search shares across its probes) or, without it, from
    draws made for this call alone and divided in place.  Each timestamp is
    the running sum of those interarrivals, but numpy's vector ``log1p`` may
    differ from ``math.log1p`` in the last bit, so a scalar replay agrees to
    within a few ulp, not exactly.  Raises :class:`DomainError` if
    ``check_event_count`` rejects the stream, and :class:`ContractError` if
    ``draws`` is of another seed.
    """
    horizon = _check_horizon(horizon)
    rate = process.rate
    expected = check_event_count(rate, horizon)
    if rate == 0.0:
        return np.empty(0, dtype=np.float64)

    if process.kind is ArrivalKind.DETERMINISTIC:
        n = int(math.floor(horizon * rate * (1.0 + 1e-12)))
        times = np.arange(1, n + 1, dtype=np.float64) / rate
        return times[times <= horizon]

    shared = draws is not None
    if not shared:
        draws = UnitDraws(process.seed)
    elif draws.seed != process.seed:
        raise ContractError(f"draws of seed {draws.seed} cannot feed a process of seed "
                            f"{process.seed}")
    chunk = max(1024, int(expected + 10.0 * math.sqrt(expected) + 64))
    pieces = []
    start = 0
    t = 0.0
    while True:
        # interarrivals -> timestamps in one array; draws made for this call
        # alone are never read again, so they are overwritten
        unit = draws.take(start, start + chunk)
        times = np.divide(unit, rate, out=None if shared else unit)
        np.cumsum(times, out=times)
        if pieces:
            times += t
        if times[-1] > horizon:
            pieces.append(times[:times.searchsorted(horizon, side="right")])
            break
        pieces.append(times)
        t = float(times[-1])
        start += chunk
    return np.concatenate(pieces) if len(pieces) > 1 else pieces[0]


def generate_events(
    process: ArrivalProcess,
    kind: TxKind,
    horizon: float,
    draws: UnitDraws | None = None,
) -> EventStream:
    """The arrival stream of one transaction kind; the other kind's array is empty.

    ``draws``, if given, is passed on to :func:`generate_times`.
    """
    times = generate_times(process, horizon, draws)
    none = np.empty(0)
    if kind is TxKind.WRITE:
        return EventStream(write_times=times, read_times=none)
    return EventStream(write_times=none, read_times=times)
