"""Transaction arrival model.

Transactions reach the blockchain as a stream of read/write events.  The
stream is either a Poisson process (exponential interarrivals at rate
``lambda``) or a deterministic comb at spacing ``1/lambda``, evenly spaced
arrivals that probe a peak rate without Poisson bursts.

Streams are generated with a counter-based PRNG (Philox) so that identical
(kind, rate, seed) always reproduce the identical stream, and independent
trials can simply use different seeds.  A Poisson stream at rate ``lambda``
is its seed's unit-rate Poisson epochs (the running sums of ``-log1p(-u)``
over the seed's uniforms) divided by ``lambda``, so every rate at one seed
shares one sequence of epochs (:class:`UnitDraws`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from ._numpy import np
from .errors import InputError


# Largest expected event count (rate x horizon) of one stream.  A run holds
# its arrival buffer, 8 bytes per event, and what its kind derives from it.
# Over a 4M-event run at a sustainable rate, peak RSS above a process that had
# made one small run rose 8 bytes per event for a write simulate (8.6) or a
# write trial on epochs made for it alone, whose latencies are per-block sums,
# 16 for a campaign's write trial or a probe, which hold their seed's epochs
# beside the stream, and 32 for a read trial (40 on its seed's epochs), which
# makes the completion times, their windows and latencies (Linux, Python
# 3.11, numpy 2.4).  So this caps a write simulate near 0.26 GB, a campaign's
# write trial near 0.5 GB and a read trial near 1.0 GB, or 1.2 GB with its
# seed's epochs, and a rate that would exhaust memory is rejected before
# anything is allocated.  The paper protocol's longest trial, 20k reads/s for
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
        raise InputError(f"{name} must be a finite non-negative rate, got {value!r}")
    return value


def check_seed(seed: int, name: str = "seed") -> None:
    """Validate a stream seed: an integer key of the Philox generator."""
    if not 0 <= seed < SEED_LIMIT:
        raise InputError(f"{name} must be in [0, 2**128), got {seed!r}")


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


def check_horizon(horizon: float) -> float:
    """Validate a run's horizon in seconds: finite and > 0."""
    horizon = float(horizon)
    if not math.isfinite(horizon) or horizon <= 0.0:
        raise InputError(f"horizon must be finite and > 0, got {horizon!r}")
    return horizon


def check_event_count(rate: float, horizon: float) -> float:
    """The expected event count ``rate * horizon``, if within MAX_EXPECTED_EVENTS."""
    expected = rate * horizon
    if expected > MAX_EXPECTED_EVENTS:
        raise InputError(
            f"rate {rate!r}/s over {horizon!r} s expects {expected:.4g} events, more than "
            f"the {MAX_EXPECTED_EVENTS:,} one trial may hold; lower the rate or the duration")
    return expected


class UnitDraws:
    """One seed's unit-rate Poisson epochs ``S_j = sum over i <= j of -log1p(-u_i)``.

    A Poisson stream at rate ``lambda`` is the unit-rate stream with time
    scaled by ``1/lambda``, so arrival ``j`` of that seed's stream at any rate
    is ``S_j / lambda``: trials at one seed share one buffer of epochs and
    each divides a prefix of it by their own rate, the probes of a capacity
    search, which all use one seed, and a campaign's trials at one seed, one
    per rate.  The generator is created at the first draw, and the epochs
    grow, in stream order, when a call needs more than are held; the last
    epoch held is added to the first new draw before the new draws' running
    sum, so ``S_j`` is the same however they grew.  :meth:`reserve` sizes
    the draws for a stream, so a caller that reserves for its fastest stream
    before its first trial draws the seed's uniforms in one call.

    ``reuse`` hands this object the buffer of another seed's draws, which
    forgets its epochs, as :meth:`forget` does: this seed's epochs overwrite
    the buffer in place, and it is reallocated only if a take needs more
    room.  A campaign hands each seed's buffer to the next, so one buffer,
    reserved for its fastest rate, serves every seed, and only one seed's
    epochs are alive at a time.  An epoch view taken before the hand-over is
    overwritten by it.
    """

    def __init__(self, seed: int, reuse: UnitDraws | None = None):
        self.seed = seed
        self.forget()
        if reuse is not None:
            self._buffer = reuse._buffer
            reuse.forget()

    def forget(self) -> None:
        """Drop the epochs and the buffer; a later take draws the seed's
        stream again from its first uniform, bit for bit."""
        self._rng: np.random.Generator | None = None
        self._held = 0
        self._buffer = np.empty(0)

    def take(self, stop: int) -> np.ndarray:
        """Epochs ``0`` to ``stop`` of the stream, as a view of the buffer."""
        held = self._held
        if stop > held:
            if self._rng is None:
                self._rng = ArrivalProcess(ArrivalKind.POISSON, 0.0, self.seed).rng()
            if stop > self._buffer.size:
                grown = np.empty(stop)
                grown[:held] = self._buffer[:held]
                self._buffer = grown
            more = self._buffer[held:stop]
            self._rng.random(out=more)
            np.negative(more, out=more)
            np.log1p(more, out=more)
            np.negative(more, out=more)
            if held:
                more[0] += self._buffer[held - 1]
            np.cumsum(more, out=more)
            self._held = stop
        return self._buffer[:stop]

    def reserve(self, rate: float, horizon: float) -> np.ndarray:
        """The epochs a stream at ``rate`` > 0 over ``horizon`` divides: the
        shortest prefix of whole chunks, each the stream's expected count
        plus ten standard deviations and 64 (at least 1024), whose last
        epoch over ``rate`` lies past ``horizon``.  Epochs not yet held are
        drawn, so a later call for a slower rate or a shorter horizon draws
        nothing unless its stream outruns its own first chunk.
        """
        expected = rate * horizon
        chunk = max(1024, int(expected + 10.0 * math.sqrt(expected) + 64))
        epochs = self.take(chunk)
        # below ~2e-307/s a quotient overflows to inf, which lies past any
        # finite horizon, so one chunk covers the stream
        with np.errstate(over="ignore"):
            while epochs[-1] / rate <= horizon:
                epochs = self.take(epochs.size + chunk)
        return epochs


def generate_times(process: ArrivalProcess, horizon: float,
                   draws: UnitDraws | None = None) -> np.ndarray:
    """Arrival timestamps in (0, horizon], non-decreasing.

    Poisson timestamp ``j`` is the seed's unit-rate epoch ``S_j`` divided by
    the rate, for every epoch whose quotient is at most ``horizon``; the
    epochs divided are those ``UnitDraws.reserve`` gives.  They come from
    ``draws`` (one seed's :class:`UnitDraws`, which a capacity search shares
    across its probes and a campaign across its rates at that seed, each
    having reserved them for its fastest stream) or, without it, from epochs
    made for this call alone and divided in place.  Either way the stream is
    the same, and a shorter horizon's stream is a prefix of a longer one's.
    numpy's vector ``log1p`` may differ from ``math.log1p`` in the last bit,
    so a scalar replay agrees to within a few ulp, not exactly.  ``draws``
    must be of the process's seed, unchecked.  Raises :class:`InputError` if
    ``check_event_count`` rejects the stream.
    """
    horizon = check_horizon(horizon)
    rate = process.rate
    check_event_count(rate, horizon)
    if rate == 0.0:
        return np.empty(0, dtype=np.float64)

    if process.kind is ArrivalKind.DETERMINISTIC:
        n = int(math.floor(horizon * rate * (1.0 + 1e-12)))
        times = np.arange(1, n + 1, dtype=np.float64) / rate
        return times[times <= horizon]

    shared = draws is not None
    if not shared:
        draws = UnitDraws(process.seed)
    epochs = draws.reserve(rate, horizon)
    # below ~2e-307/s every quotient overflows to inf, so the stream is
    # rightly empty; epochs made for this call alone are never read again,
    # so they are overwritten
    with np.errstate(over="ignore"):
        times = np.divide(epochs, rate, out=None if shared else epochs)
    # fl(S / rate) is monotone in S, so the quotients are sorted as well
    return times[:times.searchsorted(horizon, side="right")]


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
