"""A fixed reference kernel that times how fast the host runs right now.

On a shared host the same chaincap operation can take 30% longer from one
minute to the next.  The kernel below is timed between operations; the
benchmark divides its operation times by the kernel's median time in the
same run and multiplies by ``NOMINAL_S``, the kernel's time on the
reference machine, so the host's drift cancels and the program's own speed
remains.

The kernel does the kind of work chaincap's hot path does, but shares no
code with it, so no change to ``src/`` can change its time: draw Poisson
arrival times with numpy, materialise them as frozen slotted dataclass
records, unpack their fields into lists, pack the records first in, first
out into fixed-size blocks in a Python loop, and count the blocks per
one-second window with numpy.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np

N_RECORDS = 15_000
RATE = 1_000.0           # records per simulated second
BLOCK_BYTES = 100_000
RECORD_BYTES = 200
NOMINAL_S = 0.042        # median kernel time on the reference machine (RATIONALE.md)
PASSES = 3               # kernel passes per sample


@dataclass(frozen=True, slots=True)
class _Record:
    timestamp: float
    kind: int
    payload_bytes: int = 0
    tag: str = ""
    seq: int = 0


def kernel(seed: int = 0) -> int:
    """One pass of the reference work; returns the number of blocks."""
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.exponential(1.0 / RATE, N_RECORDS))
    records = [_Record(timestamp=float(t), kind=i & 1, payload_bytes=RECORD_BYTES,
                       tag="ref", seq=i) for i, t in enumerate(times)]
    stamps = [r.timestamp for r in records]
    sizes = [r.payload_bytes for r in records]
    closes = []
    fill = 0
    for stamp, size in zip(stamps, sizes):
        fill += size
        if fill >= BLOCK_BYTES:
            closes.append(stamp)
            fill = 0
    per_window = np.bincount(np.asarray(closes, dtype=np.float64).astype(np.int64))
    return int(per_window.sum())


class HostClock:
    """Times the kernel on demand and scales durations to the reference host."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> None:
        for _ in range(PASSES):
            t0 = time.perf_counter()
            kernel()
            self.samples.append(time.perf_counter() - t0)

    def median_s(self) -> float:
        return statistics.median(self.samples)

    def scale(self, seconds: float) -> float:
        """``seconds`` as they would read on the reference host."""
        return seconds * NOMINAL_S / self.median_s()
