"""The benchmark's workloads: the argv each operation passes to
``chaincap.cli.main``, and the checks its outputs must pass.

An operation is one ``capacity`` search or one ``campaign`` on the shipped
4-node profile.  Operation ``i`` of a run uses seed ``seed + i``; seeds are
never skipped.  A run's length is a number of completed operations, not a
time, so its operations, and its failures, depend on the seed alone.  The steady predicate is fooled by Poisson noise on some
seeds: a search then exits 3 at its first probe, or a later probe stops it
far below capacity (about 2% of write seeds end near 150/s), and a campaign
trial at 400/s can come out unsteady (seed 80).  Such operations count as
failed rather than being hidden.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Calibrated 4-node endpoints (ROADMAP).  The band is the calibration target
# of +-10%; it keeps the hard read service limit N/read_service_us = 20512.8
# inside, so a sounder search that pulls reads below 20838.8 still passes.
WRITE_ENDPOINT = 1374.9
READ_ENDPOINT = 20838.8
BAND = 0.10

CAMPAIGN_RATES = (400, 800, 1200, 1400, 2800)
CAMPAIGN_STEADY = (400, 800, 1200)
CAMPAIGN_OVERLOADED = (2800,)
DESK_TRIALS = 3

EXIT_RUNTIME_FAILURE = 3   # chaincap's exit code for "no steady operating point"


class CheckFailed(Exception):
    """The run cannot be trusted (e.g. irreproducible output); it fails loudly."""


class WrongAnswer(Exception):
    """An operation's answer is wrong; the operation counts as failed."""


@dataclass(frozen=True)
class Workload:
    name: str
    argv: Callable[[int, Path], list[str]]
    check: Callable[[Path], None]
    outputs: tuple[str, ...]   # deterministic files compared across runs
    nominal_s: float           # host seconds per operation on the reference machine

    def completions(self, seconds: float) -> int:
        """Operations a run of about ``seconds`` completes; at least one."""
        return max(1, round(seconds / self.nominal_s))


def _capacity_argv(kind):
    return lambda seed, out: ["capacity", "--kind", kind, "--seed", str(seed),
                              "--out", str(out)]


def _campaign_argv(seed, out):
    return ["campaign", "--kind", "write",
            "--rates", ",".join(str(r) for r in CAMPAIGN_RATES),
            "--seed", str(seed), "--out", str(out)]


def _check_capacity(key, endpoint, other):
    def check(out: Path) -> None:
        doc = json.loads((out / "capacity.json").read_text())
        value = doc.get(key)
        if not isinstance(value, (int, float)) or abs(value / endpoint - 1.0) > BAND:
            raise WrongAnswer(f"{key} = {value!r} is outside {endpoint} +-{BAND:.0%}")
        if doc.get(other) is not None:
            raise CheckFailed(f"{other} = {doc[other]!r}, expected null (never searched)")
    return check


def _check_campaign(out: Path) -> None:
    with open(out / "campaign.csv", newline="") as fp:
        rows = list(csv.DictReader(fp))
    steady: dict[float, list[int]] = {}
    for row in rows:
        steady.setdefault(float(row["lambda_offered"]), []).append(int(row["steady"]))
    expected = {float(r): DESK_TRIALS for r in CAMPAIGN_RATES}
    got = {rate: len(flags) for rate, flags in steady.items()}
    if got != expected:
        raise CheckFailed(f"campaign.csv trials per rate {got}, expected {expected}")
    for rate in CAMPAIGN_STEADY:
        if not all(steady[float(rate)]):
            raise WrongAnswer(f"a trial at {rate}/s is unsteady")
    for rate in CAMPAIGN_OVERLOADED:
        if any(steady[float(rate)]):
            raise WrongAnswer(f"a trial at {rate}/s is steady despite overload")
    doc = json.loads((out / "campaign.json").read_text())
    if [a["lambda_offered"] for a in doc["aggregates"]] != [float(r) for r in CAMPAIGN_RATES]:
        raise CheckFailed("campaign.json aggregates do not cover the rate grid")


WORKLOADS = {
    w.name: w for w in (
        Workload("capacity-read", _capacity_argv("read"),
                 _check_capacity("max_lambda_read", READ_ENDPOINT, "max_lambda_write"),
                 ("capacity.json",), 48.0),
        Workload("capacity-write", _capacity_argv("write"),
                 _check_capacity("max_lambda_write", WRITE_ENDPOINT, "max_lambda_read"),
                 ("capacity.json",), 2.5),
        Workload("campaign-write", _campaign_argv, _check_campaign,
                 ("campaign.csv", "campaign.json"), 4.0),
    )
}


def run_op(main, argv: list[str]) -> tuple[int, float, str]:
    """Call ``main(argv)`` with its output captured: (exit code, seconds, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = main(argv)
        seconds = time.perf_counter() - t0
    return code, seconds, err.getvalue()


def output_digest(workload: Workload, out: Path, code: int) -> str:
    """Digest of the exit code and the deterministic outputs (not the manifest)."""
    h = hashlib.sha256(f"exit={code}\n".encode())
    if code == 0:
        for name in workload.outputs:
            h.update(name.encode() + b"\0" + (out / name).read_bytes())
    return h.hexdigest()


def tree_digest(root: Path) -> str:
    """Digest of every file under ``root`` but bytecode caches."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()
                       and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class DigestStore:
    """Output digests by workload and seed, kept across runs of one source tree.

    Any run that repeats a seed, including the untraced and traced pass of
    a traced run, must reproduce the recorded digest byte for byte.
    """

    def __init__(self, path: Path):
        self.path = path
        self.digests = json.loads(path.read_text()) if path.is_file() else {}

    def check(self, key: str, digest: str) -> None:
        seen = self.digests.setdefault(key, digest)
        if seen != digest:
            raise CheckFailed(f"{key}: outputs differ from an earlier run of the same seed")

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.digests, indent=1, sort_keys=True) + "\n")
        os.replace(tmp, self.path)
