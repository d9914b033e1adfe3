#!/usr/bin/env python3
"""chaincap benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload capacity-write --seed 0 --seconds 40 --trace 0

Run from a chaincap checkout; the package is imported from its ``src/``.
The workload's operations run one after another in this process, with
seeds ``seed, seed + 1, ...``, until as many have completed as take about
``--seconds`` on the reference machine (``Workload.completions``; at least
one).  So the operations of a run, and which of them fail, follow from the
seed alone.  The last line of stdout is the result as JSON:

- ``--trace 0``: the end-to-end metrics ``op_s`` (median host seconds per
  completed operation), ``peak_rss_mb`` (this process's ``ru_maxrss``) and
  ``setup_s`` (median time to import ``chaincap.cli`` and load the default
  cluster and catalog, in fresh interpreters).  Both times are scaled to
  the reference host by a kernel timed between operations
  (``calibrate.py``).
- ``--trace 1``: the per-layer metrics.  Each seed runs untraced and then
  traced, so ``trace_overhead_ratio`` compares like with like (half as many
  completions, so the run takes about as long); afterwards
  the largest trial is replayed under tracemalloc for the peak-allocation
  figures.  Spans are written to ``.perfbench_out/spans/``.

``--workload all`` runs every workload in a fresh process and prints one
table.  Each run appends its result to ``.perfbench_out/results-<src>.jsonl``,
keyed by a digest of ``src/``; ``perfbench/compare.py`` compares two such
files.  An operation that exits 3 or gives a wrong answer counts as failed
(``failed``/``attempted``) and is named on stderr; output that differs
from an earlier run of the same seed, or any other exit, fails the run
with exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path

from calibrate import HostClock
from workloads import (
    EXIT_RUNTIME_FAILURE,
    WORKLOADS,
    CheckFailed,
    WrongAnswer,
    DigestStore,
    output_digest,
    run_op,
    tree_digest,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 9
SINGLE_THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_CODE = """\
import time
t0 = time.perf_counter()
import chaincap.cli
from chaincap.chainsim import default_cluster
from chaincap.scenarios import builtin_scenarios
default_cluster()
builtin_scenarios()
print(time.perf_counter() - t0, chaincap.cli.__file__)
"""


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _inside(path: str, root: Path) -> bool:
    return Path(path).resolve().is_relative_to(root.resolve())


def measure_setup(repeats: int = SETUP_REPEATS) -> float:
    """Median set-up time over ``repeats`` fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        seconds, path = proc.stdout.split()
        if not _inside(path, SRC):
            raise RuntimeError(f"set-up imported chaincap from {path}, not from {SRC}")
        samples.append(float(seconds))
    return statistics.median(samples)


def execute(workload, seed: int, out_root: Path, store) -> tuple[bool, float]:
    """One operation through ``chaincap.cli.main``: (succeeded, seconds).

    An operation fails when chaincap exits 3 or its answer is wrong; both
    come from the known unsound steady predicate and are counted, not fatal.
    Any other exit, and output that differs from an earlier run of the same
    seed, raises :class:`CheckFailed`.
    """
    from chaincap import cli

    out = out_root / workload.name / f"seed{seed}"
    shutil.rmtree(out, ignore_errors=True)
    # looked up per call so that a traced pass reaches the wrapped main
    code, seconds, err = run_op(lambda argv: cli.main(argv), workload.argv(seed, out))
    if code not in (0, EXIT_RUNTIME_FAILURE):
        raise CheckFailed(f"{workload.name} seed {seed}: exit {code}: {err.strip()}")
    store.check(f"{workload.name}:{seed}", output_digest(workload, out, code))
    if code != 0:
        print(f"FAILED {workload.name} seed {seed}: exit {code}: {err.strip()}",
              file=sys.stderr)
        return False, seconds
    try:
        workload.check(out)
    except WrongAnswer as exc:
        print(f"FAILED {workload.name} seed {seed}: wrong answer: {exc}", file=sys.stderr)
        return False, seconds
    return True, seconds


def measure(workload, seed: int, completions: int, out_root: Path, store,
            tracer=None, max_attempts: int | None = None, clock=None) -> dict:
    """Run seeds ``seed, seed + 1, ...`` until ``completions`` operations
    succeed or ``max_attempts`` (default ``4 * completions + 8``) were made;
    with a tracer, each seed twice.  A clock is sampled before every
    operation and once at the end."""
    if tracer is not None:
        from spans import instrument
    if max_attempts is None:
        max_attempts = 4 * completions + 8

    untraced: list[float] = []
    traced: list[float] = []
    attempted = failed = 0
    while len(untraced) < completions and attempted < max_attempts:
        if clock is not None:
            clock.sample()
        op_seed = seed + attempted
        ok, op_s = execute(workload, op_seed, out_root, store)
        if tracer is not None:
            tracer.op = attempted
            with instrument(tracer):
                _, traced_s = execute(workload, op_seed, out_root, store)
        attempted += 1
        if not ok:
            failed += 1
            continue
        untraced.append(op_s)
        if tracer is not None:
            traced.append(traced_s)
    if clock is not None:
        clock.sample()
    return {"attempted": attempted, "failed": failed, "untraced_s": untraced,
            "traced_s": traced}


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def traced_metrics(tracer, counts: dict) -> tuple[dict, list]:
    """Per-layer metrics of a traced run, plus the replay spans."""
    from chaincap import bench
    from spans import Tracer, check_span_tree, instrument, largest_trial_call, layer_metrics

    check_span_tree(tracer.spans)
    replay = Tracer()
    replay.op = -1
    args, kwargs = largest_trial_call(tracer.spans)
    tracemalloc.start()
    try:
        with instrument(replay):
            bench.run_trial(*args, **kwargs)
    finally:
        tracemalloc.stop()
    metrics = layer_metrics(tracer.spans, replay.spans)
    metrics["fail_ratio"] = counts["failed"] / counts["attempted"]
    metrics["trace_overhead_ratio"] = (
        statistics.median(counts["traced_s"]) / statistics.median(counts["untraced_s"]))
    return metrics, replay.spans


def _write_spans(path: Path, spans: list) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fp:
        for s in spans:
            fp.write(json.dumps(s.to_json_dict()) + "\n")


def run_workload(args) -> int:
    if not (SRC / "chaincap" / "__init__.py").is_file():
        print(f"error: no chaincap package under {SRC}; run from a chaincap checkout",
              file=sys.stderr)
        return 2
    for var in SINGLE_THREAD_ENV:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import numpy
    from chaincap import cli

    if not _inside(cli.__file__, SRC):
        print(f"error: chaincap imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    src_digest = tree_digest(SRC)[:16]
    store = DigestStore(OUT / f"digests-{src_digest}.json")
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
    try:
        setup_s = None if args.trace else measure_setup()
        completions = workload.completions(args.seconds)
        if args.trace:
            completions = max(1, completions // 2)
        clock = HostClock()
        counts = measure(workload, args.seed, completions, OUT / "ops", store, tracer,
                         clock=clock)
        if not counts["untraced_s"]:
            raise CheckFailed(f"no operation completed out of {counts['attempted']}")
        if args.trace:
            metrics, replay = traced_metrics(tracer, counts)
            metrics["host.calib_s"] = clock.median_s()
            metrics["op_wall_s"] = statistics.median(counts["untraced_s"])
            _write_spans(OUT / "spans" / f"{workload.name}-seed{args.seed}.jsonl",
                         tracer.spans + replay)
        else:
            metrics = {"op_s": clock.scale(statistics.median(counts["untraced_s"])),
                       "peak_rss_mb": _peak_rss_mb(), "setup_s": clock.scale(setup_s)}
        units = declared_units(args.trace)
        if set(metrics) != set(units):
            raise CheckFailed(f"metrics {sorted(set(metrics) ^ set(units))} are not "
                              "the ones BENCHMARK.json declares")
    except (CheckFailed, AssertionError) as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        return 1
    finally:
        store.save()

    result = {
        "correct": True,   # every check passed; a failed one returned above
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "src": src_digest, "op_samples_s": counts["untraced_s"],
              "setup_wall_s": setup_s, "calib_samples_s": clock.samples,
              "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                          "numpy": numpy.__version__}, **result}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"results-{src_digest}.jsonl", "a") as fp:
        fp.write(json.dumps(record) + "\n")
    for name, m in result["metrics"].items():
        print(f"{workload.name} {name} = {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process, summarised as one table."""
    status = 0
    rows = []
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        metrics = dict(result["metrics"])
        metrics.setdefault("fail_ratio", {
            "value": result["failed"] / result["attempted"], "unit": "ratio"})
        rows += [(name, metric, m["value"], m["unit"]) for metric, m in metrics.items()]
    for name, metric, value, unit in rows:
        print(f"{name:<16} {metric:<40} {value:>14.6g} {unit}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS) + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
