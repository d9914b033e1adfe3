"""The names the benchmark's trace mode patches must keep resolving.

``perfbench/spans.py`` wraps functions by looking them up in their owner's
``__dict__`` (``cli.main``, ``bench.run_trial``, ``cli.OutputDir.write_text``
and the rest).  Renaming or dropping one breaks ``perfbench/run.py --trace 1``
and nothing else, so these tests enter the instrumentation directly.
"""

import importlib.util
import sys
from pathlib import Path

from chaincap import bench, cli

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


def test_every_patch_point_resolves_and_is_restored():
    original = cli.main
    with spans.instrument(spans.Tracer()):
        assert cli.main is not original
    assert cli.main is original


def test_traced_command_records_its_emit_spans(tmp_path):
    # the attrs of the emit spans read write_text's returned Path and OutputDir.dir
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        code = cli.main(["simulate", "--kind", "write", "--lambda", "0",
                         "--duration", "10", "--out", str(tmp_path / "out")])
    assert code == 0
    names = [s.name for s in tracer.spans]
    assert names[0] == spans.ROOT_SPAN
    assert {"emit.write_text", "emit.manifest"} <= set(names)
    spans.check_span_tree(tracer.spans)


def test_traced_write_search_records_trials_that_replay():
    # the benchmark's trace mode replays its largest trial under tracemalloc
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        code = cli.main(["capacity", "--kind", "write", "--duration", "10", "--seed", "1"])
    assert code == 0
    trials = [s for s in tracer.spans if s.name == "bench.run_trial"]
    assert trials
    spans.check_span_tree(tracer.spans)
    args, kwargs = spans.largest_trial_call(tracer.spans)
    [recorded] = [s.attrs["steady"] for s in trials if s.attrs["call"][0] is args]
    assert bench.run_trial(*args, **kwargs).steady is recorded
