"""Tests of the benchmark itself: span arithmetic, compare verdicts and
failure accounting."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from calibrate import NOMINAL_S, HostClock, kernel  # noqa: E402
from compare import verdict  # noqa: E402
from run import measure  # noqa: E402
from spans import Span, check_span_tree, self_time_by_layer, self_times  # noqa: E402
from workloads import WORKLOADS, CheckFailed, DigestStore  # noqa: E402


def _tree():
    #  cli.main        0 ........................ 10
    #    bench.trial       1 ...... 4   5 ..... 9   (two trials)
    #      arrival.gen       2 . 3
    #      chainsim.run                6 . 8
    return [
        Span(0, "cli.main", None, 0, 0.0, 10.0),
        Span(1, "bench.run_trial", 0, 0, 1.0, 4.0),
        Span(2, "arrival.generate_events", 1, 0, 2.0, 3.0),
        Span(3, "bench.run_trial", 0, 0, 5.0, 9.0),
        Span(4, "chainsim.run", 3, 0, 6.0, 8.0),
    ]


def test_self_times_subtract_direct_children_only():
    assert self_times(_tree()) == {0: 3.0, 1: 2.0, 2: 1.0, 3: 2.0, 4: 2.0}


def test_layer_self_times_add_up_to_root():
    layers = self_time_by_layer(_tree())
    assert layers == {"cli": 3.0, "bench": 4.0, "arrival": 1.0, "chainsim": 2.0}
    assert sum(layers.values()) == 10.0
    check_span_tree(_tree())


def test_span_tree_rejects_child_longer_than_parent():
    spans = _tree()
    spans[2].start, spans[2].end = 0.5, 4.5   # arrival span spans its whole trial
    with pytest.raises(AssertionError, match="negative self time"):
        check_span_tree(spans)


def test_span_tree_rejects_two_roots():
    spans = _tree() + [Span(5, "cli.main", None, 0, 10.0, 11.0)]
    with pytest.raises(AssertionError, match="2 root spans"):
        check_span_tree(spans)


BASE = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


def test_verdict_improved_when_nine_in_ten_pairs_win_beyond_iqr():
    new = [v * 0.8 for v in BASE]
    assert verdict(BASE, new, "lower", 0.1) == "improved"
    assert verdict(BASE, [v * 1.2 for v in BASE], "higher", 0.1) == "improved"


def test_verdict_no_worse_for_the_same_distribution():
    assert verdict(BASE, list(reversed(BASE)), "lower", 0.1) == "no worse"


def test_verdict_worse_beyond_bound():
    assert verdict(BASE, [v * 1.2 for v in BASE], "lower", 0.1) == "worse"
    assert verdict(BASE, [v * 0.8 for v in BASE], "higher", 0.1) == "worse"


def test_verdict_unresolved_when_spread_exceeds_bound():
    wide = [0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1, 1.0, 1.0]
    assert verdict(wide, list(reversed(wide)), "lower", 0.1) == "unresolved"
    # fewer than ten pairs can never be an improvement
    assert verdict(BASE[:5], [v * 0.8 for v in BASE[:5]], "lower", 0.1) == "no worse"
    assert verdict(BASE[:1], BASE[:1], "lower", 0.1) == "unresolved"


def test_verdict_wide_spread_resolves_when_every_run_is_better():
    wide = [0.6, 1.4, 0.7, 1.3, 0.8]
    assert verdict(wide, [0.5, 0.55, 0.45, 0.5, 0.58], "lower", 0.1) == "no worse"


def test_write_seed_5_counts_as_failed(tmp_path):
    # the shipped profile finds no steady point at seed 5; the harness
    # records the failure and keeps going instead of crashing
    store = DigestStore(tmp_path / "digests.json")
    counts = measure(WORKLOADS["capacity-write"], 5, 1, tmp_path, store, max_attempts=1)
    assert counts["attempted"] == 1
    assert counts["failed"] == 1
    assert counts["untraced_s"] == []


def test_write_wrong_answer_counts_as_failed(tmp_path, capsys):
    # seed 306 is steady at 100/s but not at 200/s, so the search stops near
    # 176/s; the band check names it and the operation counts as failed
    store = DigestStore(tmp_path / "digests.json")
    counts = measure(WORKLOADS["capacity-write"], 306, 1, tmp_path, store,
                     max_attempts=1)
    assert (counts["attempted"], counts["failed"]) == (1, 1)
    assert "wrong answer" in capsys.readouterr().err


def test_run_length_is_a_count_of_completed_operations(tmp_path):
    # seeds 5 and 6 fail and 7 completes, whatever the host's speed, so two
    # runs from the same seed attempt and fail the same operations
    store = DigestStore(tmp_path / "digests.json")
    counts = measure(WORKLOADS["capacity-write"], 5, 1, tmp_path, store)
    assert (counts["attempted"], counts["failed"], len(counts["untraced_s"])) == (3, 2, 1)


def test_host_clock_divides_out_a_slower_host():
    clock = HostClock()
    clock.samples = [2 * NOMINAL_S, 2 * NOMINAL_S, 9 * NOMINAL_S]   # median 2x
    assert clock.scale(5.0) == pytest.approx(2.5)
    assert kernel() == kernel(), "the reference work must not vary"


def test_repeated_seed_must_reproduce_its_outputs(tmp_path):
    store = DigestStore(tmp_path / "digests.json")
    store.check("capacity-write:5", "a")
    store.save()
    reloaded = DigestStore(tmp_path / "digests.json")
    reloaded.check("capacity-write:5", "a")
    with pytest.raises(CheckFailed, match="differ"):
        reloaded.check("capacity-write:5", "b")
