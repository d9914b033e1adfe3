import dataclasses
import inspect
import math
import re
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from chaincap import bench, chainsim
from chaincap.arrival import (
    SEED_LIMIT,
    ArrivalKind,
    ArrivalProcess,
    EventStream,
    TxKind,
    UnitDraws,
    generate_events,
)
from chaincap.bench import (
    CampaignSpec,
    CapacityProfile,
    Trial,
    check_duration,
    detect_steady_state,
    find_max_lambda,
    read_capacity,
    run_campaign,
    run_trial,
    sweep_nodes,
)
from chaincap.chainsim import MetricsTimeline, default_cluster, load_cluster, run
from chaincap.errors import CalibrationError, InputError
from chaincap.model import capacity_bound
from test_chainsim import cluster_profiles, write_latencies_ms


ASYMMETRIC_CLUSTER = Path(__file__).parent / "data" / "asymmetric_cluster.ini"
SLOW_CLUSTER = Path(__file__).parent / "data" / "slow_cluster.ini"


# a deliberately small cluster for search tests: saturates around 450 tps
def small_cluster():
    return replace(default_cluster(), block_tx_capacity=70)


# a block of 10,000 writes each millisecond, at no cost: a write bound of
# 1e7/s, which no count of validators lowers
FAST_CLUSTER = replace(default_cluster(), block_interval_ms=1.0, block_tx_capacity=10_000,
                       rtt_ms=0.0, write_exec_us=0.0, msg_proc_us=0.0,
                       pool_scan_cost_us_per_tx=0.0)


class TestDetectSteadyState:
    def test_exact_equality(self):
        assert detect_steady_state(1000, 1000)

    def test_seven_percent_gap(self):
        assert not detect_steady_state(1500, 1400)

    def test_within_tolerance(self):
        assert detect_steady_state(1000, 985)

    def test_bad_inputs(self):
        with pytest.raises(InputError):
            detect_steady_state(0, 10)


class TestCheckDuration:
    def test_ten_windows_is_the_minimum(self):
        check_duration(small_cluster(), 10.0)
        for bad in (9.999, 0.0, -10.0, math.nan, math.inf):
            with pytest.raises(InputError, match="at least 10 windows"):
                check_duration(small_cluster(), bad)

    def test_windows_must_be_whole(self):
        check_duration(small_cluster(), 11.0)
        for bad in (10.5, 20.5, 60.000001):
            with pytest.raises(InputError, match="whole number of 1.0 s windows"):
                check_duration(small_cluster(), bad)

    @pytest.mark.parametrize("bad", [5.0, math.nan])
    def test_campaign_and_search_share_it(self, bad):
        with pytest.raises(InputError, match="at least 10 windows"):
            CampaignSpec(cluster=small_cluster(), kind=TxKind.WRITE, rates=(40.0,),
                         trials=1, duration_s=bad)
        with pytest.raises(InputError, match="at least 10 windows"):
            find_max_lambda(small_cluster(), duration_s=bad)


class TestRunTrial:
    def test_no_phantom_throughput(self):
        t = run_trial(default_cluster(), TxKind.WRITE, ArrivalKind.DETERMINISTIC,
                      800.0, 30.0, seed=0)
        assert t.mean_tps <= 800.0 * 1.02
        assert t.steady

    def test_steady_flag_respects_invariant(self):
        t = run_trial(default_cluster(), TxKind.WRITE, ArrivalKind.POISSON,
                      500.0, 30.0, seed=1)
        gap = abs(t.mean_tps - t.lambda_offered) / t.lambda_offered
        assert t.steady == (gap <= 0.02)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0, 0.0])
    def test_bad_rate_rejected_before_drawing(self, monkeypatch, bad):
        def no_draws(self):
            raise AssertionError("no uniforms may be drawn for a rejected rate")
        monkeypatch.setattr(ArrivalProcess, "rng", no_draws)
        with pytest.raises(InputError):
            run_trial(default_cluster(), TxKind.WRITE, ArrivalKind.POISSON, bad, 20.0, seed=0)


class TestTrialLatency:
    """A trial's mean latency, its post-warm-up windows' latency sums over
    their counts, against the latencies of its writes or reads one by one."""

    @settings(max_examples=40, deadline=None)
    @given(cluster=cluster_profiles(), load=st.floats(0.01, 3.0), seed=st.integers(0, 2**32 - 1))
    @example(cluster=default_cluster(), load=2.0, seed=0)
    def test_mean_of_the_writes_committed_after_warm_up(self, cluster, load, seed):
        # the offered rate is load times the profile's capacity bound, so a
        # load past 1 overloads the chain and one near 0 may commit nothing
        rate = load * capacity_bound(cluster, TxKind.WRITE)
        events = generate_events(ArrivalProcess(ArrivalKind.POISSON, rate, seed),
                                 TxKind.WRITE, 10.0)
        timeline = run(cluster, events, horizon=10.0, window_s=bench.WINDOW_S)
        got = Trial(TxKind.WRITE, rate, seed, timeline).mean_latency_ms
        # each committed write's commit time, and whether its window is past warm-up
        commit_s = np.repeat(timeline.commit_s, timeline.fills)
        windows = np.minimum(commit_s / bench.WINDOW_S, timeline.n_windows - 1).astype(np.int64)
        after = windows >= int(timeline.n_windows * bench.WARMUP_FRACTION)
        latencies = write_latencies_ms(timeline)[after]
        if latencies.size == 0:
            assert got == 0.0
            return
        want = math.fsum(latencies) / latencies.size
        # Block by block, the timeline takes fill x commit time less the sum
        # of the block's arrival times, then x 1000, and the trial adds the
        # at most m differences, by window and then across windows.  A
        # product errs by at most eps of itself, a block's sum of k arrivals
        # by (k - 1) eps of that sum, a difference and its x 1000 by eps of
        # itself each, and the sum of the positive differences, in any order,
        # by (m - 1) eps of their total.  With A = sum of fill x commit time,
        # B = sum of the n arrivals and F the largest fill, the sum errs by at
        # most eps (A + F B) + (m + 1) eps (A - B); / n rounds by eps, and
        # each reference latency by 2 eps and their mean by eps.  So the
        # relative gap is at most eps (A + F B) / (A - B) + (m + 5) eps.
        eps = np.finfo(np.float64).eps
        committed = math.fsum(commit_s[after])
        arrived = math.fsum(events.write_times[:commit_s.size][after])
        m, fill = timeline.blocks_produced, int(timeline.fills.max())
        rel = eps * (committed + fill * arrived) / (committed - arrived) + (m + 5) * eps
        assert math.isclose(got, want, rel_tol=rel, abs_tol=0.0)

    @settings(max_examples=40, deadline=None)
    @given(cluster=cluster_profiles(), load=st.floats(0.01, 1.5), seed=st.integers(0, 2**32 - 1))
    @example(cluster=default_cluster(), load=1.2, seed=0)
    def test_mean_of_the_reads_served_after_warm_up(self, cluster, load, seed):
        # load times the read service limit: past 1 reads still queue at the horizon
        rate = load * capacity_bound(cluster, TxKind.READ)
        events = generate_events(ArrivalProcess(ArrivalKind.POISSON, rate, seed),
                                 TxKind.READ, 10.0)
        timeline = run(cluster, events, horizon=10.0, window_s=bench.WINDOW_S)
        got = Trial(TxKind.READ, rate, seed, timeline).mean_latency_ms
        done = timeline.read_completions_s
        windows = np.minimum(done / bench.WINDOW_S, timeline.n_windows - 1).astype(np.int64)
        after = (done <= 10.0) & (windows >= int(timeline.n_windows * bench.WARMUP_FRACTION))
        latencies = (done - events.read_times)[after] * 1000.0
        if latencies.size == 0:
            assert got == 0.0
            return
        want = math.fsum(latencies) / latencies.size
        # The timeline's latencies are these, bit for bit.  The trial adds at
        # most K of them in a window, one after another, and then the W
        # windows' sums: positive terms, so the sum errs by at most
        # (K - 1 + W - 1) eps of itself.  / n rounds by eps, and so does the
        # reference mean, so the relative gap is at most (K + W) eps.
        eps = np.finfo(np.float64).eps
        per_window = np.bincount(windows[after], minlength=timeline.n_windows)
        rel = (int(per_window.max()) + timeline.n_windows) * eps
        assert math.isclose(got, want, rel_tol=rel, abs_tol=0.0)

    def test_window_sums_add_in_numpys_own_order(self):
        # Each block's arrivals add as the first plus np.add.reduce of the
        # rest, reduceat's order; each window adds its blocks' differences in
        # commit order, bincount's order; and the trial adds the windows by
        # np.add.reduce.  These are numpy's own reductions, which add in one
        # order on every machine, where a BLAS dot product's order depends
        # on the cpu and the thread count.  So the mean is this loop's, bit
        # for bit.
        events = generate_events(ArrivalProcess(ArrivalKind.POISSON, 400.0, 0),
                                 TxKind.WRITE, 60.0)
        timeline = run(default_cluster(), events, horizon=60.0, window_s=bench.WINDOW_S)
        skip = int(timeline.n_windows * bench.WARMUP_FRACTION)
        sums, counts = [0.0] * timeline.n_windows, [0] * timeline.n_windows
        start = 0
        for fill, commit_s in zip(timeline.fills.tolist(), timeline.commit_s.tolist()):
            if fill:
                window = min(int(commit_s / bench.WINDOW_S), timeline.n_windows - 1)
                arrivals = events.write_times[start:start + fill]
                sums[window] += (fill * commit_s
                                 - (arrivals[0] + np.add.reduce(arrivals[1:]))) * 1000.0
                counts[window] += fill
                start += fill
        want = float(np.add.reduce(np.array(sums[skip:]))) / sum(counts[skip:])
        assert Trial(TxKind.WRITE, 400.0, 0, timeline).mean_latency_ms == want

    def test_read_window_sums_add_in_numpys_own_order(self):
        # each window adds its reads' latencies in read order, and the trial
        # adds the windows by np.add.reduce, as for writes; a read still
        # queued at the horizon adds to no window
        events = generate_events(ArrivalProcess(ArrivalKind.POISSON, 22_000.0, 0),
                                 TxKind.READ, 20.0)
        timeline = run(default_cluster(), events, horizon=20.0, window_s=bench.WINDOW_S)
        assert timeline.served_reads < timeline.arrived_reads
        skip = int(timeline.n_windows * bench.WARMUP_FRACTION)
        sums, counts = [0.0] * timeline.n_windows, [0] * timeline.n_windows
        for arrival, done in zip(events.read_times.tolist(),
                                 timeline.read_completions_s.tolist()):
            if done <= 20.0:
                window = min(int(done / bench.WINDOW_S), timeline.n_windows - 1)
                sums[window] += (done - arrival) * 1000.0
                counts[window] += 1
        want = float(np.add.reduce(np.array(sums[skip:]))) / sum(counts[skip:])
        assert Trial(TxKind.READ, 22_000.0, 0, timeline).mean_latency_ms == want

    def test_no_write_committed_after_warm_up_reads_zero(self):
        # one write, committed in the first of ten windows, which is warm-up
        events = EventStream(write_times=np.array([0.05]), read_times=np.empty(0))
        timeline = run(default_cluster(), events, horizon=10.0, window_s=bench.WINDOW_S)
        assert timeline.committed_writes == 1
        assert Trial(TxKind.WRITE, 0.1, 0, timeline).mean_latency_ms == 0.0

    def test_a_write_campaign_makes_no_per_write_array(self, monkeypatch):
        # A trial's mean reads the latency sums, not the per-window means,
        # and the sums take arrays with one entry per block or per window.
        # At 900/s the blocks are full, 70 writes each, so those arrays take
        # about 1 byte per committed write, and an array of one float64 per
        # write would take 8.
        def per_window_mean(timeline):
            raise AssertionError("a write trial computed a per-window mean latency")

        for name in ("mean_write_latency_ms", "mean_read_latency_ms"):
            monkeypatch.setattr(MetricsTimeline, name, property(per_window_mean))
        mean_latency = Trial.mean_latency_ms.func
        peaks = []

        def traced(trial):
            tracemalloc.start()
            try:
                return mean_latency(trial)
            finally:
                peaks.append((trial.lambda_offered, tracemalloc.get_traced_memory()[1],
                              trial._timeline.committed_writes))
                tracemalloc.stop()

        monkeypatch.setattr(Trial, "mean_latency_ms", property(traced))
        trials, _ = run_campaign(CampaignSpec(cluster=small_cluster(), kind=TxKind.WRITE,
                                              rates=(40.0, 900.0), trials=2, duration_s=20.0))
        assert all(t.mean_latency_ms > 0.0 for t in trials)
        assert len(peaks) == 4
        for rate, peak, committed in peaks:
            if rate == 900.0:
                assert peak < 2 * committed, f"{peak} B traced for {committed} committed writes"


class TestRunCampaign:
    def test_trial_counting(self):
        spec = CampaignSpec(cluster=small_cluster(), kind=TxKind.WRITE,
                            rates=(50.0,), trials=5, duration_s=20.0, base_seed=3)
        trials, aggregates = run_campaign(spec)
        assert len(trials) == 5
        assert len(aggregates) == 1
        agg = aggregates[0]
        assert agg.trials == 5
        assert agg.mean_tps == pytest.approx(
            sum(t.mean_tps for t in trials) / 5)

    def test_seeds_are_base_plus_index(self):
        spec = CampaignSpec(cluster=small_cluster(), kind=TxKind.WRITE,
                            rates=(40.0,), trials=3, duration_s=20.0, base_seed=10)
        trials, _ = run_campaign(spec)
        assert [t.seed for t in trials] == [10, 11, 12]

    def test_seeds_must_be_philox_keys(self):
        def spec(base_seed, trials):
            return CampaignSpec(cluster=small_cluster(), kind=TxKind.WRITE, rates=(40.0,),
                                trials=trials, duration_s=20.0, base_seed=base_seed)

        with pytest.raises(InputError, match="base_seed must be in"):
            spec(-1, 1)
        with pytest.raises(InputError, match=r"base_seed \+ trials - 1 must be in"):
            spec(SEED_LIMIT - 2, 3)
        trials, _ = run_campaign(spec(SEED_LIMIT - 3, 3))
        assert trials[-1].seed == SEED_LIMIT - 1

    def test_trials_must_be_positive(self):
        # the CLI names --trials first; this guards library callers
        with pytest.raises(InputError, match=r"^trials must be >= 1, got 0$"):
            CampaignSpec(cluster=default_cluster(), kind=TxKind.WRITE, rates=(400.0,),
                         trials=0)

    @pytest.mark.parametrize("rates", [(), (400.0,), (400.0, 800.0)],
                             ids=["no-rates", "one-rate", "two-rates"])
    def test_trials_times_rates_are_capped(self, rates):
        # a campaign with no rates still walks its seeds, so it counts as one rate
        most = bench.MAX_CAMPAIGN_TRIALS // max(1, len(rates))
        assert most * max(1, len(rates)) == bench.MAX_CAMPAIGN_TRIALS
        CampaignSpec(cluster=small_cluster(), kind=TxKind.WRITE, rates=rates, trials=most,
                     duration_s=20.0)
        with pytest.raises(InputError, match=rf"^trials must be <= {most:,} at {len(rates)} "
                                             rf"rates, .* got {most + 1}$"):
            CampaignSpec(cluster=small_cluster(), kind=TxKind.WRITE, rates=rates,
                         trials=most + 1, duration_s=20.0)

    def test_repeated_rate_rejected(self):
        # a repeated rate would run trial i twice at seed base_seed + i
        with pytest.raises(InputError, match="distinct"):
            CampaignSpec(cluster=small_cluster(), kind=TxKind.WRITE, rates=(400.0, 400),
                         trials=2, duration_s=20.0)

    def test_empty_rate_list(self):
        spec = CampaignSpec(cluster=small_cluster(), kind=TxKind.WRITE,
                            rates=(), trials=1, duration_s=20.0)
        assert run_campaign(spec) == ((), ())

    def test_determinism(self):
        spec = CampaignSpec(cluster=small_cluster(), kind=TxKind.WRITE,
                            rates=(60.0, 80.0), trials=2, duration_s=20.0, base_seed=5)
        assert run_campaign(spec) == run_campaign(spec)

    @pytest.mark.parametrize("kind,rates", [(TxKind.WRITE, (60.0, 900.0)),
                                            (TxKind.READ, (3000.0, 30000.0))])
    def test_trials_are_python_scalars(self, kind, rates):
        spec = CampaignSpec(cluster=small_cluster(), kind=kind, rates=rates, trials=2,
                            duration_s=20.0)
        for trial in run_campaign(spec)[0]:
            for field in dataclasses.fields(trial):
                value = getattr(trial, field.name)
                assert type(value) in (int, float, bool), (field.name, type(value))

    def test_rows_are_rate_major(self):
        # the trials run seed-major, but are reported in the order of the
        # rate grid, trial after trial within a rate
        spec = CampaignSpec(cluster=small_cluster(), kind=TxKind.WRITE,
                            rates=(80.0, 40.0, 60.0), trials=2, duration_s=20.0, base_seed=4)
        trials, aggregates = run_campaign(spec)
        assert [(t.lambda_offered, t.seed) for t in trials] == [
            (80.0, 4), (80.0, 5), (40.0, 4), (40.0, 5), (60.0, 4), (60.0, 5)]
        assert [a.lambda_offered for a in aggregates] == [80.0, 40.0, 60.0]

    def test_trials_run_seed_major_in_rate_order(self, monkeypatch):
        calls = []
        trial = bench.run_trial

        def recorded(*args, **kwargs):
            bound = inspect.signature(trial).bind(*args, **kwargs).arguments
            calls.append((bound["seed"], bound["lam"]))
            return trial(*args, **kwargs)

        monkeypatch.setattr(bench, "run_trial", recorded)
        run_campaign(CampaignSpec(cluster=small_cluster(), kind=TxKind.WRITE,
                                  rates=(40.0, 80.0, 60.0), trials=2, duration_s=20.0,
                                  base_seed=6))
        assert calls == [(6, 40.0), (6, 80.0), (6, 60.0), (7, 40.0), (7, 80.0), (7, 60.0)]

    def test_no_timeline_outlives_its_trial(self, monkeypatch):
        timelines = []
        simulate = bench.run

        def recorded(*args, **kwargs):
            # every earlier trial's timeline is gone by the time the next one runs
            assert all(ref() is None for ref in timelines)
            timeline = simulate(*args, **kwargs)
            timelines.append(weakref.ref(timeline))
            return timeline

        monkeypatch.setattr(bench, "run", recorded)
        spec = CampaignSpec(cluster=small_cluster(), kind=TxKind.WRITE,
                            rates=(60.0, 80.0), trials=2, duration_s=20.0)
        run_campaign(spec)
        assert len(timelines) == 4 and all(ref() is None for ref in timelines)


class TestFindMaxLambda:
    def test_search_converges_on_small_cluster(self):
        lam = find_max_lambda(small_cluster(), ArrivalKind.DETERMINISTIC, duration_s=20.0)
        # block_tx_capacity 70 over the ~0.155 s full-block round bounds throughput
        assert 350 < lam < 550

    def test_search_is_deterministic(self):
        a = find_max_lambda(small_cluster(), duration_s=20.0)
        b = find_max_lambda(small_cluster(), duration_s=20.0)
        assert a == b

    def test_doubled_exec_cost_lowers_capacity(self):
        base = find_max_lambda(small_cluster(), duration_s=20.0)
        slower = replace(small_cluster(), write_exec_us=small_cluster().write_exec_us * 2)
        worse = find_max_lambda(slower, duration_s=20.0)
        assert worse < base

    def test_unsteady_smallest_probe_is_calibration_error(self):
        # one write per block commits under 10 of the first probe's 100/s
        one_per_block = replace(small_cluster(), block_tx_capacity=1)
        with pytest.raises(CalibrationError, match="smallest probe rate 100.0;"):
            find_max_lambda(one_per_block, duration_s=20.0)

    def test_calibration_error_names_the_failing_probe(self):
        # seed 5 of the shipped profile commits too much at the first probe
        first = run_trial(default_cluster(), TxKind.WRITE, ArrivalKind.POISSON, 100.0,
                          60.0, seed=5)
        assert f"{first.mean_tps:.2f}" == "102.28"
        with pytest.raises(CalibrationError) as err:
            find_max_lambda(default_cluster(), base_seed=5)
        assert str(err.value) == (
            "no steady operating point at the smallest probe rate 100.0; the cluster "
            "profile looks miscalibrated: its mean throughput 102.28 tps is outside "
            "100.0 ±2% [98.00, 102.00] at seed 5")

    def test_probe_past_the_event_cap_names_the_search(self, monkeypatch):
        # the search, not the caller, picks the rate that crosses the cap: the
        # upper rung, 1.03e7/s, which even 10 windows hold too many of.  Fewer
        # validators would not lower it, so the hint names what does
        monkeypatch.setattr(bench, "run_trial", _no_trial)
        with pytest.raises(InputError) as err:
            find_max_lambda(FAST_CLUSTER, duration_s=20.0)
        assert str(err.value) == (
            "the write capacity search at 4 nodes would probe 10300000.0/s over 20.0 s, "
            "which expects 2.06e+08 events, more than the 30,000,000 one trial may hold; even "
            "the shortest --duration, 10 s, does not fit; give a profile with a lower write "
            "bound, such as a longer block_interval_ms or a smaller block_tx_capacity")

    def test_a_write_search_checks_its_upper_rung_before_its_first_probe(self, monkeypatch):
        # the upper rung, 1416.5/s over 60 s, expects 84,990 events; the
        # ladder would reach it only after four steady probes
        monkeypatch.setattr(bench, "MAX_EXPECTED_EVENTS", 80_000)
        monkeypatch.setattr(bench, "run_trial", _no_trial)
        rung = bench.capacity_bound(default_cluster(), TxKind.WRITE) * (1 + bench.BOUND_MARGIN)
        with pytest.raises(InputError, match=(
                rf"^the write capacity search at 4 nodes would probe {re.escape(repr(rung))}/s "
                r"over 60 s, "
                r"which expects 8\.499e\+04 events, .* at most 56 s$")):
            find_max_lambda(default_cluster())

    @pytest.mark.parametrize("cap,longest", [(14_166, 10), (20_000, 14)])
    def test_probe_past_the_event_cap_gives_the_longest_duration_that_fits(
            self, monkeypatch, cap, longest):
        # the write search's upper rung is 1416.5.../s, which 10 windows hold
        # at a cap of 14,166 events and 14 windows at 20,000
        monkeypatch.setattr(bench, "MAX_EXPECTED_EVENTS", cap)
        monkeypatch.setattr(bench, "run_trial", _no_trial)
        with pytest.raises(InputError, match=f"give a --duration of at most {longest} s$"):
            find_max_lambda(default_cluster(), duration_s=20.0)

    def test_a_quotient_rounded_up_gives_one_window_less(self):
        # 30,000,000 / 909090.90...92 rounds to 33.0, but 33 windows at that
        # rate expect 30000000.000000004 events, past the cap, and 32 fit
        with pytest.raises(InputError, match="give a --duration of at most 32 s$"):
            bench._check_probe(default_cluster(), 909090.9090909092, 60.0)


class TestBoundRungs:
    """The doubling ladder takes two probes at 1 -/+ BOUND_MARGIN times the
    closed-form bound; the bisection and the answer stay the simulator's."""

    @staticmethod
    def record_probes(monkeypatch):
        rates = []
        trial = bench.run_trial

        def recorded(*args, **kwargs):
            rates.append(args[3])
            return trial(*args, **kwargs)

        monkeypatch.setattr(bench, "run_trial", recorded)
        return rates

    def test_seed_0_write_search_probes_the_rungs(self, monkeypatch):
        rates = self.record_probes(monkeypatch)
        assert find_max_lambda(default_cluster()) == 1374.6265797506646
        # four doublings, the two rungs, then three midpoints
        assert [round(r, 1) for r in rates] == [100.0, 200.0, 400.0, 800.0, 1334.0, 1416.5,
                                                1374.6, 1395.4, 1385.0]
        bound = bench.capacity_bound(default_cluster(), TxKind.WRITE)
        assert rates[4:6] == [bound * (1 - bench.BOUND_MARGIN), bound * (1 + bench.BOUND_MARGIN)]

    @pytest.mark.parametrize("factor", [10.0, 0.1])
    def test_a_wrong_bound_still_finds_the_capacity(self, monkeypatch, factor):
        want = find_max_lambda(default_cluster())
        true_bound = bench.capacity_bound
        monkeypatch.setattr(bench, "capacity_bound",
                            lambda cluster, kind: true_bound(cluster, kind) * factor)
        got = find_max_lambda(default_cluster())
        assert got != want
        assert abs(got / want - 1.0) <= bench.SEARCH_TOLERANCE

    def test_rungs_at_or_below_the_first_probe_add_no_probe(self, monkeypatch):
        rates = self.record_probes(monkeypatch)
        # the first probe lies between the rungs 97.0 and 103.0: the upper one
        # is the next probe
        monkeypatch.setattr(bench, "capacity_bound", lambda cluster, kind: 100.0)
        find_max_lambda(default_cluster())
        assert rates[:2] == [100.0, 103.0]
        # both rungs at or below the first probe: the plain doubling search
        monkeypatch.setattr(bench, "capacity_bound", lambda cluster, kind: 100.0 / 1.03)
        rates.clear()
        assert find_max_lambda(default_cluster()) == 1374.8954384979825
        assert len(rates) == 12

    def test_every_write_search_starts_at_the_first_probe_rate(self, monkeypatch):
        for search in (find_max_lambda, sweep_nodes):
            assert "start" not in inspect.signature(search).parameters
        rates = self.record_probes(monkeypatch)
        sweep_nodes(small_cluster(), [4, 5], (TxKind.WRITE,), duration_s=20.0)
        # one search per node count, each opening at the constant
        assert rates[0] == bench.FIRST_PROBE_RATE
        assert rates.count(bench.FIRST_PROBE_RATE) == 2


    @pytest.mark.parametrize("arrival", [ArrivalKind.POISSON, ArrivalKind.DETERMINISTIC])
    def test_bisection_stops_within_the_search_tolerance(self, monkeypatch, arrival):
        for search in (find_max_lambda, sweep_nodes):
            assert "tolerance" not in inspect.signature(search).parameters
        trials = []
        trial = bench.run_trial

        def recorded(*args, **kwargs):
            trials.append(trial(*args, **kwargs))
            return trials[-1]

        monkeypatch.setattr(bench, "run_trial", recorded)
        got = find_max_lambda(small_cluster(), arrival, duration_s=20.0)
        # the answer is the largest steady probe, and the nearest unsteady
        # probe above it lies within SEARCH_TOLERANCE
        assert got == max(t.lambda_offered for t in trials if t.steady)
        above = min(t.lambda_offered for t in trials if not t.steady)
        assert 0.0 < above / got - 1.0 <= bench.SEARCH_TOLERANCE


def _no_trial(*args, **kwargs):
    raise AssertionError("no trial may run")


def _no_write_search(*args, **kwargs):
    raise AssertionError("a read sweep enters no write search")


def _no_generator(process):
    raise AssertionError("a deterministic stream draws no uniform")


class TestReadCapacity:
    """The read capacity is (1 - tolerance) times the closed-form service
    limit; the simulator's agreement with it is a property in test_model.py."""

    @pytest.mark.parametrize("arrival_kind", list(ArrivalKind))
    def test_a_read_capacity_runs_no_trial_and_draws_nothing(self, monkeypatch, arrival_kind):
        monkeypatch.setattr(bench, "run_trial", _no_trial)
        monkeypatch.setattr(bench, "find_max_lambda", _no_write_search)
        monkeypatch.setattr(ArrivalProcess, "rng", _no_generator)
        computed = []
        monkeypatch.setattr(bench, "read_capacity",
                            lambda cluster: computed.append(cluster.node_count)
                            or read_capacity(cluster))
        for seed in (0, 7):
            computed.clear()
            profiles = sweep_nodes(default_cluster(), [4, 1000], (TxKind.READ,), arrival_kind,
                                   duration_s=10.0, base_seed=seed)
            # once per node count
            assert computed == [4, 1000]
            assert profiles[0].max_lambda_read == 20307.692307692305
            assert [p.max_lambda_read for p in profiles] == [
                read_capacity(replace(default_cluster(), node_count=n)) for n in (4, 1000)]
            assert all(p.max_lambda_write == math.inf for p in profiles)

    @pytest.mark.parametrize("profile", ["multi", "single", "asymmetric"])
    @pytest.mark.parametrize("seed", [3, 5, 80, 93])
    def test_read_capacity_is_below_the_service_limit(self, seed, profile):
        # seeds whose read bisection once failed at its first probe (3, 5) or
        # stopped near 150/s (80, 93); a sweep at any of them reads the same
        cluster = {"multi": default_cluster(),
                   "single": replace(default_cluster(), read_mode="single"),
                   "asymmetric": load_cluster(ASYMMETRIC_CLUSTER.read_text())}[profile]
        limit = bench.capacity_bound(cluster, TxKind.READ)
        got = read_capacity(cluster)
        assert got == limit * (1 - bench.SEARCH_TOLERANCE) <= limit
        [swept] = sweep_nodes(cluster, [cluster.node_count], (TxKind.READ,), base_seed=seed)
        assert swept.max_lambda_read == got


class TestSharedDraws:
    def count_generators(self, monkeypatch):
        seeds = []
        make = ArrivalProcess.rng

        def counted(process):
            seeds.append(process.seed)
            return make(process)

        monkeypatch.setattr(ArrivalProcess, "rng", counted)
        return seeds

    def test_one_generator_per_search(self, monkeypatch):
        seeds = self.count_generators(monkeypatch)
        find_max_lambda(small_cluster(), duration_s=20.0, base_seed=7)
        assert seeds == [7]
        # a search that stops at its first probe makes one as well
        with pytest.raises(CalibrationError):
            find_max_lambda(small_cluster(), duration_s=20.0, base_seed=1)
        assert seeds == [7, 1]

    @staticmethod
    def record_uniforms(monkeypatch) -> list[int]:
        """The size of each ``random`` call that the draws make, in order."""
        sizes = []
        make = ArrivalProcess.rng

        class Recorded:
            def __init__(self, rng):
                self.rng = rng

            def random(self, *, out):
                sizes.append(out.size)
                return self.rng.random(out=out)

        monkeypatch.setattr(ArrivalProcess, "rng", lambda process: Recorded(make(process)))
        return sizes

    # a search that answers, one that exits 3 at its first probe and one that
    # stops near 175/s: each draws once, so a seed whose search grows, and so
    # draws again, its epochs fails here
    @pytest.mark.parametrize("seed, answer", [(0, 1374.6265797506646), (5, None),
                                              (306, 175.62521603732995)])
    def test_a_write_search_draws_once_for_its_largest_planned_probe(self, monkeypatch,
                                                                     seed, answer):
        sizes = self.record_uniforms(monkeypatch)
        queues = []
        fifo = chainsim._fifo_completions
        monkeypatch.setattr(chainsim, "_fifo_completions",
                            lambda *args: queues.append(args) or fifo(*args))
        if answer is None:
            with pytest.raises(CalibrationError, match="smallest probe rate 100.0;"):
                find_max_lambda(default_cluster(), base_seed=seed)
        else:
            assert find_max_lambda(default_cluster(), base_seed=seed) == answer
        # the upper rung, 1416.5/s over 60 s: 84,990 expected events plus ten
        # standard deviations and 64, drawn before the first probe
        assert sizes == [87_969]
        assert queues == []
        # the slow profile's upper rung, 8.76/s, lies below the first probe,
        # 100/s, which reserves 6,000 events plus ten standard deviations and 64
        sizes.clear()
        with pytest.raises(CalibrationError, match="smallest probe rate 100.0;"):
            find_max_lambda(load_cluster(SLOW_CLUSTER.read_text()), base_seed=seed)
        assert sizes == [6_838]

    def test_deterministic_search_draws_nothing(self, monkeypatch):
        monkeypatch.setattr(ArrivalProcess, "rng", _no_generator)
        find_max_lambda(small_cluster(), ArrivalKind.DETERMINISTIC, duration_s=20.0)

    # perfbench's campaign-write operation, at base seeds whose searches
    # answer, exit 3 and stop early: each seed's draws make one generator,
    # as a take past the epochs held would make another
    @pytest.mark.parametrize("base_seed", [0, 5, 306])
    def test_one_generator_per_campaign_seed(self, monkeypatch, base_seed):
        seeds = self.count_generators(monkeypatch)
        run_campaign(CampaignSpec(cluster=default_cluster(), kind=TxKind.WRITE,
                                  rates=(400.0, 800.0, 1200.0, 1400.0, 2800.0),
                                  trials=3, base_seed=base_seed))
        assert seeds == [base_seed, base_seed + 1, base_seed + 2]

    def test_deterministic_campaign_draws_nothing(self, monkeypatch):
        monkeypatch.setattr(ArrivalProcess, "rng", _no_generator)
        run_campaign(CampaignSpec(cluster=small_cluster(), kind=TxKind.WRITE,
                                  rates=(40.0, 80.0), arrival_kind=ArrivalKind.DETERMINISTIC,
                                  trials=2, duration_s=20.0))

    @pytest.mark.parametrize("caller", [
        pytest.param(lambda: find_max_lambda(small_cluster(), duration_s=20.0,
                                             base_seed=7), id="search"),
        pytest.param(lambda: run_campaign(CampaignSpec(
            cluster=small_cluster(), kind=TxKind.WRITE, rates=(40.0, 80.0), trials=2,
            duration_s=20.0, base_seed=2)), id="campaign"),
    ])
    def test_every_stream_takes_draws_of_its_own_seed(self, monkeypatch, caller):
        # generate_times does not check that the draws it is handed are of the
        # process's seed; both callers that share draws must make them so
        seeds = []
        generate = bench.generate_events

        def recorded(process, kind, horizon, draws=None):
            assert draws is not None and draws.seed == process.seed
            seeds.append(process.seed)
            return generate(process, kind, horizon, draws=draws)

        monkeypatch.setattr(bench, "generate_events", recorded)
        caller()
        assert seeds

    def test_campaign_holds_one_seeds_draws_at_a_time(self, monkeypatch):
        # every UnitDraws is kept, as a caller that records each trial's
        # arguments keeps them, so only the hand-over can free a seed's epochs
        kept, buffers = [], []  # buffers: (weakref to a buffer, seed of its epochs)
        take = UnitDraws.take

        def recorded(draws, stop):
            epochs = take(draws, stop)
            buffer = epochs.base
            # a buffer that held another seed's epochs is gone, or holds this seed's now
            assert all(ref() is None or ref() is buffer
                       for ref, seed in buffers if seed != draws.seed)
            # and the seeds take over one buffer, which no take outgrows here
            assert all(ref() is buffer for ref, _ in buffers)
            kept.append(draws)
            buffers.append((weakref.ref(buffer), draws.seed))
            return epochs

        monkeypatch.setattr(UnitDraws, "take", recorded)
        run_campaign(CampaignSpec(cluster=small_cluster(), kind=TxKind.WRITE,
                                  rates=(40.0, 80.0), trials=3, duration_s=20.0))
        assert {seed for _, seed in buffers} == {0, 1, 2}
        assert len({id(draws) for draws in kept}) == 3
        assert all(ref() is None for ref, _ in buffers)

    @pytest.mark.parametrize("kind,rates", [(TxKind.WRITE, (60.0, 900.0, 300.0)),
                                            (TxKind.READ, (30000.0, 3000.0))])
    def test_campaign_trials_match_trials_of_their_own(self, kind, rates):
        spec = CampaignSpec(cluster=small_cluster(), kind=kind, rates=rates, trials=2,
                            duration_s=20.0, base_seed=9)
        trials, _ = run_campaign(spec)
        assert len(trials) == len(rates) * 2
        for t in trials:
            alone = run_trial(spec.cluster, kind, spec.arrival_kind, t.lambda_offered,
                              spec.duration_s, seed=t.seed, draws=None)
            assert alone.summary() == t

    def test_probes_match_trials_of_their_own(self, monkeypatch):
        probes = []
        trial = bench.run_trial

        def recorded(*args, **kwargs):
            result = trial(*args, **kwargs)
            probes.append((args, result))
            return result

        monkeypatch.setattr(bench, "run_trial", recorded)
        find_max_lambda(small_cluster(), duration_s=20.0, base_seed=8)
        assert len(probes) > 5
        rates = [args[3] for args, _ in probes]
        assert max(rates) > rates[-1]  # some probes after a larger one
        for args, result in probes:
            assert trial(*args, seed=8).summary() == result.summary()


class TestProbesReadOnlyThroughput:
    """A probe's verdict reads throughput only; latency and cpu stay uncomputed."""

    def test_capacity_unchanged_when_unread_series_raise(self, monkeypatch):
        want = find_max_lambda(small_cluster(), duration_s=20.0)

        def unread(timeline):
            raise AssertionError("a capacity probe computed a series its verdict never reads")

        for name in ("write_latency_sum_ms", "read_latency_sum_ms", "mean_write_latency_ms",
                     "mean_read_latency_ms", "cpu_utilization", "pool_depth", "ledger_bytes"):
            monkeypatch.setattr(MetricsTimeline, name, property(unread))
        assert find_max_lambda(small_cluster(), duration_s=20.0) == want

    def test_first_probe_timeline_is_gone_before_the_second_runs(self, monkeypatch):
        # the write search at 10 s and seed 0 stops at its first probe, so 20 s
        timelines = []
        simulate = bench.run

        def recorded(*args, **kwargs):
            assert all(ref() is None for ref in timelines)
            timeline = simulate(*args, **kwargs)
            timelines.append(weakref.ref(timeline))
            return timeline

        monkeypatch.setattr(bench, "run", recorded)
        find_max_lambda(default_cluster(), duration_s=20.0)
        assert len(timelines) >= 2 and all(ref() is None for ref in timelines)


class TestSweepNodes:
    def test_singleton_matches_direct_search(self):
        direct = find_max_lambda(small_cluster(), duration_s=20.0)
        profiles = sweep_nodes(small_cluster(), [4], (TxKind.WRITE,),
                               duration_s=20.0)
        assert len(profiles) == 1
        assert profiles[0].max_lambda_write == direct
        assert profiles[0].max_lambda_read == math.inf

    def test_idempotence(self):
        # a repeated node count is rejected, so the two searches are two sweeps
        first, second = (sweep_nodes(small_cluster(), [4], (TxKind.WRITE,),
                                     duration_s=20.0) for _ in range(2))
        assert first == second

    def test_sweep_records_the_search_tolerance(self):
        profiles = sweep_nodes(small_cluster(), [4, 5], (TxKind.READ,), duration_s=20.0)
        assert [p.search_tolerance for p in profiles] == [bench.SEARCH_TOLERANCE] * 2

    def test_rejects_repeated_node_counts(self):
        with pytest.raises(InputError, match="distinct"):
            sweep_nodes(small_cluster(), [4, 5, 4], (TxKind.WRITE,))

    def test_rejects_small_clusters(self):
        with pytest.raises(InputError):
            sweep_nodes(small_cluster(), [3, 4], (TxKind.WRITE,))


class TestPoissonVsDeterministic:
    def test_poisson_capacity_not_above_deterministic(self):
        poisson = find_max_lambda(small_cluster(), ArrivalKind.POISSON, duration_s=20.0)
        det = find_max_lambda(small_cluster(), ArrivalKind.DETERMINISTIC, duration_s=20.0)
        assert poisson <= det


# any JSON value, as json.loads returns it: NaN and Infinity included, and
# integers past the float range
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(10**400) | st.floats()
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12)
# an object of the keys a capacity profile has, mostly of their JSON types,
# or of a --nodes sweep's, or with a key no profile has
positive_floats = st.floats(0.0, 1e6, exclude_min=True)
profile_documents = st.fixed_dictionaries({
    "schema_version": st.just(1) | st.just(1) | json_values,
    "node_count": st.integers(0, 2000) | st.integers(0, 2000) | json_values,
}, optional={
    "max_lambda_read": positive_floats | st.floats() | st.none() | json_values,
    "max_lambda_write": positive_floats | st.floats() | st.none() | json_values,
    "search_tolerance": positive_floats | st.floats() | st.integers() | json_values,
    "source": st.text(max_size=8) | json_values,
})
odd_documents = st.fixed_dictionaries({"schema_version": st.just(1), "node_count": st.just(4)},
                                      optional={"profiles": json_values, "extra": json_values})
capacity_documents = st.one_of(json_values, profile_documents, profile_documents,
                               profile_documents, odd_documents)


class TestCapacityProfile:
    @settings(max_examples=200, deadline=None)
    @given(doc=capacity_documents)
    def test_a_json_value_loads_or_raises_input_error(self, doc):
        # any other exception, or a RuntimeWarning (an error in this suite), fails
        try:
            profile = CapacityProfile.from_json_dict(doc)
        except InputError:
            return
        assert isinstance(profile, CapacityProfile)

    def test_json_round_trip(self):
        p = CapacityProfile(node_count=4, max_lambda_read=20500.0,
                            max_lambda_write=1400.0, search_tolerance=0.01)
        assert CapacityProfile.from_json_dict(p.to_json_dict()) == p

    def test_infinite_axis_serializes_as_null(self):
        p = CapacityProfile(node_count=4, max_lambda_read=math.inf,
                            max_lambda_write=1400.0, search_tolerance=0.01)
        doc = p.to_json_dict()
        assert doc["max_lambda_read"] is None
        assert CapacityProfile.from_json_dict(doc).max_lambda_read == math.inf

    @pytest.mark.parametrize("axis", ["max_lambda_read", "max_lambda_write"])
    def test_nan_maximum_rejected(self, axis):
        doc = {"schema_version": 1, "node_count": 4, "max_lambda_read": 20500.0,
               "max_lambda_write": 1400.0, axis: math.nan}
        with pytest.raises(InputError, match="maxima"):
            CapacityProfile.from_json_dict(doc)

    def test_node_count_below_bft_minimum_rejected(self):
        with pytest.raises(InputError, match="node_count"):
            CapacityProfile(node_count=3, max_lambda_read=20500.0,
                            max_lambda_write=1400.0, search_tolerance=0.01)

    def test_node_count_below_bft_minimum_in_json_is_a_domain_error(self):
        doc = {"schema_version": 1, "node_count": 3, "max_lambda_read": 20500.0,
               "max_lambda_write": 1400.0}
        with pytest.raises(InputError, match="node_count"):
            CapacityProfile.from_json_dict(doc)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -5.0])
    def test_search_tolerance_must_be_finite_and_non_negative(self, bad):
        with pytest.raises(InputError, match="search_tolerance"):
            CapacityProfile(node_count=4, max_lambda_read=20500.0,
                            max_lambda_write=1400.0, search_tolerance=bad)
        # paper.json's reference endpoints come from no search
        assert CapacityProfile(node_count=4, max_lambda_read=20500.0,
                               max_lambda_write=1400.0, search_tolerance=0.0)

    def test_schema_version_checked(self):
        with pytest.raises(InputError):
            CapacityProfile.from_json_dict({"schema_version": 2, "node_count": 4,
                                            "max_lambda_read": 1, "max_lambda_write": 1})
