import dataclasses
import inspect
import math
import weakref
from dataclasses import replace
from pathlib import Path

import pytest

from chaincap import bench
from chaincap.arrival import SEED_LIMIT, ArrivalKind, ArrivalProcess, TxKind
from chaincap.bench import (
    CampaignSpec,
    CapacityProfile,
    check_duration,
    detect_steady_state,
    find_max_lambda,
    run_campaign,
    run_trial,
    sweep_nodes,
)
from chaincap.chainsim import MetricsTimeline, default_cluster, load_cluster
from chaincap.errors import CalibrationError, InputError


ASYMMETRIC_CLUSTER = Path(__file__).parent / "data" / "asymmetric_cluster.ini"


# a deliberately small cluster for search tests: saturates around 450 tps
def small_cluster():
    return replace(default_cluster(), block_tx_capacity=70)


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
            find_max_lambda(small_cluster(), TxKind.WRITE, duration_s=bad)


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
        # the trials run seed-major, fastest rate first, but are reported in
        # the order of the rate grid, trial after trial within a rate
        spec = CampaignSpec(cluster=small_cluster(), kind=TxKind.WRITE,
                            rates=(80.0, 40.0, 60.0), trials=2, duration_s=20.0, base_seed=4)
        trials, aggregates = run_campaign(spec)
        assert [(t.lambda_offered, t.seed) for t in trials] == [
            (80.0, 4), (80.0, 5), (40.0, 4), (40.0, 5), (60.0, 4), (60.0, 5)]
        assert [a.lambda_offered for a in aggregates] == [80.0, 40.0, 60.0]

    def test_trials_run_seed_major_fastest_rate_first(self, monkeypatch):
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
        assert calls == [(6, 80.0), (6, 60.0), (6, 40.0), (7, 80.0), (7, 60.0), (7, 40.0)]

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
        lam = find_max_lambda(small_cluster(), TxKind.WRITE, ArrivalKind.DETERMINISTIC,
                              duration_s=20.0)
        # block_tx_capacity 70 over the ~0.155 s full-block round bounds throughput
        assert 350 < lam < 550

    def test_search_is_deterministic(self):
        a = find_max_lambda(small_cluster(), TxKind.WRITE, duration_s=20.0)
        b = find_max_lambda(small_cluster(), TxKind.WRITE, duration_s=20.0)
        assert a == b

    def test_doubled_exec_cost_lowers_capacity(self):
        base = find_max_lambda(small_cluster(), TxKind.WRITE, duration_s=20.0)
        slower = replace(small_cluster(), write_exec_us=small_cluster().write_exec_us * 2)
        worse = find_max_lambda(slower, TxKind.WRITE, duration_s=20.0)
        assert worse < base

    def test_unsteady_smallest_probe_is_calibration_error(self):
        # one write per block commits under 10 of the first probe's 100/s
        one_per_block = replace(small_cluster(), block_tx_capacity=1)
        with pytest.raises(CalibrationError, match="smallest probe rate 100.0;"):
            find_max_lambda(one_per_block, TxKind.WRITE, duration_s=20.0)

    def test_calibration_error_names_the_failing_probe(self):
        # seed 5 of the shipped profile commits too much at the first probe
        first = run_trial(default_cluster(), TxKind.WRITE, ArrivalKind.POISSON, 100.0,
                          60.0, seed=5)
        assert f"{first.mean_tps:.2f}" == "102.28"
        with pytest.raises(CalibrationError) as err:
            find_max_lambda(default_cluster(), TxKind.WRITE, base_seed=5)
        assert str(err.value) == (
            "no steady operating point at the smallest probe rate 100.0; the cluster "
            "profile looks miscalibrated: its mean throughput 102.28 tps is outside "
            "100.0 ±2% [98.00, 102.00] at seed 5")

    def test_probe_past_the_event_cap_names_the_search(self, monkeypatch):
        # the search, not the caller, picks the rate that crosses the cap
        monkeypatch.setattr(bench, "MAX_EXPECTED_EVENTS", 200_000)
        monkeypatch.setattr(bench, "run_trial", _no_trial)
        with pytest.raises(InputError) as err:
            find_max_lambda(default_cluster(), TxKind.READ, duration_s=20.0)
        assert str(err.value) == (
            "the read capacity search would probe 21128.20512820513/s over 20.0 s, which "
            "expects 4.226e+05 events, more than the 200,000 one trial may hold; give a "
            "shorter --duration")


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
        assert find_max_lambda(default_cluster(), TxKind.WRITE) == 1374.6265797506646
        # four doublings, the two rungs, then three midpoints
        assert [round(r, 1) for r in rates] == [100.0, 200.0, 400.0, 800.0, 1334.0, 1416.5,
                                                1374.6, 1395.4, 1385.0]
        bound = bench.capacity_bound(default_cluster(), TxKind.WRITE)
        assert rates[4:6] == [bound * (1 - bench.BOUND_MARGIN), bound * (1 + bench.BOUND_MARGIN)]

    def test_infinite_bound_is_the_plain_doubling_search(self, monkeypatch):
        monkeypatch.setattr(bench, "capacity_bound", lambda cluster, kind: math.inf)
        rates = self.record_probes(monkeypatch)
        assert find_max_lambda(default_cluster(), TxKind.WRITE) == 1374.8954384979825
        assert [round(r, 1) for r in rates] == [100.0, 200.0, 400.0, 800.0, 1600.0, 1131.4,
                                                1345.4, 1467.2, 1405.0, 1374.9, 1389.9, 1382.4]

    @pytest.mark.parametrize("factor", [10.0, 0.1])
    def test_a_wrong_bound_still_finds_the_capacity(self, monkeypatch, factor):
        want = find_max_lambda(default_cluster(), TxKind.WRITE)
        true_bound = bench.capacity_bound
        monkeypatch.setattr(bench, "capacity_bound",
                            lambda cluster, kind: true_bound(cluster, kind) * factor)
        got = find_max_lambda(default_cluster(), TxKind.WRITE)
        assert got != want
        assert abs(got / want - 1.0) <= bench.SEARCH_TOLERANCE

    def test_rungs_at_or_below_the_first_probe_add_no_probe(self, monkeypatch):
        rates = self.record_probes(monkeypatch)
        # the first probe lies between the rungs 97.0 and 103.0: the upper one
        # is the next probe
        monkeypatch.setattr(bench, "capacity_bound", lambda cluster, kind: 100.0)
        find_max_lambda(default_cluster(), TxKind.WRITE)
        assert rates[:2] == [100.0, 103.0]
        # both rungs at or below the first probe: the plain doubling search
        monkeypatch.setattr(bench, "capacity_bound", lambda cluster, kind: 100.0 / 1.03)
        rates.clear()
        assert find_max_lambda(default_cluster(), TxKind.WRITE) == 1374.8954384979825
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
        got = find_max_lambda(small_cluster(), TxKind.WRITE, arrival, duration_s=20.0)
        # the answer is the largest steady probe, and the nearest unsteady
        # probe above it lies within SEARCH_TOLERANCE
        assert got == max(t.lambda_offered for t in trials if t.steady)
        above = min(t.lambda_offered for t in trials if not t.steady)
        assert 0.0 < above / got - 1.0 <= bench.SEARCH_TOLERANCE


def _no_trial(*args, **kwargs):
    raise AssertionError("no trial may run")


class TestReadCapacity:
    """The read capacity is (1 - tolerance) times the closed-form service
    limit, once one probe below it is steady and one above it is not."""

    def test_seed_0_read_capacity_makes_two_probes(self, monkeypatch):
        rates = TestBoundRungs.record_probes(monkeypatch)
        assert find_max_lambda(default_cluster(), TxKind.READ) == 20307.692307692305
        bound = bench.capacity_bound(default_cluster(), TxKind.READ)
        assert rates == [bound * (1 + bench.BOUND_MARGIN),
                         bound * (1 - bench.SEARCH_TOLERANCE)]
        assert [round(r, 1) for r in rates] == [21128.2, 20307.7]

    @pytest.mark.parametrize("profile", ["multi", "single", "asymmetric"])
    @pytest.mark.parametrize("seed", [3, 5, 80, 93])
    def test_read_capacity_is_below_the_service_limit(self, seed, profile):
        # seeds whose read bisection once failed at its first probe (3, 5) or
        # stopped near 150/s (80, 93)
        cluster = {"multi": default_cluster(),
                   "single": replace(default_cluster(), read_mode="single"),
                   "asymmetric": load_cluster(ASYMMETRIC_CLUSTER.read_text())}[profile]
        limit = bench.capacity_bound(cluster, TxKind.READ)
        got = find_max_lambda(cluster, TxKind.READ, base_seed=seed)
        assert got == limit * (1 - bench.SEARCH_TOLERANCE) <= limit

    @pytest.mark.parametrize("factor,probes", [
        # the bound halved: the upper probe, at 0.515 times the service limit, is steady
        (0.5, "10256.4/s at seed 7: 10153.8/s serves 10143.89 tps and is steady (must be "
              "steady), 10564.1/s serves 10548.57 tps and is steady (must be unsteady)"),
        # the bound doubled: the lower probe, at 1.98 times the limit, is unsteady
        (2.0, "41025.6/s at seed 7: 40615.4/s serves 20512.85 tps and is unsteady (must be "
              "steady), 42256.4/s serves 20512.85 tps and is unsteady (must be unsteady)"),
    ], ids=["halved", "doubled"])
    def test_a_wrong_bound_is_a_calibration_error(self, monkeypatch, factor, probes):
        true_bound = bench.capacity_bound
        monkeypatch.setattr(bench, "capacity_bound",
                            lambda cluster, kind: true_bound(cluster, kind) * factor)
        with pytest.raises(CalibrationError) as err:
            find_max_lambda(default_cluster(), TxKind.READ, base_seed=7)
        assert str(err.value) == (
            "the simulator does not confirm the read capacity bound " + probes)


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
        find_max_lambda(small_cluster(), TxKind.WRITE, duration_s=20.0, base_seed=7)
        assert seeds == [7]
        # a search that stops at its first probe makes one as well
        with pytest.raises(CalibrationError):
            find_max_lambda(small_cluster(), TxKind.WRITE, duration_s=20.0, base_seed=1)
        assert seeds == [7, 1]

    def test_deterministic_search_draws_nothing(self, monkeypatch):
        seeds = self.count_generators(monkeypatch)
        find_max_lambda(small_cluster(), TxKind.WRITE, ArrivalKind.DETERMINISTIC,
                        duration_s=20.0)
        assert seeds == []

    def test_one_generator_per_campaign_seed(self, monkeypatch):
        seeds = self.count_generators(monkeypatch)
        run_campaign(CampaignSpec(cluster=small_cluster(), kind=TxKind.WRITE,
                                  rates=(40.0, 80.0, 60.0), trials=3, duration_s=20.0,
                                  base_seed=2))
        assert seeds == [2, 3, 4]

    def test_deterministic_campaign_draws_nothing(self, monkeypatch):
        seeds = self.count_generators(monkeypatch)
        run_campaign(CampaignSpec(cluster=small_cluster(), kind=TxKind.WRITE,
                                  rates=(40.0, 80.0), arrival_kind=ArrivalKind.DETERMINISTIC,
                                  trials=2, duration_s=20.0))
        assert seeds == []

    def test_campaign_holds_one_seeds_draws_at_a_time(self, monkeypatch):
        held = []
        make = bench.UnitDraws

        def recorded(seed):
            # every earlier seed's draws are gone before the next seed's exist
            assert all(ref() is None for ref in held)
            draws = make(seed)
            held.append(weakref.ref(draws))
            return draws

        monkeypatch.setattr(bench, "UnitDraws", recorded)
        run_campaign(CampaignSpec(cluster=small_cluster(), kind=TxKind.WRITE,
                                  rates=(40.0, 80.0), trials=3, duration_s=20.0))
        assert len(held) == 3 and all(ref() is None for ref in held)

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
        find_max_lambda(small_cluster(), TxKind.WRITE, duration_s=20.0, base_seed=8)
        assert len(probes) > 5
        rates = [args[3] for args, _ in probes]
        assert max(rates) > rates[-1]  # some probes after a larger one
        for args, result in probes:
            assert trial(*args, seed=8).summary() == result.summary()


class TestProbesReadOnlyThroughput:
    """A probe's verdict reads throughput only; latency and cpu stay uncomputed."""

    @pytest.mark.parametrize("kind", [TxKind.WRITE, TxKind.READ])
    def test_capacity_unchanged_when_unread_series_raise(self, monkeypatch, kind):
        want = find_max_lambda(small_cluster(), kind, duration_s=20.0)

        def unread(timeline):
            raise AssertionError("a capacity probe computed a series its verdict never reads")

        for name in ("mean_write_latency_ms", "mean_read_latency_ms", "cpu_utilization",
                     "pool_depth", "ledger_bytes", "write_latencies_ms"):
            monkeypatch.setattr(MetricsTimeline, name, property(unread))
        assert find_max_lambda(small_cluster(), kind, duration_s=20.0) == want

    # the write search at 10 s and seed 0 stops at its first probe
    @pytest.mark.parametrize("kind,duration_s", [(TxKind.READ, 10.0), (TxKind.WRITE, 20.0)],
                             ids=["read", "write"])
    def test_first_probe_timeline_is_gone_before_the_second_runs(self, monkeypatch, kind,
                                                                 duration_s):
        timelines = []
        simulate = bench.run

        def recorded(*args, **kwargs):
            assert all(ref() is None for ref in timelines)
            timeline = simulate(*args, **kwargs)
            timelines.append(weakref.ref(timeline))
            return timeline

        monkeypatch.setattr(bench, "run", recorded)
        find_max_lambda(default_cluster(), kind, duration_s=duration_s)
        assert len(timelines) >= 2 and all(ref() is None for ref in timelines)
        if kind is TxKind.READ:
            assert len(timelines) == 2


class TestSweepNodes:
    def test_singleton_matches_direct_search(self):
        direct = find_max_lambda(small_cluster(), TxKind.WRITE, duration_s=20.0)
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
        poisson = find_max_lambda(small_cluster(), TxKind.WRITE, ArrivalKind.POISSON,
                                  duration_s=20.0)
        det = find_max_lambda(small_cluster(), TxKind.WRITE, ArrivalKind.DETERMINISTIC,
                              duration_s=20.0)
        assert poisson <= det


class TestCapacityProfile:
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
