"""End-to-end acceptance checks.

Each test exercises one release criterion and prints a single PASS/FAIL
line (bypassing pytest capture) so the gate can be audited from the raw
run log.  The expensive capacity searches are computed once in
session-scoped fixtures and shared across criteria.
"""

import json
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from chaincap.arrival import (
    ArrivalKind,
    ArrivalProcess,
    TxKind,
    generate_events,
    generate_times,
)
from chaincap.assess import methodology_report
from chaincap.bench import CapacityProfile, find_max_lambda, run_trial, sweep_nodes
from chaincap.chainsim import default_cluster, run
from chaincap.cli import PAPER_CAPACITY_PATH, main
from chaincap.scenarios import ScenarioSpec, UseCaseSpec, builtin_scenarios, workload_for


_CAPTURE = None


@pytest.fixture(autouse=True)
def _capture_handle(capfd):
    # lets report() write through pytest's fd-level capture
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def report(criterion: int, label: str, ok: bool) -> None:
    line = f"[criterion {criterion}] {label}: {'PASS' if ok else 'FAIL'}"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="session")
def write_capacity_sweep():
    # one search per node count, reused by criteria 3, 4, and 5
    return sweep_nodes(default_cluster(), [4, 5, 6, 7], (TxKind.WRITE,),
                       arrival_kind=ArrivalKind.DETERMINISTIC, duration_s=60.0)


@pytest.fixture(scope="session")
def read_capacity_multi():
    return find_max_lambda(default_cluster(), TxKind.READ,
                           ArrivalKind.DETERMINISTIC, duration_s=60.0)


class TestCriterion1RateArithmetic:
    def test_exact_rates(self):
        low = ScenarioSpec("public_key_mgmt", (UseCaseSpec("subscriber_key", 0, 1),))
        high = ScenarioSpec("aaa", (UseCaseSpec("access_control", 5, 1),))
        _, low_write = workload_for(low, 0.0115)
        high_read, high_write = workload_for(high, 8333)
        ok = low_write == 0.0115 and high_write == 8333 and high_read == 41665
        report(1, "arrival-rate arithmetic exact", ok)


class TestCriterion2GeneratorStatistics:
    def test_ks_against_exponential(self):
        passed = 0
        for seed in range(100):
            # the interarrivals of the stream users get: ~100k at 50/s
            times = generate_times(ArrivalProcess(ArrivalKind.POISSON, 50.0, seed), 2000.0)
            x = np.diff(times, prepend=0.0)
            if stats.kstest(x, "expon", args=(0, 1 / 50.0)).pvalue > 0.001:
                passed += 1
        report(2, f"KS vs Exp(50) passes {passed}/100 seeds", passed >= 99)

    def test_event_count_concentration(self):
        mean, sigma = 10_000.0, 100.0
        within = 0
        for seed in range(100):
            process = ArrivalProcess(ArrivalKind.POISSON, 100.0, seed=seed)
            n = len(generate_times(process, 100.0))
            if abs(n - mean) <= 3 * sigma:
                within += 1
        report(2, f"count within 3 sigma for {within}/100 seeds", within >= 99)


class TestCriterion3CalibrationEndpoints:
    def test_write_endpoint(self, write_capacity_sweep):
        cap = write_capacity_sweep[0].max_lambda_write
        report(3, f"4-node write capacity {cap:.1f} vs 1400 +/-10%",
               abs(cap - 1400.0) <= 140.0)

    def test_read_endpoint(self, read_capacity_multi):
        report(3, f"4-node read capacity {read_capacity_multi:.1f} vs 20500 +/-10%",
               abs(read_capacity_multi - 20500.0) <= 2050.0)


class TestCriterion4NodeCountLaw:
    def test_capacity_non_increasing_in_nodes(self, write_capacity_sweep):
        caps = [p.max_lambda_write for p in write_capacity_sweep]
        ok = all(a >= b for a, b in zip(caps, caps[1:]))
        report(4, "write capacity non-increasing over 4..7 nodes "
               + "/".join(f"{c:.0f}" for c in caps), ok)


class TestCriterion5SaturationShape:
    def test_overload_throughput_drops(self, write_capacity_sweep):
        cap = write_capacity_sweep[0].max_lambda_write
        cluster = default_cluster()
        at_cap = run_trial(cluster, TxKind.WRITE, ArrivalKind.DETERMINISTIC,
                           cap, 60.0, seed=0)
        overload = run_trial(cluster, TxKind.WRITE, ArrivalKind.DETERMINISTIC,
                             2 * cap, 60.0, seed=0)
        report(5, f"TPS at 2x capacity {overload.mean_tps:.0f} < "
               f"at capacity {at_cap.mean_tps:.0f}",
               overload.mean_tps < at_cap.mean_tps)

    def test_latency_and_cpu_monotone_below_capacity(self, write_capacity_sweep):
        cap = write_capacity_sweep[0].max_lambda_write
        cluster = default_cluster()
        trials = [run_trial(cluster, TxKind.WRITE, ArrivalKind.DETERMINISTIC,
                            frac * cap, 60.0, seed=0)
                  for frac in (0.25, 0.5, 0.75, 0.95)]
        lat = [t.mean_latency_ms for t in trials]
        cpu = [t.mean_cpu for t in trials]
        ok = (all(a <= b for a, b in zip(lat, lat[1:]))
              and all(a <= b for a, b in zip(cpu, cpu[1:])))
        report(5, "latency and CPU non-decreasing below capacity", ok)


class TestCriterion6PoissonVsPeak:
    def test_poisson_capacity_not_above_deterministic(self):
        cluster = replace(default_cluster(), block_tx_capacity=70)
        poisson = find_max_lambda(cluster, TxKind.WRITE, ArrivalKind.POISSON,
                                  duration_s=30.0)
        det = find_max_lambda(cluster, TxKind.WRITE, ArrivalKind.DETERMINISTIC,
                              duration_s=30.0)
        report(6, f"poisson max {poisson:.1f} <= deterministic max {det:.1f}",
               poisson <= det)


class TestCriterion7ReadIndependence:
    def test_block_production_does_not_touch_reads(self):
        cluster = default_cluster()
        reads = generate_events(ArrivalProcess(ArrivalKind.POISSON, 5000.0, seed=3),
                                TxKind.READ, 30.0)
        writes = generate_events(ArrivalProcess(ArrivalKind.POISSON, 1400.0, seed=4),
                                 TxKind.WRITE, 30.0)
        with_blocks = run(cluster, replace(reads, write_times=writes.write_times),
                          horizon=30.0)
        without = run(cluster, reads, horizon=30.0)
        ok = (with_blocks.committed_writes > 0
              and np.array_equal(with_blocks.served_read_tps, without.served_read_tps)
              and np.array_equal(with_blocks.mean_read_latency_ms,
                                 without.mean_read_latency_ms))
        report(7, "read completions identical with and without a 1400/s write load", ok)

    def test_multi_node_reads_scale_with_node_count(self, read_capacity_multi):
        single = find_max_lambda(replace(default_cluster(), read_mode="single"),
                                 TxKind.READ, ArrivalKind.DETERMINISTIC,
                                 duration_s=60.0)
        ratio = read_capacity_multi / single
        n = default_cluster().node_count
        report(7, f"multi/single read capacity ratio {ratio:.2f} vs {n} +/-10%",
               abs(ratio - n) <= 0.1 * n)


class TestCriterion8MethodologyVerdicts:
    def test_reference_verdicts(self):
        capacity = CapacityProfile.from_json_dict(
            json.loads(PAPER_CAPACITY_PATH.read_text()))
        catalog = builtin_scenarios()
        pkm, aaa = catalog["public_key_mgmt"], catalog["aaa"]
        good = methodology_report(pkm, 0.0115, capacity)["comparison"]
        bad = methodology_report(aaa, 8333, capacity)["comparison"]
        ok = good["suitable"] and not bad["read_ok"] and not bad["write_ok"]
        report(8, "PublicKeyMgmt suitable, AAA unsuitable on both axes", ok)


class TestCriterion9Determinism:
    @staticmethod
    def outputs(path):
        # manifest.json carries wall-clock timestamps and is excluded
        return {p.name: p.read_bytes() for p in sorted(path.iterdir())
                if p.name != "manifest.json"}

    def test_repeated_commands_are_byte_identical(self, tmp_path):
        cases = [
            ["simulate", "--kind", "write", "--lambda", "500",
             "--duration", "20", "--seed", "11"],
            ["assess", "--scenario", "all",
             "--capacity", str(PAPER_CAPACITY_PATH)],
        ]
        ok = True
        for i, args in enumerate(cases):
            a, b = tmp_path / f"a{i}", tmp_path / f"b{i}"
            assert main(args + ["--out", str(a)]) == 0
            assert main(args + ["--out", str(b)]) == 0
            ok = ok and self.outputs(a) == self.outputs(b)
        report(9, "repeated runs produce byte-identical outputs", ok)
