import math

import numpy as np
import pytest

from chaincap.arrival import (
    MAX_EXPECTED_EVENTS,
    SEED_LIMIT,
    ArrivalKind,
    ArrivalProcess,
    TxKind,
    UnitDraws,
    check_event_count,
    check_rate,
    generate_events,
    generate_times,
)
from chaincap.errors import ContractError, DomainError
from chaincap.scenarios import UseCaseSpec, workload_for


def sample_interarrival(rate: float, rng: np.random.Generator) -> float:
    """Scalar oracle: one exponential interarrival by inverse transform.

    Uses t = -log(1 - u) / rate for u uniform on [0, 1), the inverse of the
    exponential CDF F(t) = 1 - exp(-rate * t), one uniform per accepted draw.
    """
    rate = check_rate(rate, "rate")
    if rate == 0.0:
        raise DomainError("rate must be > 0 for interarrival sampling, got 0.0")
    while True:
        u = rng.random()
        t = -math.log1p(-u) / rate
        if t > 0.0:
            return t


def reference_generate_times(process: ArrivalProcess, horizon: float) -> np.ndarray:
    """Oracle of the Poisson stream: out-of-place deltas, running sum, masked cut."""
    rate = process.rate
    rng = process.rng()
    mean = rate * horizon
    chunk = max(1024, int(mean + 10.0 * math.sqrt(mean) + 64))
    pieces, t = [], 0.0
    while True:
        times = t + np.cumsum(-np.log1p(-rng.random(chunk)) / rate)
        if times[-1] > horizon:
            pieces.append(times[times <= horizon])
            return np.concatenate(pieces)
        pieces.append(times)
        t = float(times[-1])


class ShrunkUniforms:
    """Uniforms scaled towards 0, so one chunk of draws spans a short time."""

    def __init__(self, seed: int, scale: float):
        self._rng = np.random.Generator(np.random.Philox(key=seed))
        self._scale = scale

    def random(self, n: int | None = None, out: np.ndarray | None = None) -> np.ndarray:
        if out is None:
            return self._rng.random(n) * self._scale
        self._rng.random(out=out)
        out *= self._scale
        return out


class TestGenerateTimesMatchesReference:
    @pytest.mark.parametrize("seed", [0, 1, 17])
    @pytest.mark.parametrize("horizon", [1.0, 7.3, 60.0])
    @pytest.mark.parametrize("rate", [0.5, 3.0, 100.0, 1400.0, 25000.0])
    def test_bit_identical(self, rate, horizon, seed):
        process = ArrivalProcess(ArrivalKind.POISSON, rate, seed)
        got = generate_times(process, horizon)
        want = reference_generate_times(process, horizon)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("seed", [2, 3])
    def test_bit_identical_over_many_chunks(self, seed, monkeypatch):
        monkeypatch.setattr(ArrivalProcess, "rng",
                            lambda self: ShrunkUniforms(self.seed, 0.2))
        process = ArrivalProcess(ArrivalKind.POISSON, 10.0, seed)
        got = generate_times(process, 100.0)
        assert got.size > 5 * 1380  # several chunks of mean + 10 sigma + 64 draws
        assert np.array_equal(got, reference_generate_times(process, 100.0))


class TestUnitDraws:
    # rising, falling and repeated rates, as the probes of a search come
    RATES = [100.0, 1400.0, 25000.0, 3.0, 1400.0, 1400.0, 0.5, 3200.0]

    @pytest.mark.parametrize("seed", [0, 17])
    def test_shared_draws_match_fresh_streams(self, seed):
        draws = UnitDraws(seed)
        for rate in self.RATES:
            process = ArrivalProcess(ArrivalKind.POISSON, rate, seed)
            got = generate_times(process, 60.0, draws)
            assert np.array_equal(got, generate_times(process, 60.0))
            assert np.array_equal(got, reference_generate_times(process, 60.0))

    def test_shared_draws_over_many_chunks(self, monkeypatch):
        monkeypatch.setattr(ArrivalProcess, "rng",
                            lambda self: ShrunkUniforms(self.seed, 0.2))
        draws = UnitDraws(2)
        for rate in (10.0, 5.0, 20.0, 10.0, 7.5):
            process = ArrivalProcess(ArrivalKind.POISSON, rate, 2)
            got = generate_times(process, 100.0, draws)
            assert got.size > 5 * (rate * 100.0 + 10.0 * math.sqrt(rate * 100.0) + 64)
            assert np.array_equal(got, reference_generate_times(process, 100.0))

    def test_generator_made_at_first_draw(self, monkeypatch):
        made = []
        make = ArrivalProcess.rng
        monkeypatch.setattr(ArrivalProcess, "rng", lambda self: made.append(1) or make(self))
        draws = UnitDraws(3)
        generate_times(ArrivalProcess(ArrivalKind.DETERMINISTIC, 50.0, 3), 10.0, draws)
        generate_times(ArrivalProcess(ArrivalKind.POISSON, 0.0, 3), 10.0, draws)
        assert made == []
        generate_times(ArrivalProcess(ArrivalKind.POISSON, 50.0, 3), 10.0, draws)
        generate_times(ArrivalProcess(ArrivalKind.POISSON, 500.0, 3), 10.0, draws)
        assert made == [1]

    def test_take_is_stream_order(self):
        draws = UnitDraws(5)
        head = draws.take(10, 20).copy()
        u = ArrivalProcess(ArrivalKind.POISSON, 1.0, 5).rng().random(40)
        assert np.array_equal(draws.take(0, 40), -np.log1p(-u))
        assert np.array_equal(draws.take(10, 20), head)

    def test_draws_of_another_seed_rejected(self):
        with pytest.raises(ContractError, match="seed 1"):
            generate_times(ArrivalProcess(ArrivalKind.POISSON, 5.0, 2), 10.0, UnitDraws(1))

    def test_events_pass_draws_on(self, monkeypatch):
        draws = UnitDraws(8)
        process = ArrivalProcess(ArrivalKind.POISSON, 40.0, 8)
        events = generate_events(process, TxKind.WRITE, 10.0, draws=draws)
        assert np.array_equal(events.write_times, generate_times(process, 10.0))
        # the stream's draws are in the buffer now
        monkeypatch.setattr(ArrivalProcess, "rng", lambda self: pytest.fail("drew uniforms"))
        assert np.array_equal(generate_times(process, 10.0, draws), events.write_times)


class TestSampleInterarrival:
    def test_mean_at_rate_one(self):
        rng = np.random.Generator(np.random.Philox(key=1))
        draws = [sample_interarrival(1.0, rng) for _ in range(10**6)]
        assert np.mean(draws) == pytest.approx(1.0, abs=0.01)

    def test_mean_at_rate_two(self):
        rng = np.random.Generator(np.random.Philox(key=2))
        draws = [sample_interarrival(2.0, rng) for _ in range(10**6)]
        assert np.mean(draws) == pytest.approx(0.5, abs=0.005)

    def test_first_draw_matches_inverse_cdf_oracle(self):
        # independent oracle: invert F(t) = 1 - exp(-lambda t) on the same
        # uniform stream the sampler consumes
        seed = 1234
        u = np.random.Generator(np.random.Philox(key=seed)).random()
        oracle = -math.log1p(-u) / 100.0
        rng = np.random.Generator(np.random.Philox(key=seed))
        assert sample_interarrival(100.0, rng) == oracle

    def test_generate_times_within_two_ulp_of_scalar_draws(self):
        # numpy's vector log1p differs from math.log1p by an ulp on some
        # uniforms, so the stream matches a scalar replay only to a few ulp
        for seed in range(200):
            process = ArrivalProcess(ArrivalKind.POISSON, 100.0, seed)
            times = generate_times(process, 1.0)[:5]
            rng = process.rng()
            scalar, t = [], 0.0
            for _ in range(times.size):
                t += sample_interarrival(100.0, rng)
                scalar.append(t)
            np.testing.assert_array_max_ulp(times, np.array(scalar), maxulp=2)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_rates(self, bad):
        rng = np.random.Generator(np.random.Philox(key=0))
        with pytest.raises(DomainError):
            sample_interarrival(bad, rng)


class TestRateArithmetic:
    """The per-kind rates lambda = eta * multiplicity on hand-made use cases."""

    def test_public_key_mgmt_rate(self):
        w = workload_for(UseCaseSpec("subscriber_key", 0, 1), 0.0115)
        assert w.lambda_write == 0.0115
        assert w.lambda_read == 0.0

    def test_aaa_rates(self):
        w = workload_for(UseCaseSpec("access_control", 5, 1), 8333)
        assert w.lambda_write == 8333
        assert w.lambda_read == 41665


class TestGenerateEvents:
    def test_poisson_count_within_ten_sigma(self):
        # Poisson(1000): ten sigma is ~316, bound [700, 1300] holds for any seed
        for seed in range(20):
            process = ArrivalProcess(ArrivalKind.POISSON, 100.0, seed)
            events = generate_events(process, TxKind.WRITE, 10.0)
            assert 700 <= len(events) <= 1300

    def test_tiny_horizon_can_be_empty(self):
        process = ArrivalProcess(ArrivalKind.POISSON, 1.0, 3)
        first = generate_times(process, 1000.0)[0]
        events = generate_events(process, TxKind.READ, first / 2)
        assert len(events) == 0

    def test_deterministic_spacing(self):
        process = ArrivalProcess(ArrivalKind.DETERMINISTIC, 10.0, 0)
        events = generate_events(process, TxKind.WRITE, 1.0)
        assert len(events) == 10
        assert list(events.write_times) == pytest.approx(
            [0.1 * (k + 1) for k in range(10)])

    def test_determinism(self):
        a = generate_events(ArrivalProcess(ArrivalKind.POISSON, 50.0, 9), TxKind.READ, 5.0)
        b = generate_events(ArrivalProcess(ArrivalKind.POISSON, 50.0, 9), TxKind.READ, 5.0)
        for column in ("write_times", "read_times"):
            assert np.array_equal(getattr(a, column), getattr(b, column))

    def test_different_seeds_differ(self):
        a = generate_times(ArrivalProcess(ArrivalKind.POISSON, 50.0, 1), 5.0)
        b = generate_times(ArrivalProcess(ArrivalKind.POISSON, 50.0, 2), 5.0)
        assert not np.array_equal(a, b)

    def test_timestamps_sorted_with_constant_columns(self):
        events = generate_events(ArrivalProcess(ArrivalKind.POISSON, 200.0, 5),
                                 TxKind.WRITE, 10.0)
        assert np.all(np.diff(events.write_times) >= 0)
        assert events.write_times.dtype == np.float64
        assert len(events.write_times) == len(events) and events.read_times.size == 0
        reads = generate_events(ArrivalProcess(ArrivalKind.POISSON, 200.0, 5),
                                TxKind.READ, 10.0)
        assert reads.write_times.size == 0
        assert np.array_equal(reads.read_times, events.write_times)

    def test_event_count_guard(self, monkeypatch):
        assert check_event_count(MAX_EXPECTED_EVENTS / 60.0, 60.0) == MAX_EXPECTED_EVENTS
        with pytest.raises(DomainError, match="expects"):
            check_event_count(MAX_EXPECTED_EVENTS / 60.0, 60.001)
        monkeypatch.setattr(ArrivalProcess, "rng", lambda self: pytest.fail("drew uniforms"))
        for kind in ArrivalKind:
            with pytest.raises(DomainError, match="expects"):
                generate_times(ArrivalProcess(kind, 1e12, 0), 60.0)

    def test_rejects_bad_horizon(self):
        process = ArrivalProcess(ArrivalKind.POISSON, 1.0, 0)
        for bad in (math.inf, math.nan, 0.0, -1.0):
            with pytest.raises(DomainError):
                generate_events(process, TxKind.READ, bad)

    def test_seed_outside_philox_key_range_rejected(self):
        for bad in (-1, SEED_LIMIT):
            with pytest.raises(DomainError, match=r"seed must be in \[0, 2\*\*128\)"):
                ArrivalProcess(ArrivalKind.POISSON, 1.0, bad)
        top = ArrivalProcess(ArrivalKind.POISSON, 1.0, SEED_LIMIT - 1)
        assert len(generate_events(top, TxKind.READ, 10.0)) > 0

    def test_zero_rate_stream_is_empty(self):
        assert len(generate_events(ArrivalProcess(ArrivalKind.POISSON, 0.0, 0),
                                   TxKind.READ, 10.0)) == 0


class TestDistributionalProperties:
    def test_exponentiality_ks(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rate = 50.0
        passes = 0
        for seed in range(100):
            rng = np.random.Generator(np.random.Philox(key=seed))
            u = rng.random(10**5)
            samples = -np.log1p(-u) / rate
            stat = scipy_stats.kstest(samples, "expon", args=(0, 1 / rate))
            if stat.pvalue > 0.001:
                passes += 1
        assert passes >= 99

    def test_memorylessness_proxy(self):
        rate = 4.0
        a = b = 0.5 / rate
        rng = np.random.Generator(np.random.Philox(key=77))
        u = rng.random(10**6)
        t = -np.log1p(-u) / rate
        exceed_a = t > a
        p_cond = np.count_nonzero(t[exceed_a] > a + b) / np.count_nonzero(exceed_a)
        p_b = np.count_nonzero(t > b) / t.size
        assert abs(p_cond - p_b) < 0.01
