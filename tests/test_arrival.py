import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from chaincap.errors import InputError
from chaincap.scenarios import ScenarioSpec, UseCaseSpec, workload_for


def sample_interarrival(rate: float, rng: np.random.Generator) -> float:
    """Scalar oracle: one exponential interarrival by inverse transform.

    Uses t = -log(1 - u) / rate for u uniform on [0, 1), the inverse of the
    exponential CDF F(t) = 1 - exp(-rate * t), one uniform per accepted draw.
    """
    rate = check_rate(rate, "rate")
    if rate == 0.0:
        raise InputError("rate must be > 0 for interarrival sampling, got 0.0")
    while True:
        u = rng.random()
        t = -math.log1p(-u) / rate
        if t > 0.0:
            return t


def reference_epochs(process: ArrivalProcess, n: int) -> np.ndarray:
    """The seed's first ``n`` unit-rate epochs: one running sum of its unit draws."""
    return np.cumsum(-np.log1p(-process.rng().random(n)))


def reference_generate_times(process: ArrivalProcess, horizon: float) -> np.ndarray:
    """Oracle of the Poisson stream: the epochs divided by the rate, masked at the horizon."""
    n = 1024
    while True:
        times = reference_epochs(process, n) / process.rate
        if times[-1] > horizon:
            return times[times <= horizon]
        n *= 2


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

    @pytest.mark.parametrize("rate", [3.0, 0.7, 1.0, 1e-3])
    @pytest.mark.parametrize("shared", [False, True])
    def test_horizon_cut_is_exact(self, rate, shared, monkeypatch):
        # gaps of about 5e-13 / rate seconds between arrivals: every quotient
        # at or below the horizon is kept and none above it, when the horizon
        # is one of the quotients or one ulp either side, over several chunks
        # of epochs
        monkeypatch.setattr(ArrivalProcess, "rng",
                            lambda self: ShrunkUniforms(self.seed, 1e-12))
        process = ArrivalProcess(ArrivalKind.POISSON, rate, 4)
        quotients = reference_epochs(process, 20_000) / rate
        draws = UnitDraws(4) if shared else None
        for k in (0, 1, 1023, 1024, 5000, 12_345):
            for horizon in (np.nextafter(quotients[k], 0.0), quotients[k],
                            np.nextafter(quotients[k], math.inf)):
                got = generate_times(process, float(horizon), draws)
                want = quotients[quotients <= horizon]
                assert np.array_equal(got, want)
                assert want.size in (k, k + 1) and quotients[want.size] > horizon


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

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, SEED_LIMIT - 1),
           rates=st.lists(st.sampled_from(RATES), min_size=1, max_size=8))
    def test_shared_draws_match_fresh_streams_after_any_rates(self, seed, rates):
        draws = UnitDraws(seed)
        for rate in rates:
            process = ArrivalProcess(ArrivalKind.POISSON, rate, seed)
            assert np.array_equal(generate_times(process, 5.0, draws),
                                  generate_times(process, 5.0))

    @settings(deadline=None)
    @given(seed=st.integers(0, SEED_LIMIT - 1), rate=st.floats(0.01, 5000.0),
           h1=st.floats(1e-3, 30.0), h2=st.floats(1e-3, 30.0))
    def test_shorter_horizon_is_a_prefix(self, seed, rate, h1, h2):
        h1, h2 = min(h1, h2), max(h1, h2)
        process = ArrivalProcess(ArrivalKind.POISSON, rate, seed)
        short = generate_times(process, h1)
        draws = UnitDraws(seed)
        long = generate_times(process, h2, draws)
        assert np.array_equal(long[:short.size], short)
        assert short.size == long.size or long[short.size] > h1
        # and from the longer stream's epochs, held already
        assert np.array_equal(generate_times(process, h1, draws), short)

    def test_shared_epochs_are_not_overwritten(self):
        # only epochs made for one call alone are divided in place
        draws = UnitDraws(9)
        epochs = draws.take(4096).copy()
        for rate in (0.5, 3.0, 1400.0):
            generate_times(ArrivalProcess(ArrivalKind.POISSON, rate, 9), 2.0, draws)
            assert np.array_equal(draws.take(4096), epochs)

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
        assert made == [1]
        # a slower stream divides a prefix of the epochs held
        generate_times(ArrivalProcess(ArrivalKind.POISSON, 20.0, 3), 10.0, draws)
        assert made == [1]
        # a faster one outruns them, and a fresh generator draws them all again
        generate_times(ArrivalProcess(ArrivalKind.POISSON, 500.0, 3), 10.0, draws)
        assert made == [1, 1]
        generate_times(ArrivalProcess(ArrivalKind.POISSON, 50.0, 3), 10.0, draws)
        assert made == [1, 1]

    @pytest.mark.parametrize("stops", [[4000], [1, 2, 3, 4000], [10, 1034, 1035, 3000, 4000]])
    def test_epochs_do_not_depend_on_how_the_buffer_grew(self, stops):
        want = reference_epochs(ArrivalProcess(ArrivalKind.POISSON, 1.0, 5), 4000)
        draws = UnitDraws(5)
        for stop in stops:
            assert np.array_equal(draws.take(stop), want[:stop])
        # a shorter take is a view of the epochs held
        head = draws.take(20)
        assert np.array_equal(head, want[:20]) and np.shares_memory(head, draws.take(4000))

    @pytest.mark.parametrize("stops", [[100, 4000, 5000, 7000], [7000], [1, 5000]])
    def test_draws_that_take_over_a_buffer_match_fresh_draws(self, stops):
        # the inherited buffer holds 5000 of seed 3's epochs; seed 4 takes
        # below and beyond that size, and overwrites the buffer in place
        longer = UnitDraws(3)
        inherited = longer.take(5000)
        draws = UnitDraws(4, reuse=longer)
        want = reference_epochs(ArrivalProcess(ArrivalKind.POISSON, 1.0, 4), max(stops))
        for i, stop in enumerate(stops):
            got = draws.take(stop)
            assert np.array_equal(got, want[:stop])
            assert np.array_equal(got, UnitDraws(4).take(stop))
            # the buffer is reallocated only once a take needs more room
            assert np.shares_memory(got, inherited) == (max(stops[:i + 1]) <= inherited.size)

    def test_emptied_draws_redraw_their_own_seed(self):
        longer = UnitDraws(3)
        want = longer.take(5000).copy()
        draws = UnitDraws(4, reuse=longer)
        # seed 4's epochs overwrite the handed-over buffer in place
        fresh = draws.take(4000).copy()
        assert np.array_equal(longer.take(5000), want)
        # which draws in a buffer of its own, leaving the other seed's epochs be
        assert np.array_equal(draws.take(4000), fresh)
        assert not np.shares_memory(longer.take(5000), draws.take(4000))

    def test_events_pass_draws_on(self, monkeypatch):
        draws = UnitDraws(8)
        process = ArrivalProcess(ArrivalKind.POISSON, 40.0, 8)
        events = generate_events(process, TxKind.WRITE, 10.0, draws=draws)
        assert np.array_equal(events.write_times, generate_times(process, 10.0))
        # the stream's draws are in the buffer now
        monkeypatch.setattr(ArrivalProcess, "rng", lambda self: pytest.fail("drew uniforms"))
        assert np.array_equal(generate_times(process, 10.0, draws), events.write_times)


class TestSampleInterarrival:
    # the means are taken over the gaps between the unit-rate epochs every
    # probe divides by its rate; test_epochs_within_two_ulp_of_scalar_draws ties
    # those epochs to the scalar oracle
    def test_mean_at_rate_one(self):
        gaps = np.diff(UnitDraws(1).take(10**6), prepend=0.0) / 1.0
        assert np.mean(gaps) == pytest.approx(1.0, abs=0.01)

    def test_mean_at_rate_two(self):
        gaps = np.diff(UnitDraws(2).take(10**6), prepend=0.0) / 2.0
        assert np.mean(gaps) == pytest.approx(0.5, abs=0.005)

    def test_first_draw_matches_inverse_cdf_oracle(self):
        # independent oracle: invert F(t) = 1 - exp(-lambda t) on the same
        # uniform stream the sampler consumes
        seed = 1234
        u = np.random.Generator(np.random.Philox(key=seed)).random()
        oracle = -math.log1p(-u) / 100.0
        rng = np.random.Generator(np.random.Philox(key=seed))
        assert sample_interarrival(100.0, rng) == oracle

    def test_epochs_within_two_ulp_of_scalar_draws(self):
        # numpy's vector log1p differs from math.log1p by an ulp on some
        # uniforms, so the epochs match a scalar running sum only to a few
        # ulp; the stream is those epochs divided by the rate, exactly
        for seed in range(200):
            process = ArrivalProcess(ArrivalKind.POISSON, 100.0, seed)
            times = generate_times(process, 1.0)[:5]
            epochs = UnitDraws(seed).take(times.size)
            rng = process.rng()
            scalar, epoch = [], 0.0
            for _ in range(times.size):
                epoch += sample_interarrival(1.0, rng)
                scalar.append(epoch)
            np.testing.assert_array_max_ulp(epochs, np.array(scalar), maxulp=2)
            assert np.array_equal(times, epochs / 100.0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_rates(self, bad):
        rng = np.random.Generator(np.random.Philox(key=0))
        with pytest.raises(InputError):
            sample_interarrival(bad, rng)


class TestRateArithmetic:
    """The per-kind rates lambda = eta * multiplicity on hand-made use cases."""

    def test_public_key_mgmt_rate(self):
        spec = ScenarioSpec("public_key_mgmt", (UseCaseSpec("subscriber_key", 0, 1),))
        lambda_read, lambda_write = workload_for(spec, 0.0115)
        assert lambda_write == 0.0115
        assert lambda_read == 0.0

    def test_aaa_rates(self):
        spec = ScenarioSpec("aaa", (UseCaseSpec("access_control", 5, 1),))
        lambda_read, lambda_write = workload_for(spec, 8333)
        assert lambda_write == 8333
        assert lambda_read == 41665


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

    @settings(max_examples=60, deadline=None)
    @given(arrival=st.sampled_from(ArrivalKind),
           rate=st.one_of(st.sampled_from([0.0, 1e-320]), st.floats(1e-3, 3000.0)),
           horizon=st.floats(1e-3, 30.0), seed=st.integers(0, SEED_LIMIT - 1),
           grown_by=st.one_of(st.none(), st.floats(1e-3, 3000.0)))
    def test_timestamps_sorted_with_constant_columns(self, arrival, rate, horizon, seed,
                                                     grown_by):
        # chainsim.run checks neither order nor horizon of the streams it is
        # handed, which all come from here: on draws of their own or on draws
        # a stream at another rate has grown
        process = ArrivalProcess(arrival, rate, seed)
        draws = None
        if grown_by is not None:
            draws = UnitDraws(seed)
            generate_times(ArrivalProcess(ArrivalKind.POISSON, grown_by, seed), horizon, draws)
        events = generate_events(process, TxKind.WRITE, horizon, draws)
        times = events.write_times
        assert times.dtype == np.float64
        assert np.all(times[1:] >= times[:-1])
        assert times.size == 0 or times[-1] <= horizon
        assert len(times) == len(events) and events.read_times.size == 0
        reads = generate_events(process, TxKind.READ, horizon, draws)
        assert reads.write_times.size == 0
        assert np.array_equal(reads.read_times, times)

    def test_event_count_guard(self, monkeypatch):
        assert check_event_count(MAX_EXPECTED_EVENTS / 60.0, 60.0) == MAX_EXPECTED_EVENTS
        with pytest.raises(InputError, match="expects"):
            check_event_count(MAX_EXPECTED_EVENTS / 60.0, 60.001)
        monkeypatch.setattr(ArrivalProcess, "rng", lambda self: pytest.fail("drew uniforms"))
        for kind in ArrivalKind:
            with pytest.raises(InputError, match="expects"):
                generate_times(ArrivalProcess(kind, 1e12, 0), 60.0)

    def test_rejects_bad_horizon(self):
        process = ArrivalProcess(ArrivalKind.POISSON, 1.0, 0)
        for bad in (math.inf, math.nan, 0.0, -1.0):
            with pytest.raises(InputError):
                generate_events(process, TxKind.READ, bad)

    def test_seed_outside_philox_key_range_rejected(self):
        for bad in (-1, SEED_LIMIT):
            with pytest.raises(InputError, match=r"seed must be in \[0, 2\*\*128\)"):
                ArrivalProcess(ArrivalKind.POISSON, 1.0, bad)
        top = ArrivalProcess(ArrivalKind.POISSON, 1.0, SEED_LIMIT - 1)
        assert len(generate_events(top, TxKind.READ, 10.0)) > 0

    def test_zero_rate_stream_is_empty(self):
        assert len(generate_events(ArrivalProcess(ArrivalKind.POISSON, 0.0, 0),
                                   TxKind.READ, 10.0)) == 0

    def test_rate_whose_interarrivals_overflow_gives_empty_stream(self):
        # every epoch / 1e-320 overflows to inf: past the horizon, and without a warning
        process = ArrivalProcess(ArrivalKind.POISSON, 1e-320, 0)
        for draws in (None, UnitDraws(0)):
            times = generate_times(process, 10.0, draws)
            assert times.size == 0 and times.dtype == np.float64


class TestDistributionalProperties:
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
