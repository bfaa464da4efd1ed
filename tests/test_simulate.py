"""Unit tests for the Monte Carlo estimator and its counter-based streams."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from selfnorm import (
    FINAL_SUM,
    RUNNING_MAX,
    TSTAT,
    DistributionSpec,
    efron_check,
    empirical_log_rate,
    estimate_tail,
    estimate_tail_multi,
    exact_tail,
    sample_vector,
    tie_guarded,
    trial_stream,
    v_norm,
    wilson_interval,
)
from selfnorm.simulate import Z99, TailEstimate, _trial_block, respects


class TestDistributionSpec:
    def test_constructors_round_trip(self):
        assert DistributionSpec.rademacher().kind == "rademacher"
        assert DistributionSpec.two_point(3.7).a == 3.7
        assert DistributionSpec.pareto(1.2).tail_index == 1.2
        assert DistributionSpec.fixed([1, 2, 3]).magnitudes == (1.0, 2.0, 3.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            DistributionSpec("cauchy")
        with pytest.raises(ValueError):
            DistributionSpec.two_point(0.0)
        with pytest.raises(ValueError):
            DistributionSpec.pareto(-1.0)
        with pytest.raises(ValueError):
            DistributionSpec.fixed([])
        with pytest.raises(ValueError):
            DistributionSpec.fixed([1.0, -2.0])
        with pytest.raises(ValueError):
            DistributionSpec.fixed([0.0, 0.0])

    def test_infinite_moment_flag(self):
        assert DistributionSpec.pareto(1.2).infinite_moment(1.5)
        assert DistributionSpec.pareto(1.2).infinite_moment(1.2)
        assert not DistributionSpec.pareto(2.5).infinite_moment(2.0)
        assert not DistributionSpec.gaussian().infinite_moment(100.0)

    def test_exact_support(self):
        assert DistributionSpec.rademacher().supports_exact()
        assert DistributionSpec.two_point(2.0).supports_exact()
        assert DistributionSpec.fixed([1.0, 2.0]).supports_exact()
        assert not DistributionSpec.gaussian().supports_exact()
        assert not DistributionSpec.uniform().supports_exact()
        assert not DistributionSpec.pareto(1.5).supports_exact()

    def test_exact_magnitudes(self):
        assert DistributionSpec.two_point(2.5).exact_magnitudes(3) == [2.5] * 3
        assert DistributionSpec.fixed([1.0, 2.0]).exact_magnitudes(2) == [1.0, 2.0]
        with pytest.raises(ValueError):
            DistributionSpec.fixed([1.0, 2.0]).exact_magnitudes(3)
        with pytest.raises(ValueError):
            DistributionSpec.gaussian().exact_magnitudes(4)


class TestWilson:
    def test_99_percent_quantile(self):
        assert Z99 == pytest.approx(2.5758293035489004, rel=1e-14)

    def test_edge_cases_clamped(self):
        low, high = wilson_interval(0, 1000)
        assert low == 0.0
        assert 0.0 < high < 0.02
        low, high = wilson_interval(1000, 1000)
        assert 0.98 < low < 1.0
        assert high == 1.0

    def test_brackets_the_proportion(self):
        low, high = wilson_interval(500, 1000)
        assert low < 0.5 < high
        assert high - low == pytest.approx(2 * 2.5758 / math.sqrt(4000), rel=0.01)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 0)
        with pytest.raises(ValueError):
            wilson_interval(11, 10)
        with pytest.raises(ValueError):
            wilson_interval(-1, 10)


class TestRespects:
    def test_three_half_widths_is_the_edge(self):
        # Half-width 0.0625, so the bound may sit 0.1875 below p_hat.
        est = TailEstimate(25, 100, 0.25, 0.2, 0.3125, seed=0, degenerate_count=0)
        assert respects(est, 0.0625)
        assert respects(est, 0.3)
        assert not respects(est, 0.0624)


class TestArgumentChecks:
    def test_rejects_bad_seed_and_trials(self):
        for seed in (-1, 1 << 64):
            with pytest.raises(ValueError, match="seed must fit in 64 bits"):
                estimate_tail(DistributionSpec.rademacher(), 4, 2.0, 1.0, seed=seed)
        with pytest.raises(ValueError, match="trials must be an integer"):
            estimate_tail(DistributionSpec.rademacher(), 4, 2.0, 1.0, trials=2.0)
        with pytest.raises(ValueError, match="trials must be >= 1"):
            estimate_tail(DistributionSpec.rademacher(), 4, 2.0, 1.0, trials=0)


class TestBlockMemory:
    def test_small_n_keeps_the_fixed_partition(self):
        assert all(_trial_block(n) == 1 << 15 for n in range(1, 21))
        assert _trial_block(1000) == 655
        assert _trial_block(10**7) == 1

    def test_peak_allocation_bounded_at_large_n(self):
        # With 2^15-trial blocks these 2000 trials at n = 2000 are one block:
        # its uniform matrix alone is 64 MB (95 MB traced peak in all).
        spec = DistributionSpec.rademacher()
        tracemalloc.start()
        try:
            est = estimate_tail(spec, 2000, 2.0, 1.0, RUNNING_MAX, 2000, seed=3, workers=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20
        assert est.hits == 649
        assert estimate_tail(spec, 2000, 2.0, 1.0, RUNNING_MAX, 2000, seed=3, workers=2) == est


SPECS = [
    DistributionSpec.rademacher(),
    DistributionSpec.two_point(2.5),
    DistributionSpec.uniform(),
    DistributionSpec.gaussian(),
    DistributionSpec.pareto(1.2),
    DistributionSpec.fixed([1.0, 0.5, 2.0, 0.0]),
]


class TestStreams:
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind)
    def test_blocked_counting_equals_per_trial_replay(self, spec):
        """The blocked estimator must reproduce trial-by-trial replay exactly."""
        n, beta, x, trials, seed = 4, 2.0, 0.8, 700, 31
        estimate = estimate_tail(spec, n, beta, x, RUNNING_MAX, trials, seed)
        hits = 0
        for i in range(trials):
            values = sample_vector(spec, n, trial_stream(seed, n, i))
            v = v_norm(values, beta) if np.any(values) else 0.0
            if v > 0.0 and max(np.cumsum(values)) / v >= tie_guarded(x):
                hits += 1
        assert estimate.hits == hits

    def test_sample_vector_values(self):
        values = sample_vector(DistributionSpec.two_point(2.5), 6, trial_stream(9, 6, 0))
        assert set(np.abs(values)) == {2.5}
        values = sample_vector(DistributionSpec.fixed([1.0, 2.0, 3.0]), 3, trial_stream(9, 3, 4))
        assert list(np.abs(values)) == [1.0, 2.0, 3.0]

    def test_sample_vector_checks_length(self):
        with pytest.raises(ValueError):
            sample_vector(DistributionSpec.fixed([1.0, 2.0]), 3, trial_stream(0, 3, 0))

    def test_distinct_trials_differ(self):
        draws = {
            tuple(sample_vector(DistributionSpec.gaussian(), 5, trial_stream(1, 5, i)))
            for i in range(8)
        }
        assert len(draws) == 8


class TestEstimateTail:
    def test_repeatable_and_worker_invariant(self):
        spec = DistributionSpec.gaussian()
        baseline = estimate_tail(spec, 6, 2.0, 1.0, FINAL_SUM, 70000, seed=3, workers=1)
        for workers in (2, 5):
            again = estimate_tail(spec, 6, 2.0, 1.0, FINAL_SUM, 70000, seed=3, workers=workers)
            assert again == baseline

    def test_env_variable_sets_default_workers(self, monkeypatch):
        spec = DistributionSpec.uniform()
        baseline = estimate_tail(spec, 5, 2.0, 0.9, RUNNING_MAX, 40000, seed=8, workers=1)
        monkeypatch.setenv("SELFNORM_THREADS", "4")
        assert estimate_tail(spec, 5, 2.0, 0.9, RUNNING_MAX, 40000, seed=8) == baseline

    def test_seed_changes_the_sample(self):
        spec = DistributionSpec.gaussian()
        a = estimate_tail(spec, 6, 2.0, 1.0, FINAL_SUM, 20000, seed=0)
        b = estimate_tail(spec, 6, 2.0, 1.0, FINAL_SUM, 20000, seed=1)
        assert a.hits != b.hits

    def test_matches_exact_probability_within_interval(self):
        for s in (0.25, 0.6):
            x = s * math.sqrt(8.0)
            exact = exact_tail([1.0] * 8, 2.0, x, RUNNING_MAX).probability
            est = estimate_tail(
                DistributionSpec.rademacher(), 8, 2.0, x, RUNNING_MAX, 30000, seed=12
            )
            assert est.ci_low <= exact <= est.ci_high

    def test_impossible_threshold_never_hits(self):
        est = estimate_tail(DistributionSpec.gaussian(), 5, 2.0, 3.0, RUNNING_MAX, 2000, seed=4)
        assert est.hits == 0
        assert est.p_hat == 0.0
        assert est.ci_low == 0.0

    def test_tstat_degenerate_trials_are_non_hits(self):
        # With n = 2 Rademacher values, half of all trials have zero sample
        # deviation and the rest give T = 0, so hits must be exactly 0.
        est = estimate_tail(DistributionSpec.rademacher(), 2, 2.0, 1.0, TSTAT, 1000, seed=5)
        assert est.hits == 0
        assert 400 < est.degenerate_count < 600

    def test_interval_brackets_p_hat(self):
        est = estimate_tail(DistributionSpec.pareto(1.2), 6, 1.5, 0.7, FINAL_SUM, 5000, seed=6)
        assert est.ci_low <= est.p_hat <= est.ci_high
        assert est.trials == 5000

    def test_validation(self):
        spec = DistributionSpec.rademacher()
        with pytest.raises(ValueError):
            estimate_tail(spec, 4, 2.0, 1.0, "median", 100)
        with pytest.raises(ValueError):
            estimate_tail(spec, 4, 2.0, 1.0, RUNNING_MAX, 0)
        with pytest.raises(ValueError):
            estimate_tail(spec, 4, 2.0, 1.0, RUNNING_MAX, 100, seed=-1)
        with pytest.raises(ValueError):
            estimate_tail(spec, 4, 2.0, 1.0, RUNNING_MAX, 100, seed=1 << 64)
        with pytest.raises(ValueError):
            estimate_tail(spec, 1, 2.0, 1.0, TSTAT, 100)
        with pytest.raises(ValueError):
            estimate_tail(DistributionSpec.fixed([1.0, 2.0]), 3, 2.0, 1.0, RUNNING_MAX, 100)


class TestEstimateTailMulti:
    # Unsorted, with a duplicate and a threshold beyond every statistic.
    XS = (0.9, 0.2, 1.6, 0.9, 0.05, 9.0)
    LAWS = SPECS[:5] + [DistributionSpec.pareto(0.01), DistributionSpec.fixed([1.0, 0.5, 2.0])]

    @pytest.mark.parametrize("spec", LAWS, ids=lambda s: f"{s.kind}-{s.tail_index}")
    @pytest.mark.parametrize("stat", [RUNNING_MAX, FINAL_SUM, TSTAT])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_equals_single_threshold_calls(self, spec, stat, workers):
        n = 3 if spec.kind == "fixed_magnitudes" else 5
        with np.errstate(all="ignore"), warnings.catch_warnings():
            # pareto(0.01) overflows to NaN statistics; the warnings filter
            # also covers floating-point warnings raised in worker threads.
            warnings.simplefilter("ignore", RuntimeWarning)
            multi = estimate_tail_multi(spec, n, 1.5, self.XS, stat, 40000, 21, workers)
            single = [
                estimate_tail(spec, n, 1.5, x, stat, 40000, 21, workers) for x in self.XS
            ]
        assert multi == single

    def test_nan_statistics_stay_misses(self):
        """Rows whose statistic is NaN count at no threshold."""
        spec, n, beta, trials, seed = DistributionSpec.pareto(0.01), 10, 2.0, 3000, 4
        xs = [0.05, 0.5, 1.0]
        stats = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for i in range(trials):
                values = sample_vector(spec, n, trial_stream(seed, n, i))
                stats.append(values.sum() / (np.abs(values) ** beta).sum() ** (1.0 / beta))
            multi = estimate_tail_multi(spec, n, beta, xs, FINAL_SUM, trials, seed)
        stats = np.array(stats)
        assert np.isnan(stats).sum() > 0
        for x, est in zip(xs, multi):
            assert est.hits == int((stats >= tie_guarded(x)).sum())

    def test_empty_thresholds(self):
        assert estimate_tail_multi(DistributionSpec.gaussian(), 4, 2.0, [], trials=100) == []

    def test_validation(self):
        spec = DistributionSpec.rademacher()
        with pytest.raises(ValueError):
            estimate_tail_multi(spec, 4, 2.0, [1.0, 0.0], RUNNING_MAX, 100)
        with pytest.raises(ValueError):
            estimate_tail_multi(DistributionSpec.fixed([1.0, 2.0]), 3, 2.0, [1.0], FINAL_SUM, 100)


class TestTransformScales:
    def _magnitudes(self, spec, count=20000):
        stream = trial_stream(123, count, 0)
        return np.abs(sample_vector(spec, count, stream))

    def test_pareto_median(self):
        mags = self._magnitudes(DistributionSpec.pareto(1.2))
        assert float(np.median(mags)) == pytest.approx(2.0 ** (1.0 / 1.2), rel=0.03)
        assert mags.min() >= 1.0

    def test_uniform_mean(self):
        mags = self._magnitudes(DistributionSpec.uniform())
        assert float(mags.mean()) == pytest.approx(0.5, abs=0.02)
        assert mags.max() <= 1.0

    def test_gaussian_scale(self):
        mags = self._magnitudes(DistributionSpec.gaussian())
        assert float(np.sqrt((mags**2).mean())) == pytest.approx(1.0, rel=0.03)

    def test_signs_are_balanced(self):
        values = sample_vector(
            DistributionSpec.rademacher(), 20000, trial_stream(77, 20000, 0)
        )
        assert set(np.unique(values)) == {-1.0, 1.0}
        assert abs(values.sum()) < 4.0 * math.sqrt(20000)


class TestEfron:
    def test_zero_violations_on_small_grids(self):
        assert efron_check(DistributionSpec.rademacher(), 4, 1.0, 4000, seed=2) == 0
        assert efron_check(DistributionSpec.gaussian(), 6, 1.5, 4000, seed=2) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            efron_check(DistributionSpec.gaussian(), 1, 1.0, 100)


class TestEmpiricalLogRate:
    def test_normalization_and_substreams(self):
        points = empirical_log_rate(
            DistributionSpec.rademacher(), 2.0, 0.6, 0.5, n_list=(10,), trials=20000, seed=0
        )
        (point,) = points
        assert point.n == 10
        est = point.estimate
        assert est.ci_low <= 67.0 / 1024.0 <= est.ci_high
        assert point.log_rate == pytest.approx(math.log(est.p_hat) / 10.0, rel=1e-12)
        assert point.log_rate_upper == pytest.approx(math.log(est.ci_high) / 10.0, rel=1e-12)
        assert point.log_rate < point.log_rate_upper < 0.0

    def test_moderate_scale_normalization(self):
        points = empirical_log_rate(
            DistributionSpec.gaussian(), 2.0, 1.0, 0.25, n_list=(16,), trials=4000, seed=1
        )
        (point,) = points
        # exponent 2 alpha + 2/beta - 1 = 1/2
        assert point.log_rate_upper == pytest.approx(
            math.log(point.estimate.ci_high) / 4.0, rel=1e-12
        )

    def test_validation(self):
        spec = DistributionSpec.rademacher()
        with pytest.raises(ValueError):
            empirical_log_rate(spec, 2.0, -0.5, 0.5)
        with pytest.raises(ValueError):
            empirical_log_rate(spec, 2.0, math.inf, 0.5)
        with pytest.raises(ValueError):
            empirical_log_rate(spec, 2.0, 1.2, 0.5, n_list=(4,), trials=100)
