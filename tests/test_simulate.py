"""Unit tests for the Monte Carlo estimator and its counter-based streams."""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.random import Generator, Philox
from scipy.special import ndtri

from selfnorm import (
    FINAL_SUM,
    RUNNING_MAX,
    TSTAT,
    DistributionSpec,
    SweepGrid,
    bound_bn,
    bound_tstat,
    efron_check,
    empirical_log_rate,
    estimate_tail,
    estimate_tail_multi,
    exact_tail,
    tie_guarded,
    tstat_level,
    v_norm,
    wilson_interval,
)
from selfnorm import simulate
from selfnorm.bounds import _beta_norm
from selfnorm.oracle import STATS, _bound_for, _count_at
from selfnorm.simulate import (
    Z99,
    TailEstimate,
    _draw_values,
    _trial_block,
    respects,
)


class TestDistributionSpec:
    def test_constructors_round_trip(self):
        assert DistributionSpec.rademacher().kind == "rademacher"
        # Every statistic is scale-free, so a two-point law is the Rademacher law.
        assert DistributionSpec.two_point(3.7) == DistributionSpec.rademacher()
        assert DistributionSpec.pareto(1.2).tail_index == 1.2
        # Fixed magnitudes are stored over their largest entry (unit scale).
        assert DistributionSpec.fixed([1, 2, 3]).magnitudes == (1.0 / 3.0, 2.0 / 3.0, 1.0)

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
        # At unit scale: a two-point law's magnitudes are ones, as Rademacher's.
        assert DistributionSpec.two_point(2.5).exact_magnitudes(3) == [1.0] * 3
        assert DistributionSpec.rademacher().exact_magnitudes(3) == [1.0] * 3
        assert DistributionSpec.fixed([1.0, 2.0]).exact_magnitudes(2) == [0.5, 1.0]
        with pytest.raises(ValueError):
            DistributionSpec.fixed([1.0, 2.0]).exact_magnitudes(3)
        with pytest.raises(ValueError):
            DistributionSpec.gaussian().exact_magnitudes(4)


class TestWilson:
    def test_99_percent_quantile(self):
        assert Z99 == pytest.approx(2.5758293035489004, rel=1e-14)
        # Z99 is written out as a literal; this is what ties it to scipy.
        assert Z99 == float(ndtri(0.995))

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


class TestBoundFor:
    def test_each_statistic_gets_its_bound(self):
        assert _bound_for(RUNNING_MAX, 10, 3.0, 1.5) == bound_bn(10, 3.0, 1.5)
        assert _bound_for(FINAL_SUM, 10, 3.0, 1.5) == bound_bn(10, 3.0, 1.5)
        assert _bound_for(TSTAT, 10, 3.0, 1.5) == bound_tstat(10, 1.5)
        assert bound_tstat(10, 1.5) != bound_bn(10, 3.0, 1.5)


class TestArgumentChecks:
    def test_rejects_bad_seed_and_trials(self):
        for seed in (-1, 1 << 64):
            with pytest.raises(ValueError, match="seed must fit in 64 bits"):
                estimate_tail(DistributionSpec.rademacher(), 4, 2.0, 1.0, seed=seed)
        with pytest.raises(ValueError, match="trials must be an integer"):
            estimate_tail(DistributionSpec.rademacher(), 4, 2.0, 1.0, trials=2.0)
        with pytest.raises(ValueError, match="trials must be >= 1"):
            estimate_tail(DistributionSpec.rademacher(), 4, 2.0, 1.0, trials=0)

    @pytest.mark.parametrize("seed", [1.5, True, "3", None])
    def test_rejects_a_seed_that_is_not_an_integer(self, seed):
        message = f"^{re.escape(f'seed must be an integer, got {seed!r}')}$"
        with pytest.raises(ValueError, match=message):
            estimate_tail(DistributionSpec.rademacher(), 4, 2.0, 1.0, trials=10, seed=seed)
        with pytest.raises(ValueError, match=message):
            SweepGrid((4,), (2.0,), (0.5,), trials=0, seed=seed)


class TestBlockMemory:
    def test_small_n_keeps_the_fixed_partition(self):
        assert all(_trial_block(n) == 1 << 12 for n in range(1, 21))
        assert _trial_block(1000) == 81
        assert _trial_block(10**7) == 1

    # Rademacher takes the sign-level route; a non-constant fixed law builds
    # values blocks.
    LARGE_N_LAWS = {
        "rademacher": (DistributionSpec.rademacher(), 610),
        "fixed": (DistributionSpec.fixed([1.0 + i % 3 for i in range(2000)]), 599),
    }

    @pytest.mark.parametrize("law", LARGE_N_LAWS)
    def test_peak_allocation_bounded_at_large_n(self, law):
        # With 2^15-trial blocks these 2000 trials at n = 2000 are one block:
        # its uniform matrix alone is 64 MB (95 MB traced peak in all).
        spec, hits = self.LARGE_N_LAWS[law]
        tracemalloc.start()
        try:
            est = estimate_tail(spec, 2000, 2.0, 1.0, RUNNING_MAX, 2000, seed=3, workers=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20
        assert est.hits == hits
        assert estimate_tail(spec, 2000, 2.0, 1.0, RUNNING_MAX, 2000, seed=3, workers=2) == est

    def test_gaussian_block_transforms_in_place(self):
        # 40-trial blocks: 650 KB of raw words, one 640 KB values array and a
        # byte per sign, about 2.35 blocks of values at the traced peak (the
        # words are freed before the reduction's temporaries).  Separate sign,
        # uniform and value matrices would add about two blocks more.
        spec = DistributionSpec.gaussian()
        block = _trial_block(2000) * 2000 * 8
        tracemalloc.start()
        try:
            est = estimate_tail(spec, 2000, 2.0, 1.0, RUNNING_MAX, 2000, seed=3, workers=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert block < peak < 3 * block
        assert est.hits == 616

    def test_unit_law_holds_no_values_block(self):
        # Counted from its sign bytes, a Rademacher block of 40 trials at
        # n = 2000 holds 10 KB of words and a few (40, 250) integer arrays,
        # not the 640 KB of values the float route would form.
        spec = DistributionSpec.rademacher()
        block = _trial_block(2000) * 2000 * 8
        tracemalloc.start()
        try:
            est = estimate_tail(spec, 2000, 2.0, 1.0, RUNNING_MAX, 2000, seed=3, workers=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < block
        assert est.hits == 610

    def test_unit_law_proves_v_n_without_a_row_of_n_floats(self):
        # V_n of n unit magnitudes is n^(1/beta): neither a list of n
        # magnitudes nor a (1, n) row of ones (15.3 MB traced with both).
        n = 10**6
        spec = DistributionSpec.rademacher()
        tracemalloc.start()
        try:
            est = estimate_tail(spec, n, 2.0, 100.0, RUNNING_MAX, 3, seed=1, workers=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n
        assert (est.hits, est.degenerate_count) == (0, 0)

    def test_fixed_law_block_is_sized_by_values(self):
        # A fixed law reads 16 words per trial at n = 1000, so a block sized by
        # words would take 2^12 trials (33 MB of values); sized by values it
        # is 81 trials: 648 KB of values, a byte per sign and 10 kB of words.
        rows = _trial_block(1000)
        tracemalloc.start()
        try:
            vals = _draw_values(DistributionSpec.rademacher(), 1000, 3, 0, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert vals.shape == (81, 1000)
        assert vals.nbytes <= peak < 1.5 * vals.nbytes


# two_point(a) returns a Rademacher law; the cases built from this one keep
# their own test id.
TWO_POINT = DistributionSpec.two_point(2.5)


def law_id(spec) -> str:
    return "two_point" if spec is TWO_POINT else spec.kind


SPECS = [
    DistributionSpec.rademacher(),
    TWO_POINT,
    DistributionSpec.uniform(),
    DistributionSpec.gaussian(),
    DistributionSpec.pareto(1.2),
    DistributionSpec.fixed([1.0, 0.5, 2.0, 0.0]),
]


class TestStreams:
    @pytest.mark.parametrize("spec", SPECS, ids=law_id)
    def test_blocked_counting_equals_per_trial_replay(self, spec):
        """The blocked estimator must reproduce trial-by-trial replay exactly."""
        n, beta, x, trials, seed = 4, 2.0, 0.8, 700, 31
        estimate = estimate_tail(spec, n, beta, x, RUNNING_MAX, trials, seed)
        hits = 0
        for i in range(trials):
            values = _draw_values(spec, n, seed, i, i + 1)[0]
            v = v_norm(values, beta) if np.any(values) else 0.0
            if v > 0.0 and max(np.cumsum(values)) / v >= tie_guarded(x):
                hits += 1
        assert estimate.hits == hits

    @pytest.mark.parametrize("spec", SPECS, ids=law_id)
    def test_estimates_do_not_depend_on_the_block_size(self, spec, monkeypatch):
        """Trial i reads the same words in any block, so the block size moves
        memory and speed only.  4500 trials at n = 4 are 4500 blocks, 643,
        two or one."""
        n, betas, xs, trials, seed = 4, (1.5, 2.0, 2.0, 3.0), (0.2, 0.6, 0.9, 1.4), 4500, 13
        runs = []
        for block in (1, 7, 1 << 12, 1 << 15):
            monkeypatch.setattr(simulate, "_TRIAL_BLOCK", block)
            assert _trial_block(n) == block
            estimates = [
                estimate_tail_multi(spec, n, betas, xs, stat, trials, seed, 1) for stat in STATS
            ]
            runs.append((estimates, efron_check(spec, n, 1.0, trials, seed, 1)))
        assert all(run == runs[0] for run in runs[1:])
        assert all(any(est.hits for est in estimates) for estimates in runs[0][0])

    def test_one_trial_values(self):
        # Fixed magnitudes are filled at unit scale.
        values = _draw_values(DistributionSpec.two_point(2.5), 6, 9, 0, 1)[0]
        assert len(values) == 6
        assert set(np.abs(values)) == {1.0}
        values = _draw_values(DistributionSpec.fixed([1.0, 2.0, 3.0]), 3, 9, 4, 5)[0]
        assert list(np.abs(values)) == [1.0 / 3.0, 2.0 / 3.0, 1.0]

    def test_one_trial_checks_length(self):
        with pytest.raises(ValueError):
            _draw_values(DistributionSpec.fixed([1.0, 2.0]), 3, 0, 0, 1)

    def test_distinct_trials_differ(self):
        draws = {
            tuple(_draw_values(DistributionSpec.gaussian(), 5, 1, i, i + 1)[0]) for i in range(8)
        }
        assert len(draws) == 8


def reference_values(spec, n, seed, lo, hi):
    """Rows lo..hi-1 from uniforms and raw words.  A row of a random law reads
    n magnitude uniforms (Generator.random) and then ceil(n/64) sign words; a
    row of a fixed law reads the sign words only; the stride is rounded up to
    a multiple of 4.  Coordinate j is negative when bit j % 64 of sign word
    j // 64 is 1.  Fixed magnitudes are at unit scale: a fixed vector is
    divided by its largest entry."""
    m = 0 if spec.supports_exact() else n
    stride = 4 * math.ceil((m + math.ceil(n / 64)) / 4)

    def stream():
        bit_gen = Philox(key=seed)
        bit_gen.advance(lo * stride // 4)
        return bit_gen

    u_mag = Generator(stream()).random((hi - lo, stride))[:, :m]
    sign_words = stream().random_raw((hi - lo, stride))[:, m:]
    j = np.arange(n)
    minus = (sign_words[:, j // 64] >> (j % 64).astype(np.uint64)) & np.uint64(1)
    sign = np.where(minus == 1, -1, 1)
    if spec.kind == "rademacher":
        mag = 1.0
    elif spec.kind == "uniform_symmetric":
        mag = u_mag
    elif spec.kind == "gaussian":
        mag = ndtri(0.5 + 0.5 * (u_mag + 2.0**-54))
    elif spec.kind == "symmetric_pareto":
        mag = (u_mag + 2.0**-54) ** (-1.0 / spec.tail_index)
    else:
        mag = np.asarray(spec.magnitudes)
        mag = mag / mag.max()
    return sign * mag


def signed_zero_law(n):
    """A fixed law with +0.0 and -0.0 magnitudes (one positive entry)."""
    mags = [(0.0, -0.0, 1.5)[i % 3] for i in range(n)]
    mags[-1] = 2.0
    return DistributionSpec.fixed(mags)


# Laws of the bit-identity check by test id; None stands for signed_zero_law(n).
BIT_LAWS = {
    "rademacher": DistributionSpec.rademacher(),
    "two_point": TWO_POINT,
    "uniform": DistributionSpec.uniform(),
    "gaussian": DistributionSpec.gaussian(),
    "pareto1.2": DistributionSpec.pareto(1.2),
    "pareto1": DistributionSpec.pareto(1.0),
    "pareto0.01": DistributionSpec.pareto(0.01),
    "signed_zeros": None,
}


class TestRawWordKernel:
    """The block kernel reads raw Philox words; every value must equal the
    uniform-based draw bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 7, 20, 1000])
    @pytest.mark.parametrize("law", BIT_LAWS)
    def test_values_bit_identical_to_uniform_draws(self, law, n):
        spec = BIT_LAWS[law] or signed_zero_law(n)
        seed = 8
        for lo, hi in ((0, 5), (3, 400), (70_001, 70_009)):
            with np.errstate(over="ignore"):
                expected = reference_values(spec, n, seed, lo, hi)
                block = _draw_values(spec, n, seed, lo, hi)
            assert block.shape == expected.shape == (hi - lo, n)
            nan = np.isnan(expected)
            assert np.array_equal(np.isnan(block), nan)
            assert np.array_equal(block.view(np.uint64)[~nan], expected.view(np.uint64)[~nan])
            for i in (lo, hi - 1):
                with np.errstate(over="ignore"):
                    row = _draw_values(spec, n, seed, i, i + 1)[0]
                assert np.array_equal(row.view(np.uint64), block[i - lo].view(np.uint64))

    def test_cases_the_bit_check_must_see(self):
        # The bit check above must see infinities and both signed zeros: a
        # sign set by OR instead of XOR differs only on a -0.0 magnitude.
        with np.errstate(over="ignore"):
            block = _draw_values(DistributionSpec.pareto(0.01), 20, 8, 3, 400)
        assert np.isinf(block).any()
        block = _draw_values(signed_zero_law(20), 20, 8, 3, 40)
        zeros = block[block == 0.0]
        assert np.signbit(zeros).any() and not np.signbit(zeros).all()

    def test_gaussian_top_words_stay_finite(self):
        # The largest 53-bit word's quantile argument 0.5 + 0.5 (u + 2^-54)
        # rounds to 1.0, where ndtri is inf; it is clamped to the double
        # below 1.  The seven words under it keep their values bit for bit.
        words = np.zeros((1, 16), dtype=np.uint64)
        words[0, :8] = [((1 << 53) - 1 - k) << 11 for k in range(8)]
        vals = simulate._transform(DistributionSpec.gaussian(), words, 8)[0]
        u = (2.0**53 - 1 - np.arange(8)) * 2.0**-53
        unclamped = ndtri(0.5 + 0.5 * (u + 2.0**-54))
        assert np.isinf(unclamped[0])
        assert np.array_equal(vals[1:].view(np.uint64), unclamped[1:].view(np.uint64))
        assert vals[0] == ndtri(1.0 - 2.0**-53) == pytest.approx(8.2095361516, rel=1e-10)

    def test_pareto_overflow_still_warns(self):
        with pytest.warns(RuntimeWarning, match="overflow"):
            _draw_values(DistributionSpec.pareto(0.01), 20, 8, 3, 400)

    @pytest.mark.parametrize("stat", STATS)
    @pytest.mark.parametrize("beta", [1.5, 2.0, 3.0])
    def test_statistic_leaves_its_block_unchanged(self, stat, beta):
        # efron_check reduces one block under two statistics.
        vals = _draw_values(DistributionSpec.gaussian(), 9, 5, 2, 300)
        before = vals.copy()
        simulate._statistics(vals, stat, (beta,))
        assert np.array_equal(vals.view(np.uint64), before.view(np.uint64))


class TestRunningMax:
    """The running max walks the columns of a block with at least as many
    rows as columns and keeps numpy's cumsum on wider blocks; both add each
    row left to right, so they agree, non-finite sums included."""

    @pytest.mark.parametrize("shape", [(4096, 20), (300, 300), (81, 1000), (1, 1)])
    def test_equals_the_cumsum_maximum(self, shape):
        rows, n = shape
        finite = np.random.default_rng(n).standard_normal(shape)
        blocks = [finite]
        # Every other row holds the value, at a column that moves along the rows.
        for value in (np.inf, -np.inf, np.nan, -0.0):
            block = finite.copy()
            block[::2][np.arange((rows + 1) // 2), np.arange(0, rows, 2) % n] = value
            blocks.append(block)
        # Rows with +inf and -inf, whose sums turn NaN.
        block = blocks[1].copy()
        block[::2, -1] = -np.inf
        blocks.append(block)
        # Rows of -0.0, of -0.0 and 0.0 in turn, and of 0.0.
        zeros = np.zeros(shape)
        zeros[::3] = -0.0
        zeros[1::3, ::2] = -0.0
        blocks.append(zeros)
        for block in blocks:
            with np.errstate(invalid="ignore"):
                got = simulate._running_max(block)
                want = np.cumsum(block, axis=1).max(axis=1)
            assert got.shape == (rows,)
            assert np.array_equal(got, want, equal_nan=True)


class TestPackedSigns:
    """A trial reads m magnitude words (n for a random law, 0 for a fixed
    one) and then ceil(n/64) sign words, padded to a multiple of 4; the sign
    of coordinate j is bit j % 64 of sign word j // 64, and 1 means minus."""

    STRIDES = {1: (4, 4), 63: (4, 64), 64: (4, 68), 65: (4, 68), 129: (4, 132)}

    @pytest.mark.parametrize("n", STRIDES)
    @pytest.mark.parametrize("spec", [DistributionSpec.rademacher(), DistributionSpec.uniform()],
                             ids=law_id)
    def test_sign_j_is_bit_j_of_the_sign_words(self, spec, n):
        m = 0 if spec.supports_exact() else n
        stride = simulate._words_per_trial(spec, n)
        assert stride == self.STRIDES[n][m > 0]
        seed, lo, hi = 17, 5, 40
        block = _draw_values(spec, n, seed, lo, hi)
        for i in range(lo, hi):
            bit_gen = Philox(key=seed)
            bit_gen.advance(i * stride // 4)
            words = [int(w) for w in bit_gen.random_raw(stride)]
            values = block[i - lo]
            for j in range(n):
                assert np.signbit(values[j]) == (words[m + j // 64] >> (j % 64)) & 1
                # A uniform magnitude is its word's top 53 bits; a Rademacher one is 1.
                assert abs(values[j]) == ((words[j] >> 11) * 2.0**-53 if m else 1.0)

    @pytest.mark.parametrize("spec", [DistributionSpec.rademacher(), DistributionSpec.gaussian()],
                             ids=law_id)
    def test_threads_and_partitions_agree_across_blocks(self, spec):
        n, beta, xs, trials, seed = 65, 2.0, [0.1, 0.3], 25_000, 6
        assert trials > 2 * _trial_block(n)  # 20 blocks of 1260 trials
        runs = [
            estimate_tail_multi(spec, n, beta, xs, RUNNING_MAX, trials, seed, workers)
            for workers in (1, 2, 3)
        ]
        assert runs[0] == runs[1] == runs[2]
        # Counted again over a partition that is not the block partition.
        hits = np.zeros(len(xs), dtype=np.int64)
        for lo in range(0, trials, 7919):
            vals = _draw_values(spec, n, seed, lo, min(lo + 7919, trials))
            degenerate, stats = simulate._statistics(vals, RUNNING_MAX, (beta,))[0]
            hits += [(stats[~degenerate] >= tie_guarded(x)).sum() for x in xs]
        assert [est.hits for est in runs[0]] == hits.tolist()
        assert all(h > 0 for h in hits)


class TestUnitRoute:
    """Laws of equal magnitudes under a sum statistic are counted from the
    sign bytes as integer levels, in one histogram.  Hits and degenerate
    counts must equal those of the values route, block by block."""

    N = (1, 2, 7, 8, 9, 17, 63, 64, 65, 128, 129, 1000)
    BETAS = (1.2, 1.5, 2.0, 3.0)

    @staticmethod
    def values_route(spec, n, betas, xs, stat, trials, seed):
        counts = np.zeros((2, len(xs)), dtype=np.int64)
        distinct = list(dict.fromkeys(betas))
        block = _trial_block(n)
        for lo in range(0, trials, block):
            vals = _draw_values(spec, n, seed, lo, min(lo + block, trials))
            pairs = dict(zip(distinct, simulate._statistics(vals, stat, distinct, True)))
            for i, (b, x) in enumerate(zip(betas, xs)):
                degenerate, stats = pairs[b]
                counts[:, i] += (_count_at(stats[~degenerate], [tie_guarded(x)])[0],
                                 degenerate.sum())
        return counts.tolist()

    @staticmethod
    def thresholds(n):
        """Pairs per beta: a level k / V_n exactly (the tie guard must count
        k) and just above it (it must not), k running up to the endpoint n;
        then a tiny x, whose guarded cut is below 0, twice."""
        betas, xs = [], []
        for b in TestUnitRoute.BETAS:
            v = float(_beta_norm(np.ones((1, n)), b)[0])
            for k in sorted({1, 2, max(1, round(math.sqrt(n))), n}):
                betas += [b, b]
                xs += [k / v, k / v + 2e-9 * max(1.0, k / v)]
            betas += [b, b]
            xs += [1e-12, 1e-12]
        return betas, xs

    @pytest.mark.parametrize("n", N)
    @pytest.mark.parametrize("stat", [RUNNING_MAX, FINAL_SUM])
    def test_levels_equal_the_float_sums(self, n, stat):
        spec = DistributionSpec.rademacher()
        for rows in sorted({1, 5, _trial_block(n)}):
            vals = _draw_values(spec, n, 4, 3, 3 + rows)
            want = simulate._running_max(vals) if stat == RUNNING_MAX else vals.sum(axis=1)
            got = simulate._sign_levels(simulate._draw_words(spec, n, 4, 3, 3 + rows), n, stat)
            assert got.dtype.kind == "i"
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", N)
    @pytest.mark.parametrize("stat", [RUNNING_MAX, FINAL_SUM])
    def test_counts_equal_the_values_route(self, n, stat, monkeypatch):
        spec, seed = DistributionSpec.rademacher(), n + 11
        trials = 1500 if n < 1000 else 300
        betas, xs = self.thresholds(n)
        want = self.values_route(spec, n, betas, xs, stat, trials, seed)
        runs = []
        for block in (1, 7, 1 << 12):
            monkeypatch.setattr(simulate, "_TRIAL_BLOCK", block)
            for workers in (1, 2):
                got = estimate_tail_multi(spec, n, betas, xs, stat, trials, seed, workers)
                assert [[e.hits for e in got], [e.degenerate_count for e in got]] == want
                runs.append(got)
        assert all(run == runs[0] for run in runs[1:])
        # Tie guard: a level k / V_n is a hit wherever k is reached, and just
        # above it only where a higher level is.
        pairs = list(zip(runs[0][::2], runs[0][1::2]))
        assert all(at.hits >= above.hits for at, above in pairs)
        assert any(at.hits > above.hits for at, above in pairs)

    @pytest.mark.parametrize("n", (*N, 10**6))
    def test_unit_norm_is_the_norm_of_a_row_of_ones(self, n):
        for b in (1.01, *self.BETAS, 2.5, 7.0, 10.0):
            want = _beta_norm(np.ones((1, n)), b)
            got = simulate._unit_norm(n, b)
            assert (got.shape, got.dtype, got.tobytes()) == (want.shape, want.dtype, want.tobytes())

    def test_which_laws_take_the_route(self, monkeypatch):
        draws = []
        draw = simulate._draw_values

        def counting(*args):
            draws.append(args[0])
            return draw(*args)

        monkeypatch.setattr(simulate, "_draw_values", counting)
        n = 9
        for spec in (DistributionSpec.two_point(2.5), DistributionSpec.fixed([3.0] * n)):
            for stat in (RUNNING_MAX, FINAL_SUM):
                estimate_tail(spec, n, 2.0, 0.5, stat, 5000, 1, 2)
        assert draws == []
        fixed = DistributionSpec.fixed([1.0, 2.0, 3.0])
        estimate_tail(fixed, 3, 2.0, 0.5, RUNNING_MAX, 5000, 1)
        assert draws == [fixed, fixed]
        estimate_tail(DistributionSpec.rademacher(), n, 2.0, 0.5, TSTAT, 5000, 1)
        assert len(draws) == 4


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

    @pytest.mark.parametrize("spec", LAWS, ids=lambda s: f"{law_id(s)}-{s.tail_index}")
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

    def test_overflowing_deviations_are_degenerate(self):
        """A t row of finite values whose squared deviations overflow has
        ss = inf and t = 0; it is degenerate, not a miss (its true t, from the
        row scaled to a largest magnitude of 1, is not 0 and mostly +-1)."""
        spec, n, trials, seed, xs = DistributionSpec.pareto(0.01), 20, 4096, 1, [0.5, 1.0]
        with np.errstate(all="ignore"):
            vals = _draw_values(spec, n, seed, 0, trials)
            mean = vals.mean(axis=1)
            ss = ((vals - mean[:, None]) ** 2).sum(axis=1)
            t = math.sqrt(n) * mean / np.sqrt(ss / (n - 1))
            scaled = vals / np.abs(vals).max(axis=1)[:, None]
            scaled_mean = scaled.mean(axis=1)
            scaled_ss = ((scaled - scaled_mean[:, None]) ** 2).sum(axis=1)
            true_t = math.sqrt(n) * scaled_mean / np.sqrt(scaled_ss / (n - 1))
            estimates = estimate_tail_multi(spec, n, 2.0, xs, TSTAT, trials, seed, 1)
        overflow = np.isfinite(vals).all(axis=1) & np.isinf(ss)
        assert overflow.sum() == 1748 and np.all(t[overflow] == 0.0)
        assert np.all(np.isfinite(true_t[overflow]) & (true_t[overflow] != 0.0))
        assert np.median(np.abs(true_t[overflow])) == pytest.approx(1.0)
        # 61 rows were degenerate before, for a non-finite t; the hits stay.
        assert [(e.hits, e.degenerate_count) for e in estimates] == [(1171, 1809), (1004, 1809)]

    def test_nan_statistics_stay_misses(self):
        """Rows whose statistic is NaN count at no threshold; rows without a
        finite statistic are counted as degenerate."""
        spec, n, beta, trials, seed = DistributionSpec.pareto(0.01), 10, 2.0, 3000, 4
        xs = [0.05, 0.5, 1.0]
        norms, stats = [], []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for i in range(trials):
                values = _draw_values(spec, n, seed, i, i + 1)[0]
                norms.append((np.abs(values) ** beta).sum() ** (1.0 / beta))
                stats.append(values.sum() / norms[-1])
            multi = estimate_tail_multi(spec, n, beta, xs, FINAL_SUM, trials, seed)
            big = estimate_tail(spec, n, beta, 0.5, FINAL_SUM, 100_000, 1)
        stats = np.array(stats)
        degenerate = ~(np.isfinite(norms) & np.isfinite(stats))
        assert np.isnan(stats).sum() > 0
        for x, est in zip(xs, multi):
            assert est.hits == int((stats >= tie_guarded(x)).sum())
            assert est.degenerate_count == degenerate.sum() > 0
        # Hits as under the earlier rule, which counted these rows as silent
        # misses (degenerate 0).
        assert (big.hits, big.degenerate_count) == (37299, 25236)

    def test_empty_thresholds(self):
        assert estimate_tail_multi(DistributionSpec.gaussian(), 4, 2.0, [], trials=100) == []

    def test_empty_thresholds_draw_nothing(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew a block for no threshold")

        monkeypatch.setattr(simulate, "_draw_values", no_draw)
        spec = DistributionSpec.gaussian()
        assert estimate_tail_multi(spec, 20, 2.0, [], trials=200_000) == []
        assert estimate_tail_multi(spec, 20, [], [], trials=200_000) == []
        # The arguments are still checked first.
        with pytest.raises(ValueError, match="^trials must be >= 1, got 0$"):
            estimate_tail_multi(spec, 20, 2.0, [], trials=0)
        with pytest.raises(ValueError, match="^beta must be a finite real > 1, got 0.5$"):
            estimate_tail_multi(spec, 20, 0.5, [], trials=100)

    def test_validation(self):
        spec = DistributionSpec.rademacher()
        with pytest.raises(ValueError):
            estimate_tail_multi(spec, 4, 2.0, [1.0, 0.0], RUNNING_MAX, 100)
        with pytest.raises(ValueError):
            estimate_tail_multi(DistributionSpec.fixed([1.0, 2.0]), 3, 2.0, [1.0], FINAL_SUM, 100)


class TestPerThresholdBeta:
    """estimate_tail_multi with one beta per threshold draws each block once
    and must equal one single-threshold call per (beta, x), field by field."""

    # Unsorted, with repeated thresholds and repeated exponents, and one
    # (beta, x) pair given twice.
    XS = (0.9, 0.2, 1.6, 0.9, 0.05, 9.0, 0.2, 0.6)
    BETAS = (2.0, 1.5, 3.0, 1.5, 1.2, 2.0, 1.5, 3.0)
    # Magnitudes of 1e-200 are stored at unit scale, so they count as
    # (1, 3, 2) do; test_degenerate_count_is_per_beta serves a 1e-200 block.
    LAWS = TestEstimateTailMulti.LAWS + [DistributionSpec.fixed([1e-200, 3e-200, 2e-200])]

    @pytest.mark.parametrize("spec", LAWS, ids=lambda s: f"{law_id(s)}-{s.tail_index}")
    @pytest.mark.parametrize("stat", [RUNNING_MAX, FINAL_SUM, TSTAT])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_equals_single_calls(self, spec, stat, workers):
        n = 3 if spec.kind == "fixed_magnitudes" else 5
        with np.errstate(all="ignore"), warnings.catch_warnings():
            # pareto(0.01) overflows to NaN statistics, as in TestEstimateTailMulti.
            warnings.simplefilter("ignore", RuntimeWarning)
            multi = estimate_tail_multi(spec, n, self.BETAS, self.XS, stat, 40000, 21, workers)
            single = [
                estimate_tail(spec, n, b, x, stat, 40000, 21, workers)
                for b, x in zip(self.BETAS, self.XS)
            ]
        assert multi == single

    def test_degenerate_count_is_per_beta(self, monkeypatch):
        # Fixed laws are filled at unit scale, so a patched draw serves the
        # block at 1e-200 scale.  Its V_n underflows at beta = 2 only, and
        # each exponent keeps its own count.
        draw = simulate._draw_values
        monkeypatch.setattr(simulate, "_draw_values", lambda *args: draw(*args) * 1e-200)
        spec = DistributionSpec.fixed([1.0, 3.0, 2.0])
        multi = estimate_tail_multi(spec, 3, [2.0, 1.2], [0.5, 0.5], FINAL_SUM, 1000, 3)
        assert [est.degenerate_count for est in multi] == [1000, 0]
        single = [estimate_tail(spec, 3, b, 0.5, FINAL_SUM, 1000, 3) for b in (2.0, 1.2)]
        assert multi == single

    def test_any_sequence_type(self):
        spec = DistributionSpec.uniform()
        want = estimate_tail_multi(spec, 6, [1.5, 2.0], [0.4, 0.7], RUNNING_MAX, 3000, 2)
        for betas in ((1.5, 2.0), np.array([1.5, 2.0])):
            assert estimate_tail_multi(spec, 6, betas, (0.4, 0.7), RUNNING_MAX, 3000, 2) == want

    def test_one_draw_per_block_whatever_the_betas(self, monkeypatch):
        calls = []
        draw = simulate._draw_values

        def counting(*args):
            calls.append(args[3:])
            return draw(*args)

        monkeypatch.setattr(simulate, "_draw_values", counting)
        betas = [1.5, 2.0, 3.0] * 3
        estimate_tail_multi(DistributionSpec.gaussian(), 8, betas, [0.5] * 9, FINAL_SUM, 70000)
        assert calls == [(lo, min(lo + 4096, 70000)) for lo in range(0, 70000, 4096)]
        assert len(calls) == 18

    @pytest.mark.parametrize(
        "betas, message",
        [
            ([2.0], "beta must be one value or one per threshold (3), got 1"),
            ([2.0] * 4, "beta must be one value or one per threshold (3), got 4"),
            ([0.5, 2.0, 2.0], "beta must be a finite real > 1, got 0.5"),
            ([2.0, math.nan, 2.0], "beta must be a finite real > 1, got nan"),
            ([2.0, 2.0, 1.0], "beta must be a finite real > 1, got 1.0"),
        ],
    )
    @pytest.mark.parametrize("stat", [RUNNING_MAX, TSTAT])
    def test_rejects_bad_beta_lists(self, betas, message, stat):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            estimate_tail_multi(DistributionSpec.rademacher(), 4, betas, [0.5, 1.0, 1.5], stat, 100)

    def test_bad_numpy_beta_reads_as_a_float(self):
        # Reported as the float it converts to, not as np.float64(1.0).
        with pytest.raises(ValueError, match=r"^beta must be a finite real > 1, got 1\.0$"):
            estimate_tail(DistributionSpec.rademacher(), 4, np.float64(1.0), 0.5, RUNNING_MAX, 100)
        with pytest.raises(ValueError, match=r"^beta must be a finite real > 1, got 1\.0$"):
            estimate_tail_multi(DistributionSpec.rademacher(), 4, np.array([2.0, 1.0]), [0.5, 1.0])

    def test_rejects_a_list_for_no_threshold(self):
        with pytest.raises(ValueError, match=re.escape("one per threshold (0), got 1")):
            estimate_tail_multi(DistributionSpec.rademacher(), 4, [2.0], [], RUNNING_MAX, 100)


class TestFixedMagnitudeNorm:
    """Laws without random magnitudes give every row of a block the same
    |values|, so _statistics forms V_n once per block; that must equal the
    full per-row pass bit for bit, degenerate mask included."""

    BETAS = (1.1, 1.5, 2.0, 2.7, 3.0)

    @staticmethod
    def _blocks(n):
        """Blocks of trials 10..1499 of laws without random magnitudes."""
        rng = np.random.default_rng(n)
        laws = [
            DistributionSpec.rademacher(),
            DistributionSpec.two_point(0.37),
            DistributionSpec.fixed(np.r_[0.0, rng.random(n - 1) * 1e3]),
            DistributionSpec.fixed(np.r_[1e-200, 1e-210 * rng.random(n - 1)]),
        ]
        assert all(spec.supports_exact() for spec in laws)
        blocks = [_draw_values(spec, n, 4, 10, 1500) for spec in laws]
        # Laws are filled at unit scale, so the degenerate rows come from the
        # last block by hand at 1e-200 scale, every row alike: V_n underflows
        # to 0 at beta >= 1.5 only.
        return blocks + [blocks[-1] * 1e-200]

    @pytest.mark.parametrize("n", [2, 3, 8, 9, 20, 129, 1000])
    @pytest.mark.parametrize("stat", [RUNNING_MAX, FINAL_SUM])
    def test_fixed_equals_the_full_pass(self, n, stat):
        for vals in self._blocks(n):
            full = simulate._statistics(vals, stat, self.BETAS)
            fixed = simulate._statistics(vals, stat, self.BETAS, True)
            for (want_mask, want), (mask, got) in zip(full, fixed):
                assert mask.shape == want_mask.shape == (1490,)
                assert np.array_equal(mask, want_mask)
                assert mask.sum() == want_mask.sum()
                bits = got[~mask].view(np.uint64)
                assert np.array_equal(bits, want[~want_mask].view(np.uint64))
        assert full[0][0].sum() == 0 and full[-1][0].all()  # both masks occur

    @pytest.mark.parametrize(
        "spec, rows",
        [
            (DistributionSpec.rademacher(), 1),
            (TWO_POINT, 1),
            (DistributionSpec.fixed([1.0, 0.5, 2.0, 0.0, 3.0]), 1),
            (DistributionSpec.gaussian(), 3000),
        ],
        ids=lambda v: law_id(v) if isinstance(v, DistributionSpec) else v,
    )
    def test_estimator_forms_v_n_once_per_block_for_exact_laws(self, monkeypatch, spec, rows):
        calls = []
        beta_norm, unit_norm = simulate._beta_norm, simulate._unit_norm

        def recording(values, b):
            calls.append(("values", values.shape))
            return beta_norm(values, b)

        def unit_recording(n, b):
            # The norm of a (1, n) row of ones, without the row.
            calls.append(("unit", (1, n)))
            return unit_norm(n, b)

        monkeypatch.setattr(simulate, "_beta_norm", recording)
        monkeypatch.setattr(simulate, "_unit_norm", unit_recording)
        estimate_tail_multi(spec, 5, [1.5, 2.0], [0.5, 0.5], RUNNING_MAX, 3000)
        route = "unit" if spec.kind == "rademacher" else "values"
        assert calls == [(route, (rows, 5))] * 2


class TestScaleInvariance:
    """The statistics are scale-free, and fixed magnitudes are filled at unit
    scale as the oracle counts them, so no count depends on their scale."""

    @pytest.mark.parametrize("stat", STATS)
    def test_two_point_counts_as_rademacher_at_any_scale(self, stat):
        laws = [DistributionSpec.two_point(a) for a in (1e-200, 1e200)]
        counts = [
            [(est.hits, est.degenerate_count)
             for est in estimate_tail_multi(spec, 5, [1.5, 2.0], [1.0, 1.0], stat, 20000, 1)]
            for spec in laws + [DistributionSpec.rademacher()]
        ]
        assert counts[0] == counts[1] == counts[2]
        assert all(hits > 0 for hits, _ in counts[2])

    @pytest.mark.parametrize("stat", STATS)
    def test_fixed_vector_counts_alike_at_any_scale(self, stat):
        mags = np.array([1.0, 0.25, 3.0, 2.0, 0.5])
        betas, xs = [1.5, 2.0, 3.0], [0.5, 1.0, 0.8]
        runs = [
            estimate_tail_multi(DistributionSpec.fixed(mags * scale), 5, betas, xs, stat, 20000, 2)
            for scale in (1e-200, 1.0, 1e200)
        ]
        assert runs[0] == runs[1] == runs[2]
        assert all(est.hits > 0 for est in runs[1])

    @pytest.mark.parametrize("stat", STATS)
    def test_tiny_fixed_vector_matches_the_oracle(self, stat):
        mags = [1e-200, 2e-200, 3e-200, 4e-200, 5e-200]
        exact = exact_tail(mags, 2.0, 1.0, stat).probability
        est = estimate_tail(DistributionSpec.fixed(mags), 5, 2.0, 1.0, stat, 20000, 1)
        assert est.ci_low <= exact <= est.ci_high
        assert est.degenerate_count == 0


class TestTransformScales:
    def _magnitudes(self, spec, count=20000):
        return np.abs(_draw_values(spec, count, 123, 0, 1)[0])

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
        values = _draw_values(DistributionSpec.rademacher(), 20000, 77, 0, 1)[0]
        assert set(np.unique(values)) == {-1.0, 1.0}
        assert abs(values.sum()) < 4.0 * math.sqrt(20000)


class TestEfron:
    LARGE_XS = (1e4, 1e5, 1e7)

    def test_zero_violations_on_small_grids(self):
        assert efron_check(DistributionSpec.rademacher(), 4, 1.0, 4000, seed=2) == 0
        assert efron_check(DistributionSpec.gaussian(), 6, 1.5, 4000, seed=2) == 0

    @pytest.mark.parametrize("spec", [DistributionSpec.gaussian(), DistributionSpec.uniform()],
                             ids=law_id)
    def test_no_violations_at_large_thresholds(self, spec):
        # With the tie guard on the level's scale, not t's, these cells
        # reported 0, 5 and 5 violations (Gaussian) and 1, 4 and 5 (uniform).
        assert [efron_check(spec, 2, x, 200_000, seed=3) for x in self.LARGE_XS] == [0, 0, 0]

    @pytest.mark.parametrize("spec", [DistributionSpec.gaussian(), DistributionSpec.uniform()],
                             ids=law_id)
    def test_estimator_and_identity_count_t_at_large_thresholds(self, spec):
        n, trials, seed = 2, 200_000, 3
        vals = _draw_values(spec, n, seed, 0, trials)
        mean = vals.mean(axis=1)
        ss = ((vals - mean[:, None]) ** 2).sum(axis=1)
        live = ss > 0.0
        t = math.sqrt(n) * mean[live] / np.sqrt(ss[live] / (n - 1))
        ratio = vals[live].sum(axis=1) / np.sqrt((vals[live] ** 2).sum(axis=1))
        direct = [int((t >= tie_guarded(x)).sum()) for x in self.LARGE_XS]
        assert direct[0] > 0
        assert [int((ratio >= tstat_level(n, x)).sum()) for x in self.LARGE_XS] == direct
        hits = [estimate_tail(spec, n, 2.0, x, TSTAT, trials, seed).hits for x in self.LARGE_XS]
        assert hits == direct

    def test_validation(self):
        with pytest.raises(ValueError):
            efron_check(DistributionSpec.gaussian(), 1, 1.0, 100)

    def test_checks_fixed_vector_length(self):
        with pytest.raises(
            ValueError, match=r"^fixed magnitude vector has length 3, but n = 5 was requested$"
        ):
            efron_check(DistributionSpec.fixed([1, 2, 3]), 5, 1.0, 100)


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

    @pytest.mark.parametrize(
        "alpha, message",
        [
            # 10^400 overflows and 10^-400 underflows to 0.
            (400.0, r"alpha=400\.0 takes x \* n\^alpha out of \(0, inf\) at n=10"),
            (-400.0, r"alpha=-400\.0 takes x \* n\^alpha out of \(0, inf\) at n=10"),
            (math.nan, "alpha must be a finite real, got nan"),
        ],
    )
    def test_rejects_alpha_whose_threshold_leaves_the_finite_reals(self, alpha, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            empirical_log_rate(
                DistributionSpec.rademacher(), 2.0, 0.5, alpha, n_list=(10,), trials=100
            )

    def test_rejects_level_c_with_its_own_message(self):
        with pytest.raises(ValueError, match=r"^c must be a finite real > 0, got -0\.5$"):
            empirical_log_rate(DistributionSpec.rademacher(), 2.0, -0.5, 400.0)
