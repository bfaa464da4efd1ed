"""Unit tests for exact sign-vector enumeration.

Hand-countable cells are frozen as integers; larger cells are checked
against independent references (a pure-Python enumeration over
itertools.product, a sign matrix reduced row by row, and closed-form
counts for unit magnitudes) so the meet-in-the-middle count never
verifies itself.
"""

import itertools
import math
import re
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from selfnorm import oracle
from selfnorm import (
    FINAL_SUM,
    MAX_ENUM_N,
    RUNNING_MAX,
    TSTAT,
    DistributionSpec,
    ExactTail,
    SweepGrid,
    efron_check,
    estimate_tail,
    exact_tail,
    exact_tail_multi,
    exact_tstat_tail,
    run_sweep,
    threshold_from_s,
    tie_guarded,
    tstat_level,
    tstat_threshold,
    v_norm,
)


def brute_tail(mags, beta, x, stat):
    """Reference count over all sign vectors, scalar python arithmetic."""
    cut = tie_guarded(x) * v_norm(mags, beta)
    hits = 0
    for eps in itertools.product((1.0, -1.0), repeat=len(mags)):
        prefix = list(itertools.accumulate(e * a for e, a in zip(eps, mags)))
        value = max(prefix) if stat == RUNNING_MAX else prefix[-1]
        hits += value >= cut
    return hits


def brute_tstat(mags, x):
    """Reference t-statistic count; all-equal vectors are excluded."""
    n = len(mags)
    cut = tie_guarded(x)
    hits = degenerate = 0
    for eps in itertools.product((1.0, -1.0), repeat=n):
        vals = [e * a for e, a in zip(eps, mags)]
        if all(v == vals[0] for v in vals):
            degenerate += 1
            continue
        mean = sum(vals) / n
        ss = sum((v - mean) ** 2 for v in vals)
        t = math.sqrt(n) * mean / math.sqrt(ss / (n - 1))
        hits += t >= cut
    return hits, degenerate


def sign_matrix_stats(mags, stat):
    """Reference statistics: one row per sign vector, cumulative sums.

    Row i has sign + at coordinate j when bit j of i is set.  The final sum
    is the last cumulative sum, in sequential summation order.  Rows are
    built 2^14 at a time so that n = 20 stays small in memory.
    """
    n = len(mags)
    out = np.empty(1 << n)
    for lo in range(0, 1 << n, 1 << 14):
        idx = np.arange(lo, min(lo + (1 << 14), 1 << n), dtype=np.uint64)
        bits = (idx[:, None] >> np.arange(n, dtype=np.uint64)) & np.uint64(1)
        prefix = np.cumsum((bits * 2.0 - 1.0) * np.asarray(mags, dtype=float), axis=1)
        out[lo : lo + idx.size] = prefix.max(axis=1) if stat == RUNNING_MAX else prefix[:, -1]
    return out


def pair_stats(mags, stat):
    """The statistic of every sign vector as the oracle forms it from the two
    halves' prefix states, indexed like sign_matrix_stats."""
    first, second = oracle._halves(np.asarray(mags, dtype=float), 1 + (stat == RUNNING_MAX))
    pairs = first[0][:, None] + second[-1][None, :]
    if stat == RUNNING_MAX:
        pairs = np.maximum(first[1][:, None], pairs)
    # First-half coordinates are the low bits of the sign-vector index.
    return pairs.T.ravel()


def binomial_tail(n, m):
    """#{S_n >= m} for unit magnitudes: S_n = 2k - n with k plus signs."""
    return sum(math.comb(n, k) for k in range(max(0, (m + n + 1) // 2), n + 1))


def reflection_count(n, m):
    """#{max_k S_k >= m} = #{S_n >= m} + #{S_n > m} for m >= 1 (Andre)."""
    return binomial_tail(n, m) + binomial_tail(n, m + 1)


# (mags, beta, x, stat) -> hits; total is 2^len(mags).
HAND_COUNTS = [
    ([1.0, 1.0], 2.0, 0.5, RUNNING_MAX, 2),
    ([1.0, 1.0], 2.0, 0.5, FINAL_SUM, 1),
    ([1.0, 1.0, 1.0], 2.0, 1.0, RUNNING_MAX, 2),
    ([1.0, 2.0, 3.0], 2.0, 0.5 * math.sqrt(3.0), FINAL_SUM, 2),
    ([1.0] * 10, 2.0, 0.4 * math.sqrt(10.0), RUNNING_MAX, 232),
    ([1.0] * 10, 2.0, 0.6 * math.sqrt(10.0), RUNNING_MAX, 67),
    ([1.0] * 10, 2.0, 0.6 * math.sqrt(10.0), FINAL_SUM, 56),
    ([1.0] * 10, 2.0, math.sqrt(10.0), RUNNING_MAX, 1),
]


class TestExactTail:
    @pytest.mark.parametrize("mags,beta,x,stat,hits", HAND_COUNTS)
    def test_hand_counts(self, mags, beta, x, stat, hits):
        tail = exact_tail(mags, beta, x, stat)
        assert tail.hits == hits and type(tail.hits) is int
        assert tail.total == 2 ** len(mags)
        assert tail.degenerate == 0

    def test_probability_and_fraction(self):
        tail = ExactTail(hits=232, total=1024)
        assert tail.probability == 232 / 1024
        assert tail.fraction == Fraction(29, 128)

    @pytest.mark.parametrize("n", range(1, 13))
    @pytest.mark.parametrize("beta", [1.1, 2.0, 3.0])
    def test_endpoint_hits_exactly_once(self, n, beta):
        x = float(n) ** ((beta - 1.0) / beta)
        tail = exact_tail([1.0] * n, beta, x, RUNNING_MAX)
        assert tail.hits == 1
        assert tail.probability == 2.0 ** (-n)

    def test_threshold_just_above_a_lattice_atom(self):
        # One step above the s = 0.6 atom the count drops to the next level.
        x = (6.0 + 1e-6) / math.sqrt(10.0)
        tail = exact_tail([1.0] * 10, 2.0, x, RUNNING_MAX)
        assert tail.hits == brute_tail([1.0] * 10, 2.0, x, RUNNING_MAX)
        assert tail.hits == 22

    @pytest.mark.parametrize("stat", [RUNNING_MAX, FINAL_SUM])
    def test_matches_brute_force_on_weighted_vectors(self, stat):
        rng = np.random.default_rng(1002)
        for _ in range(12):
            n = int(rng.integers(2, 9))
            mags = rng.uniform(0.0, 2.5, n)
            mags[int(rng.integers(0, n))] = rng.choice([0.0, 1.0])
            if not mags.any():
                mags[0] = 1.0
            for s in (0.15, 0.5, 0.85, 1.0):
                x = s * float(n) ** 0.5
                tail = exact_tail(mags, 2.0, x, stat)
                assert tail.hits == brute_tail(list(mags), 2.0, x, stat)

    def test_multi_matches_single_calls(self):
        mags = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
        xs = [0.3, 0.8, 1.4, 2.2]
        multi = exact_tail_multi(mags, 1.5, xs, FINAL_SUM)
        for x, tail in zip(xs, multi):
            assert tail == exact_tail(mags, 1.5, x, FINAL_SUM)

    @pytest.mark.parametrize("scale", [0.5, 3.7])
    def test_scale_invariance(self, scale):
        for s in (0.2, 0.6, 1.0):
            x = s * math.sqrt(8.0)
            unit = exact_tail([1.0] * 8, 2.0, x, RUNNING_MAX)
            scaled = exact_tail([scale] * 8, 2.0, x, RUNNING_MAX)
            assert scaled.hits == unit.hits

    def test_running_max_dominates_final_sum(self):
        mags = [1.0, 0.7, 2.1, 1.3, 0.2, 1.9]
        for s in (0.2, 0.5, 0.8):
            x = s * math.sqrt(6.0)
            run = exact_tail(mags, 2.0, x, RUNNING_MAX)
            fin = exact_tail(mags, 2.0, x, FINAL_SUM)
            assert run.hits >= fin.hits

    def test_worker_count_never_changes_counts(self):
        mags = [1.0] * 17
        x = 0.45 * math.sqrt(17.0)
        baseline = exact_tail(mags, 2.0, x, RUNNING_MAX, workers=1)
        for workers in (2, 5):
            assert exact_tail(mags, 2.0, x, RUNNING_MAX, workers=workers) == baseline


class TestExactTstatTail:
    # (mags, x) -> (hits, degenerate); total is 2^len(mags).
    FROZEN = [
        ([1.0] * 4, 1.0, 4, 2),
        ([1.0, 2.0, 3.0], 1e-4, 3, 0),
        ([1.0] * 12, 1.5, 298, 2),
        ([0.5, 1.5, 2.0, 0.25], 0.8, 4, 0),
    ]

    @pytest.mark.parametrize("mags,x,hits,degenerate", FROZEN)
    def test_frozen_counts(self, mags, x, hits, degenerate):
        tail = exact_tstat_tail(mags, x)
        assert type(tail.hits) is int
        assert (tail.hits, tail.total, tail.degenerate) == (
            hits,
            2 ** len(mags),
            degenerate,
        )

    def test_matches_brute_force_on_weighted_vectors(self):
        rng = np.random.default_rng(1003)
        for _ in range(10):
            n = int(rng.integers(2, 10))
            mags = rng.uniform(0.1, 2.0, n)
            for x in (0.5, 1.5, 2.5):
                tail = exact_tstat_tail(mags, x)
                hits, degenerate = brute_tstat(list(mags), x)
                assert (tail.hits, tail.degenerate) == (hits, degenerate)

    def test_both_event_routes_agree_on_repeated_magnitudes(self):
        # All-equal-magnitude vectors maximize ties between the two routes.
        for n in range(2, 13):
            for x in (0.5, 1.5):
                tail = exact_tstat_tail([1.0] * n, x)
                assert tail.degenerate == 2
                assert 0 <= tail.hits <= tail.total - tail.degenerate

    def test_requires_two_observations(self):
        with pytest.raises(ValueError):
            exact_tstat_tail([1.0], 1.0)


class TestScaleFree:
    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    @pytest.mark.parametrize("stat", [RUNNING_MAX, FINAL_SUM])
    def test_extreme_equal_magnitudes_count_like_unit_ones(self, scale, stat):
        for n in (3, 8):
            xs = [threshold_from_s(n, 2.0, s) for s in (0.2, 0.5, 0.8)]
            unit = exact_tail_multi([1.0] * n, 2.0, xs, stat)
            assert exact_tail_multi([scale] * n, 2.0, xs, stat) == unit

    @pytest.mark.parametrize("scale", [2.0**600, 2.0**-600])
    def test_power_of_two_scale_leaves_float_magnitudes_unchanged(self, scale):
        mags = np.array([0.3, 0.0, 1.7, 2.2, 0.9, 1.7])
        for stat in (RUNNING_MAX, FINAL_SUM):
            assert exact_tail(mags * scale, 1.5, 0.8, stat) == exact_tail(mags, 1.5, 0.8, stat)
        assert exact_tstat_tail(mags * scale, 0.8) == exact_tstat_tail(mags, 0.8)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_tstat_at_extreme_equal_magnitudes(self, scale):
        assert exact_tstat_tail([scale] * 4, 0.8) == exact_tstat_tail([1.0] * 4, 0.8)


def _drawn_magnitudes(rng, n):
    """Float magnitudes with a zero and a repeated value where n allows."""
    mags = rng.uniform(0.0, 2.5, n)
    if n >= 3:
        mags[int(rng.integers(0, n))] = 0.0
        i, j = rng.choice(n, 2, replace=False)
        mags[i] = mags[j]
    if not mags.any():
        mags[0] = 1.0
    return mags


class TestKernelCrossCheck:
    @pytest.mark.parametrize("stat", [RUNNING_MAX, FINAL_SUM])
    @pytest.mark.parametrize("n", [1, 2, 5, 9, 13, 16, 17])
    def test_statistics_bit_identical_to_cumulative_sums(self, stat, n):
        # Each half's prefix states, built by _double, are that half's
        # cumulative sums and running maxima bit for bit, in index order.
        mags = _drawn_magnitudes(np.random.default_rng(n), n)
        rows = 1 + (stat == RUNNING_MAX)
        for states, half in zip(oracle._halves(mags, rows), np.split(mags, [n // 2])):
            if half.size == 0:
                assert np.array_equal(states, [[0.0], [-np.inf]][:rows])
                continue
            expected = [sign_matrix_stats(half, FINAL_SUM), sign_matrix_stats(half, RUNNING_MAX)]
            assert np.array_equal(states, expected[:rows])

    @pytest.mark.parametrize("stat", [RUNNING_MAX, FINAL_SUM])
    def test_pair_statistics_count_exactly(self, stat):
        # Hits equal an elementwise count over the materialized pair
        # statistics, which lie within rounding of the sequential sums.
        rng = np.random.default_rng(2027)
        for n in range(1, 21):
            mags = _drawn_magnitudes(rng, n)
            beta = float(rng.choice([1.5, 2.0, 3.0]))
            v = v_norm(mags, beta)
            pairs = pair_stats(mags, stat)
            ref = sign_matrix_stats(mags, stat)
            assert np.all(np.abs(pairs - ref) <= n * np.finfo(float).eps * np.abs(ref).max())
            xs = [0.7, 0.05, 1.3] + [float(a) / v for a in rng.choice(pairs[pairs > 0], 3)]
            cuts = [tie_guarded(x) * v for x in xs]
            tails = exact_tail_multi(mags, beta, xs, stat)
            assert [t.hits for t in tails] == oracle._count_at(pairs, cuts).tolist()

    def test_suffix_starts_match_elementwise_counts(self):
        rng = np.random.default_rng(2028)
        cases = [
            (rng.uniform(-3.0, 3.0, 300), rng.uniform(-3.0, 3.0, 500)),
            # Keys far below the rounding of base + key: searchsorted on
            # cut - base lands many keys away from where the hits start.
            (rng.uniform(0.5, 2.0, 300), rng.uniform(-1e-15, 1e-15, 500)),
        ]
        guess_off = 0
        for base, keys in cases:
            keys = np.append(np.sort(keys), np.inf)
            sums = base[:, None] + keys[None, :-1]
            for cut in rng.choice(sums.ravel(), 20):
                expected = np.count_nonzero(sums >= cut, axis=1)
                assert np.array_equal(keys.size - 1 - oracle._starts(base, keys, cut), expected)
                guess = keys.size - 1 - np.searchsorted(keys, cut - base)
                guess_off = max(guess_off, np.abs(guess - expected).max())
        # A fix-up of one key either way would not have been enough.
        assert guess_off > 1

    @pytest.mark.parametrize("stat", [RUNNING_MAX, FINAL_SUM])
    def test_float_magnitudes_match_sign_matrix(self, stat):
        rng = np.random.default_rng(2024)
        for n in list(range(1, 21)) * 3:
            mags = _drawn_magnitudes(rng, n)
            beta = float(rng.choice([1.5, 2.0, 3.0]))
            v = v_norm(mags, beta)
            ref = sign_matrix_stats(mags, stat)
            # Unsorted, duplicated, and two thresholds sitting on atoms.
            xs = [0.7, 0.2, 0.7, 0.05, 1.3]
            xs += [float(a) / v for a in rng.choice(ref[ref > 0], 2)]
            tails = exact_tail_multi(mags, beta, xs, stat)
            expected = [int(np.count_nonzero(ref >= tie_guarded(x) * v)) for x in xs]
            assert [t.hits for t in tails] == expected
            assert all(t.total == 1 << n for t in tails)

    def test_tstat_matches_brute_force(self):
        rng = np.random.default_rng(2025)
        vectors = [_drawn_magnitudes(rng, n) for n in list(range(2, 13)) * 2]
        vectors += [[0.7] * n for n in (2, 5, 9)] + [[0.0, 1.5, 1.5, 0.0]]
        # A zero magnitude, or one lost to rounding, ties the all-minus or
        # all-plus second half with another sign pattern in the sort.
        vectors += [[1.0, 0.5, 1e-20, 0.0], [0.3, 0.0, 0.0, 1.0, 1e-18, 0.7], [2.0, 0.0]]
        for mags in vectors:
            for x in (0.3, 1.1, 2.4):
                tail = exact_tstat_tail(mags, x)
                assert (tail.hits, tail.degenerate) == brute_tstat(list(mags), x)

    def test_near_constant_vectors_keep_routes_in_agreement(self):
        # Magnitudes equal to within 1e-11 relative: for the all-plus vector
        # the sample deviation cancels to rounding noise in
        # sum(a^2) - S_n^2 / n, which comes out negative here.
        mags = [
            1.383983204038072,
            1.383983204013423,
            1.3839832040325633,
            1.3839832040293074,
            1.3839832040130868,
            1.3839832040322095,
        ]
        for x in (0.5, 1.5):
            tail = exact_tstat_tail(mags, x)
            assert (tail.hits, tail.degenerate) == brute_tstat(mags, x)

    @pytest.mark.parametrize("mags", [[1.0, 1.0 + 1e-9], [3.0, 3.0 * (1 + 1e-10), 3.0, 3.0]])
    def test_near_constant_vectors_at_large_thresholds(self, mags):
        # The all-plus vector has t of order 1e9-1e10: the one-pass deviation
        # of that vector is pure rounding noise, so its t must come from the
        # centred values.  Beyond that t the tie-guarded identity route
        # still counts it (S_n / V_n sits within 1e-9 of sqrt(n)) and the
        # routes must refuse to agree rather than both count a hit.
        for x in (0.5, 1e3, 1e7, 1e8):
            tail = exact_tstat_tail(mags, x)
            assert (tail.hits, tail.degenerate) == brute_tstat(mags, x)
        assert brute_tstat(mags, 1e12) == (0, 0)
        with pytest.raises(RuntimeError, match="disagree"):
            exact_tstat_tail(mags, 1e12)

    @pytest.mark.parametrize(
        "mags, x",
        [([1.0, 1.00001], 1.5e5), ([1.0, 1.00001], 2.5e5), ([1.0, 1.00001, 1.00002], 3e4)],
    )
    def test_tie_guard_acts_on_t_at_large_thresholds(self, mags, x):
        # Guarding S_n / V_n's level instead of t lowers t's cut by about
        # 1e-9 x^2 / (n - 1) relative: at n = 2 and x = 2.5e5 to about 2.2e4,
        # below the all-plus vector's t of about 2e5, and the routes parted.
        tail = exact_tstat_tail(mags, x)
        assert (tail.hits, tail.degenerate) == brute_tstat(mags, x)

    def test_workers_agree_across_blocks(self):
        mags = np.random.default_rng(2026).uniform(0.1, 2.0, 18)
        xs = [0.9, 0.3, 1.7, 0.3]
        for stat in (RUNNING_MAX, FINAL_SUM):
            one = exact_tail_multi(mags, 2.0, xs, stat, workers=1)
            assert exact_tail_multi(mags, 2.0, xs, stat, workers=2) == one
        assert exact_tstat_tail(mags, 1.2, workers=2) == exact_tstat_tail(mags, 1.2, workers=1)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 12, 16, 17, 21, 24, 25, 30])
    def test_unit_magnitudes_match_closed_forms(self, n):
        beta = 2.0 if n % 2 else 1.5
        xs = [threshold_from_s(n, beta, s) for s in (0.95, 0.1, 0.45, 0.7, 1.0)]
        cuts = [math.ceil(tie_guarded(x) * v_norm([1.0] * n, beta)) for x in xs]
        run = exact_tail_multi([1.0] * n, beta, xs, RUNNING_MAX)
        fin = exact_tail_multi([1.0] * n, beta, xs, FINAL_SUM)
        assert [t.hits for t in run] == [reflection_count(n, m) for m in cuts]
        assert [t.hits for t in fin] == [binomial_tail(n, m) for m in cuts]


class TestTstatLevel:
    """tstat_level is Efron's level of the t event under the tie guard on t."""

    def test_is_the_level_of_the_guarded_t(self):
        for n in (2, 3, 10, 1000):
            for x in (2e-9, 0.01, 1.0, 3.7, 1e5, 1e12, 1e200):
                assert tstat_level(n, x) == tstat_threshold(n, tie_guarded(x))

    def test_odd_where_the_guard_reaches_zero(self):
        # For x <= 1e-9 the guarded t is 0 or negative, where Efron's map
        # is the mirror image of its positive branch.
        assert tstat_level(5, 1e-9) == 0.0
        for x in (5e-10, 1e-12):
            assert tstat_level(5, x) == -tstat_threshold(5, -tie_guarded(x)) < 0.0
        for mags in ([1.0] * 4, [1.0, 2.0, 0.5], [0.0, 1.5, 1.5, 0.0]):
            for x in (5e-10, 1e-12):
                tail = exact_tstat_tail(mags, x)
                assert (tail.hits, tail.degenerate) == brute_tstat(mags, x)


class TestTstatInSharedPass:
    """exact_tail_multi counts Student's t in the pass of the sum statistics."""

    XS = [1.5, 0.3, 2.4, 0.3, 1e-4, 0.8, 2.4]  # unsorted, with repeats

    def vectors(self):
        rng = np.random.default_rng(20261019)
        vectors = [_drawn_magnitudes(rng, n) for n in range(2, 13)]
        vectors += [[1.0] * n for n in range(2, 13)] + [[0.7] * 5]
        # Equal to within 1e-11 relative: the all-plus vector's deviation
        # cancels to rounding noise.
        vectors.append([1.383983204 * (1.0 + 1e-11 * k) for k in (3, -2, 0, 1, -1, 2)])
        return vectors

    def test_equals_single_calls_and_brute_force(self):
        for mags in self.vectors():
            tails = exact_tail_multi(mags, 2.0, self.XS, TSTAT)
            assert tails == [exact_tstat_tail(mags, x) for x in self.XS]
            for x, tail in zip(self.XS, tails):
                assert tail.total == 1 << len(mags)
                assert (tail.hits, tail.degenerate) == brute_tstat(list(mags), x), (mags, x)

    def test_exact_tail_takes_tstat(self):
        for mags in self.vectors()[::3]:
            assert exact_tail(mags, 2.0, 0.8, TSTAT) == exact_tstat_tail(mags, 0.8)

    @pytest.mark.parametrize("mags", [[1.0, 1.0 + 1e-9], [3.0, 3.0 * (1 + 1e-10), 3.0, 3.0]])
    def test_route_abort_at_one_of_several_thresholds(self, mags):
        with pytest.raises(RuntimeError, match="disagree"):
            exact_tail(mags, 2.0, 1e12, TSTAT)
        with pytest.raises(RuntimeError, match="disagree"):
            exact_tail_multi(mags, 2.0, [0.5, 1e3, 1e12, 1e7], TSTAT)
        good = exact_tail_multi(mags, 2.0, [0.5, 1e3, 1e7, 1e8], TSTAT)
        assert [(t.hits, t.degenerate) for t in good] == [
            brute_tstat(mags, x) for x in (0.5, 1e3, 1e7, 1e8)
        ]

    def test_beta_is_checked_then_ignored(self):
        mags = np.random.default_rng(5).uniform(0.1, 2.0, 9)
        want = exact_tail_multi(mags, 2.0, self.XS, TSTAT)
        for beta in (1.0001, 1.5, 3.0, 1e6):
            assert exact_tail_multi(mags, beta, self.XS, TSTAT) == want
        for beta in (1.0, 0.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="beta must be a finite real > 1"):
                exact_tail(mags, beta, 1.0, TSTAT)

    def test_needs_two_observations(self):
        for call in (
            lambda: exact_tail([1.0], 2.0, 1.0, TSTAT),
            lambda: exact_tail_multi([1.0], 2.0, [1.0, 2.0], TSTAT),
            lambda: exact_tstat_tail([1.0], 1.0),
        ):
            with pytest.raises(ValueError, match="^n must be >= 2, got 1$"):
                call()

    def test_one_stat_check_for_oracle_and_monte_carlo(self):
        with pytest.raises(ValueError) as from_oracle:
            exact_tail([1.0, 1.0], 2.0, 1.0, "median")
        with pytest.raises(ValueError, match=f"^{re.escape(str(from_oracle.value))}$"):
            estimate_tail(DistributionSpec.rademacher(), 2, 2.0, 1.0, "median", 10)
        assert str(from_oracle.value) == (
            "stat must be one of ('running_max', 'final_sum', 'tstat'), got 'median'"
        )


class TestPerThresholdBeta:
    """exact_tail_multi with one beta per threshold shares the halves and the
    sort, and must equal one exact_tail call per (beta, x)."""

    # Unsorted, with repeated thresholds and exponents and one (beta, x)
    # pair given twice.
    XS = [1.5, 0.3, 2.4, 0.3, 1e-4, 0.8, 2.4, 0.3]
    BETAS = [2.0, 1.5, 3.0, 1.5, 1.2, 2.0, 1.5, 3.0]

    def vectors(self):
        rng = np.random.default_rng(20261020)
        vectors = [_drawn_magnitudes(rng, n) for n in range(2, 15)]
        return vectors + [[1.0] * n for n in (2, 7, 12)] + [[0.0, 2.5, 1.0, 0.0, 4.0]]

    @pytest.mark.parametrize("stat", [RUNNING_MAX, FINAL_SUM, TSTAT])
    def test_equals_single_calls(self, stat):
        for mags in self.vectors():
            tails = exact_tail_multi(mags, self.BETAS, self.XS, stat)
            assert tails == [exact_tail(mags, b, x, stat) for b, x in zip(self.BETAS, self.XS)]
            if stat != TSTAT:
                for b, x, tail in zip(self.BETAS, self.XS, tails):
                    assert tail.hits == brute_tail(list(mags), b, x, stat), (mags, b, x)

    @pytest.mark.parametrize(
        "betas, message",
        [
            ([2.0], "beta must be one value or one per threshold (3), got 1"),
            ((2.0,) * 4, "beta must be one value or one per threshold (3), got 4"),
            ([0.5, 2.0, 2.0], "beta must be a finite real > 1, got 0.5"),
            ([2.0, math.inf, 2.0], "beta must be a finite real > 1, got inf"),
            ((2.0, 2.0, 1.0), "beta must be a finite real > 1, got 1.0"),
        ],
    )
    @pytest.mark.parametrize("stat", [RUNNING_MAX, TSTAT])
    def test_rejects_bad_beta_lists(self, betas, message, stat):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            exact_tail_multi([1.0, 2.0, 0.5], betas, [0.5, 1.0, 1.5], stat)

    def test_bad_beta_from_an_array_reads_as_a_float(self):
        # Reported as the float it converts to, not as np.float64(1.0).
        with pytest.raises(ValueError, match=r"^beta must be a finite real > 1, got 1\.0$"):
            exact_tail_multi([1.0, 2.0], np.array([2.0, 1.0]), [0.5, 1.0])
        with pytest.raises(ValueError, match=r"^beta must be a finite real > 1, got 0\.5$"):
            exact_tail([1.0, 2.0], np.float32(0.5), 0.5)

    def test_empty_thresholds_enumerate_nothing(self, monkeypatch):
        def no_halves(*args):
            raise AssertionError("enumerated for no threshold")

        monkeypatch.setattr(oracle, "_halves", no_halves)
        assert exact_tail_multi([1.0] * 20, 2.0, []) == []
        assert exact_tail_multi([1.0] * 20, [], [], TSTAT) == []
        # The arguments are still checked first.
        with pytest.raises(ValueError, match="^beta must be a finite real > 1, got 0.5$"):
            exact_tail_multi([1.0] * 20, 0.5, [])
        with pytest.raises(ValueError, match="budget"):
            exact_tail_multi([1.0] * (MAX_ENUM_N + 1), 2.0, [])


class TestBoundedMemory:
    # Each half holds at most 2^15 states up to the budget; the ceiling is fixed.
    CEILING = 8 << 20

    @pytest.mark.parametrize(
        "call",
        [
            lambda: exact_tail([1.0] * 24, 2.0, 2.0, RUNNING_MAX, workers=1),
            lambda: exact_tail([1.0] * 24, 2.0, 2.0, FINAL_SUM, workers=1),
            lambda: exact_tstat_tail([1.0] * 24, 1.0, workers=1),
            lambda: exact_tail([1.0] * 30, 2.0, 2.0, RUNNING_MAX, workers=1),
            lambda: exact_tail([1.0] * 30, 2.0, 2.0, FINAL_SUM, workers=1),
            lambda: exact_tstat_tail([1.0] * 30, 1.0, workers=1),
        ],
        ids=["running_max", "final_sum", "tstat", "running_max-n30", "final_sum-n30", "tstat-n30"],
    )
    def test_peak_allocation_at_n24(self, call):
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < self.CEILING


class TestValidation:
    def test_budget_guard(self):
        with pytest.raises(ValueError, match="budget"):
            exact_tail([1.0] * (MAX_ENUM_N + 1), 2.0, 1.0)

    def test_rejects_bad_workers(self, monkeypatch):
        with pytest.raises(ValueError, match="worker count"):
            exact_tail([1.0] * 3, 2.0, 1.0, workers=0)
        monkeypatch.setenv("SELFNORM_THREADS", "abc")
        with pytest.raises(ValueError, match="SELFNORM_THREADS"):
            exact_tail([1.0] * 3, 2.0, 1.0)

    @pytest.mark.parametrize(
        "workers, message",
        [
            (True, "worker count must be an integer, got True"),
            (2.5, "worker count must be an integer, got 2.5"),
            ("2", "worker count must be an integer, got '2'"),
            (0, "worker count must be >= 1, got 0"),
        ],
    )
    @pytest.mark.parametrize("entry", ["exact_tail", "estimate_tail", "efron_check", "run_sweep"])
    def test_every_entry_point_checks_the_worker_count(self, entry, workers, message):
        call = {
            "exact_tail": lambda: exact_tail([1.0] * 3, 2.0, 1.0, workers=workers),
            "estimate_tail": lambda: estimate_tail(
                DistributionSpec.rademacher(), 3, 2.0, 1.0, trials=10, workers=workers
            ),
            "efron_check": lambda: efron_check(
                DistributionSpec.gaussian(), 3, 1.0, trials=10, workers=workers
            ),
            "run_sweep": lambda: run_sweep(SweepGrid((3,), (2.0,), (0.5,), trials=10), workers),
        }[entry]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()

    def test_numpy_integer_worker_count_is_accepted(self):
        spec = DistributionSpec.rademacher()
        assert estimate_tail(spec, 5, 2.0, 1.0, trials=3000, workers=np.int64(2)) == (
            estimate_tail(spec, 5, 2.0, 1.0, trials=3000, workers=1)
        )

    def test_sum_statistics_enumerate_in_one_thread(self, monkeypatch):
        # Every statistic enumerates in one thread, whatever workers says:
        # no thread of any kind may start.
        def no_thread(thread):
            raise AssertionError(f"thread {thread.name} started")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        for stat in (RUNNING_MAX, FINAL_SUM):
            exact_tail_multi([1.0] * 18, 2.0, [0.5, 1.0], stat, workers=2)
        exact_tstat_tail([1.0] * 18, 1.0, workers=2)

    def test_accepts_multi_block_sizes(self):
        # n = 18 pairs two halves of 2^9 states without blowing the runtime.
        tail = exact_tail([1.0] * 18, 2.0, math.sqrt(18.0), RUNNING_MAX)
        assert tail.hits == 1

    @pytest.mark.parametrize(
        "bad",
        [[], [[1.0, 2.0]], [1.0, -2.0], [math.nan], [0.0, 0.0], [1.0, math.inf]],
    )
    def test_rejects_bad_magnitudes(self, bad):
        with pytest.raises(ValueError):
            exact_tail(bad, 2.0, 1.0)

    @pytest.mark.parametrize(
        "bad",
        [[], [[1.0, 2.0]], [1.0, -2.0], [math.nan], [0.0, 0.0], [1.0, math.inf]],
    )
    def test_fixed_law_and_oracle_share_the_magnitude_rule(self, bad):
        with pytest.raises(ValueError) as from_oracle:
            exact_tail(bad, 2.0, 1.0)
        with pytest.raises(ValueError, match=f"^{re.escape(str(from_oracle.value))}$"):
            DistributionSpec.fixed(bad)

    def test_validity_is_checked_before_the_budget(self):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            exact_tail([1.0] * MAX_ENUM_N + [-1.0], 2.0, 1.0)

    def test_rejects_bad_stat_and_threshold(self):
        with pytest.raises(ValueError):
            exact_tail([1.0, 1.0], 2.0, 1.0, "median")
        with pytest.raises(ValueError):
            exact_tail([1.0, 1.0], 2.0, -1.0)
        with pytest.raises(ValueError):
            exact_tail([1.0, 1.0], 1.0, 1.0)
