"""Unit tests for the closed-form bounds and the numeric minimizer.

Reference values were computed at 50 decimal digits with mpmath from the
defining formulas (entropy form, atanh minimizer, half-normal quantiles)
and frozen here; tolerances reflect double-precision evaluation error.
"""

import math

import numpy as np
import pytest

from selfnorm import (
    ENDPOINT,
    IMPOSSIBLE,
    INTERIOR,
    alpha_in_mdp_window,
    bernstein_numeric,
    bound_bn,
    bound_bn_entropy_form,
    bound_corollary,
    bound_rescaled,
    bound_tstat,
    corollary_is_extrapolated,
    endpoint_threshold,
    exact_tail,
    exact_tstat_tail,
    lambda_star,
    log_cosh,
    mdp_alpha_window,
    threshold_from_s,
    tstat_threshold,
    two_sided_bound,
    v_norm,
)
from selfnorm.bounds import _bernstein_search, _beta_norm

# (n, beta, x) -> B_n(beta, x), interior cells.
INTERIOR_REFERENCE = [
    (4, 2.0, 1.0, 16.0 / 27.0),
    (10, 1.5, 1.2, 0.19331893326372909),
    (7, 3.0, 3.2933751390206744, 0.03135368231777975),
]


class TestBoundBn:
    @pytest.mark.parametrize("n,beta,x,expected", INTERIOR_REFERENCE)
    def test_interior_reference_values(self, n, beta, x, expected):
        evaluation = bound_bn(n, beta, x)
        assert evaluation.regime == INTERIOR
        assert evaluation.value == pytest.approx(expected, rel=1e-12)
        entropy = bound_bn_entropy_form(n, beta, x)
        assert entropy.value == pytest.approx(expected, rel=1e-12)

    def test_value_is_exp_of_log_value(self):
        for n, beta, x, _ in INTERIOR_REFERENCE:
            evaluation = bound_bn(n, beta, x)
            assert evaluation.value == math.exp(evaluation.log_value)

    def test_log_value_at_known_entropy(self):
        # H(0.6) at 50 digits; the log of the bound is exactly -n H(s).
        evaluation = bound_bn(10, 2.0, threshold_from_s(10, 2.0, 0.6))
        assert evaluation.log_value == pytest.approx(
            -10.0 * 0.19274475702175743, rel=1e-13
        )

    @pytest.mark.parametrize("n", [1, 3, 7, 20])
    @pytest.mark.parametrize("beta", [1.1, 1.5, 2.0, 3.0])
    def test_endpoint_convention(self, n, beta):
        evaluation = bound_bn(n, beta, endpoint_threshold(n, beta))
        assert evaluation.regime == ENDPOINT
        assert evaluation.value == 2.0 ** (-n)
        assert evaluation.s == 1.0
        target = -n * math.log(2.0)
        assert abs(evaluation.log_value - target) <= 2 * math.ulp(abs(target))

    def test_beyond_endpoint_is_zero(self):
        evaluation = bound_bn(4, 2.0, 5.0)
        assert evaluation.regime == IMPOSSIBLE
        assert evaluation.value == 0.0
        assert evaluation.log_value == -math.inf
        assert evaluation.t == math.inf

    def test_tiny_threshold_approaches_one(self):
        value = bound_bn(50, 2.0, 1e-12).value
        assert 1.0 - 1e-10 < value <= 1.0

    def test_monotone_decreasing_in_x(self):
        xs = [threshold_from_s(8, 2.0, s) for s in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)]
        values = [bound_bn(8, 2.0, x).value for x in xs]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_monotone_increasing_in_n_at_fixed_x(self):
        values = [bound_bn(n, 2.0, 1.0).value for n in (1, 4, 16, 100)]
        assert values[0] == 0.5
        assert values[1] == pytest.approx(16.0 / 27.0, rel=1e-12)
        assert all(a < b for a, b in zip(values, values[1:]))


def _scalar_formulas(n, beta, x):
    """The bound formulas one cell at a time in math-module floats: the
    reference the array evaluator must match bit for bit."""
    s = x / float(n) ** ((beta - 1.0) / beta)
    t = (1.0 + s) / (1.0 - s)
    rt = math.sqrt(t)
    product = (-n * math.log(2.0) + n * math.log(rt + 1.0 / rt)
               - 0.5 * float(n) ** (1.0 / beta) * x * math.log(t))
    entropy = -n * (0.5 * (1.0 + s) * math.log1p(s) + 0.5 * (1.0 - s) * math.log1p(-s))
    corollary = math.exp(-(0.5 * x * x * float(n) ** (2.0 / beta - 1.0)))
    return s, t, product, math.exp(product), entropy, math.exp(entropy), corollary


class TestArrayEvaluator:
    # Small s puts log's argument near 1, where numpy's log differs from
    # libm's on about one input in twenty; exp and log1p differ elsewhere.
    rng = np.random.default_rng(20261018)
    CELLS = [
        (int(n), float(beta), threshold_from_s(int(n), float(beta), float(s)))
        for n, beta, s in zip(
            np.concatenate([rng.integers(1, 40, 500), rng.integers(40, 10**6, 500)]),
            rng.uniform(1.01, 10.0, 1000),
            np.exp(rng.uniform(math.log(1e-9), math.log(0.999), 1000)),
        )
    ]

    def test_equals_the_scalar_formulas_bit_for_bit(self):
        for n, beta, x in self.CELLS:
            product, entropy = bound_bn(n, beta, x), bound_bn_entropy_form(n, beta, x)
            got = (product.s, product.t, product.log_value, product.value,
                   entropy.log_value, entropy.value, bound_corollary(n, beta, x))
            assert got == _scalar_formulas(n, beta, x), (n, beta, x)


class TestThresholds:
    def test_endpoint_threshold_values(self):
        assert endpoint_threshold(9, 2.0) == 3.0
        assert endpoint_threshold(1, 1.5) == 1.0
        assert endpoint_threshold(16, 2.0) == 4.0

    @pytest.mark.parametrize(
        "n, beta, message",
        [
            (-4, 2.0, "n must be >= 1, got -4"),
            (0, 2.0, "n must be >= 1, got 0"),
            (4.5, 2.0, "n must be an integer, got 4.5"),
            (-1, 0.5, "n must be >= 1, got -1"),
            (4, 0.5, "beta must be a finite real > 1, got 0.5"),
        ],
    )
    def test_endpoint_threshold_checks_n_then_beta(self, n, beta, message):
        # n = -4 gave a complex number and n = 0 gave 0.0.
        with pytest.raises(ValueError, match=f"^{message}$"):
            endpoint_threshold(n, beta)

    def test_threshold_round_trip(self):
        for s in (0.25, 0.5, 0.99, 1.0):
            x = threshold_from_s(12, 1.7, s)
            assert bound_bn(12, 1.7, x).s == pytest.approx(s, rel=1e-12)

    def test_v_norm(self):
        assert v_norm([3.0, 4.0], 2.0) == 5.0
        assert v_norm([2.0], 3.0) == pytest.approx(2.0, rel=1e-15)
        with pytest.raises(ValueError):
            v_norm([], 2.0)
        with pytest.raises(ValueError):
            v_norm([[1.0, 2.0]], 2.0)
        with pytest.raises(ValueError):
            v_norm([1.0, math.nan], 2.0)


class TestCorollary:
    def test_reference_value(self):
        assert bound_corollary(5, 1.5, 0.5) == pytest.approx(
            0.80755267538772479, rel=1e-13
        )

    def test_gaussian_case_matches_exp(self):
        assert bound_corollary(20, 2.0, 2.0) == pytest.approx(
            math.exp(-2.0), rel=1e-15
        )

    def test_never_exceeds_one(self):
        assert bound_corollary(3, 1.2, 1e-9) <= 1.0

    def test_extrapolation_flag(self):
        assert not corollary_is_extrapolated(1.5)
        assert not corollary_is_extrapolated(2.0)
        assert corollary_is_extrapolated(2.0000001)
        assert corollary_is_extrapolated(3.0)

    def test_dominates_bound_bn_spot(self):
        for n, beta, x, _ in INTERIOR_REFERENCE:
            assert bound_bn(n, beta, x).value <= bound_corollary(n, beta, x) + 1e-15


class TestBetaNorm:
    @pytest.mark.parametrize("beta", [1.1, 1.5, 2.0, 3.0, 10.0])
    def test_block_rows_equal_v_norm_bit_for_bit(self, beta):
        rng = np.random.default_rng(17)
        block = rng.standard_normal((200, 13)) * 10.0 ** rng.uniform(-3.0, 3.0, (200, 1))
        block[0] = 0.0
        assert _beta_norm(block, beta).tolist() == [v_norm(row, beta) for row in block]


class TestRescaled:
    def test_window_endpoints(self):
        low, high = mdp_alpha_window(3.0)
        assert low == pytest.approx(1.0 / 6.0, abs=1e-15)
        assert high == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_window_membership(self):
        assert alpha_in_mdp_window(3.0, 0.5)
        assert not alpha_in_mdp_window(3.0, 2.0 / 3.0)
        assert alpha_in_mdp_window(1.5, 0.0)

    def test_rescaled_is_corollary_at_scaled_threshold(self):
        assert bound_rescaled(10, 2.0, 0.5, 0.5) == pytest.approx(
            bound_corollary(10, 2.0, 0.5 * math.sqrt(10.0)), rel=1e-15
        )

    def test_rejects_non_finite_alpha(self):
        with pytest.raises(ValueError):
            bound_rescaled(10, 2.0, 0.5, math.inf)

    @pytest.mark.parametrize("alpha", [400.0, -400.0])
    def test_rejects_alpha_that_leaves_the_finite_reals(self, alpha):
        # 10^400 overflows and 10^-400 underflows to 0.
        with pytest.raises(ValueError, match=f"alpha={alpha!r}"):
            bound_rescaled(10, 2.0, 1.0, alpha)


class TestBernstein:
    def test_closed_form_spot_value(self):
        result = bernstein_numeric(4, 2.0, 1.0)
        assert result.objective_value == pytest.approx(16.0 / 27.0, rel=1e-9)
        assert result.lambda_star == pytest.approx(math.log(3.0), rel=1e-6)
        assert 0 < result.iterations < 200

    def test_minimizer_formula(self):
        assert lambda_star(4, 2.0, 1.0) == pytest.approx(math.log(3.0), rel=1e-13)
        assert lambda_star(16, 3.0, 3.1748021039363989) == pytest.approx(
            1.3841647481661342, rel=1e-12
        )

    def test_matches_closed_form_on_mixed_cells(self):
        for n, beta, x, expected in INTERIOR_REFERENCE:
            result = bernstein_numeric(n, beta, x)
            assert result.objective_value == pytest.approx(expected, rel=1e-9)
            assert result.lambda_star == pytest.approx(
                lambda_star(n, beta, x), rel=1e-6
            )

    def test_log_objective_is_the_attained_minimum(self):
        result = bernstein_numeric(4, 2.0, 1.0)
        assert result.objective_value == math.exp(result.log_objective)
        # Deep in the tail the objective underflows; its log stays exact.
        x = threshold_from_s(10000, 1.2, 0.9)
        deep = bernstein_numeric(10000, 1.2, x)
        assert deep.objective_value == 0.0
        assert deep.log_objective == pytest.approx(bound_bn(10000, 1.2, x).log_value, rel=1e-12)

    def test_rejects_endpoint_and_beyond(self):
        with pytest.raises(ValueError, match="strictly below the endpoint"):
            bernstein_numeric(4, 2.0, 2.0)
        with pytest.raises(ValueError, match="strictly below the endpoint"):
            bernstein_numeric(4, 2.0, 2.5)

    def test_lambda_star_infinite_at_endpoint(self):
        assert lambda_star(4, 2.0, 2.0) == math.inf


class TestBernsteinBatch:
    # Extremes of the search: s down to 1e-300 and up to just below 1, a
    # bracket that doubles far at n = 10^6 with beta = 1.01, and tails whose
    # objective underflows to 0.
    CELLS = [
        (n, beta, threshold_from_s(n, beta, s))
        for n, beta in ((1, 1.01), (2, 2.0), (10**6, 1.01), (10**6, 2.0), (10**4, 10.0))
        for s in (1e-300, 1e-8, 0.5, 0.999999, 1.0 - 1e-15)
    ]

    @staticmethod
    def search(cells):
        """_bernstein_search over (n, beta, x) cells, each laid out as
        bernstein_numeric lays out its one cell."""
        rows = [(n, float(n) ** (1.0 / beta), x, x / endpoint_threshold(n, beta))
                for n, beta, x in cells]
        return _bernstein_search(*np.array(rows, dtype=float).reshape(-1, 4).T)

    def test_extremes_match_closed_form(self):
        lam, log_objective, iterations = self.search(self.CELLS)
        for (n, beta, x), log_value, steps in zip(self.CELLS, log_objective, iterations):
            closed = bound_bn(n, beta, x)
            assert closed.regime == INTERIOR
            if closed.value > 0.0:
                assert abs(math.exp(log_value) - closed.value) <= 1e-9 * closed.value
            else:
                assert log_value == pytest.approx(closed.log_value, rel=1e-9)
            assert 0 < steps < 200
        assert np.all(lam > 0.0)

    def test_cells_do_not_depend_on_the_batch(self):
        # Reversed order puts every cell in another lane; one-cell calls are
        # bernstein_numeric itself.
        lam, log_objective, iterations = self.search(self.CELLS)
        back = self.search(self.CELLS[::-1])
        for got, reversed_ in zip((lam, log_objective, iterations), back):
            assert np.array_equal(got, reversed_[::-1])
        for cell, l, v, k in zip(self.CELLS, lam, log_objective, iterations):
            single = bernstein_numeric(*cell)
            assert (single.lambda_star, single.log_objective, single.iterations) == (l, v, k)
            assert single.objective_value == math.exp(v)

    def test_empty_batch(self):
        assert [a.size for a in self.search([])] == [0, 0, 0]


class TestLogCosh:
    def test_near_zero_keeps_quadratic_term(self):
        assert abs(log_cosh(1e-8) - 5e-17) <= 1e-20

    def test_reference_values(self):
        assert log_cosh(0.5) == pytest.approx(0.12011450695827752, rel=1e-14)
        assert log_cosh(3.0) == pytest.approx(2.3093285045777851, rel=1e-14)
        assert log_cosh(1000.0) == pytest.approx(999.30685281944005, rel=1e-14)

    def test_even_and_zero(self):
        assert log_cosh(0.0) == 0.0
        for u in (1e-9, 0.3, 2.0, 40.0):
            assert log_cosh(-u) == log_cosh(u)

    def test_majorized_by_half_square(self):
        for u in (1e-6, 0.1, 1.0, 10.0):
            assert log_cosh(u) <= 0.5 * u * u

    def test_array_equals_scalar_entry_for_entry(self):
        u = np.concatenate([np.linspace(-50.0, 50.0, 2001), [1e-8, 1000.0]])
        values = log_cosh(u)
        assert values.shape == u.shape
        assert [float(v) for v in values] == [log_cosh(float(a)) for a in u]
        assert isinstance(log_cosh(0.5), float)

    def test_past_sinh_overflow(self):
        # sinh overflows beyond |u| ~ 710; only the small branch calls it, so
        # no RuntimeWarning (an error under pytest) and log cosh u = |u| - log 2.
        u = np.array([-1e300, -800.0, 710.5, 1e300, 0.25])
        values = log_cosh(u)
        assert list(values[:4]) == [1e300, 800.0 - math.log(2.0), 710.5 - math.log(2.0), 1e300]
        assert values[4] == log_cosh(0.25)
        assert log_cosh(-1e300) == 1e300


class TestTstat:
    def test_threshold_reference(self):
        assert tstat_threshold(5, 2.0) == pytest.approx(
            1.5811388300841897, rel=1e-13
        )
        assert tstat_threshold(4, 1.0) == 1.0

    def test_threshold_clamped_at_huge_x(self):
        assert tstat_threshold(2, 1e8) <= math.sqrt(2.0)
        assert tstat_threshold(2, 1e8) == pytest.approx(math.sqrt(2.0), rel=1e-9)

    def test_threshold_is_the_endpoint_where_x_squared_overflows(self):
        assert tstat_threshold(5, 1e200) == math.sqrt(5)
        tail = exact_tstat_tail([1.0] * 5, 1e200)
        assert (tail.hits, tail.degenerate) == (0, 2)

    def test_threshold_monotone_in_x(self):
        taus = [tstat_threshold(6, x) for x in (0.1, 0.5, 1.0, 2.0, 5.0, 50.0)]
        assert all(a < b for a, b in zip(taus, taus[1:]))

    def test_bound_values(self):
        assert bound_tstat(4, 1.0).value == pytest.approx(16.0 / 27.0, rel=1e-12)
        assert bound_tstat(5, 2.0).value == pytest.approx(
            0.25076018136852465, rel=1e-10
        )
        assert bound_tstat(20, 3.0).value == pytest.approx(
            0.032928647008605704, rel=1e-10
        )

    def test_requires_two_observations(self):
        with pytest.raises(ValueError):
            tstat_threshold(1, 1.0)


class TestTwoSided:
    def test_doubles_the_one_sided_bound(self):
        assert two_sided_bound(4, 2.0, 1.8) == pytest.approx(
            0.27654531922209656, rel=1e-12
        )

    def test_caps_at_one(self):
        assert two_sided_bound(4, 2.0, 1.0) == 1.0


class TestValidation:
    @pytest.mark.parametrize("bad_n", [0, -1, 1.5, True, "4"])
    def test_rejects_bad_n(self, bad_n):
        with pytest.raises(ValueError):
            bound_bn(bad_n, 2.0, 1.0)

    @pytest.mark.parametrize("bad_beta", [1.0, 0.5, -2.0, math.nan, math.inf])
    def test_rejects_bad_beta(self, bad_beta):
        with pytest.raises(ValueError, match="beta must be a finite real > 1"):
            bound_bn(4, bad_beta, 1.0)

    @pytest.mark.parametrize("bad_x", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_x(self, bad_x):
        with pytest.raises(ValueError):
            bound_bn(4, 2.0, bad_x)


class TestDominatedMagnitude:
    """One magnitude dominating the rest: the running maximum is within
    1e-5 of 1 when the first sign is +, and negative otherwise, so the
    tail at x = 0.9 is exactly 1/2."""

    MAGS = [1.0] + [1e-6] * 9

    def test_beta_two_bound_holds(self):
        assert exact_tail(self.MAGS, 2.0, 0.9).probability <= bound_bn(10, 2.0, 0.9).value

    @pytest.mark.xfail(strict=True, reason="bound_bn is exceeded for beta < 2 (open defect)")
    def test_beta_below_two_bound_holds(self):
        # 0.5 > bound_bn(10, 1.5, 0.9) = 0.4066.
        assert exact_tail(self.MAGS, 1.5, 0.9).probability <= bound_bn(10, 1.5, 0.9).value
