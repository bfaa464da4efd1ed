"""Acceptance checks: the full-scale guarantees this package ships under.

Each test covers one numbered guarantee at its stated grid and tolerance
and prints a single PASS/FAIL line (visible with pytest -s or on failure).
Monte Carlo checks use fixed seeds and the conservative margin
bound + 3 * (99% Wilson half-width), so they are deterministic.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from selfnorm import bounds
from selfnorm import (
    FINAL_SUM,
    RUNNING_MAX,
    TSTAT,
    DistributionSpec,
    bernstein_numeric,
    bound_bn,
    bound_corollary,
    bound_tstat,
    efron_check,
    empirical_log_rate,
    endpoint_threshold,
    estimate_tail,
    exact_tail,
    exact_tail_multi,
    exact_tstat_tail,
    lambda_star,
    threshold_from_s,
)

BETAS_ENDPOINT = (1.1, 1.5, 2.0, 3.0)
S_TENTHS = tuple(k / 10.0 for k in range(1, 11))


def check(label: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {label}" + (f"  [{detail}]" if detail else ""))
    assert ok, f"{label} {detail}"


def test_01_endpoint_convention_exact_to_two_ulp():
    worst = 0.0
    for n in range(1, 21):
        target = -n * math.log(2.0)
        for beta in BETAS_ENDPOINT:
            evaluation = bound_bn(n, beta, endpoint_threshold(n, beta))
            assert evaluation.value == 2.0 ** (-n)
            worst = max(worst, abs(evaluation.log_value - target) / math.ulp(abs(target)))
    check(
        "endpoint value 2^-n for n in 1..20, four betas",
        worst <= 2.0,
        f"max log-space error {worst:.2f} ulp",
    )


def test_02_endpoint_tightness_bound_attained():
    ok = True
    for n in range(1, 21):
        for beta in BETAS_ENDPOINT:
            x = endpoint_threshold(n, beta)
            tail = exact_tail([1.0] * n, beta, x, RUNNING_MAX)
            ok = ok and tail.hits == 1 and tail.probability == bound_bn(n, beta, x).value
    check("exact endpoint tail attains the bound with zero gap", ok)


def test_03_numeric_optimizer_matches_closed_form():
    cells = [
        (n, beta, threshold_from_s(n, beta, s))
        for n in range(1, 65)
        for beta in (1.1, 1.5, 2.0, 3.0, 10.0)
        for s in (0.01, 0.1, 0.5, 0.9, 0.99)
    ]
    # One batched search; each cell's result equals bernstein_numeric's.
    rows = [(n, n ** (1.0 / beta), x, x / endpoint_threshold(n, beta)) for n, beta, x in cells]
    found, log_objective, _ = bounds._bernstein_search(*np.array(rows).T)
    worst_value = worst_lambda = 0.0
    for (n, beta, x), lam, log_value in zip(cells, found, log_objective):
        closed = bound_bn(n, beta, x).value
        worst_value = max(worst_value, abs(math.exp(log_value) - closed) / closed)
        worst_lambda = max(
            worst_lambda, abs(lam - lambda_star(n, beta, x)) / lambda_star(n, beta, x)
        )
    spot = bernstein_numeric(4, 2.0, 1.0)
    assert spot.objective_value == pytest.approx(16.0 / 27.0, rel=1e-9)
    assert spot.lambda_star == pytest.approx(math.log(3.0), rel=1e-6)
    check(
        "numeric minimization reproduces the closed form on 1600 cells",
        worst_value <= 1e-9 and worst_lambda <= 1e-6,
        f"objective {worst_value:.2e}, minimizer {worst_lambda:.2e}",
    )


def test_04_bound_increases_in_n_to_gaussian_limit():
    ns = (1, 4, 16, 10**2, 10**3, 10**4, 10**5)
    values = [bound_bn(n, 2.0, 1.0).value for n in ns]
    gap = abs(values[-1] - math.exp(-0.5))
    ok = (
        values[0] == 0.5
        and values[1] == pytest.approx(16.0 / 27.0, rel=1e-12)
        and all(a < b for a, b in zip(values, values[1:]))
        and gap < 1e-5
    )
    check("B_n(2,1) increasing with limit exp(-1/2)", ok, f"final gap {gap:.2e}")


def test_05_dominated_by_sub_gaussian_relaxation():
    ok = True
    for beta in (1.05, 1.1, 1.2, 1.5, 1.8, 2.0):
        for n in (1, 2, 4, 8, 16, 32, 64):
            for s in [k / 20.0 for k in range(1, 20)] + [0.99, 0.999, 1.0]:
                x = threshold_from_s(n, beta, s)
                ok = ok and bound_bn(n, beta, x).value <= bound_corollary(n, beta, x) + 1e-15
    check("bound_bn <= bound_corollary + 1e-15 for beta in (1, 2]", ok)


def _weighted_vectors(count: int) -> list[np.ndarray]:
    rng = np.random.default_rng(20260814)
    vectors = []
    for i in range(count):
        n = int(rng.integers(2, 15))
        mags = rng.uniform(0.1, 3.0, n)
        if i % 7 == 3:
            mags[0] = 0.0
        vectors.append(mags)
    return vectors


def test_06_exact_tails_never_exceed_the_bound():
    cells = 0
    ok = True
    for mags in [[1.0] * n for n in range(1, 17)] + _weighted_vectors(50):
        n = len(mags)
        for beta in (1.5, 2.0, 3.0):
            xs = [threshold_from_s(n, beta, s) for s in S_TENTHS]
            tails = exact_tail_multi(mags, beta, xs, RUNNING_MAX)
            for x, tail in zip(xs, tails):
                ok = ok and tail.probability <= bound_bn(n, beta, x).value
                cells += 1
    check("exact running-max tails below bound_bn", ok, f"{cells} cells")


def test_07_zero_probability_regime():
    evaluation = bound_bn(6, 2.0, 3.0)
    tail = exact_tail([1.0] * 6, 2.0, 3.0, RUNNING_MAX)
    mc_hits = [
        estimate_tail(spec, 6, 2.0, 3.0, RUNNING_MAX, 10**4, seed=13).hits
        for spec in (DistributionSpec.gaussian(), DistributionSpec.rademacher())
    ]
    ok = evaluation.value == 0.0 and tail.hits == 0 and mc_hits == [0, 0]
    check("beyond the endpoint: bound 0, oracle 0, Monte Carlo 0 of 10^4", ok)


def test_08_tstat_event_equals_self_normalized_event():
    violations = efron_check(DistributionSpec.gaussian(), 10, 1.5, 10**5, seed=77)
    violations += efron_check(DistributionSpec.pareto(1.2), 5, 0.7, 10**5, seed=77)
    for n in range(2, 11):
        violations += efron_check(DistributionSpec.rademacher(), n, 1.0, 10**5, seed=77)
    for n in range(2, 13):
        for x in (0.5, 1.5, 2.5):
            tail = exact_tstat_tail([1.0] * n, x)  # dual routes compared inside
            assert tail.degenerate == 2
    check(
        "t-statistic and self-normalized events agree",
        violations == 0,
        f"{violations} violations in 1.1M trials; enumerations agree for n <= 12",
    )


def test_09_monte_carlo_respects_the_bounds():
    est = estimate_tail(
        DistributionSpec.gaussian(), 20, 2.0, 2.0, FINAL_SUM, 10**6, seed=424242
    )
    margin = 3.0 * (est.ci_high - est.p_hat)
    ok = est.p_hat <= math.exp(-2.0) + margin
    detail = f"final sum p_hat {est.p_hat:.6f} vs exp(-2) {math.exp(-2.0):.6f}"
    for n in (5, 20):
        for x in (1.0, 2.0, 3.0):
            est = estimate_tail(
                DistributionSpec.gaussian(), n, 2.0, x, TSTAT, 10**5, seed=1000 + n
            )
            bound = bound_tstat(n, x).value
            ok = ok and est.p_hat <= bound + 3.0 * (est.ci_high - est.p_hat)
    check("estimates stay within bound + 3 half-widths", ok, detail)


def test_10_large_deviation_rate_is_negative_enough():
    points = empirical_log_rate(
        DistributionSpec.rademacher(), 2.0, 0.6, 0.5, (10, 20, 40), 10**6, seed=2026
    )
    rates_ok = all(point.log_rate_upper <= -0.18 for point in points)
    exact = exact_tail([1.0] * 10, 2.0, 0.6 * math.sqrt(10.0), RUNNING_MAX).probability
    first = points[0].estimate
    anchored = first.ci_low <= exact <= first.ci_high
    check(
        "normalized log-rates below -0.18 and anchored to the exact tail",
        rates_ok and anchored,
        "rates " + ", ".join(f"{p.log_rate_upper:.3f}" for p in points),
    )


def test_11_sweep_output_independent_of_thread_count():
    argv = [
        sys.executable, "-m", "selfnorm", "sweep",
        "--n", "4,10", "--beta", "1.5,2", "--s", "0.3,0.6,1.0",
        "--trials", "20000", "--seed", "9",
    ]
    outputs = []
    for threads in ("1", "2", "8"):
        proc = subprocess.run(
            argv,
            capture_output=True,
            env=dict(os.environ, SELFNORM_THREADS=threads),
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    check(
        "sweep CSV byte-identical for 1, 2 and 8 threads",
        outputs[0] == outputs[1] == outputs[2],
        f"{len(outputs[0])} bytes",
    )
