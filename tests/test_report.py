"""Sweep rows against the single-threshold oracle and estimator."""

import math

import pytest

from selfnorm import (
    FINAL_SUM,
    RUNNING_MAX,
    DistributionSpec,
    SweepGrid,
    estimate_tail,
    exact_tail,
    run_sweep,
    threshold_from_s,
)

S_VALUES = (0.1, 0.35, 0.6, 1.0)
LAWS = [
    DistributionSpec.rademacher(),
    DistributionSpec.two_point(2.5),
    DistributionSpec.fixed([1.0, 0.5, 2.0, 0.0, 3.0, 1e-6]),
    DistributionSpec.gaussian(),
]


@pytest.mark.parametrize("dist", LAWS, ids=lambda d: d.kind)
@pytest.mark.parametrize("stat", [RUNNING_MAX, FINAL_SUM])
def test_rows_equal_single_threshold_calls(dist, stat):
    n_values = (6,) if dist.kind == "fixed_magnitudes" else (3, 6, 9)
    grid = SweepGrid(n_values, (1.5, 2.0), S_VALUES, stat, dist, trials=5000, seed=8)
    rows = iter(run_sweep(grid, workers=2))
    for n in n_values:
        for beta in grid.beta_values:
            for s in S_VALUES:
                row = next(rows)
                x = threshold_from_s(n, beta, s)
                assert (row["n"], row["beta"], row["s"], row["x"]) == (n, beta, s, x)
                if dist.supports_exact():
                    mags = dist.exact_magnitudes(n)
                    assert row["oracle_exact"] == exact_tail(mags, beta, x, stat).probability
                else:
                    assert row["oracle_exact"] is None
                est = estimate_tail(dist, n, beta, x, stat, 5000, 8)
                assert (row["mc_p_hat"], row["mc_ci_low"], row["mc_ci_high"]) == (
                    est.p_hat,
                    est.ci_low,
                    est.ci_high,
                )
    assert next(rows, None) is None


def test_mismatched_fixed_length_leaves_oracle_blank():
    dist = DistributionSpec.fixed([1.0, 2.0, 3.0])
    rows = run_sweep(SweepGrid((2, 3), (2.0,), (0.5,), RUNNING_MAX, dist, trials=0))
    assert rows[0]["oracle_exact"] is None
    assert rows[1]["oracle_exact"] == exact_tail([1.0, 2.0, 3.0], 2.0, rows[1]["x"]).probability
    with pytest.raises(ValueError, match="length 3"):
        run_sweep(SweepGrid((2, 3), (2.0,), (0.5,), RUNNING_MAX, dist, trials=10))


@pytest.mark.parametrize(
    "trials, message",
    [
        (False, "trials must be an integer, got False"),
        (True, "trials must be an integer, got True"),
        (2.5, "trials must be an integer, got 2.5"),
        (-1, "trials must be >= 0, got -1"),
    ],
)
def test_grid_rejects_bad_trials(trials, message):
    # A bool would otherwise land in the CSV trials column as "False".
    with pytest.raises(ValueError, match=f"^{message}$"):
        SweepGrid((4,), (2.0,), (0.5,), trials=trials)


@pytest.mark.parametrize("s_values", [(math.nan,), (0.5, math.nan), (math.nan, 0.5)])
def test_grid_rejects_nan_levels(s_values):
    with pytest.raises(ValueError, match=r"^sweep s values must lie in \(0, 1\]$"):
        SweepGrid((4,), (2.0,), s_values)
