"""Sweep rows against the single-threshold oracle and estimator."""

import math
import re

import pytest

from selfnorm import (
    FINAL_SUM,
    INTERIOR,
    RUNNING_MAX,
    DistributionSpec,
    SweepGrid,
    bernstein_numeric,
    bound_bn,
    bound_corollary,
    estimate_tail,
    exact_tail,
    parse_csv,
    render_csv,
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


def test_bernstein_column_equals_one_cell_calls():
    # One batched search fills the column for the whole grid; each entry must
    # not depend on the batch size or on the cell's lane in it.  The bound
    # columns come from one array call per (n, beta) and must equal the
    # public one-cell functions bit for bit: there is one evaluation route.
    grid = SweepGrid(
        (1, 2, 64, 4096, 10**4),
        (1.01, 1.5, 2.0, 10.0),
        (1e-300, 0.01, 0.5, 0.99, 1.0 - 1e-15, 1.0),
        dist=DistributionSpec.gaussian(),
        trials=0,
    )
    rows = run_sweep(grid)
    assert len(rows) == 120
    interior = 0
    for row in rows:
        n, beta, x = row["n"], row["beta"], row["x"]
        assert x == threshold_from_s(n, beta, row["s"])
        assert row["bound_bn"] == bound_bn(n, beta, x).value
        assert row["bound_corollary"] == bound_corollary(n, beta, x)
        if bound_bn(n, beta, x).regime == INTERIOR:
            assert row["bernstein_numeric"] == bernstein_numeric(n, beta, x).objective_value
            interior += 1
        else:
            assert row["bernstein_numeric"] is None
    assert interior == 100  # every cell below s = 1


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


@pytest.mark.parametrize(
    "n_values, beta_values, message",
    [
        ((4, 0), (2.0,), "n must be >= 1, got 0"),
        ((True,), (2.0,), "n must be an integer, got True"),
        ((4, 2.5), (2.0,), "n must be an integer, got 2.5"),
        ((4,), (2.0, 1.0), "beta must be a finite real > 1, got 1.0"),
        ((4,), (math.nan,), "beta must be a finite real > 1, got nan"),
        ((4,), (2.0, math.inf), "beta must be a finite real > 1, got inf"),
    ],
    ids=["n0", "n_bool", "n_float", "beta1", "beta_nan", "beta_inf"],
)
def test_grid_rejects_bad_axis_values(n_values, beta_values, message):
    # Each axis value is checked once, when the grid is built, with the
    # message the one-cell bound functions give.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SweepGrid(n_values, beta_values, (0.5,), trials=0)


@pytest.mark.parametrize("s_values", [(math.nan,), (0.5, math.nan), (math.nan, 0.5)])
def test_grid_rejects_nan_levels(s_values):
    with pytest.raises(ValueError, match=r"^sweep s values must lie in \(0, 1\]$"):
        SweepGrid((4,), (2.0,), s_values)


class TestParseCsv:
    TEXT = render_csv(run_sweep(SweepGrid((4,), (2.0,), (0.5, 1.0), trials=0)))

    def test_round_trip(self):
        assert render_csv(parse_csv(self.TEXT)) == self.TEXT

    def test_rejects_empty_text(self):
        # An IndexError before the check.
        with pytest.raises(ValueError, match="^empty sweep CSV$"):
            parse_csv("")

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda cells: cells[:-1], "line 3: 12 cells, expected 13"),
            (lambda cells: cells + ["7"], "line 3: 14 cells, expected 13"),
            (lambda cells: [""], "line 3: 1 cells, expected 13"),
        ],
        ids=["short", "long", "blank"],
    )
    def test_rejects_a_row_of_another_width(self, edit, message):
        lines = self.TEXT.split("\n")
        lines[2] = ",".join(edit(lines[2].split(",")))
        with pytest.raises(ValueError, match=f"^{message}$"):
            parse_csv("\n".join(lines))
