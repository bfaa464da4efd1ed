"""Sweep rows against the single-threshold oracle and estimator."""

import json
import math
import random
import re
import sys

import numpy as np
import pytest

from selfnorm import (
    FINAL_SUM,
    INTERIOR,
    MAX_ENUM_N,
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
    render_json,
    run_sweep,
    threshold_from_s,
)
from selfnorm import bounds, cli, simulate
from selfnorm.report import COLUMNS, SweepTable, _format_cell

S_VALUES = (0.1, 0.35, 0.6, 1.0)
# two_point(a) returns a Rademacher law; its cases keep their own test id.
TWO_POINT = DistributionSpec.two_point(2.5)


def law_id(dist) -> str:
    return "two_point" if dist is TWO_POINT else dist.kind


LAWS = [
    DistributionSpec.rademacher(),
    TWO_POINT,
    DistributionSpec.fixed([1.0, 0.5, 2.0, 0.0, 3.0, 1e-6]),
    DistributionSpec.gaussian(),
]


@pytest.mark.parametrize("dist", LAWS, ids=law_id)
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


@pytest.mark.parametrize("dist", LAWS, ids=law_id)
@pytest.mark.parametrize("stat", [RUNNING_MAX, FINAL_SUM])
def test_rows_equal_the_grid_split_by_beta(dist, stat):
    # One enumeration and one Monte Carlo stream per n serve every beta; the
    # rows must be those of one single-beta grid per beta, in (n, beta, s) order.
    n_values = (6,) if dist.kind == "fixed_magnitudes" else (9, 3, 6)
    betas = (3.0, 1.5, 2.0)
    grid = SweepGrid(n_values, betas, S_VALUES, stat, dist, trials=40000, seed=8)
    split = {
        beta: iter(run_sweep(SweepGrid(n_values, (beta,), S_VALUES, stat, dist, 40000, 8)))
        for beta in betas
    }
    want = [next(split[beta]) for n in n_values for beta in betas for s in S_VALUES]
    assert run_sweep(grid, workers=2) == want


def test_one_monte_carlo_stream_per_n(monkeypatch):
    draws = []
    draw = simulate._draw_values

    def counting(spec, n, seed, lo, hi):
        draws.append(n)
        return draw(spec, n, seed, lo, hi)

    monkeypatch.setattr(simulate, "_draw_values", counting)
    grid = SweepGrid((4, 6, 9), (1.5, 2.0, 3.0), S_VALUES, dist=DistributionSpec.gaussian(),
                     trials=1000)
    assert len(run_sweep(grid)) == 36
    assert draws == [4, 6, 9]


def test_one_bernstein_search_per_grid(monkeypatch):
    calls = []
    search = bounds._bernstein_search

    def counting(rows):
        calls.append([(n, beta, len(xs)) for n, beta, xs in rows])
        return search(rows)

    monkeypatch.setattr(bounds, "_bernstein_search", counting)
    grid = SweepGrid((4, 6, 9), (1.5, 2.0, 3.0), S_VALUES, dist=DistributionSpec.gaussian(),
                     trials=0)
    rows = run_sweep(grid)
    # One call for the whole grid: a row per (n, beta), each with the three
    # levels below the endpoint, and every interior cell filled from it.
    assert calls == [[(n, beta, 3) for n in (4, 6, 9) for beta in (1.5, 2.0, 3.0)]]
    assert sum(row["bernstein_numeric"] is not None for row in rows) == 27


def test_bernstein_column_equals_one_cell_calls():
    # One batched search fills the column for the whole grid; each entry must
    # not depend on the batch size or on the cell's lane in it.  The bound
    # columns come from bounds' grid evaluator and must equal the public
    # one-cell functions bit for bit: there is one evaluation route.
    grid = SweepGrid(
        (1, 2, 64, 4096, 10**4, 999_983, 10**6),
        (1.01, 1.5, 2.0, 10.0),
        (1e-300, 0.01, 0.5, 0.99, 1.0 - 1e-15, 1.0),
        dist=DistributionSpec.gaussian(),
        trials=0,
    )
    rows = run_sweep(grid)
    assert len(rows) == 168
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
    assert interior == 140  # every cell below s = 1


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


@pytest.mark.parametrize(
    "n_values, beta_values, message",
    [
        ((4, 4), (2.0,), "sweep n values must not repeat"),
        ((4, 8, 16, 8), (2.0,), "sweep n values must not repeat"),
        ((4,), (2.0, 2.0), "sweep beta values must not repeat"),
        ((4,), (1.5, 2, 3.0, 2.0), "sweep beta values must not repeat"),
    ],
)
def test_grid_rejects_repeated_axis_values(n_values, beta_values, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        SweepGrid(n_values, beta_values, (0.5,), trials=0)


@pytest.mark.parametrize("s_values", [(math.nan,), (0.5, math.nan), (math.nan, 0.5)])
def test_grid_rejects_nan_levels(s_values):
    with pytest.raises(ValueError, match=r"^sweep s values must lie in \(0, 1\]$"):
        SweepGrid((4,), (2.0,), s_values)


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_grid_rejects_an_empty_axis(axis):
    axes = [(4,), (2.0,), (0.5,)]
    axes[axis] = ()
    with pytest.raises(ValueError, match="^sweep grid axes must be non-empty$"):
        SweepGrid(*axes, trials=0)


class TestNumpyTypedGrid:
    """A grid keeps what its checks return, so numpy-typed settings render as
    the Python-typed ones do, in JSON too."""

    PYTHON = SweepGrid((4, 6), (1.5, 2.0), (0.5, 1.0), trials=200, seed=7)
    NUMPY = SweepGrid(
        (np.int64(4), np.int32(6)),
        (np.float64(1.5), np.float32(2.0)),
        (np.float64(0.5), np.int64(1)),
        trials=np.int64(200),
        seed=np.uint64(7),
    )

    def test_fields_are_python_numbers(self):
        assert self.NUMPY == self.PYTHON
        grid = self.NUMPY
        for value in (*grid.n_values, grid.trials, grid.seed):
            assert type(value) is int
        for value in (*grid.beta_values, *grid.s_values):
            assert type(value) is float

    def test_renders_the_same_bytes(self):
        rows, want = run_sweep(self.NUMPY), run_sweep(self.PYTHON)
        assert render_csv(rows) == render_csv(want)
        assert render_json(rows) == render_json(want)

    def test_integer_beta_and_level_render_as_floats(self):
        # As a CLI grid's do: the CLI parses both axes as floats.
        record = json.loads(render_json(run_sweep(SweepGrid((4,), (2,), (1,), trials=0))))[0]
        assert (record["beta"], record["s"]) == (2.0, 1.0)
        assert type(record["beta"]) is type(record["s"]) is float


class TestParseCsv:
    TEXT = render_csv(run_sweep(SweepGrid((4,), (2.0,), (0.5, 1.0), trials=0)))

    def test_round_trip(self):
        assert render_csv(parse_csv(self.TEXT)) == self.TEXT

    def test_rejects_a_foreign_header(self):
        text = self.TEXT.replace("mc_p_hat", "p_hat", 1)
        header = tuple(text.split("\n")[0].split(","))
        with pytest.raises(ValueError, match=f"^{re.escape(f'unexpected sweep header {header!r}')}$"):
            parse_csv(text)

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


def _per_cell_csv(rows):
    """The CSV text of one _format_cell call per cell."""
    lines = "".join(",".join(_format_cell(row[col]) for col in COLUMNS) + "\n" for row in rows)
    return ",".join(COLUMNS) + "\n" + lines


def _per_cell_json(rows):
    """The JSON text of json.dumps(indent=2) over cells rounded one at a time."""
    records = [
        {col: float(f"{row[col]:.12g}") if isinstance(row[col], float) else row[col]
         for col in COLUMNS}
        for row in rows
    ]
    return json.dumps(records, indent=2) + "\n"


def _hand_built_rows():
    template = dict.fromkeys(COLUMNS)
    template.update(n=4, beta=2.0, s=0.5, x=1.0, trials=0, seed=0)
    cells = [
        {"x": -0.0, "bound_bn": math.nan, "mc_p_hat": 0.25},
        {"x": math.inf, "bound_bn": -math.inf, "bound_corollary": 5e-324},
        {"x": sys.float_info.max, "bound_bn": np.float64(0.1)},
        {"x": 1 / 3, "bound_bn": 2.0, "seed": 2**64 + 5},
        {"bernstein_numeric": 0.3, "mc_p_hat": None, "mc_ci_low": np.float64(1e-300)},
    ]
    return [{**template, **cell} for cell in cells]


def _bool_rows():
    # parse_csv reads no booleans, so these rows are not round-tripped.
    rows = _hand_built_rows()
    for i, (row, flag) in enumerate(zip(rows, (None, None, True, False, None))):
        row["oracle_exact"], row["trials"] = flag, i % 2 == 0  # bool is not int here
    return rows


class TestRenderCsv:
    """render_csv and render_json format a column at a time; their text must
    be the per-cell rule's, byte for byte, and the CSV must read back through
    parse_csv."""

    CASES = {
        # s = 1.0 leaves the endpoint's numeric minimum None among floats.
        "trials0_endpoint": lambda: run_sweep(
            SweepGrid((4, 9, 40), (1.5, 2.0, 3.0), (0.05, 0.5, 0.999, 1.0), trials=0)
        ),
        "rademacher_oracle_mc": lambda: run_sweep(
            SweepGrid((3, 8), (1.5, 2.0), (0.2, 0.7, 1.0), trials=2000, seed=5)
        ),
        "hand_built": _hand_built_rows,
        "all_none": lambda: [dict.fromkeys(COLUMNS)] * 2,
        "empty": list,
        "bools": _bool_rows,
    }

    @pytest.mark.parametrize("case", CASES)
    def test_equals_the_per_cell_rule(self, case):
        rows = self.CASES[case]()
        text = render_csv(rows)
        assert text == _per_cell_csv(rows)
        assert text.count("\n") == len(rows) + 1
        assert render_csv(iter(rows)) == text  # any iterable of rows, read once

    @pytest.mark.parametrize("case", CASES)
    def test_json_equals_the_per_cell_rule(self, case):
        rows = self.CASES[case]()
        assert render_json(rows) == _per_cell_json(rows)
        assert render_json(iter(rows)) == render_json(rows)

    @pytest.mark.parametrize("case", [case for case in CASES if case != "bools"])
    def test_round_trips_through_parse_csv(self, case):
        text = render_csv(self.CASES[case]())
        parsed = parse_csv(text)
        assert render_csv(parsed) == _per_cell_csv(parsed) == text

    def test_cases_hold_the_mixed_columns(self):
        endpoint = self.CASES["trials0_endpoint"]()
        numeric = [row["bernstein_numeric"] for row in endpoint]
        assert None in numeric and any(isinstance(v, float) for v in numeric)
        filled = self.CASES["rademacher_oracle_mc"]()
        assert all(None not in (row["oracle_exact"], row["mc_p_hat"]) for row in filled)
        assert render_csv([]) == ",".join(COLUMNS) + "\n"

    def test_hand_built_cells(self):
        lines = render_csv(_bool_rows()).split("\n")[1:-1]
        cells = [dict(zip(COLUMNS, line.split(","))) for line in lines]
        big, third = "1.79769313486e+308", "0.333333333333"
        assert [c["x"] for c in cells] == ["-0", "inf", big, third, "1"]
        assert [c["bound_bn"] for c in cells] == ["nan", "-inf", "0.1", "2", ""]
        assert cells[1]["bound_corollary"] == "4.94065645841e-324"
        assert [c["oracle_exact"] for c in cells] == ["", "", "true", "false", ""]
        assert [c["trials"] for c in cells] == ["true", "false", "true", "false", "true"]
        assert cells[3]["seed"] == str(2**64 + 5)
        assert [c["mc_p_hat"] for c in cells] == ["0.25", "", "", "", ""]
        assert cells[4]["mc_ci_low"] == "1e-300"


# A fixed law of this length leaves the oracle column blank at every other n.
SWEEP_MAGS = (1.0, 0.5, 2.0, 0.0, 3.0)


def _random_sweep(seed: int, mags_path) -> tuple[list[str], SweepGrid]:
    """CLI arguments of a seeded random sweep, and the grid they describe."""
    rng = random.Random(seed)
    kind = ("rademacher", "gaussian", "fixed")[seed % 3]
    if kind == "rademacher":  # n on both sides of the enumeration budget
        n_values = [rng.choice((1, 2, 9, 29, MAX_ENUM_N)), rng.choice((MAX_ENUM_N + 1, 40, 1000))]
        dist, token = DistributionSpec.rademacher(), "rademacher"
    elif kind == "gaussian":
        n_values = rng.sample((1, 4, 64, 4096), 2)
        dist, token = DistributionSpec.gaussian(), "gaussian"
    else:  # the vector's length and one other n
        n_values = [len(SWEEP_MAGS), rng.choice((3, 8))]
        dist, token = DistributionSpec.fixed(SWEEP_MAGS), f"mags:{mags_path}"
    rng.shuffle(n_values)
    betas = rng.sample(("1.01", "1.5", "2", "3", "2.5", "10"), rng.randint(1, 3))
    levels = sorted({round(rng.uniform(0.01, 0.99), 3) for _ in range(rng.randint(1, 5))})
    levels.append(1.0)  # the endpoint: no numeric minimum there
    # A wrong-length fixed law cannot be simulated.
    trials = 0 if kind == "fixed" else rng.choice((0, 300))
    stat = rng.choice((RUNNING_MAX, FINAL_SUM))
    argv = ["sweep", "--n", ",".join(map(str, n_values)), "--beta", ",".join(betas),
            "--s", ",".join(map(repr, levels)), "--dist", token, "--trials", str(trials),
            "--seed", str(seed), "--stat", stat.replace("_", "-")]
    grid = SweepGrid(tuple(n_values), tuple(int(b) if b.isdigit() else float(b) for b in betas),
                     tuple(levels), stat, dist, trials, seed)
    return argv, grid


@pytest.mark.parametrize("seed", range(12))
def test_cli_sweep_equals_the_per_cell_rule(seed, tmp_path, capsys):
    mags = tmp_path / "mags.txt"
    mags.write_text("\n".join(map(repr, SWEEP_MAGS)) + "\n")
    argv, grid = _random_sweep(seed, mags)
    rows = run_sweep(grid)
    assert all(tuple(row) == COLUMNS for row in rows)
    assert SweepTable.from_rows(rows).rows() == rows
    numeric = [row["bernstein_numeric"] for row in rows]
    assert None in numeric and any(v is not None for v in numeric)
    if grid.dist.supports_exact():  # filled where n may be enumerated, blank elsewhere
        exact = [row["oracle_exact"] for row in rows]
        assert None in exact and any(v is not None for v in exact)
    for fmt, want in (("csv", _per_cell_csv(rows)), ("json", _per_cell_json(rows))):
        assert cli.main([*argv, "--format", fmt]) == 0
        out, err = capsys.readouterr()
        assert (out, err) == (want, "")
