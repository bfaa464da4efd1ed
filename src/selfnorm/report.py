"""Sweep tables comparing bounds, exact counts and Monte Carlo estimates.

A sweep walks a grid of (n, beta, s) cells, where s is the threshold
relative to the endpoint n^((beta-1)/beta), and reports every available
view of the same tail event side by side.  sweep_table holds the result
by column; run_sweep's records, the CSV and the JSON are all written from
it, and render_csv and render_json read rows back into one.  Rendering is
deterministic: floats at 12 significant digits, comma-separated CSV with
LF line endings, or a JSON array of flat records with the same keys, laid
out as json.dumps(indent=2) lays it out.  One column rule writes both; a
_Style holds what differs between them.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
from collections import namedtuple
from dataclasses import dataclass

from .bounds import (
    _bound_grid,
    _check_beta,
    _check_n,
    bound_bn,
    bound_corollary,
    bernstein_numeric,
)
from .oracle import FINAL_SUM, MAX_ENUM_N, RUNNING_MAX, exact_tail, exact_tail_multi
from .oracle import _resolve_workers
from .simulate import DistributionSpec, _check_seed, estimate_tail, estimate_tail_multi

# sweep_table calls only the multi-threshold forms and bounds' grid
# evaluator, and the CLI calls sweep_table, not run_sweep or render_csv.
# exact_tail, estimate_tail, bound_bn, bound_corollary and bernstein_numeric
# stay importable from here because bench/tracing.py wraps this module's
# names, and tests/test_bench_contract.py checks that they do (a traced
# sweep therefore books no bound evaluation).

__all__ = ["COLUMNS", "SweepGrid", "run_sweep", "render_csv", "render_json", "parse_csv"]

COLUMNS = (
    "n",
    "beta",
    "s",
    "x",
    "bound_bn",
    "bound_corollary",
    "bernstein_numeric",
    "oracle_exact",
    "mc_p_hat",
    "mc_ci_low",
    "mc_ci_high",
    "trials",
    "seed",
)


@dataclass(frozen=True)
class SweepGrid:
    """Grid of sweep cells plus the estimation settings shared by all cells.

    stat must be a sum statistic ("running_max" or "final_sum"); trials = 0
    turns the Monte Carlo columns off.  Each n and beta is checked here, once,
    and may not repeat.
    """

    n_values: tuple[int, ...]
    beta_values: tuple[float, ...]
    s_values: tuple[float, ...]
    stat: str = RUNNING_MAX
    dist: DistributionSpec = DistributionSpec.rademacher()
    trials: int = 10**6
    seed: int = 0

    def __post_init__(self) -> None:
        # Each field keeps what its check returns: Python ints and floats,
        # whatever numeric types were passed, so every row renders as JSON.
        if not self.n_values or not self.beta_values or not self.s_values:
            raise ValueError("sweep grid axes must be non-empty")
        for axis, check in (("n", _check_n), ("beta", _check_beta)):
            values = tuple(map(check, getattr(self, f"{axis}_values")))
            if len(set(values)) < len(values):
                raise ValueError(f"sweep {axis} values must not repeat")
            object.__setattr__(self, f"{axis}_values", values)
        if self.stat not in (RUNNING_MAX, FINAL_SUM):
            raise ValueError(
                f"sweep stat must be {RUNNING_MAX!r} or {FINAL_SUM!r}, got {self.stat!r}"
            )
        levels = tuple(map(float, self.s_values))
        if any(not 0.0 < s <= 1.0 for s in levels):
            raise ValueError("sweep s values must lie in (0, 1]")
        if any(a >= b for a, b in zip(levels, levels[1:])):
            raise ValueError("sweep s values must be sorted ascending")
        object.__setattr__(self, "s_values", levels)
        object.__setattr__(self, "trials", _check_n(self.trials, minimum=0, name="trials"))
        object.__setattr__(self, "seed", _check_seed(self.seed))


def _format_cell(value) -> str:
    """Text of a CSV cell or CLI value: None empty, floats at 12 digits."""
    if isinstance(value, float):  # first: most sweep cells are floats
        return f"{value:.12g}"
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _json_cell(value) -> str:
    """Text of a JSON cell: floats rounded to 12 significant digits."""
    return json.dumps(float(f"{value:.12g}") if isinstance(value, float) else value)


def _json_floats(values) -> tuple[str, list] | None:
    """A JSON float column's "%r" arguments (json writes repr), or None at a NaN or inf."""
    rounded = [float("%.12g" % v) for v in values]
    return ("%r", rounded) if all(map(math.isfinite, rounded)) else None


# How a record is laid out: the text of a cell, a column of Python floats
# as template text and arguments (None: cell by cell; "%.12g" % v is
# f"{v:.12g}"), the format of a named field, and the text between, before
# and after the fields.
_Style = namedtuple("_Style", "cell floats field sep head tail")
_CSV = _Style(_format_cell, lambda values: ("%.12g", values), "{text}", ",", "", "\n")
_JSON = _Style(_json_cell, _json_floats, '    "{col}": {text}', ",\n", "  {\n", "\n  }")


def _column(values, style) -> tuple[str, list | None]:
    """A column's template text and per-row arguments (None: the text is the
    cell of every row)."""
    if values.count(None) == len(values):
        return style.cell(None), None
    kinds = set(map(type, values))
    if kinds == {int}:
        return "%d", values
    if kinds == {float} and (floats := style.floats(values)) is not None:
        return floats
    # np.float64, bool, None among floats: the cell rule
    return "%s", list(map(style.cell, values))


@dataclass(frozen=True)
class SweepTable:
    """A sweep's cells by column, the one source every sweep output is
    written from (run_sweep's records, CSV and JSON).

    axes holds the grid's (n, beta, s) values when the rows run over their
    product in that order, else None.  Every other column is either in
    columns, one value per row, or in shared, one value for every row.  A
    column of None alone, like a shared one, is literal text in the writers'
    row template.
    """

    size: int
    axes: tuple[tuple, tuple, tuple] | None
    columns: dict[str, list | tuple]
    shared: dict[str, object]

    @classmethod
    def from_rows(cls, rows) -> "SweepTable":
        """The table of flat records keyed by COLUMNS (any iterable, read once)."""
        rows = list(rows)
        return cls(len(rows), None, {col: [row[col] for row in rows] for col in COLUMNS}, {})

    def rows(self) -> list[dict]:
        """One flat record per row, keyed by COLUMNS in order."""
        named = {col: itertools.repeat(value, self.size) for col, value in self.shared.items()}
        named.update(self.columns)
        if self.axes is not None:
            named.update(zip(COLUMNS, zip(*itertools.product(*self.axes))))
        return [dict(zip(COLUMNS, row)) for row in zip(*map(named.get, COLUMNS))]

    def csv(self) -> str:
        """Fixed header, '.' decimals, LF line endings; one % per row."""
        return ",".join(COLUMNS) + "\n" + "".join(self._records(_CSV))

    def json(self) -> str:
        """A JSON array of flat records, as json.dumps(indent=2) lays it out."""
        records = self._records(_JSON)
        return "[\n" + ",\n".join(records) + "\n]\n" if records else "[]\n"

    def _records(self, style) -> list[str]:
        """One text per row from one template: each distinct axis value and
        each shared value is formatted once, and only the per-row columns
        are formatted per row."""
        fields, args = [], []
        if self.axes is not None:
            texts = ([style.field.format(col=col, text=style.cell(v)) for v in axis]
                     for col, axis in zip(COLUMNS, self.axes))
            args.append(list(map(style.sep.join, itertools.product(*texts))))
            fields.append("%s")
        for col in COLUMNS[3 if self.axes is not None else 0:]:
            if col in self.shared:
                text, values = style.cell(self.shared[col]).replace("%", "%%"), None
            else:
                text, values = _column(self.columns[col], style)
            fields.append(style.field.format(col=col, text=text))
            if values is not None:
                args.append(values)
        template = style.head + style.sep.join(fields) + style.tail
        if not args:
            return [template % ()] * self.size
        return [template % row for row in zip(*args)]


def sweep_table(grid: SweepGrid, workers: int | None = None) -> SweepTable:
    """Evaluate every grid cell into one columnar table.

    Each n runs one enumeration and one Monte Carlo stream for all its beta
    and s values; one bounds._bound_grid call fills the bound columns.
    Unavailable entries (enumeration over the budget, random-magnitude
    laws, endpoint cells for the numeric minimizer, Monte Carlo turned off)
    are None.  The worker count is resolved before any cell, so a bad
    SELFNORM_THREADS fails even when no kernel would run.
    """
    workers = _resolve_workers(workers)
    xs, bns, corollary, numeric = _bound_grid(grid.n_values, grid.beta_values, grid.s_values)
    betas = [beta for beta in grid.beta_values for _ in grid.s_values]  # one n's cells
    exact, estimates = [None] * len(xs), []
    for i, n in enumerate(grid.n_values):
        span = slice(i * len(betas), (i + 1) * len(betas))
        mags = None
        if grid.dist.supports_exact() and n <= MAX_ENUM_N:
            # A fixed magnitude vector of another length leaves the column blank.
            with contextlib.suppress(ValueError):
                mags = grid.dist.exact_magnitudes(n)
        if mags is not None:
            tails = exact_tail_multi(mags, betas, xs[span], grid.stat, workers)
            exact[span] = [tail.probability for tail in tails]
        if grid.trials > 0:
            estimates += estimate_tail_multi(
                grid.dist, n, betas, xs[span], grid.stat, grid.trials, grid.seed, workers
            )
    mc = [(est.p_hat, est.ci_low, est.ci_high) for est in estimates] or [(None,) * 3] * len(xs)
    p_hat, ci_low, ci_high = zip(*mc)
    columns = {"x": xs, "bound_bn": bns, "bound_corollary": corollary,
               "bernstein_numeric": numeric, "oracle_exact": exact,
               "mc_p_hat": p_hat, "mc_ci_low": ci_low, "mc_ci_high": ci_high}
    axes = (grid.n_values, grid.beta_values, grid.s_values)
    return SweepTable(len(xs), axes, columns, {"trials": grid.trials, "seed": grid.seed})


def run_sweep(grid: SweepGrid, workers: int | None = None) -> list[dict]:
    """Evaluate every grid cell; returns one flat record per cell (see sweep_table)."""
    return sweep_table(grid, workers).rows()


def render_csv(rows: list[dict]) -> str:
    """Rows as CSV text: fixed header, '.' decimals, LF line endings."""
    return SweepTable.from_rows(rows).csv()


def render_json(rows: list[dict]) -> str:
    """Rows as a JSON array of flat records, floats at 12 significant digits."""
    return SweepTable.from_rows(rows).json()


def parse_csv(text: str) -> list[dict]:
    """Inverse of render_csv; empty cells become None."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ValueError("empty sweep CSV")
    header = tuple(lines[0].split(","))
    if header != COLUMNS:
        raise ValueError(f"unexpected sweep header {header!r}")
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(COLUMNS):
            raise ValueError(f"line {number}: {len(cells)} cells, expected {len(COLUMNS)}")
        row = {}
        for col, cell in zip(COLUMNS, cells):
            if cell == "":
                row[col] = None
            elif col in ("n", "trials", "seed"):
                row[col] = int(cell)
            else:
                row[col] = float(cell)
        rows.append(row)
    return rows
