"""Sweep tables comparing bounds, exact counts and Monte Carlo estimates.

A sweep walks a grid of (n, beta, s) cells, where s is the threshold
relative to the endpoint n^((beta-1)/beta), and reports every available
view of the same tail event side by side.  Rendering is deterministic:
floats at 12 significant digits, comma-separated CSV with LF line endings,
or a JSON array of flat records with the same keys.
"""

from __future__ import annotations

import contextlib
import itertools
import json
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

# run_sweep calls only the multi-threshold forms and bounds' grid evaluator.
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


def run_sweep(grid: SweepGrid, workers: int | None = None) -> list[dict]:
    """Evaluate every grid cell; returns one flat record per cell.

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
    exact, estimates = [None] * len(xs), [None] * len(xs)
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
            estimates[span] = estimate_tail_multi(
                grid.dist, n, betas, xs[span], grid.stat, grid.trials, grid.seed, workers
            )
    return [
        {"n": n, "beta": beta, "s": level, "x": threshold, "bound_bn": bound,
         "bound_corollary": cor, "bernstein_numeric": minimum, "oracle_exact": probability,
         "mc_p_hat": None if est is None else est.p_hat,
         "mc_ci_low": None if est is None else est.ci_low,
         "mc_ci_high": None if est is None else est.ci_high,
         "trials": grid.trials, "seed": grid.seed}
        for (n, beta, level), threshold, bound, cor, minimum, probability, est in zip(
            itertools.product(grid.n_values, grid.beta_values, grid.s_values),
            xs, bns, corollary, numeric, exact, estimates,
        )
    ]


def _format_cell(value) -> str:
    """Text of a CSV cell or CLI value: None empty, floats at 12 digits."""
    if isinstance(value, float):  # first: most sweep cells are floats
        return f"{value:.12g}"
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def render_csv(rows: list[dict]) -> str:
    """Rows as CSV text: fixed header, '.' decimals, LF line endings; one % per row."""
    rows, formats, columns = list(rows), [], []  # rows are read once per column
    for col in COLUMNS:
        values = [row[col] for row in rows]
        kinds = set(map(type, values))
        if kinds == {float} or kinds == {int}:  # "%.12g" % v is f"{v:.12g}"
            formats.append("%.12g" if float in kinds else "%d")
        elif kinds == {type(None)}:
            formats.append("")
            continue
        else:  # np.float64, bool, None among floats: _format_cell, the cell rule
            formats.append("%s")
            values = list(map(_format_cell, values))
        columns.append(values)
    template = ",".join(formats) + "\n"
    cells = zip(*columns) if columns else [()] * len(rows)
    return ",".join(COLUMNS) + "\n" + "".join(template % row for row in cells)


def render_json(rows: list[dict]) -> str:
    """Rows as a JSON array of flat records, floats at 12 significant digits."""
    out = []
    for row in rows:
        rec = {}
        for col in COLUMNS:
            value = row[col]
            if isinstance(value, float):
                value = float(f"{value:.12g}")
            rec[col] = value
        out.append(rec)
    return json.dumps(out, indent=2) + "\n"


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
