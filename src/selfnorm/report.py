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
import math
from dataclasses import dataclass

import numpy as np

from .bounds import (
    _bernstein_search,
    _bn_cells,
    _check_beta,
    _check_n,
    _corollary_log,
    _endpoint,
    _libm,
    bound_bn,
    bound_corollary,
    bernstein_numeric,
)
from .oracle import FINAL_SUM, MAX_ENUM_N, RUNNING_MAX, exact_tail, exact_tail_multi
from .oracle import _resolve_workers
from .simulate import DistributionSpec, _check_seed, estimate_tail, estimate_tail_multi

# run_sweep calls only the multi-threshold forms and the array evaluators;
# exact_tail, estimate_tail, bound_bn, bound_corollary and bernstein_numeric
# stay importable from here because bench/tracing.py wraps this module's
# names (a traced sweep therefore books no bound evaluation).

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
    turns the Monte Carlo columns off.  Each n and beta is checked here, once.
    """

    n_values: tuple[int, ...]
    beta_values: tuple[float, ...]
    s_values: tuple[float, ...]
    stat: str = RUNNING_MAX
    dist: DistributionSpec = DistributionSpec.rademacher()
    trials: int = 10**6
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.n_values or not self.beta_values or not self.s_values:
            raise ValueError("sweep grid axes must be non-empty")
        for n in self.n_values:
            _check_n(n)
        for beta in self.beta_values:
            _check_beta(beta)
        if self.stat not in (RUNNING_MAX, FINAL_SUM):
            raise ValueError(
                f"sweep stat must be {RUNNING_MAX!r} or {FINAL_SUM!r}, got {self.stat!r}"
            )
        if any(not 0.0 < s <= 1.0 for s in self.s_values):
            raise ValueError("sweep s values must lie in (0, 1]")
        if any(a >= b for a, b in zip(self.s_values, self.s_values[1:])):
            raise ValueError("sweep s values must be sorted ascending")
        _check_n(self.trials, minimum=0, name="trials")
        _check_seed(self.seed)


def run_sweep(grid: SweepGrid, workers: int | None = None) -> list[dict]:
    """Evaluate every grid cell; returns one flat record per cell.

    Each (n, beta) pair runs one enumeration and one Monte Carlo stream for
    all its s values, and one batched search fills the numeric minimization
    of every interior cell of the grid.  Unavailable entries (enumeration
    over the budget, random-magnitude laws, endpoint cells for the numeric
    minimizer, Monte Carlo turned off) are None.  The worker count is resolved before any
    cell, so a bad SELFNORM_THREADS fails even when no kernel would run.
    """
    workers = _resolve_workers(workers)
    dist = grid.dist
    levels = np.asarray(grid.s_values, dtype=float)
    blank = [None] * len(grid.s_values)
    rows = []
    interior = []  # per row, whether the numeric search fills it (s < 1)
    search = []  # the search's n, n^(1/beta), x and s of those rows, per (n, beta)
    for n in grid.n_values:
        mags = None
        if dist.supports_exact() and n <= MAX_ENUM_N:
            # A fixed magnitude vector of another length leaves the column blank.
            with contextlib.suppress(ValueError):
                mags = dist.exact_magnitudes(n)
        for beta in grid.beta_values:
            b = float(beta)
            x = levels * _endpoint(n, b)  # the float multiply of threshold_from_s
            s, _, bn = _bn_cells(n, b, x)
            below = s < 1.0
            k = int(below.sum())
            n1b = float(n) ** (1.0 / b)
            search.append([np.full(k, float(n)), np.full(k, n1b), x[below], s[below]])
            interior += below.tolist()
            xs = x.tolist()
            exact = blank
            if mags is not None:
                tails = exact_tail_multi(mags, beta, xs, grid.stat, workers)
                exact = [tail.probability for tail in tails]
            estimates = blank
            if grid.trials > 0:
                estimates = estimate_tail_multi(
                    dist, n, beta, xs, grid.stat, grid.trials, grid.seed, workers
                )
            corollary = _libm(math.exp, _corollary_log(n, b, x)).tolist()
            for level, threshold, bound, cor, probability, est in zip(
                grid.s_values, xs, bn.tolist(), corollary, exact, estimates
            ):
                rows.append({
                    "n": n,
                    "beta": beta,
                    "s": level,
                    "x": threshold,
                    "bound_bn": bound,
                    "bound_corollary": cor,
                    "bernstein_numeric": None,
                    "oracle_exact": probability,
                    "mc_p_hat": None if est is None else est.p_hat,
                    "mc_ci_low": None if est is None else est.ci_low,
                    "mc_ci_high": None if est is None else est.ci_high,
                    "trials": grid.trials,
                    "seed": grid.seed,
                })
    _, log_objective, _ = _bernstein_search(*np.concatenate(search, axis=1))
    for row, value in zip(itertools.compress(rows, interior), log_objective):
        row["bernstein_numeric"] = math.exp(value)  # bernstein_numeric's objective_value
    return rows


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return f"{value:.12g}"


def render_csv(rows: list[dict]) -> str:
    """Rows as CSV text: fixed header, '.' decimals, LF line endings."""
    lines = [",".join(COLUMNS)]
    for row in rows:
        lines.append(",".join(_format_cell(row[col]) for col in COLUMNS))
    return "\n".join(lines) + "\n"


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
