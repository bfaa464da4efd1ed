"""Sweep tables comparing bounds, exact counts and Monte Carlo estimates.

A sweep walks a grid of (n, beta, s) cells, where s is the threshold
relative to the endpoint n^((beta-1)/beta), and reports every available
view of the same tail event side by side.  Rendering is deterministic:
floats at 12 significant digits, comma-separated CSV with LF line endings,
or a JSON array of flat records with the same keys.
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass

from .bounds import (
    INTERIOR,
    _check_n,
    bound_bn,
    bound_corollary,
    bernstein_numeric,
    threshold_from_s,
)
from .oracle import FINAL_SUM, MAX_ENUM_N, RUNNING_MAX, exact_tail, exact_tail_multi
from .oracle import _resolve_workers
from .simulate import DistributionSpec, _check_seed, estimate_tail, estimate_tail_multi

# run_sweep calls only the multi-threshold forms; exact_tail and
# estimate_tail stay importable from here because bench/tracing.py wraps
# this module's names.

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
    turns the Monte Carlo columns off.
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
    all its s values.  Unavailable entries (enumeration over the budget,
    random-magnitude laws, endpoint cells for the numeric minimizer, Monte
    Carlo turned off) are None.  The worker count is resolved before any
    cell, so a bad SELFNORM_THREADS fails even when no kernel would run.
    """
    workers = _resolve_workers(workers)
    dist = grid.dist
    blank = [None] * len(grid.s_values)
    rows = []
    for n in grid.n_values:
        mags = None
        if dist.supports_exact() and n <= MAX_ENUM_N:
            # A fixed magnitude vector of another length leaves the column blank.
            with contextlib.suppress(ValueError):
                mags = dist.exact_magnitudes(n)
        for beta in grid.beta_values:
            xs = [threshold_from_s(n, beta, s) for s in grid.s_values]
            exact = blank
            if mags is not None:
                tails = exact_tail_multi(mags, beta, xs, grid.stat, workers)
                exact = [tail.probability for tail in tails]
            estimates = blank
            if grid.trials > 0:
                estimates = estimate_tail_multi(
                    dist, n, beta, xs, grid.stat, grid.trials, grid.seed, workers
                )
            for s, x, probability, est in zip(grid.s_values, xs, exact, estimates):
                evaluation = bound_bn(n, beta, x)
                rows.append(
                    {
                        "n": n,
                        "beta": beta,
                        "s": s,
                        "x": x,
                        "bound_bn": evaluation.value,
                        "bound_corollary": bound_corollary(n, beta, x),
                        "bernstein_numeric": (
                            bernstein_numeric(n, beta, x).objective_value
                            if evaluation.regime == INTERIOR
                            else None
                        ),
                        "oracle_exact": probability,
                        "mc_p_hat": None if est is None else est.p_hat,
                        "mc_ci_low": None if est is None else est.ci_low,
                        "mc_ci_high": None if est is None else est.ci_high,
                        "trials": grid.trials,
                        "seed": grid.seed,
                    }
                )
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
    header = tuple(lines[0].split(","))
    if header != COLUMNS:
        raise ValueError(f"unexpected sweep header {header!r}")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
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
