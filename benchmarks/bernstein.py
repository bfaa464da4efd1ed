"""Throughput of the bound layer, in cells per second.

Times the numeric exponential-moment search, one-cell bound_bn calls and a
trials-0 sweep over a bound-table grid (n = 32, 64, ..., 4096, four betas,
50 levels s in (0, 1), every cell interior) and stores the rates under a
label in BENCH_bernstein.json, with the core count, the numpy version, the
git sha of the measured source tree and a sha256 of its selfnorm sources.
Other labels in the file are kept, so two source trees can be recorded side
by side:

    python benchmarks/bernstein.py --label change
    python benchmarks/bernstein.py --label parent --src /path/to/parent/src

Modes:

- "per_cell": a loop of one-cell bernstein_numeric calls;
- "batched": one call of bounds._bernstein_search over all the cells, one
  row of (n, beta, thresholds) per (n, beta);
- "bound_bn": a loop of one-cell bound_bn calls;
- "run_sweep": one run_sweep(trials=0) over the whole table, which fills
  every bound column;
- "render_csv": one render_csv of that sweep's rows (one row per cell).

The first 3,200 cells are one bound_table sweep call; all 25,600 are the
whole table.  Search records carry the largest relative gap between the
numeric minimum and bound_bn over the cells whose bound does not underflow,
and the mean and largest number of search steps per cell (a traced bench
run does not book the bound layer's work, so this is where it shows).
The bound_bn, run_sweep and render_csv records carry a sha256 of their
output (the values and the CSV, at 12 significant digits), and the script
exits 1 when one differs from the same record under another label.  The
parser, the timing loop and the writer are shared in record.py.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import sys

import record

TABLE_N = range(32, 4097, 32)
BETAS = (1.25, 1.5, 2.0, 3.0)
LEVELS = tuple((k - 0.5) / 50 for k in range(1, 51))
SIZES = (3_200, 25_600)
# Each record repeats its pass for at least this long.
MIN_SECONDS = 1.0


def _cells(sn) -> list[tuple[int, float, float]]:
    return [(n, b, sn.threshold_from_s(n, b, s)) for n in TABLE_N for b in BETAS for s in LEVELS]


def _per_cell(sn, cells) -> tuple[list[float], list[int]]:
    results = [sn.bernstein_numeric(*cell) for cell in cells]
    return [r.objective_value for r in results], [r.iterations for r in results]


def _batched(sn, cells) -> tuple[list[float], list[int]]:
    groups = itertools.groupby(cells, key=lambda cell: cell[:2])
    rows = [(n, b, [x for *_, x in row]) for (n, b), row in groups]
    _, log_objective, iterations = sn.bounds._bernstein_search(rows)
    return [math.exp(v) for v in log_objective], iterations.tolist()


def _bound_bn(sn, cells) -> list[float]:
    return [sn.bound_bn(*cell).value for cell in cells]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _record(mode: str, cells: int, timing, **fields) -> dict:
    best, median, calls, _ = timing
    return {
        "mode": mode,
        "cells": cells,
        "calls": calls,
        "best_s": best,
        "median_s": median,
        "cells_per_s": cells / best,
        **fields,
    }


def _search_record(sn, mode: str, run, cells) -> dict:
    timing = record.timed(lambda: run(sn, cells), MIN_SECONDS)
    values, steps = timing[3]
    gap = 0.0
    for (n, beta, x), value in zip(cells, values):
        closed = sn.bound_bn(n, beta, x).value
        if closed > 0.0:
            gap = max(gap, abs(value - closed) / closed)
    return _record(
        mode,
        len(cells),
        timing,
        max_rel_gap_to_bound_bn=gap,
        mean_steps=sum(steps) / len(steps),
        max_steps=max(steps),
    )


def _bound_bn_record(sn, cells) -> dict:
    timing = record.timed(lambda: _bound_bn(sn, cells), MIN_SECONDS)
    text = "\n".join(f"{v:.12g}" for v in timing[3])
    return _record("bound_bn", len(cells), timing, digest=_digest(text))


def _sweep_records(sn) -> list[dict]:
    grid = sn.SweepGrid(TABLE_N, BETAS, LEVELS, dist=sn.DistributionSpec.gaussian(), trials=0)
    sweep = record.timed(lambda: sn.run_sweep(grid), MIN_SECONDS)
    rows = sweep[3]
    render = record.timed(lambda: sn.render_csv(rows), MIN_SECONDS)
    digest = _digest(render[3])
    return [
        _record("run_sweep", len(rows), sweep, digest=digest),
        _record("render_csv", len(rows), render, digest=digest),
    ]


def main(argv: list[str] | None = None) -> int:
    args = record.parse_args(__doc__, "BENCH_bernstein.json", argv)
    import selfnorm as sn

    cells = _cells(sn)
    records = [_search_record(sn, "per_cell", _per_cell, cells[: SIZES[0]])]
    records += [_search_record(sn, "batched", _batched, cells[:size]) for size in SIZES]
    records += [_bound_bn_record(sn, cells), *_sweep_records(sn)]
    for rec in records:
        gap = rec.get("max_rel_gap_to_bound_bn")
        search = "" if gap is None else (
            f"  gap={gap:.2e} steps={rec['mean_steps']:.1f} (max {rec['max_steps']})"
        )
        print(
            f"{rec['mode']:<9} cells={rec['cells']:<6} {rec['best_s']:9.4f} s "
            f"{rec['cells_per_s']:11.0f} cells/s" + search
        )
    return record.write(
        args,
        "cells/s, fastest pass, one thread",
        records,
        key=lambda rec: (rec["mode"], rec["cells"]),
        output=lambda rec: rec.get("digest"),
    )


if __name__ == "__main__":
    sys.exit(main())
