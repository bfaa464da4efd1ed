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
- "batched": one call of bounds._bernstein_search over all the cells, from
  their (n, beta, x) triples, on either signature of the search (a cell
  iterable it checks, or the checked arrays n, n^(1/beta), x and s; the
  layout of those arrays is timed with the search);
- "bound_bn": a loop of one-cell bound_bn calls;
- "run_sweep": one run_sweep(trials=0) over the whole table, which fills
  every bound column.

The first 3,200 cells are one bound_table sweep call; all 25,600 are the
whole table.  The per-cell search loop runs at 25,600 cells only in a tree
without the batched search, where it is the path a sweep takes.  Search
records carry the largest relative gap between the numeric minimum and
bound_bn over the cells whose bound does not underflow.  The bound_bn and
run_sweep records carry a sha256 of their output (the values and the CSV,
at 12 significant digits), and the script exits 1 when one differs from
the same record under another label.  The parser, the timing loop and the
writer are shared in record.py.
"""

from __future__ import annotations

import hashlib
import inspect
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


def _per_cell(sn, cells) -> list[float]:
    return [sn.bernstein_numeric(*cell).objective_value for cell in cells]


def _batched(sn, cells) -> list[float]:
    import numpy as np

    search = sn.bounds._bernstein_search
    if len(inspect.signature(search).parameters) == 1:
        _, log_objective, _ = search(cells)
    else:
        rows = [(n, n ** (1.0 / b), x, x / sn.endpoint_threshold(n, b)) for n, b, x in cells]
        _, log_objective, _ = search(*np.array(rows).T)
    return [math.exp(v) for v in log_objective]


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
    gap = 0.0
    for (n, beta, x), value in zip(cells, timing[3]):
        closed = sn.bound_bn(n, beta, x).value
        if closed > 0.0:
            gap = max(gap, abs(value - closed) / closed)
    return _record(mode, len(cells), timing, max_rel_gap_to_bound_bn=gap)


def _bound_bn_record(sn, cells) -> dict:
    timing = record.timed(lambda: _bound_bn(sn, cells), MIN_SECONDS)
    text = "\n".join(f"{v:.12g}" for v in timing[3])
    return _record("bound_bn", len(cells), timing, digest=_digest(text))


def _sweep_record(sn) -> dict:
    grid = sn.SweepGrid(TABLE_N, BETAS, LEVELS, dist=sn.DistributionSpec.gaussian(), trials=0)
    timing = record.timed(lambda: sn.run_sweep(grid), MIN_SECONDS)
    return _record("run_sweep", len(timing[3]), timing, digest=_digest(sn.render_csv(timing[3])))


def main(argv: list[str] | None = None) -> int:
    args = record.parse_args(__doc__, "BENCH_bernstein.json", argv)
    import selfnorm as sn

    cells = _cells(sn)
    batched = hasattr(sn.bounds, "_bernstein_search")
    records = [_search_record(sn, "per_cell", _per_cell, cells[: SIZES[0]])]
    if batched:
        records += [_search_record(sn, "batched", _batched, cells[:size]) for size in SIZES]
    else:
        records.append(_search_record(sn, "per_cell", _per_cell, cells[: SIZES[1]]))
    records += [_bound_bn_record(sn, cells), _sweep_record(sn)]
    for rec in records:
        gap = rec.get("max_rel_gap_to_bound_bn")
        print(
            f"{rec['mode']:<9} cells={rec['cells']:<6} {rec['best_s']:9.4f} s "
            f"{rec['cells_per_s']:11.0f} cells/s" + ("" if gap is None else f"  gap={gap:.2e}")
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
