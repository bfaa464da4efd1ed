"""Throughput of the numeric exponential-moment search, in cells per second.

Times bernstein_numeric over a bound-table grid (n = 32, 64, ..., 4096,
four betas, 50 levels s in (0, 1), every cell interior) and stores the
rates under a label in BENCH_bernstein.json, with the core count, the numpy
version, the git sha of the measured source tree and a sha256 of its
selfnorm sources.  Other labels in the file are kept, so two source trees
can be recorded side by side:

    python benchmarks/bernstein.py --label change
    python benchmarks/bernstein.py --label parent --src /path/to/parent/src

Two modes are measured where the tree has them: "per_cell", a loop of
one-cell bernstein_numeric calls, and "batched", one call of
bounds._bernstein_search over all the cells.  The first 3,200 cells are
one bound_table sweep call; all 25,600 are the whole table.  The per-cell
loop runs at 25,600 cells only in a tree without the batched search, where
it is the path a sweep takes.  Each record also carries the largest
relative gap between the numeric minimum and bound_bn over the cells whose
bound does not underflow.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import sys
import time
from pathlib import Path

from oracle import _git_sha, _source_sha256

ROOT = Path(__file__).resolve().parents[1]
TABLE_N = range(32, 4097, 32)
BETAS = (1.25, 1.5, 2.0, 3.0)
LEVELS = tuple((k - 0.5) / 50 for k in range(1, 51))
SIZES = (3_200, 25_600)
# Each (mode, size) record repeats its pass for at least this long.
MIN_SECONDS = 1.0


def _cells(sn) -> list[tuple[int, float, float]]:
    return [(n, b, sn.threshold_from_s(n, b, s)) for n in TABLE_N for b in BETAS for s in LEVELS]


def _per_cell(sn, cells) -> list[float]:
    return [sn.bernstein_numeric(*cell).objective_value for cell in cells]


def _batched(sn, cells) -> list[float]:
    _, log_objective, _ = sn.bounds._bernstein_search(cells)
    return [math.exp(v) for v in log_objective]


def _measure(sn, mode: str, run, cells) -> dict:
    """Repeat the pass until MIN_SECONDS have passed; rate from the fastest."""
    times = []
    while not times or sum(times) < MIN_SECONDS:
        start = time.perf_counter()
        values = run(sn, cells)
        times.append(time.perf_counter() - start)
    gap = 0.0
    for (n, beta, x), value in zip(cells, values):
        closed = sn.bound_bn(n, beta, x).value
        if closed > 0.0:
            gap = max(gap, abs(value - closed) / closed)
    best = min(times)
    return {
        "mode": mode,
        "cells": len(cells),
        "calls": len(times),
        "best_s": best,
        "median_s": statistics.median(times),
        "cells_per_s": len(cells) / best,
        "max_rel_gap_to_bound_bn": gap,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="key the run is stored under")
    parser.add_argument("--src", default=str(ROOT / "src"), help="tree to import selfnorm from")
    parser.add_argument("--out", default=str(ROOT / "BENCH_bernstein.json"))
    args = parser.parse_args(argv)

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import numpy as np
    import selfnorm as sn

    cells = _cells(sn)
    batched = hasattr(sn.bounds, "_bernstein_search")
    records = [_measure(sn, "per_cell", _per_cell, cells[: SIZES[0]])]
    if batched:
        records += [_measure(sn, "batched", _batched, cells[:size]) for size in SIZES]
    else:
        records.append(_measure(sn, "per_cell", _per_cell, cells[: SIZES[1]]))
    for rec in records:
        print(
            f"{rec['mode']:<9} cells={rec['cells']:<6} {rec['best_s']:9.4f} s "
            f"{rec['cells_per_s']:11.0f} cells/s  gap={rec['max_rel_gap_to_bound_bn']:.2e}"
        )

    out = Path(args.out)
    bench = json.loads(out.read_text()) if out.exists() else {}
    bench.setdefault("unit", "cells/s, fastest pass, one thread")
    bench.setdefault("runs", {})[args.label] = {
        "git_sha": _git_sha(src),
        "source_sha256": _source_sha256(src),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "records": records,
    }
    out.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
