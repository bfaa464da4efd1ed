"""Throughput of the exact enumeration kernel, in sign vectors per second.

Times exact_tail (running maximum and final sum) and exact_tstat_tail on
seeded float magnitudes at n = 16, 20 and 24, plus one call of each at
n = 30, all on one thread, and stores the rates under a label in
BENCH_oracle.json together with the core count, the numpy version, the git
sha of the measured source tree and a sha256 of its selfnorm sources (which
identifies uncommitted trees too).  Other labels in the file are kept,
so two source trees can be recorded side by side:

    python benchmarks/oracle.py --label change
    python benchmarks/oracle.py --label parent --src /path/to/parent/src

Each record also carries the hit count, so the two trees can be checked
for equal counts as well as compared for speed: the script exits 1 when
a hit count differs from the same record under another label.  The
parser, the timing loop and the writer are shared in record.py.
"""

from __future__ import annotations

import sys

import record

SIZES = (16, 20, 24)
STATS = ("running_max", "final_sum", "tstat")
# Each (stat, n) cell repeats its call for this long; BIG_N gets one call
# per statistic.
MIN_SECONDS = 1.0
BIG_N = 30


def _call(sn, stat: str, n: int):
    """One enumeration call at size n; returns the hit count."""
    import numpy as np

    mags = np.random.default_rng(n).uniform(0.1, 2.0, n)
    if stat == "tstat":
        return sn.exact_tstat_tail(mags, 1.0, workers=1).hits
    x = sn.threshold_from_s(n, 2.0, 0.3)
    return sn.exact_tail(mags, 2.0, x, stat, workers=1).hits


def _measure(sn, stat: str, n: int, min_seconds: float) -> dict:
    """Repeat the call until min_seconds have passed; rate from the fastest."""
    best, median, calls, hits = record.timed(lambda: _call(sn, stat, n), min_seconds)
    return {
        "stat": stat,
        "n": n,
        "calls": calls,
        "best_s": best,
        "median_s": median,
        "sign_vectors_per_s": (1 << n) / best,
        "hits": hits,
    }


def main(argv: list[str] | None = None) -> int:
    args = record.parse_args(__doc__, "BENCH_oracle.json", argv)
    import selfnorm as sn

    records = [_measure(sn, stat, n, MIN_SECONDS) for n in SIZES for stat in STATS]
    records += [_measure(sn, stat, BIG_N, 0.0) for stat in STATS]
    for rec in records:
        print(
            f"{rec['stat']:<12} n={rec['n']:<3} {rec['best_s']:10.4f} s "
            f"{rec['sign_vectors_per_s'] / 1e6:9.2f} M sign vectors/s  hits={rec['hits']}"
        )
    return record.write(
        args,
        "sign vectors/s, fastest call, one thread",
        records,
        key=lambda rec: (rec["stat"], rec["n"]),
        output=lambda rec: rec["hits"],
    )


if __name__ == "__main__":
    sys.exit(main())
