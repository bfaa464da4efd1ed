"""Throughput of the Monte Carlo kernel, in trials per second.

Times estimate_tail for five laws (Rademacher, uniform, Gaussian, Pareto
with tail index 1.5 and 0.01) under the three statistics at n = 20 with
50,000 trials, plus the Gaussian running maximum at n = 1000 with 5,000
trials, all on one thread.  Two stages are also timed on their own, one
block each: simulate._draw_values (the Philox words and the magnitude and
sign transform) per law, and simulate._statistic (the reduction) per
statistic on the Gaussian block, so the share of the half-normal quantile
in a Gaussian draw shows.  Rates go under a label in BENCH_montecarlo.json
with the core count, the numpy version, the git sha of the measured source
tree and a sha256 of its selfnorm sources.  Other labels in the file are
kept, so two source trees can be recorded side by side:

    python benchmarks/montecarlo.py --label change
    python benchmarks/montecarlo.py --label parent --src /path/to/parent/src

Each estimate record carries its hit count and each stage record a sha256
of the arrays it returned, so the two trees can be checked for equal
output as well as compared for speed: the script exits 1 when a hit count
or a digest differs from the same record under another label.  The
parser, the timing loop and the writer are shared in record.py.
"""

from __future__ import annotations

import hashlib
import sys
import warnings

import record

N, TRIALS = 20, 50_000
BIG_N, BIG_TRIALS = 1000, 5_000
SEED = 20160601
# Each record repeats its call for this long and keeps the fastest.
MIN_SECONDS = 1.0


def _laws(sn) -> dict:
    D = sn.DistributionSpec
    return {
        "rademacher": D.rademacher(),
        "uniform": D.uniform(),
        "gaussian": D.gaussian(),
        "pareto1.5": D.pareto(1.5),
        "pareto0.01": D.pareto(0.01),
    }


def _digest(*arrays) -> str:
    import numpy as np

    digest = hashlib.sha256()
    for arr in arrays:
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


def _estimate_record(sn, law: str, spec, n: int, stat: str, trials: int) -> dict:
    beta = 2.0 if stat == sn.TSTAT else 1.5
    x = 1.0 if stat == sn.TSTAT else sn.threshold_from_s(n, beta, 0.3 if n == N else 0.03)
    best, median, calls, est = record.timed(
        lambda: sn.estimate_tail(spec, n, beta, x, stat, trials, SEED, workers=1), MIN_SECONDS
    )
    return {
        "law": law,
        "stat": stat,
        "n": n,
        "trials": trials,
        "calls": calls,
        "best_s": best,
        "median_s": median,
        "trials_per_s": trials / best,
        "hits": est.hits,
    }


def _stage_record(stage: str, law: str, n: int, rows: int, call) -> dict:
    best, median, calls, out = record.timed(call, MIN_SECONDS)
    return {
        "stage": stage,
        "law": law,
        "n": n,
        "rows": rows,
        "calls": calls,
        "best_s": best,
        "median_s": median,
        "digest": _digest(*(out if isinstance(out, tuple) else (out,))),
    }


def _stage_records(sn, laws: dict) -> list[dict]:
    from selfnorm.simulate import _draw_values, _statistic, _trial_block

    records = []
    for n in (N, BIG_N):
        rows = _trial_block(n)
        for law, spec in laws.items():
            if n == N or law == "gaussian":
                records.append(_stage_record(
                    "draw", law, n, rows, lambda: _draw_values(spec, n, SEED, 0, rows)
                ))
        vals = _draw_values(laws["gaussian"], n, SEED, 0, rows)
        for stat in sn.STATS if n == N else (sn.RUNNING_MAX,):
            records.append(_stage_record(
                f"statistic:{stat}", "gaussian", n, rows, lambda: _statistic(vals, stat, 1.5)
            ))
    return records


def _key(rec: dict) -> tuple:
    return (rec.get("stage", "estimate"), rec["law"], rec.get("stat"), rec["n"])


def main(argv: list[str] | None = None) -> int:
    args = record.parse_args(__doc__, "BENCH_montecarlo.json", argv)
    import selfnorm as sn

    laws = _laws(sn)
    with warnings.catch_warnings():
        # pareto(0.01) magnitudes overflow to inf; that is measured, not fixed, here.
        warnings.simplefilter("ignore", RuntimeWarning)
        records = [
            _estimate_record(sn, law, spec, N, stat, TRIALS)
            for law, spec in laws.items()
            for stat in sn.STATS
        ]
        records.append(
            _estimate_record(sn, "gaussian", laws["gaussian"], BIG_N, sn.RUNNING_MAX, BIG_TRIALS)
        )
        records += _stage_records(sn, laws)
    for rec in records:
        if "stage" in rec:
            print(
                f"{rec['stage']:<22} {rec['law']:<11} n={rec['n']:<5} "
                f"{rec['best_s'] * 1e3:9.2f} ms per block"
            )
        else:
            print(
                f"{rec['stat']:<22} {rec['law']:<11} n={rec['n']:<5} "
                f"{rec['trials_per_s'] / 1e6:9.3f} M trials/s  hits={rec['hits']}"
            )
    return record.write(
        args,
        "trials/s (estimates) and s per block (stages), fastest call, one thread",
        records,
        key=_key,
        output=lambda rec: rec.get("hits", rec.get("digest")),
    )


if __name__ == "__main__":
    sys.exit(main())
