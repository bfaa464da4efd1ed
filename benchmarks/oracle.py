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
a hit count differs from the same record under another label.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIZES = (16, 20, 24)
STATS = ("running_max", "final_sum", "tstat")
# Each (stat, n) cell repeats its call for this long; BIG_N gets one call
# per statistic.
MIN_SECONDS = 1.0
BIG_N = 30


def _git_sha(src: Path) -> str:
    def git(*args: str) -> str:
        return subprocess.run(
            ["git", "-C", str(src), *args], capture_output=True, text=True, check=True
        ).stdout.strip()

    try:
        sha = git("rev-parse", "HEAD")
        return sha + ("-dirty" if git("status", "--porcelain", "--", ".") else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _source_sha256(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((src / "selfnorm").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


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
    times = []
    while not times or sum(times) < min_seconds:
        start = time.perf_counter()
        hits = _call(sn, stat, n)
        times.append(time.perf_counter() - start)
    best = min(times)
    return {
        "stat": stat,
        "n": n,
        "calls": len(times),
        "best_s": best,
        "median_s": statistics.median(times),
        "sign_vectors_per_s": (1 << n) / best,
        "hits": hits,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="key the run is stored under")
    parser.add_argument("--src", default=str(ROOT / "src"), help="tree to import selfnorm from")
    parser.add_argument("--out", default=str(ROOT / "BENCH_oracle.json"))
    args = parser.parse_args(argv)

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import numpy as np
    import selfnorm as sn

    records = [_measure(sn, stat, n, MIN_SECONDS) for n in SIZES for stat in STATS]
    records += [_measure(sn, stat, BIG_N, 0.0) for stat in STATS]
    for rec in records:
        print(
            f"{rec['stat']:<12} n={rec['n']:<3} {rec['best_s']:10.4f} s "
            f"{rec['sign_vectors_per_s'] / 1e6:9.2f} M sign vectors/s  hits={rec['hits']}"
        )

    out = Path(args.out)
    bench = json.loads(out.read_text()) if out.exists() else {}
    bench.setdefault("unit", "sign vectors/s, fastest call, one thread")
    bench.setdefault("runs", {})[args.label] = {
        "git_sha": _git_sha(src),
        "source_sha256": _source_sha256(src),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "records": records,
    }
    out.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")

    hits = {(rec["stat"], rec["n"]): rec["hits"] for rec in records}
    mismatches = [
        f"{rec['stat']} n={rec['n']}: hits {hits[rec['stat'], rec['n']]} here, "
        f"{rec['hits']} under {label}"
        for label, run in bench["runs"].items()
        for rec in run["records"]
        if hits.get((rec["stat"], rec["n"]), rec["hits"]) != rec["hits"]
    ]
    for line in mismatches:
        print(f"hit count differs: {line}", file=sys.stderr)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
