"""Per-layer benchmark records: the enumeration kernel, the bound layer and
the Monte Carlo kernel, measured in one run.

    python benchmarks/record.py --label change
    python benchmarks/record.py --label parent --src /path/to/parent/src

selfnorm is imported from --src (default: src/ next to this directory).
Each layer's records go under --label into its file in the directory --out
(default: the repository root):

- BENCH_oracle.json, sign vectors per second: exact_tail for the running
  maximum, the final sum and Student's t on seeded float magnitudes at
  n = 16, 20 and 24, plus one call each at n = 30.  Each record carries its
  hit count.
- BENCH_bernstein.json, cells per second, over a bound-table grid
  (n = 32, 64, ..., 4096, four betas, 50 levels s in (0, 1), every cell
  interior; the first 3,200 cells are one bound_table sweep call, all
  25,600 the whole table).  Modes: "per_cell", a loop of one-cell
  bernstein_numeric calls; "batched", one bounds._bernstein_search over the
  cells, one row of (n, beta, thresholds) per (n, beta); "bound_bn", a loop
  of one-cell bound_bn calls; "run_sweep", one run_sweep(trials=0) over the
  table, which fills every bound column; "render_csv" and "render_json",
  one render of its rows; "sweep_cli", the same table as one in-process
  `selfnorm sweep --dist gaussian --trials 0` call, as the benchmark's
  bound_table workload makes it, timed from argument parsing to the text
  on stdout; "sweep_cli_json", that call with `--format json`.  Search records carry the largest relative gap between the
  numeric minimum and bound_bn over the cells whose bound does not
  underflow, and the mean and largest number of search steps per cell (a
  traced bench run does not book the bound layer's work, so this is where
  it shows).  The others carry a sha256 of their output (the values, the
  CSV or JSON text, or stdout, at 12 significant digits).
- BENCH_montecarlo.json: estimate_tail, in trials per second, for five laws
  (Rademacher, uniform, Gaussian, Pareto with tail index 1.5 and 0.01)
  under the three statistics at n = 20 with 50,000 trials, plus the
  Gaussian running maximum at n = 1000 with 5,000 trials, with the hit
  count.  Stage records time one block of simulate._draw_values (the
  Philox words and the magnitude and sign transform) per law at n = 20, the
  Gaussian one at n = 1000 and the Rademacher one at the sweep's n = 17,
  of simulate._statistics (the reduction, at one beta) per statistic on
  the Gaussian block, so the share of the half-normal quantile in a
  Gaussian draw shows, and, in trees that have it, of
  simulate._sign_levels (the integer running maximum read from the sign
  bytes) on the raw words of that n = 17 Rademacher block; they carry a
  sha256 of the arrays.  run_sweep records time the grids of the
  benchmark's `sweep` workload on two threads: one grid per n = 12, 16,
  17, beta = 1.5 and 2, ten s levels and 65,536 Rademacher trials, with a
  sha256 of the rendered CSV.
- BENCH_import.json: `import selfnorm, selfnorm.cli` in IMPORT_RUNS fresh
  interpreters, after one untimed run that caches the bytecode: the median
  and fastest wall time of the import, the median peak RSS of the process,
  and whether any of them loaded a scipy module.

Everything else runs on one thread.  Each record repeats its call for at
least MIN_SECONDS (the n = 30 oracle calls run once; the import record's
runs are counted) and keeps the fastest and the median time.  Each file's
run also stores the core count, the Python and numpy versions, the git sha
of the measured tree, a sha256 of its selfnorm sources (which identifies
uncommitted trees too) and their line count.  Other labels in a file are
kept, so two trees can be recorded side by side and compared for speed.
Their outputs are compared as well: the script exits 1 when a hit count or
digest differs from the same record under another label.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
# Each record repeats its call for at least this long.
MIN_SECONDS = 1.0
# A record is named across labels by those of these fields it has; a stage
# record's rows are the block size, so a new block size makes new records.
KEY = ("mode", "stage", "law", "stat", "n", "rows", "cells")

ORACLE_N, ORACLE_BIG_N = (16, 20, 24), 30
TABLE_N = range(32, 4097, 32)
BETAS = (1.25, 1.5, 2.0, 3.0)
LEVELS = tuple((k - 0.5) / 50 for k in range(1, 51))
TABLE_SIZES = (3_200, 25_600)
MC_N, MC_TRIALS = 20, 50_000
MC_BIG_N, MC_BIG_TRIALS = 1000, 5_000
SEED = 20160601
# The `sweep` workload's grids (bench/workloads.py), at fixed s levels.
SWEEP_N, SWEEP_BETAS, SWEEP_TRIALS, SWEEP_WORKERS = (12, 16, 17), (1.5, 2.0), 65_536, 2
SWEEP_S = tuple((k + 0.5) / 10 for k in range(10))
IMPORT_RUNS = 15
# Run in a fresh interpreter: import seconds, peak RSS in MB, scipy loaded.
# The peak is VmHWM, not ru_maxrss: across fork and exec Linux carries the
# spawning process's peak into the child's ru_maxrss.
IMPORT_PROBE = """
import re, sys, time
start = time.perf_counter()
import selfnorm, selfnorm.cli
seconds = time.perf_counter() - start
with open("/proc/self/status") as status:
    peak_kb = re.search(r"VmHWM:\\s*(\\d+) kB", status.read()).group(1)
print(seconds, int(peak_kb) / 1024.0, any(name.split(".")[0] == "scipy" for name in sys.modules))
"""


def timed(call, min_seconds: float = MIN_SECONDS, **fields) -> tuple[dict, object]:
    """Repeat call until min_seconds have passed: (the record, that is fields
    with the call count and the fastest and median seconds; the last result)."""
    times = []
    while not times or sum(times) < min_seconds:
        start = time.perf_counter()
        result = call()
        times.append(time.perf_counter() - start)
    rec = {**fields, "calls": len(times), "best_s": min(times), "median_s": statistics.median(times)}
    return rec, result


def sha256(*parts) -> str:
    """sha256 of strings (UTF-8) and arrays (their C-order bytes), in order."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode() if isinstance(part, str) else np.ascontiguousarray(part).tobytes())
    return digest.hexdigest()


def _oracle_hits(sn, stat: str, n: int) -> int:
    """One enumeration call.  It draws its own magnitudes, as the calls
    timed under the labels already recorded did."""
    mags = np.random.default_rng(n).uniform(0.1, 2.0, n)
    x = 1.0 if stat == sn.TSTAT else sn.threshold_from_s(n, 2.0, 0.3)
    return sn.exact_tail(mags, 2.0, x, stat).hits


def oracle(sn) -> list[dict]:
    records = []
    for n in (*ORACLE_N, ORACLE_BIG_N):
        for stat in sn.STATS:
            rec, hits = timed(
                lambda: _oracle_hits(sn, stat, n), 0.0 if n == ORACLE_BIG_N else MIN_SECONDS,
                stat=stat, n=n,
            )
            records.append({**rec, "sign_vectors_per_s": (1 << n) / rec["best_s"], "hits": hits})
    return records


def _per_cell(sn, cells) -> tuple[list[float], list[int]]:
    results = [sn.bernstein_numeric(*cell) for cell in cells]
    return [r.objective_value for r in results], [r.iterations for r in results]


def _batched(sn, cells) -> tuple[list[float], list[int]]:
    groups = itertools.groupby(cells, key=lambda cell: cell[:2])
    rows = [(n, b, [x for *_, x in row]) for (n, b), row in groups]
    _, log_objective, iterations = sn.bounds._bernstein_search(rows)
    return [math.exp(v) for v in log_objective], iterations.tolist()


def _search(sn, mode: str, run, cells) -> dict:
    rec, (values, steps) = timed(lambda: run(sn, cells), mode=mode, cells=len(cells))
    gap = 0.0
    for (n, beta, x), value in zip(cells, values):
        closed = sn.bound_bn(n, beta, x).value
        if closed > 0.0:
            gap = max(gap, abs(value - closed) / closed)
    return {**rec, "max_rel_gap_to_bound_bn": gap, "mean_steps": sum(steps) / len(steps),
            "max_steps": max(steps)}


def _stdout(main, argv: list[str]) -> str:
    """What main(argv) writes to stdout; it must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"selfnorm {' '.join(argv[:1])} exited {code}")
    return out.getvalue()


def bernstein(sn) -> list[dict]:
    from selfnorm.cli import main as cli_main

    cells = [(n, b, sn.threshold_from_s(n, b, s)) for n in TABLE_N for b in BETAS for s in LEVELS]
    records = [_search(sn, "per_cell", _per_cell, cells[: TABLE_SIZES[0]])]
    records += [_search(sn, "batched", _batched, cells[:size]) for size in TABLE_SIZES]
    rec, values = timed(lambda: [sn.bound_bn(*cell).value for cell in cells],
                        mode="bound_bn", cells=len(cells))
    records.append({**rec, "digest": sha256("\n".join(f"{v:.12g}" for v in values))})
    grid = sn.SweepGrid(TABLE_N, BETAS, LEVELS, dist=sn.DistributionSpec.gaussian(), trials=0)
    sweep, rows = timed(lambda: sn.run_sweep(grid), mode="run_sweep", cells=len(cells))
    render, text = timed(lambda: sn.render_csv(rows), mode="render_csv", cells=len(cells))
    records += [{**rec, "digest": sha256(text)} for rec in (sweep, render)]
    rec, text = timed(lambda: sn.render_json(rows), mode="render_json", cells=len(cells))
    records.append({**rec, "digest": sha256(text)})
    argv = ["sweep", "--n", ",".join(map(str, TABLE_N)), "--beta", ",".join(map(repr, BETAS)),
            "--s", ",".join(map(repr, LEVELS)), "--dist", "gaussian", "--trials", "0"]
    for mode, fmt in (("sweep_cli", []), ("sweep_cli_json", ["--format", "json"])):
        rec, text = timed(lambda: _stdout(cli_main, argv + fmt), mode=mode, cells=len(cells))
        records.append({**rec, "digest": sha256(text)})
    for rec in records:
        rec["cells_per_s"] = rec["cells"] / rec["best_s"]
    return records


def montecarlo(sn) -> list[dict]:
    from selfnorm.simulate import _draw_values, _statistics, _trial_block

    D = sn.DistributionSpec
    laws = {"rademacher": D.rademacher(), "uniform": D.uniform(), "gaussian": D.gaussian(),
            "pareto1.5": D.pareto(1.5), "pareto0.01": D.pareto(0.01)}
    cells = [(law, MC_N, stat, MC_TRIALS) for law in laws for stat in sn.STATS]
    cells.append(("gaussian", MC_BIG_N, sn.RUNNING_MAX, MC_BIG_TRIALS))
    records = []
    with warnings.catch_warnings():
        # pareto(0.01) magnitudes overflow to inf; that is measured, not fixed, here.
        warnings.simplefilter("ignore", RuntimeWarning)
        for law, n, stat, trials in cells:
            beta = 2.0 if stat == sn.TSTAT else 1.5
            x = 1.0 if stat == sn.TSTAT else sn.threshold_from_s(n, beta, 0.3 if n == MC_N else 0.03)
            rec, est = timed(
                lambda: sn.estimate_tail(laws[law], n, beta, x, stat, trials, SEED, workers=1),
                law=law, stat=stat, n=n, trials=trials,
            )
            records.append({**rec, "trials_per_s": trials / rec["best_s"], "hits": est.hits})
        draws = [(law, MC_N) for law in laws] + [("gaussian", MC_BIG_N), ("rademacher", max(SWEEP_N))]
        for law, n in draws:
            rows = _trial_block(n)
            rec, vals = timed(lambda: _draw_values(laws[law], n, SEED, 0, rows),
                              stage="draw", law=law, n=n, rows=rows)
            records.append({**rec, "digest": sha256(vals)})
    if hasattr(sn.simulate, "_sign_levels"):
        n = max(SWEEP_N)
        rows = _trial_block(n)
        words = sn.simulate._draw_words(laws["rademacher"], n, SEED, 0, rows)
        rec, levels = timed(lambda: sn.simulate._sign_levels(words, n, sn.RUNNING_MAX),
                            stage="sign_levels", law="rademacher", stat=sn.RUNNING_MAX, n=n, rows=rows)
        records.append({**rec, "digest": sha256(levels)})
    for n in (MC_N, MC_BIG_N):
        rows = _trial_block(n)
        vals = _draw_values(laws["gaussian"], n, SEED, 0, rows)
        for stat in sn.STATS if n == MC_N else (sn.RUNNING_MAX,):
            rec, pair = timed(lambda: _statistics(vals, stat, (1.5,))[0],
                              stage=f"statistic:{stat}", law="gaussian", n=n, rows=rows)
            records.append({**rec, "digest": sha256(*pair)})
    for n in SWEEP_N:
        grid = sn.SweepGrid((n,), SWEEP_BETAS, SWEEP_S, sn.RUNNING_MAX, laws["rademacher"],
                            SWEEP_TRIALS, SEED)
        rec, rows = timed(
            lambda: sn.run_sweep(grid, workers=SWEEP_WORKERS),
            stage="run_sweep", law="rademacher", stat=sn.RUNNING_MAX, n=n,
            betas=list(SWEEP_BETAS), levels=len(SWEEP_S), trials=SWEEP_TRIALS, workers=SWEEP_WORKERS,
        )
        records.append({**rec, "digest": sha256(sn.render_csv(rows))})
    return records


def imports(sn) -> list[dict]:
    env = {**os.environ, "PYTHONPATH": str(Path(sn.__file__).resolve().parents[1])}
    runs = []
    for _ in range(IMPORT_RUNS + 1):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                              capture_output=True, text=True, check=True)
        seconds, rss, scipy = done.stdout.split()
        runs.append((float(seconds), float(rss), scipy == "True"))
    seconds, rss, scipy = zip(*runs[1:])
    return [{"mode": "import", "calls": IMPORT_RUNS, "best_s": min(seconds),
             "median_s": statistics.median(seconds), "peak_rss_mb": statistics.median(rss),
             "scipy_loaded": any(scipy)}]


TOPICS = (
    ("BENCH_oracle.json", "sign vectors/s, fastest call, one thread", oracle),
    ("BENCH_bernstein.json", "cells/s, fastest pass, one thread", bernstein),
    ("BENCH_montecarlo.json",
     "trials/s (estimates), s per block (stages) and s per call (run_sweep), fastest call, "
     "one thread (run_sweep two)", montecarlo),
    ("BENCH_import.json", "s per import, fresh interpreters", imports),
)


def _environment(src: Path) -> dict:
    """The core count, the Python and numpy versions, and the git sha, a
    sha256 and the line count (as `wc -l` gives it) of src/selfnorm/*.py."""
    def git(*args: str) -> str:
        return subprocess.run(
            ["git", "-C", str(src), *args], capture_output=True, text=True, check=True
        ).stdout.strip()

    try:
        git_sha = git("rev-parse", "HEAD")
        git_sha += "-dirty" if git("status", "--porcelain", "--", ".") else ""
    except (OSError, subprocess.CalledProcessError):
        git_sha = "unknown"
    digest = hashlib.sha256()
    sources = sorted((src / "selfnorm").glob("*.py"))
    for path in sources:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha,
        "source_sha256": digest.hexdigest(),
        "src_lines": sum(path.read_bytes().count(b"\n") for path in sources),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _key(rec: dict) -> tuple:
    return tuple(rec.get(field) for field in KEY)


def _output(rec: dict):
    """What must match across labels: the hit count or digest (None: nothing)."""
    return rec.get("hits", rec.get("digest"))


def write(out: Path, label: str, unit: str, run: dict) -> list[str]:
    """Store run under label in the file out; the records whose output
    differs from the same record under another label there."""
    bench = json.loads(out.read_text()) if out.exists() else {}
    bench.setdefault("unit", unit)
    bench.setdefault("runs", {})[label] = run
    out.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
    here = {_key(rec): _output(rec) for rec in run["records"]}
    return [
        f"{out.name} {' '.join(map(str, filter(None, _key(rec))))}: {here[_key(rec)]} here, "
        f"{_output(rec)} under {other}"
        for other, stored in bench["runs"].items()
        for rec in stored["records"]
        if None not in (here.get(_key(rec)), _output(rec)) and here[_key(rec)] != _output(rec)
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="key the run is stored under")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="tree to import selfnorm from")
    parser.add_argument("--out", type=Path, default=ROOT, help="directory of the BENCH_*.json files")
    args = parser.parse_args(argv)
    if not args.out.is_dir():
        parser.error(f"--out {args.out} is not a directory")
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    import selfnorm as sn

    env = _environment(src)
    mismatches = []
    for name, unit, measure in TOPICS:
        records = measure(sn)
        for rec in records:
            fields = (f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                      for k, v in rec.items() if k not in KEY + ("calls", "median_s"))
            print(name, *filter(None, _key(rec)), *fields)
        mismatches += write(args.out / name, args.label, unit, {**env, "records": records})
    for line in mismatches:
        print(f"output differs: {line}", file=sys.stderr)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
