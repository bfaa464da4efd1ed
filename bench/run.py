"""selfnorm benchmark: one workload per process, closed loop.

Run from the repository root:

    python3 bench/run.py --workload enumerate --seed 1 --seconds 20 --trace 0

One caller issues the workload's fixed batch of library calls back to back
(a pass), repeating passes for --seconds.  Every call's output is checked.
--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes in one process and prints the per-layer metrics (spans go to
bench/out/).  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.

--trace 0 spreads the run over WORKERS fresh processes, one after another.
Each imports selfnorm once (setup_s is the median of their set-up times) and
runs passes for its share of --seconds; peak_rss_mb is the median of their
peak resident memories (with threads, one process's peak varies).  wall_s
and cpu_s add up, over the ops of a pass, the fastest time each op took in
any pass.  Every pass does the same work, and other tenants of a shared
host only ever add time, in bursts of several seconds; an op's fastest time
is its cost with the least of that added, so it repeats across runs where a
median pass time does not.  The median pass time and its tail are printed
with the record.

An operation fails when it raises, emits a RuntimeWarning or fails its
output check; every failure is counted in `failed` and listed.  `correct`
is false when an operation fails a check or raises (other than the ops a
workload marks as exposing a known defect), or when two passes produce
different output digests.  The program is
imported from src/ next to this directory; without it the run exits 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# Fresh processes an end-to-end run is spread over.
WORKERS = 5
# Every run ends within this many seconds, or fails.
RUN_LIMIT_S = 170.0


class ProgramMissing(Exception):
    """The selfnorm sources are not where the benchmark expects them."""


def check_program() -> Path:
    package = SRC / "selfnorm"
    if not (package / "__init__.py").is_file():
        raise ProgramMissing(f"no selfnorm package at {package}")
    return package


def load_selfnorm():
    package = check_program()
    sys.path.insert(0, str(SRC))
    import selfnorm
    import selfnorm.cli

    if Path(selfnorm.__file__).resolve().parent != package.resolve():
        raise ProgramMissing(f"imported selfnorm from {selfnorm.__file__}, not {package}")
    return selfnorm


def timed_setup(workload: str):
    """Import selfnorm and make one warm-up call; returns (module, seconds)."""
    start = time.perf_counter()
    sn = load_selfnorm()
    workloads.warm_up(workload, tracing.raw_api(sn), sn)
    return sn, time.perf_counter() - start


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Pass:
    op_wall: list = field(default_factory=list)
    op_cpu: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    failures: dict = field(default_factory=dict)
    digest: str = ""

    @property
    def wall(self) -> float:
        return sum(self.op_wall)


def fastest(passes: list[Pass], times: str = "op_wall") -> float:
    """Sum over ops of the fastest time each op took in any of the passes."""
    return sum(min(per_op) for per_op in zip(*(getattr(p, times) for p in passes)))


def run_pass(ops, api) -> Pass:
    """Run every op once; only the library calls are timed, not the checks."""
    result = Pass()
    earlier = {}
    parts = []
    for op in ops:
        error = out = None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cpu = time.process_time()
            wall = time.perf_counter()
            try:
                out = op.call(api)
            except Exception as exc:  # noqa: BLE001 - counted as a failed operation
                error = f"{type(exc).__name__}: {exc}"
            result.op_wall.append(time.perf_counter() - wall)
            result.op_cpu.append(time.process_time() - cpu)
        result.attempted += 1
        problems = [f"{op.label}: {error}"] if error else op.check(out, earlier)
        runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        if problems or runtime:
            result.failed += 1
            reason = (problems or [f"RuntimeWarning: {runtime[0].message}"])[0]
            if op.known_defect:
                reason += f" [known defect: {op.known_defect}]"
            result.failures[op.label] = reason
        if not op.known_defect:
            result.problems += problems
        earlier[op.label] = out
        parts.append(f"{op.label}={'raised' if error else op.digest(out)}")
    result.digest = hashlib.sha256("\n".join(parts).encode()).hexdigest()
    return result


def measure(seconds: float, run_once) -> float:
    """Call run_once back to back until the next call would pass `seconds`;
    returns the seconds spent."""
    spent = 0.0
    while True:
        began = time.perf_counter()
        run_once()
        took = time.perf_counter() - began
        spent += took
        if spent + took > seconds:
            return spent


def tail(values: list[float]):
    """(percentile, value) of the highest rank with ten passes beyond it."""
    n = len(values)
    if n < 11:
        return None
    return round(100.0 * (n - 10) / n, 1), sorted(values)[n - 11]


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_sha() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "selfnorm").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(args, passes: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "selfnorm_threads": os.environ["SELFNORM_THREADS"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "source_sha256": _source_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "passes": passes,
    }


def summarize(passes: list[Pass]) -> dict:
    digests = {p.digest for p in passes}
    problems = [msg for p in passes for msg in p.problems]
    if len(digests) > 1:
        problems.append(f"passes produced {len(digests)} different output digests")
    failures = {}
    for p in passes:
        failures.update(p.failures)
    return {
        "correct": not problems,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "problems": problems[:20],
        "failures": failures,
        "digest": passes[0].digest,
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def worker(args) -> dict:
    """One worker process of an end-to-end run: set up, then run passes."""
    sn, setup_s = timed_setup(args.workload)
    ops = workloads.build(args.workload, args.seed, sn)
    api = tracing.raw_api(sn)
    passes: list[Pass] = []
    spent = measure(args.seconds, lambda: passes.append(run_pass(ops, api)))
    return {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "spent_s": spent,
        "passes": [asdict(p) for p in passes],
    }


def run_worker(args, seconds: float, deadline: float) -> dict:
    """worker() in a fresh interpreter, measuring for `seconds`."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--worker",
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(seconds)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if done.returncode != 0:
        raise RuntimeError(f"worker exited {done.returncode}: {done.stderr.strip()}")
    return json.loads(done.stdout.splitlines()[-1])


def end_to_end(args) -> tuple[dict, dict, list[Pass]]:
    deadline = time.monotonic() + RUN_LIMIT_S
    reports = []
    spent = 0.0
    for left in range(WORKERS, 0, -1):
        # Time a worker leaves unused goes to the workers after it; a worker
        # always runs at least one pass, even with no time left.
        share = max(args.seconds - spent, 0.0) / left
        reports.append(run_worker(args, share, deadline))
        spent += reports[-1]["spent_s"]
    passes = [Pass(**p) for report in reports for p in report["passes"]]
    summary = summarize(passes)
    error_rate = summary["failed"] / summary["attempted"]
    walls = [p.wall for p in passes]
    setups = [report["setup_s"] for report in reports]
    peaks = [report["peak_rss_mb"] for report in reports]
    metrics = {
        "wall_s": _metric(fastest(passes, "op_wall"), "s"),
        "cpu_s": _metric(fastest(passes, "op_cpu"), "s"),
        "peak_rss_mb": _metric(statistics.median(peaks), "MB"),
        "setup_s": _metric(statistics.median(setups), "s"),
        "ok_rate": _metric(1.0 - error_rate, "ratio"),
    }
    extra = {
        "pass_wall_s": walls,
        "wall_s_median": statistics.median(walls),
        "wall_s_tail": tail(walls),
        "setup_samples": setups,
        "peak_rss_samples": peaks,
        "error_rate": error_rate,
    }
    return metrics, dict(summary, **extra), passes


def per_layer(args, sn) -> tuple[dict, dict, list[Pass]]:
    ops = workloads.build(args.workload, args.seed, sn)
    api = tracing.raw_api(sn)
    tracer = tracing.Tracer(sn)
    untraced: list[Pass] = []
    traced: list[Pass] = []
    runs: list[str] = []

    def traced_pass():
        runs.append(f"{args.workload}:{args.seed}:{len(runs)}")
        with tracer.patched(runs[-1]) as traced_api:
            traced.append(run_pass(ops, traced_api))

    def pair():
        # Alternate which side goes first so drift does not bias the overhead.
        if len(runs) % 2:
            traced_pass()
            untraced.append(run_pass(ops, api))
        else:
            untraced.append(run_pass(ops, api))
            traced_pass()

    measure(args.seconds, pair)
    values = tracing.layer_metrics(tracer, runs, fastest(traced) - fastest(untraced))
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    tracer.write(span_file)
    passes = untraced + traced
    summary = summarize(passes)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {entry["name"]: entry["unit"] for entry in spec["per_layer"]}
    metrics = {name: _metric(values[name], unit) for name, unit in units.items()}
    extra = {
        "spans": str(span_file.relative_to(ROOT)),
        "span_count": len(tracer.spans),
        "error_rate": summary["failed"] / summary["attempted"],
    }
    return metrics, dict(summary, **extra), passes


def _print_report(args, metrics: dict, summary: dict, passes: int) -> None:
    print(f"selfnorm benchmark  workload={args.workload} seed={args.seed} "
          f"trace={args.trace} passes={passes}")
    for name, metric in metrics.items():
        print(f"  {name:<34} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'error_rate':<34} {summary['error_rate']:.6g} ratio "
          f"({summary['failed']} failed of {summary['attempted']} attempted)")
    if "wall_s_tail" in summary:
        tail_at = summary["wall_s_tail"]
        print(f"  pass wall: median {summary['wall_s_median']:.6g} s, tail "
              + (f"p{tail_at[0]} {tail_at[1]:.6g} s" if tail_at
                 else f"n/a ({passes} passes; needs 11)"))
    for label, reason in summary["failures"].items():
        print(f"  failed: {label}: {reason}")
    for problem in summary["problems"]:
        print(f"  WRONG: {problem}")
    print(f"  output digest sha256:{summary['digest']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0 and not args.worker:
        parser.error("--seconds must be > 0")
    nproc = len(os.sched_getaffinity(0))
    os.environ["SELFNORM_THREADS"] = str(nproc if args.workload == "sweep" else 1)
    try:
        check_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.worker:
        print(json.dumps(worker(args)))
        return 0
    if args.trace:
        sn, _ = timed_setup(args.workload)
        metrics, summary, passes = per_layer(args, sn)
    else:
        metrics, summary, passes = end_to_end(args)
    _print_report(args, metrics, summary, len(passes))
    record = dict(summary, env=environment(args, len(passes)))
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
