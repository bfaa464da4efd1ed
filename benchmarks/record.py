"""What the benchmark scripts share: the --label/--src/--out parser, the
fastest-of timing loop, and the writer that stores a run under its label
and checks each record's output against the same record under every other
label in the file.
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


def parse_args(doc: str, out_name: str, argv: list[str] | None) -> argparse.Namespace:
    """--label, --src and --out; the source tree goes first on sys.path, so
    the caller's next `import selfnorm` measures that tree."""
    parser = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="key the run is stored under")
    parser.add_argument("--src", default=str(ROOT / "src"), help="tree to import selfnorm from")
    parser.add_argument("--out", default=str(ROOT / out_name))
    args = parser.parse_args(argv)
    args.src = Path(args.src).resolve()
    sys.path.insert(0, str(args.src))
    return args


def timed(call, min_seconds: float):
    """Repeat call until min_seconds have passed; (fastest, median, calls, result)."""
    times = []
    while not times or sum(times) < min_seconds:
        start = time.perf_counter()
        result = call()
        times.append(time.perf_counter() - start)
    return min(times), statistics.median(times), len(times), result


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


def write(args, unit: str, records: list[dict], key, output) -> int:
    """Store records under args.label in args.out, with the core count, the
    numpy version, the git sha of the measured tree and a sha256 of its
    selfnorm sources (which identifies uncommitted trees too).

    key(rec) names a record across labels and output(rec) is what must match
    there (None: nothing to check).  Prints each mismatch to stderr and
    returns the exit code: 1 when any output differs, else 0.
    """
    import numpy as np

    out = Path(args.out)
    bench = json.loads(out.read_text()) if out.exists() else {}
    bench.setdefault("unit", unit)
    bench.setdefault("runs", {})[args.label] = {
        "git_sha": _git_sha(args.src),
        "source_sha256": _source_sha256(args.src),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "records": records,
    }
    out.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")

    here = {key(rec): output(rec) for rec in records}
    mismatches = [
        f"{' '.join(map(str, filter(None, key(rec))))}: {here[key(rec)]} here, "
        f"{output(rec)} under {label}"
        for label, run in bench["runs"].items()
        for rec in run["records"]
        if None not in (here.get(key(rec)), output(rec)) and here[key(rec)] != output(rec)
    ]
    for line in mismatches:
        print(f"output differs: {line}", file=sys.stderr)
    return 1 if mismatches else 0
