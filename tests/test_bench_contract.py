"""The benchmark under bench/ calls the package by name and position.

bench/tracing.py wraps the names in API_NAMES (on the package) and
REPORT_NAMES (on selfnorm.report); bench/workloads.py passes worker counts
positionally, including to the oracle, which only checks them.  These tests
read both modules without changing them, so a rename or a dropped argument
fails here instead of in the benchmark.  The recording script under
benchmarks/ is only parsed, so a name it uses that the package no longer
has fails here instead of at the next recording.  It must not use what the
oracle keeps only for bench/ (exact_tstat_tail, a worker count), so that
those names can go once bench/ stops calling them.
"""

import ast
import functools
import importlib
import inspect
import sys
from pathlib import Path

import pytest

import selfnorm
import selfnorm.cli
from selfnorm import report

BENCH = Path(__file__).resolve().parents[1] / "bench"
BENCHMARKS = BENCH.parent / "benchmarks"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCH))
    try:
        import tracing
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return tracing, workloads


def test_traced_names_exist(bench):
    tracing, _ = bench
    for name in tracing.API_NAMES:
        assert callable(getattr(selfnorm, name, None)), name
    for name in tracing.REPORT_NAMES:
        assert callable(getattr(report, name, None)), name


@pytest.mark.parametrize("name", ["enumerate", "montecarlo", "sweep", "bound_table"])
def test_workload_warms_up_and_builds(bench, name):
    tracing, workloads = bench
    assert name in workloads.WORKLOADS
    workloads.warm_up(name, tracing.raw_api(selfnorm), selfnorm)
    assert workloads.build(name, 1, selfnorm)


def test_enumerate_pass_passes_its_checks(bench):
    # One pass takes about 20 ms; it calls all three oracle statistics with
    # a positional worker count.
    tracing, workloads = bench
    api = tracing.raw_api(selfnorm)
    earlier = {}
    for op in workloads.build("enumerate", 1, selfnorm):
        result = op.call(api)
        assert op.check(result, earlier) == [], op.label
        earlier[op.label] = result


def _sn_chain(node):
    """The attribute names of an `sn.a.b` chain, outermost last, or None."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    return names[::-1] if isinstance(node, ast.Name) and node.id == "sn" else None


def _pins_oracle(node, workers_at: dict) -> bool:
    """Whether node names exact_tstat_tail or passes a worker count to
    exact_tail or exact_tail_multi."""
    if isinstance(node, ast.Call):
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        return name in workers_at and (
            len(node.args) > workers_at[name] or any(k.arg == "workers" for k in node.keywords)
        )
    names = (getattr(node, "attr", None), getattr(node, "id", None), getattr(node, "name", None))
    return "exact_tstat_tail" in names


def test_benchmark_scripts_use_existing_names():
    workers_at = {
        name: list(inspect.signature(getattr(selfnorm, name)).parameters).index("workers")
        for name in ("exact_tail", "exact_tail_multi")
    }
    checked, missing, pinned = [], [], []
    for script in sorted(BENCHMARKS.glob("*.py")):
        for node in ast.walk(ast.parse(script.read_text(), str(script))):
            if _pins_oracle(node, workers_at):
                pinned.append(f"{script.name}:{node.lineno}")
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("selfnorm"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    checked.append(f"{script.name}: {node.module}.{alias.name}")
                    if not hasattr(module, alias.name):
                        missing.append(checked[-1])
            elif isinstance(node, ast.Attribute) and (chain := _sn_chain(node)):
                checked.append(f"{script.name}: sn.{'.'.join(chain)}")
                try:
                    functools.reduce(getattr, chain, selfnorm)
                except AttributeError:
                    missing.append(checked[-1])
    assert "record.py: selfnorm.simulate._draw_values" in checked
    assert "record.py: sn.bounds._bernstein_search" in checked
    assert missing == []
    assert pinned == []
