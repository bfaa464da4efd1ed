"""Invariant suites behind the `verify` command.

Each suite checks one invariant of the bound evaluator, the exact
enumeration oracle, the Monte Carlo estimator or the sweep renderer over
a fixed grid and trial budget.
Suites raise SuiteFailure with a specific message; anything else that
escapes is an internal error and exits differently.
"""

from __future__ import annotations

import decimal
import itertools
import json
import math
import sys
import time

import numpy as np

from . import bounds, oracle, report, simulate
from .bounds import (
    ENDPOINT,
    IMPOSSIBLE,
    bound_bn,
    bound_bn_entropy_form,
    bound_corollary,
    bound_tstat,
    endpoint_threshold,
    lambda_star,
    log_cosh,
    threshold_from_s,
    tstat_threshold,
)
from .oracle import FINAL_SUM, RUNNING_MAX, TSTAT, exact_tail, exact_tail_multi, tie_guarded
from .simulate import DistributionSpec, efron_check, estimate_tail

__all__ = ["SuiteFailure", "SUITES", "run_suites"]


class SuiteFailure(Exception):
    """An invariant did not hold."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SuiteFailure(message)


_BETAS = (1.1, 1.5, 2.0, 3.0, 10.0)
_S_GRID = (0.01, 0.1, 0.5, 0.9, 0.999)
_N_GRID = range(1, 65)


def _decimal_log_bn(n: int, s: float) -> float:
    """log B_n = -n H(s) at the float s, in 50-digit decimal arithmetic."""
    with decimal.localcontext(decimal.Context(prec=50)):
        s, one = decimal.Decimal(s), decimal.Decimal(1)
        return float(-n * ((one + s) / 2 * (one + s).ln() + (one - s) / 2 * (one - s).ln()))


def form_equivalence() -> str:
    """Product form and entropy form agree to 1e-12 relative in log space; at
    n = 10^6..10^16, x = 1, where the entropy form loses digits as 1e-16 / s,
    the product form is held to a 50-digit decimal reference instead."""
    worst = 0.0
    cells = [(n, b, threshold_from_s(n, b, s)) for n in _N_GRID for b in _BETAS for s in _S_GRID]
    cells += [(n, beta, 1.0) for n in (10**6, 10**12, 10**16) for beta in (2.0, 3.0)]
    for n, beta, x in cells:
        product = bound_bn(n, beta, x)
        lp = product.log_value
        le = (bound_bn_entropy_form(n, beta, x).log_value if n in _N_GRID
              else _decimal_log_bn(n, product.s))
        dev = abs(lp - le) / max(1.0, abs(le))
        worst = max(worst, dev)
        _require(
            dev <= 1e-12,
            f"forms disagree at n={n} beta={beta} s={product.s!r}: "
            f"{lp!r} vs {le!r} (rel {dev:.3e})",
        )
    return f"max log deviation {worst:.2e} over {len(cells)} cells"


def endpoint_convention() -> str:
    """At s = 1 both forms give exactly 2^-n with log value -n log 2."""
    cells = 0
    for n in _N_GRID:
        for beta in _BETAS:
            x = threshold_from_s(n, beta, 1.0)
            for evaluation in (bound_bn(n, beta, x), bound_bn_entropy_form(n, beta, x)):
                _require(
                    evaluation.regime == ENDPOINT,
                    f"s=1 not detected as endpoint at n={n} beta={beta}",
                )
                target = -n * math.log(2.0)
                _require(
                    abs(evaluation.log_value - target) <= 2.0 * math.ulp(abs(target)),
                    f"endpoint log value off at n={n} beta={beta}",
                )
                _require(
                    evaluation.value == 2.0 ** (-n),
                    f"endpoint value not 2^-{n} at beta={beta}",
                )
                cells += 1
    return f"{cells} endpoint cells exact"


def monotone_in_x() -> str:
    """B_n strictly decreases in x up to and including the endpoint."""
    ns = (1, 4, 16, 64)
    s_grid = list(np.linspace(0.005, 0.995, 100)) + [1.0]
    for n in ns:
        for beta in _BETAS:
            values = [bound_bn(n, beta, threshold_from_s(n, beta, s)).value for s in s_grid]
            for i in range(len(values) - 1):
                _require(
                    values[i + 1] < values[i],
                    f"not strictly decreasing at n={n} beta={beta} "
                    f"s={s_grid[i]:.4f}->{s_grid[i + 1]:.4f}",
                )
    return f"{len(ns) * len(_BETAS)} (n, beta) profiles strictly decreasing"


def monotone_in_n_and_limit() -> str:
    """For beta = 2, B_n(2, x) increases in n toward exp(-x^2/2)."""
    worst = 0.0
    for x in (0.5, 1.0, 2.0):
        ns = [n for n in (1, 4, 16, 100, 1000, 10**4, 10**5) if n >= x * x]
        values = [bound_bn(n, 2.0, x).value for n in ns]
        for i in range(len(values) - 1):
            _require(
                values[i] < values[i + 1],
                f"B_n(2, {x}) not strictly increasing at n={ns[i]}->{ns[i + 1]}",
            )
        limit = math.exp(-0.5 * x * x)
        gap = limit - values[-1]
        _require(
            0.0 <= gap < 1e-5,
            f"B_{ns[-1]}(2, {x}) = {values[-1]!r} vs limit {limit!r}: gap {gap:.3e}",
        )
        worst = max(worst, gap)
    return f"increasing toward the limit; final gap at most {worst:.2e}"


def dominance() -> str:
    """bound_bn never exceeds bound_corollary (any beta > 1)."""
    cells = 0
    for beta in _BETAS:
        for n in (1, 4, 16, 64):
            for s in (0.05, 0.15, 0.35, 0.55, 0.75, 0.95, 0.999):
                x = threshold_from_s(n, beta, s)
                b = bound_bn(n, beta, x).value
                c = bound_corollary(n, beta, x)
                _require(
                    b <= c + 1e-15,
                    f"dominance fails at n={n} beta={beta} s={s}: {b!r} > {c!r}",
                )
                cells += 1
    return f"{cells} cells dominated"


def bernstein_consistency() -> str:
    """Numeric minimization reproduces the closed form and its minimizer."""
    grid = [
        (n, beta, s, threshold_from_s(n, beta, s))
        for n in _N_GRID
        for beta in _BETAS
        for s in (0.01, 0.1, 0.5, 0.9, 0.99)
    ]
    # One search; each result equals bernstein_numeric's.
    found, log_objective, _ = bounds._bernstein_search([(n, beta, [x]) for n, beta, _, x in grid])
    worst_obj = worst_lam = 0.0
    for (n, beta, s, x), numeric, log_numeric in zip(grid, found, log_objective):
        closed = bound_bn(n, beta, x).value
        lam = lambda_star(n, beta, x)
        dev_obj = abs(math.exp(log_numeric) - closed) / closed
        dev_lam = abs(numeric - lam) / lam
        worst_obj = max(worst_obj, dev_obj)
        worst_lam = max(worst_lam, dev_lam)
        _require(
            dev_obj <= 1e-9,
            f"objective off by rel {dev_obj:.3e} at n={n} beta={beta} s={s}",
        )
        _require(
            dev_lam <= 1e-8,
            f"minimizer off by rel {dev_lam:.3e} at n={n} beta={beta} s={s}",
        )
    return f"{len(grid)} cells: objective within {worst_obj:.2e}, minimizer within {worst_lam:.2e}"


def majorization() -> str:
    """log_cosh(u) <= u^2/2 and log_cosh is even on [-50, 50]."""
    grid = np.linspace(-50.0, 50.0, 2001)
    for u, value, mirror in zip(grid, log_cosh(grid), log_cosh(-grid)):
        _require(value <= 0.5 * u * u, f"log_cosh({u}) exceeds u^2/2")
        _require(value == mirror, f"log_cosh not even at {u}")
    return "2001 grid points majorized"


def tstat_range() -> str:
    """tstat_threshold lands in (0, sqrt n]; its bound is a real probability."""
    cells = 0
    for n in (2, 3, 4, 8, 16, 64):
        root_n = endpoint_threshold(n, 2.0)
        for x in np.logspace(-6.0, 6.0, 25):
            tau = tstat_threshold(n, float(x))
            _require(0.0 < tau <= root_n, f"threshold {tau!r} out of range at n={n} x={x}")
            evaluation = bound_tstat(n, float(x))
            _require(
                evaluation.regime != IMPOSSIBLE,
                f"t-statistic bound fell in the impossible regime at n={n} x={x}",
            )
            _require(
                2.0 ** (-n) <= evaluation.value <= 1.0,
                f"t-statistic bound out of [2^-n, 1] at n={n} x={x}",
            )
            cells += 1
    return f"{cells} thresholds in range"


_ORACLE_BETAS = (1.5, 2.0, 3.0)
_ORACLE_S = tuple(k / 10.0 for k in range(1, 11))


def _oracle_cells(vectors):
    """(n, beta, s, exact running-maximum tail probability, its bound's value)
    for each magnitude vector, oracle beta and relative level s."""
    for mags in vectors:
        n = len(mags)
        for beta in _ORACLE_BETAS:
            xs = [threshold_from_s(n, beta, s) for s in _ORACLE_S]
            tails = exact_tail_multi(mags, beta, xs, RUNNING_MAX)
            for s, x, tail in zip(_ORACLE_S, xs, tails):
                yield n, beta, s, tail.probability, oracle._bound_for(RUNNING_MAX, n, beta, x).value


def oracle_below_bound() -> str:
    """Exact running-maximum tails never exceed bound_bn (unit magnitudes)."""
    worst = math.inf
    cells = 0
    for n, beta, s, p, b in _oracle_cells([1.0] * n for n in range(1, 17)):
        _require(
            p <= b,
            f"exact tail {p!r} exceeds bound {b!r} at n={n} beta={beta} s={s}",
        )
        worst = min(worst, b - p)
        cells += 1
    return f"{cells} cells; smallest slack {worst:.2e}"


def _weighted_vectors() -> list[np.ndarray]:
    rng = np.random.default_rng(20260814)
    vectors = []
    for i in range(50):
        n = int(rng.integers(2, 15))
        mags = rng.uniform(0.1, 3.0, n)
        if i % 7 == 3:
            mags[0] = 0.0
        vectors.append(mags)
    return vectors


def weighted_oracle_below_bound() -> str:
    """The same domination for drawn nonuniform magnitude vectors."""
    cells = 0
    for n, beta, s, p, b in _oracle_cells(_weighted_vectors()):
        _require(p <= b, f"weighted exact tail exceeds bound at n={n} beta={beta} s={s}")
        cells += 1
    return f"{cells} weighted cells dominated"


def endpoint_exactness() -> str:
    """Exactly one sign vector (all plus) reaches the endpoint threshold."""
    for n in range(1, 17):
        for beta in (1.1, 1.5, 2.0, 3.0):
            tail = exact_tail([1.0] * n, beta, endpoint_threshold(n, beta), RUNNING_MAX)
            _require(
                tail.hits == 1,
                f"endpoint hits {tail.hits} != 1 at n={n} beta={beta}",
            )
    return "hits == 1 for n <= 16, four betas"


def two_point_tightness() -> str:
    """Final-sum tails respect the numeric two-point bound; scale drops out."""
    grid = [
        (n, beta, s, threshold_from_s(n, beta, s))
        for n in (2, 4, 8, 12)
        for beta in _ORACLE_BETAS
        for s in (0.1, 0.3, 0.5, 0.7, 0.9)
    ]
    _, log_objective, _ = bounds._bernstein_search([(n, beta, [x]) for n, beta, _, x in grid])
    for (n, beta, s, x), log_numeric in zip(grid, log_objective):
        exact = exact_tail([1.0] * n, beta, x, FINAL_SUM)
        numeric = math.exp(log_numeric)
        _require(
            exact.probability <= numeric,
            f"final-sum tail exceeds numeric bound at n={n} beta={beta} s={s}",
        )
        for a in (0.5, 3.7):
            for stat in (RUNNING_MAX, FINAL_SUM):
                scaled = exact_tail([a] * n, beta, x, stat)
                unit = exact_tail([1.0] * n, beta, x, stat)
                _require(
                    scaled.hits == unit.hits,
                    f"magnitude scale {a} changed the count at "
                    f"n={n} beta={beta} s={s} {stat}",
                )
    return f"{len(grid)} cells tight and scale-invariant"


def mirror_symmetry() -> str:
    """Counting final sums <= -x V by direct enumeration matches exact_tail."""
    cells = 0
    for n in (2, 5, 8, 11):
        mags = [1.0 + 0.25 * k for k in range(n)]
        for beta in (2.0, 3.0):
            for s in (0.3, 0.7, 1.0):
                x = threshold_from_s(n, beta, s)
                upper = exact_tail(mags, beta, x, FINAL_SUM)
                cut = tie_guarded(x) * bounds.v_norm(mags, beta)
                flipped = sum(
                    1
                    for eps in itertools.product((-1.0, 1.0), repeat=n)
                    if sum(e * a for e, a in zip(eps, mags)) <= -cut
                )
                _require(
                    flipped == upper.hits,
                    f"mirrored count {flipped} != {upper.hits} at n={n} beta={beta} s={s}",
                )
                cells += 1
    return f"{cells} mirrored counts equal"


def oracle_monotone_in_x() -> str:
    """Hit counts never increase as the threshold rises."""
    for n in (6, 12):
        for stat in (RUNNING_MAX, FINAL_SUM):
            xs = [threshold_from_s(n, 2.0, s) for s in _ORACLE_S]
            tails = exact_tail_multi([1.0] * n, 2.0, xs, stat)
            hits = [t.hits for t in tails]
            _require(
                all(hits[i] >= hits[i + 1] for i in range(len(hits) - 1)),
                f"hits increased along the threshold grid at n={n} {stat}",
            )
    return "hit counts nonincreasing on 4 profiles"


def bound_respect() -> str:
    """Estimates stay within bound + 3 half-widths of the matching bound."""
    trials = 20000
    specs = (
        DistributionSpec.rademacher(),
        DistributionSpec.uniform(),
        DistributionSpec.gaussian(),
        DistributionSpec.two_point(3.7),
        DistributionSpec.pareto(1.2),
    )
    cells = []  # (spec, stat, n, x, where, seed base); cell i draws with seed base + i
    for spec in specs:
        for stat in (RUNNING_MAX, FINAL_SUM):
            for n, s in ((8, 0.4), (20, 0.7)):
                x = threshold_from_s(n, 2.0, s)
                cells.append((spec, stat, n, x, f"n={n} s={s}", 1000))
    for spec in (DistributionSpec.gaussian(), DistributionSpec.rademacher()):
        for x in (1.5, 2.5):
            cells.append((spec, TSTAT, 10, x, f"x={x}", 2000))
    for i, (spec, stat, n, x, where, base) in enumerate(cells):
        est = estimate_tail(spec, n, 2.0, x, stat, trials, seed=base + i)
        b = oracle._bound_for(stat, n, 2.0, x).value
        margin = 3.0 * (est.ci_high - est.p_hat)
        _require(
            simulate.respects(est, b),
            f"{spec.kind} {stat} {where}: p_hat {est.p_hat} exceeds bound {b} + {margin}",
        )
    return f"{len(cells)} cells respected their bound"


def oracle_agreement() -> str:
    """Exact probabilities sit inside the 99% interval in >= 95% of cells."""
    trials = 20000
    rng = np.random.default_rng(7)
    fixed = [rng.uniform(0.2, 2.0, 8), rng.uniform(0.2, 2.0, 12)]
    specs = [(DistributionSpec.rademacher(), [1.0] * n, n) for n in (6, 10, 14)]
    specs += [(DistributionSpec.fixed(m), list(m), len(m)) for m in fixed]
    total = inside = 0
    for idx, (spec, mags, n) in enumerate(specs):
        for stat in (RUNNING_MAX, FINAL_SUM):
            for s in (0.2, 0.4, 0.6, 0.8):
                x = threshold_from_s(n, 2.0, s)
                exact = exact_tail(mags, 2.0, x, stat).probability
                est = estimate_tail(spec, n, 2.0, x, stat, trials, seed=3000 + 31 * idx)
                total += 1
                if est.ci_low <= exact <= est.ci_high:
                    inside += 1
    _require(total >= 40, f"agreement grid too small ({total} cells)")
    _require(
        inside >= math.ceil(0.95 * total),
        f"exact value inside the interval in only {inside}/{total} cells",
    )
    return f"{inside}/{total} cells covered"


def determinism() -> str:
    """Worker count never changes a hit count; repeat calls are identical."""
    trials = 30000
    outcomes = []
    for spec, stat, n, x in (
        (DistributionSpec.gaussian(), RUNNING_MAX, 12, 1.2),
        (DistributionSpec.rademacher(), TSTAT, 6, 1.5),
    ):
        per_worker = [
            estimate_tail(spec, n, 2.0, x, stat, trials, seed=99, workers=w)
            for w in (1, 2, 8)
        ]
        _require(
            len({(e.hits, e.degenerate_count) for e in per_worker}) == 1,
            f"worker count changed the outcome for {spec.kind} {stat}",
        )
        repeat = estimate_tail(spec, n, 2.0, x, stat, trials, seed=99, workers=2)
        _require(
            repeat == per_worker[1],
            f"repeat call changed the outcome for {spec.kind} {stat}",
        )
        outcomes.append(per_worker[0].hits)
    return f"hit counts {outcomes} stable across workers 1/2/8"


def heavy_tail_decay() -> str:
    """Infinite-variance sampling still shows a nonincreasing tail over n."""
    spec = DistributionSpec.pareto(1.2)
    _require(spec.infinite_moment(1.5), "tail index 1.2 should flag E|xi|^1.5 infinite")
    estimates = []
    for n, trials in ((10, 40000), (100, 40000), (1000, 20000)):
        estimates.append(estimate_tail(spec, n, 1.5, 0.5, FINAL_SUM, trials, seed=5))
    for first, second in zip(estimates, estimates[1:]):
        slack = (first.ci_high - first.p_hat) + (second.ci_high - second.p_hat)
        _require(
            second.p_hat <= first.p_hat + slack,
            f"tail rose beyond interval overlap: {first.p_hat} -> {second.p_hat}",
        )
    return "p_hat " + " -> ".join(f"{e.p_hat:.4f}" for e in estimates)


def efron_reduction() -> str:
    """The t-statistic event and its self-normalized form never disagree."""
    trials = 20000
    cells = [(DistributionSpec.gaussian(), 10, 1.5), (DistributionSpec.pareto(1.2), 5, 0.7)]
    cells += [(DistributionSpec.rademacher(), n, 1.0) for n in range(2, 11)]
    for spec, n, x in cells:
        violations = efron_check(spec, n, x, trials, seed=77)
        _require(
            violations == 0,
            f"{violations} reduction violations for {spec.kind} n={n} x={x}",
        )
    return f"0 violations over {len(cells)} cells x {trials} trials"


_SWEEP_GRID = report.SweepGrid(
    n_values=(4, 32),
    beta_values=(1.5, 2.0),
    s_values=(0.25, 0.5, 1.0),
    stat=RUNNING_MAX,
    dist=DistributionSpec.rademacher(),
    trials=500,
    seed=11,
)


def sweep_round_trip() -> str:
    """CSV/JSON rendering re-parses to the same values at 12 digits, and the
    table the CLI writes renders the same text as the row adapters."""
    table = report.sweep_table(_SWEEP_GRID, workers=1)
    rows = report.run_sweep(_SWEEP_GRID, workers=1)
    for fmt, render, write, parse in (
        ("CSV", report.render_csv, table.csv, report.parse_csv),
        ("JSON", report.render_json, table.json, json.loads),
    ):
        text = render(rows)
        parsed = parse(text)
        _require(len(parsed) == len(rows), f"row count changed through {fmt}")
        for row, back in zip(rows, parsed):
            for col in report.COLUMNS:
                value = row[col]
                expected = float(f"{value:.12g}") if isinstance(value, float) else value
                _require(
                    back[col] == expected,
                    f"column {col} changed through {fmt}: {back[col]!r} != {expected!r}",
                )
        _require(write() == text, f"the sweep table's {fmt} differs from its rows'")
    return f"{len(rows)} rows round-tripped in CSV and JSON"


def sweep_thread_invariance() -> str:
    """Rendered sweep bytes are identical for 1, 2 and 8 workers."""
    tables = [report.sweep_table(_SWEEP_GRID, workers=w) for w in (1, 2, 8)]
    texts = {(report.render_csv(table.rows()), table.csv(), table.json()) for table in tables}
    _require(len(texts) == 1, "worker count changed the rendered sweep")
    return "identical bytes for workers 1/2/8"


SUITES: tuple[tuple[str, object], ...] = (
    ("FORM EQUIVALENCE", form_equivalence),
    ("ENDPOINT CONVENTION", endpoint_convention),
    ("MONOTONE IN X", monotone_in_x),
    ("MONOTONE IN N AND LIMIT", monotone_in_n_and_limit),
    ("DOMINANCE", dominance),
    ("BERNSTEIN CONSISTENCY", bernstein_consistency),
    ("MAJORIZATION", majorization),
    ("TSTAT RANGE", tstat_range),
    ("ORACLE BELOW BOUND", oracle_below_bound),
    ("WEIGHTED ORACLE BELOW BOUND", weighted_oracle_below_bound),
    ("ENDPOINT EXACTNESS", endpoint_exactness),
    ("TWO-POINT TIGHTNESS", two_point_tightness),
    ("MIRROR SYMMETRY", mirror_symmetry),
    ("ORACLE MONOTONE IN X", oracle_monotone_in_x),
    ("BOUND RESPECT", bound_respect),
    ("ORACLE AGREEMENT", oracle_agreement),
    ("DETERMINISM", determinism),
    ("HEAVY-TAIL DECAY", heavy_tail_decay),
    ("EFRON REDUCTION", efron_reduction),
    ("SWEEP ROUND-TRIP", sweep_round_trip),
    ("SWEEP THREAD INVARIANCE", sweep_thread_invariance),
)


def run_suites() -> int:
    """Run every suite; exit code 0 (all pass), 1 (failure), 2 (internal error).

    Each suite's seconds go to stderr, so stdout stays deterministic.
    """
    width = max(len(name) for name, _ in SUITES)
    failures = errors = 0
    for name, suite in SUITES:
        start = time.perf_counter()
        try:
            detail = suite()
            print(f"PASS  {name:<{width}}  {detail}")
        except SuiteFailure as exc:
            failures += 1
            print(f"FAIL  {name:<{width}}  {exc}")
        except Exception as exc:  # noqa: BLE001 - reported as an internal error
            errors += 1
            print(f"ERROR {name:<{width}}  {type(exc).__name__}: {exc}")
        print(f"{name:<{width}}  {time.perf_counter() - start:.3f} s", file=sys.stderr)
    total = len(SUITES)
    print(f"{total - failures - errors}/{total} suites passed")
    if errors:
        return 2
    return 1 if failures else 0
