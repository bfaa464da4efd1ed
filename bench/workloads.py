"""The benchmark's workloads: inputs drawn from the seed, the library calls
one pass makes, and the check every call's output must pass.

Sizes (n, trial counts, grid shapes) are fixed per workload; the seed only
moves thresholds, exponents, magnitudes and Monte Carlo keys, so every seed
costs about the same and run-to-run spread measures the program, not the
draw.  The library receives only these generated inputs.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import sys
from dataclasses import dataclass
from typing import Callable

# Monte Carlo trials per n = 20 cell.  The n = 1000 cell is one block, so
# the block-sized temporaries show in peak RSS; at 5000 trials they take it
# from about 80 to about 270 MB.  More trials would make the cell, whose
# time swings with the host's memory traffic, most of a pass.
MC_TRIALS = 50_000
BIG_N, BIG_TRIALS = 1000, 5_000
# Two full Monte Carlo blocks per sweep cell, so both threads draw.
SWEEP_N = (12, 16, 17)
SWEEP_BETAS = (1.5, 2.0)
SWEEP_TRIALS = 65_536
TABLE_N = tuple(range(32, 4097, 32))
# The bound table runs as this many sweep calls over consecutive n ranges,
# so the fastest time of each call is taken at a finer grain (see run.py).
TABLE_CALLS = 8
TABLE_BETA_BANDS = ((1.2, 1.3), (1.45, 1.55), (1.95, 2.05), (2.9, 3.1))

# pareto(0.01) cells fail at baseline: the magnitude transform overflows
# (ROADMAP item 4), and with one dominant magnitude the tail is near 1/2,
# above bound_bn for beta < 2 and x just below 1.  They stay in the
# workload so the failures are counted until the program is fixed.
PARETO_DEFECT = "overflow (ROADMAP item 4); beta < 2 tail above bound_bn"

# CSV cells carry 12 significant digits, so comparisons between two parsed
# cells allow this much relative rounding.
_CSV_ROUNDING = 1e-11


@dataclass(frozen=True)
class Op:
    """One library call of a pass.

    call(api) makes the call through api (raw or traced functions);
    check(result, earlier) lists the problems found in its output, where
    earlier maps the labels of this pass's previous ops to their results;
    digest(result) is the deterministic text hashed into the output digest.
    known_defect names the open defect this op exposes at baseline: its
    failures are counted and reported, but do not make the run incorrect.
    """

    label: str
    call: Callable
    check: Callable
    digest: Callable
    known_defect: str = ""


def _tail_digest(tail) -> str:
    return f"{tail.hits}/{tail.total}/{tail.degenerate}"


def _estimate_digest(est) -> str:
    return f"{est.hits}/{est.trials}/{est.degenerate_count}"


def _problems(*pairs) -> list[str]:
    return [message for ok, message in pairs if not ok]


def unit_cut(sn, n: int, beta: float, x: float) -> int:
    """Smallest integer the sum statistics must reach for unit magnitudes.

    The oracle counts {stat >= tie_guarded(x) * V_n}; with unit magnitudes
    the statistic is an integer, so the event is {stat >= ceil(cut)}.
    """
    m = math.ceil(sn.tie_guarded(x) * sn.v_norm([1.0] * n, beta))
    if m < 1:
        raise ValueError(f"reference counts need a positive cut, got {m}")
    return m


def binomial_tail(n: int, m: int) -> int:
    """#{sign vectors with S_n >= m}: S_n = 2k - n for k plus signs."""
    k_min = max(0, (m + n + 1) // 2)
    return sum(math.comb(n, k) for k in range(k_min, n + 1))


def reflection_count(n: int, m: int) -> int:
    """#{max_k S_k >= m} = #{S_n >= m} + #{S_n > m} for m >= 1 (André)."""
    return binomial_tail(n, m) + binomial_tail(n, m + 1)


def _exact_op(sn, label, mags, beta, x, stat, reference=None) -> Op:
    def check(tail, earlier):
        bound = sn.bound_bn(len(mags), beta, x).value
        problems = _problems(
            (tail.total == 1 << len(mags), f"{label}: total {tail.total}"),
            (tail.probability <= bound, f"{label}: {tail.probability!r} > bound {bound!r}"),
        )
        if reference is not None and tail.hits != reference:
            problems.append(f"{label}: hits {tail.hits} != reference {reference}")
        return problems

    return Op(
        label,
        lambda api: api.exact_tail(mags, beta, x, stat, 1),
        check,
        _tail_digest,
    )


def _enumerate(sn, rng: random.Random) -> list[Op]:
    ops = []

    def unit(n, stat, count):
        beta = rng.choice((1.5, 2.0, 3.0))
        x = sn.threshold_from_s(n, beta, rng.uniform(0.05, 0.95))
        ref = count(n, unit_cut(sn, n, beta, x))
        ops.append(_exact_op(sn, f"unit-{stat}-n{n}", [1.0] * n, beta, x, stat, ref))

    # Unit magnitudes: countable in closed form (ROADMAP item 1).
    for n in (16, 19, 21):
        unit(n, sn.RUNNING_MAX, reflection_count)
    for n in (17, 20):
        unit(n, sn.FINAL_SUM, binomial_tail)

    # Float magnitudes under the running max: no closed form.  The multi
    # call covers the same thresholds as the four singles before it.
    mags = [round(rng.uniform(0.1, 2.0), 6) for _ in range(18)]
    beta = rng.choice((1.5, 2.0, 3.0))
    xs = sorted(sn.threshold_from_s(18, beta, rng.uniform(0.05, 0.5)) for _ in range(4))
    singles = [f"float-running_max-n18-{i}" for i in range(len(xs))]
    for label, x in zip(singles, xs):
        ops.append(_exact_op(sn, label, mags, beta, x, sn.RUNNING_MAX))

    def check_multi(tails, earlier):
        problems = []
        for label, tail in zip(singles, tails):
            single = earlier.get(label)
            if single is None or single.hits != tail.hits or single.total != tail.total:
                problems.append(f"multi: {tail} differs from {label} {single}")
        return problems

    ops.append(
        Op(
            "float-running_max-n18-multi",
            lambda api: api.exact_tail_multi(mags, beta, xs, sn.RUNNING_MAX, 1),
            check_multi,
            lambda tails: ",".join(_tail_digest(t) for t in tails),
        )
    )

    def tstat(label, tmags):
        x = rng.uniform(0.5, 3.0)

        def check(tail, earlier):
            bound = sn.bound_tstat(len(tmags), x).value
            return _problems(
                (tail.probability <= bound, f"{label}: {tail.probability!r} > bound {bound!r}"),
            )

        ops.append(
            Op(label, lambda api: api.exact_tstat_tail(tmags, x, 1), check, _tail_digest)
        )

    tstat("tstat-unit-n16", [1.0] * 16)
    tstat("tstat-float-n18", [round(rng.uniform(0.1, 2.0), 6) for _ in range(18)])
    return ops


def _respects(est, bound: float) -> bool:
    """p_hat <= bound + 3 half-widths, the verify BOUND RESPECT rule."""
    return est.p_hat <= bound + 3.0 * (est.ci_high - est.p_hat)


def _estimate_op(sn, label, spec, n, beta, x, stat, trials, seed, known_defect="") -> Op:
    def check(est, earlier):
        if stat == sn.TSTAT:
            bound = sn.bound_tstat(n, x).value
        else:
            bound = sn.bound_bn(n, beta, x).value
        return _problems(
            (est.trials == trials, f"{label}: {est.trials} trials"),
            (_respects(est, bound), f"{label}: p_hat {est.p_hat} beyond bound {bound}"),
        )

    return Op(
        label,
        lambda api: api.estimate_tail(spec, n, beta, x, stat, trials, seed, 1),
        check,
        _estimate_digest,
        known_defect,
    )


def _montecarlo(sn, rng: random.Random) -> list[Op]:
    D = sn.DistributionSpec
    laws = (
        ("rademacher", D.rademacher(), ""),
        ("uniform", D.uniform(), ""),
        ("gaussian", D.gaussian(), ""),
        ("pareto1.5", D.pareto(1.5), ""),
        ("pareto0.01", D.pareto(0.01), PARETO_DEFECT),
    )
    ops = []
    n = 20
    seeds = {}
    for name, spec, defect in laws:
        # One stream key per law, shared by its three statistics.
        seed = seeds[name] = rng.getrandbits(63)
        beta = rng.choice((1.5, 2.0))
        for stat in (sn.RUNNING_MAX, sn.FINAL_SUM):
            x = sn.threshold_from_s(n, beta, rng.uniform(0.1, 0.6))
            ops.append(_estimate_op(
                sn, f"{name}-{stat}", spec, n, beta, x, stat, MC_TRIALS, seed, defect
            ))
        x = rng.uniform(0.5, 3.0)
        ops.append(_estimate_op(
            sn, f"{name}-tstat", spec, n, 2.0, x, sn.TSTAT, MC_TRIALS, seed, defect
        ))

    x_efron = rng.uniform(0.5, 3.0)
    ops.append(
        Op(
            "gaussian-efron",
            lambda api: api.efron_check(
                D.gaussian(), n, x_efron, MC_TRIALS, seeds["gaussian"], 1
            ),
            lambda count, earlier: _problems((count == 0, f"efron: {count} disagreements")),
            str,
        )
    )
    x_big = sn.threshold_from_s(BIG_N, 2.0, rng.uniform(0.01, 0.05))
    ops.append(
        _estimate_op(
            sn, f"gaussian-running_max-n{BIG_N}", D.gaussian(), BIG_N, 2.0, x_big,
            sn.RUNNING_MAX, BIG_TRIALS, rng.getrandbits(63),
        )
    )
    return ops


def _levels(rng: random.Random, bands, digits: int = 4) -> list[str]:
    """One value drawn inside each (low, high) band, as CLI tokens.

    Stratified draws keep the spread of thresholds, and so the cost of a
    pass, nearly the same for every seed.
    """
    return [repr(round(rng.uniform(low, high), digits)) for low, high in bands]


def _s_bands(count: int) -> list[tuple[float, float]]:
    """count disjoint ascending bands covering (0, 1)."""
    return [((i + 0.1) / count, (i + 0.9) / count) for i in range(count)]


def cli_sweep(api, argv: list[str]):
    """Run `selfnorm <argv>` in-process; returns (exit code, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = api.cli_main(argv)
    return code, out.getvalue()


def _round_trip(sn, text: str, expect_rows: int) -> tuple[list[dict], list[str]]:
    rows = sn.parse_csv(text)
    return rows, _problems(
        (sn.render_csv(rows) == text, "CSV does not round-trip through parse_csv"),
        (len(rows) == expect_rows, f"{len(rows)} rows, expected {expect_rows}"),
    )


def _sweep(sn, rng: random.Random) -> list[Op]:
    s_tokens = _levels(rng, _s_bands(10))
    seed = rng.getrandbits(63)

    def check_sweep(n):
        cells = [(b, float(s)) for b in SWEEP_BETAS for s in s_tokens]

        def check(result, earlier):
            code, text = result
            if code != 0:
                return [f"sweep n={n} exited {code}"]
            rows, problems = _round_trip(sn, text, len(cells))
            for (beta, s), row in zip(cells, rows):
                where = f"n={n} beta={beta} s={s}"
                x = sn.threshold_from_s(n, beta, s)
                exact = reflection_count(n, unit_cut(sn, n, beta, x)) / (1 << n)
                bound = row["bound_bn"] * (1.0 + _CSV_ROUNDING)
                margin = 3.0 * (row["mc_ci_high"] - row["mc_p_hat"])
                problems += _problems(
                    ((row["n"], row["beta"], row["s"]) == (n, beta, s), f"{where}: row order"),
                    (row["oracle_exact"] == float(f"{exact:.12g}"),
                     f"{where}: oracle {row['oracle_exact']} != reference {exact}"),
                    (row["oracle_exact"] <= bound, f"{where}: oracle above bound"),
                    (row["mc_p_hat"] <= bound + margin, f"{where}: Monte Carlo beyond bound"),
                )
            return problems

        return check

    # One sweep call per n: every s and beta of an n stay in one call, so
    # the work the calls could share (one enumeration and one Monte Carlo
    # stream per n) is all inside a call.
    ops = []
    for n in SWEEP_N:
        argv = [
            "sweep",
            "--n", str(n),
            "--beta", ",".join(map(repr, SWEEP_BETAS)),
            "--s", ",".join(s_tokens),
            "--dist", "rademacher",
            "--trials", str(SWEEP_TRIALS),
            "--seed", str(seed),
        ]
        ops.append(Op(
            f"sweep-n{n}", lambda api, argv=argv: cli_sweep(api, argv), check_sweep(n),
            lambda r: r[1],
        ))
    return ops


def _bound_table(sn, rng: random.Random) -> list[Op]:
    betas = _levels(rng, TABLE_BETA_BANDS, 3)
    s_tokens = _levels(rng, _s_bands(50))

    def check_table(expect):
        def check(result, earlier):
            code, text = result
            if code != 0:
                return [f"bound_table exited {code}"]
            rows, problems = _round_trip(sn, text, expect)
            for row in rows:
                bn, numeric = row["bound_bn"], row["bernstein_numeric"]
                where = f"n={row['n']} beta={row['beta']} s={row['s']}"
                if row["bound_corollary"] * (1.0 + _CSV_ROUNDING) < bn:
                    problems.append(f"{where}: corollary below bound_bn")
                # The numeric minimum reproduces the closed form (verify uses
                # 1e-9); deep tails underflow to 0, hence the absolute floor.
                if numeric is not None and abs(numeric - bn) > 1e-9 * bn + sys.float_info.min:
                    problems.append(f"{where}: bernstein {numeric} != bound_bn {bn}")
            return problems

        return check

    ops = []
    size = len(TABLE_N) // TABLE_CALLS
    for lo in range(0, len(TABLE_N), size):
        n_values = TABLE_N[lo:lo + size]
        argv = [
            "sweep",
            "--n", ",".join(map(str, n_values)),
            "--beta", ",".join(betas),
            "--s", ",".join(s_tokens),
            "--dist", "gaussian",
            "--trials", "0",
        ]
        ops.append(Op(
            f"bound_table-n{n_values[0]}-{n_values[-1]}",
            lambda api, argv=argv: cli_sweep(api, argv),
            check_table(len(n_values) * len(betas) * len(s_tokens)),
            lambda r: r[1],
        ))
    return ops


_BUILDERS = {
    "enumerate": _enumerate,
    "montecarlo": _montecarlo,
    "sweep": _sweep,
    "bound_table": _bound_table,
}
WORKLOADS = tuple(_BUILDERS)


def build(name: str, seed: int, sn) -> list[Op]:
    """The fixed batch of ops one pass of workload `name` runs."""
    return _BUILDERS[name](sn, random.Random(seed))


def warm_up(name: str, api, sn) -> None:
    """One small call into the layer the workload drives, before timing."""
    if name == "enumerate":
        api.exact_tail([1.0] * 8, 2.0, 1.0, sn.RUNNING_MAX, 1)
    elif name == "montecarlo":
        api.estimate_tail(sn.DistributionSpec.gaussian(), 8, 2.0, 1.0, sn.RUNNING_MAX, 1000, 0, 1)
    else:
        code, _ = cli_sweep(api, ["sweep", "--n", "4", "--s", "0.5", "--trials", "100"])
        if code != 0:
            raise RuntimeError(f"warm-up sweep exited {code}")
