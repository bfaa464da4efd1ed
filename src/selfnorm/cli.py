"""Command-line interface: bound | oracle | simulate | sweep | verify.

Records are printed as one line of key=value pairs with floats at 12
significant digits.  Exit codes: 0 success, 1 verification failure or
aborted cross-check, 2 invalid flags or input (the n <= 30 budget too).
Thresholds are given either absolute (--x) or normalized (--s, with
x = s * n^((beta-1)/beta)); exactly one of the two must be present.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import report
from . import verify as verify_mod
from .bounds import (
    _corollary_log,
    _rescaled_x,
    _two_sided,
    alpha_in_mdp_window,
    bernstein_numeric,
    bound_bn,
    bound_bn_entropy_form,
    bound_corollary,
    bound_rescaled,
    bound_tstat,
    corollary_is_extrapolated,
    endpoint_threshold,
    mdp_alpha_window,
    threshold_from_s,
)
from .oracle import FINAL_SUM, RUNNING_MAX, exact_tail, exact_tstat_tail
from .simulate import TSTAT, DistributionSpec, _bound_for, estimate_tail, respects

__all__ = ["main", "build_parser"]

_STATS = {"running-max": RUNNING_MAX, "final-sum": FINAL_SUM, "tstat": TSTAT}
_KINDS = ("bn", "entropy", "corollary", "bernstein", "tstat", "two-sided", "rescaled")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _emit(pairs: list[tuple[str, object]]) -> None:
    print(" ".join(f"{key}={_fmt(value)}" for key, value in pairs))


def _read_magnitudes(path: str) -> np.ndarray:
    with open(path, "r", encoding="ascii") as handle:
        lines = handle.read().split("\n")
    values = [float(line) for line in lines if line.strip()]
    if not values:
        raise ValueError(f"no magnitudes found in {path!r}")
    return np.asarray(values, dtype=float)


def _parse_dist(text: str) -> DistributionSpec:
    kind, _, arg = text.partition(":")
    if kind in ("rademacher", "uniform", "gaussian"):
        if arg:
            raise ValueError(f"distribution {kind!r} takes no parameter")
        return getattr(DistributionSpec, kind)()
    if kind == "twopoint":
        if not arg:
            raise ValueError("twopoint needs a magnitude, e.g. twopoint:3.7")
        return DistributionSpec.two_point(float(arg))
    if kind == "pareto":
        if not arg:
            raise ValueError("pareto needs a tail index, e.g. pareto:1.2")
        return DistributionSpec.pareto(float(arg))
    if kind == "mags":
        if not arg:
            raise ValueError("mags needs a file path, e.g. mags:weights.txt")
        return DistributionSpec.fixed(_read_magnitudes(arg))
    raise ValueError(f"unknown distribution {text!r}")


def _resolve_x(args, n: int, beta: float) -> float:
    if (args.x is None) == (args.s is None):
        raise ValueError("exactly one of --x and --s is required")
    if args.s is not None:
        return threshold_from_s(n, beta, args.s)
    return args.x


def _require_x(args, context: str) -> float:
    if args.x is None or args.s is not None:
        raise ValueError(f"{context} takes an absolute threshold --x, not --s")
    return args.x


def _bound_record(args) -> list[tuple[str, object]]:
    n, beta = args.n, args.beta
    pairs: list[tuple[str, object]] = [("kind", args.kind), ("n", n)]
    if args.kind == "tstat":
        x = _require_x(args, "kind tstat")
        evaluation = bound_tstat(n, x)  # B_n(2, tau) at tau = tstat_threshold(n, x)
        return pairs + [
            ("x", x),
            ("tau", evaluation.x),
            ("regime", evaluation.regime),
            ("log_value", evaluation.log_value),
            ("value", evaluation.value),
        ]
    x = _resolve_x(args, n, beta)
    pairs += [("beta", beta), ("x", x)]
    if args.kind == "rescaled":
        endpoint_threshold(n, beta)  # checks n, then beta, before alpha, like every kind
        if args.alpha is None:
            raise ValueError("kind rescaled needs --alpha")
        low, high = mdp_alpha_window(beta)
        scaled = _rescaled_x(n, x, args.alpha)
        return pairs + [
            ("alpha", args.alpha),
            ("alpha_low", low),
            ("alpha_high", high),
            ("in_window", alpha_in_mdp_window(beta, args.alpha)),
            ("value", bound_rescaled(n, beta, x, args.alpha)),
            ("scaled_x", scaled),
        ]
    # Every other kind reads s and the regime from one evaluation of B_n.
    evaluation = (bound_bn_entropy_form if args.kind == "entropy" else bound_bn)(n, beta, x)
    pairs += [("s", evaluation.s), ("regime", evaluation.regime)]
    if args.kind == "corollary":
        return pairs + [
            ("log_value", min(0.0, _corollary_log(n, beta, x))),
            ("value", bound_corollary(n, beta, x)),
            ("extrapolated", corollary_is_extrapolated(beta)),
        ]
    if args.kind == "bernstein":
        result = bernstein_numeric(n, beta, x)
        return pairs + [
            ("lambda_star", result.lambda_star),
            ("iterations", result.iterations),
            ("log_value", result.log_objective),
            ("value", result.objective_value),
        ]
    if args.kind == "two-sided":
        log_value, value = _two_sided(evaluation)
    else:
        log_value, value = evaluation.log_value, evaluation.value
    return pairs + [("log_value", log_value), ("value", value)]


def cmd_bound(args) -> int:
    _emit(_bound_record(args))
    return 0


def _oracle_magnitudes(args, dist: DistributionSpec) -> tuple[int, np.ndarray]:
    if not dist.supports_exact():
        raise ValueError(f"distribution {dist.kind!r} has no finite sign-vector enumeration")
    n = args.n
    if n is None:
        if dist.kind != "fixed_magnitudes":
            raise ValueError("--n is required")
        n = len(dist.magnitudes)
    return n, dist.exact_magnitudes(n)


def _cell(args, stat: str, n: int):
    """(x, beta, bound evaluation, record fields) of an oracle or simulate
    cell; the t-statistic takes --x only, and its bound is B_n at beta 2."""
    if stat == TSTAT:
        x = _require_x(args, "stat tstat")
        return x, 2.0, _bound_for(stat, n, 2.0, x), [("x", x)]
    x = _resolve_x(args, n, args.beta)
    evaluation = _bound_for(stat, n, args.beta, x)
    return x, args.beta, evaluation, [("beta", args.beta), ("x", x), ("s", evaluation.s)]


def cmd_oracle(args) -> int:
    stat = _STATS[args.stat]
    dist = _parse_dist(args.dist)
    n, mags = _oracle_magnitudes(args, dist)
    x, beta, evaluation, fields = _cell(args, stat, n)
    tail = exact_tstat_tail(mags, x) if stat == TSTAT else exact_tail(mags, beta, x, stat)
    pairs = [("n", n), *fields, ("stat", args.stat), ("hits", tail.hits), ("total", tail.total)]
    if stat == TSTAT:
        pairs.append(("degenerate", tail.degenerate))
    pairs += [("probability", tail.probability), ("bound", evaluation.value)]
    _emit(pairs)
    return 0


def cmd_simulate(args) -> int:
    stat = _STATS[args.stat]
    dist = _parse_dist(args.dist)
    n = args.n
    if n is None:
        raise ValueError("--n is required")
    x, beta, evaluation, fields = _cell(args, stat, n)
    estimate = estimate_tail(dist, n, beta, x, stat, args.trials, args.seed)
    bound = evaluation.value
    pairs = [
        ("dist", args.dist),
        ("n", n),
        *fields,
        ("stat", args.stat),
        ("trials", estimate.trials),
        ("seed", estimate.seed),
        ("hits", estimate.hits),
        ("degenerate", estimate.degenerate_count),
        ("p_hat", estimate.p_hat),
        ("ci_low", estimate.ci_low),
        ("ci_high", estimate.ci_high),
        ("bound", bound),
    ]
    if stat != TSTAT:
        pairs.append(("corollary", bound_corollary(n, beta, x)))
    pairs.append(("respect", "PASS" if respects(estimate, bound) else "FAIL"))
    _emit(pairs)
    return 0


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(token) for token in text.split(","))


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(token) for token in text.split(","))


def cmd_sweep(args) -> int:
    grid = report.SweepGrid(
        n_values=_int_list(args.n),
        beta_values=_float_list(args.beta),
        s_values=_float_list(args.s),
        stat=_STATS[args.stat],
        dist=_parse_dist(args.dist),
        trials=args.trials,
        seed=args.seed,
    )
    rows = report.run_sweep(grid)
    text = report.render_csv(rows) if args.format == "csv" else report.render_json(rows)
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="ascii", newline="") as handle:
            handle.write(text)
    return 0


def cmd_verify(args) -> int:
    return verify_mod.run_suites()


def _add_threshold_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--x", type=float, help="absolute threshold")
    sub.add_argument("--s", type=float, help="threshold relative to n^((beta-1)/beta)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="selfnorm",
        description="Deviation bounds for self-normalized sums, with exact "
        "enumeration and Monte Carlo checks.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    bound = commands.add_parser("bound", help="evaluate a closed-form or numeric bound")
    bound.add_argument("--n", type=int, required=True)
    bound.add_argument("--beta", type=float, default=2.0)
    _add_threshold_flags(bound)
    bound.add_argument("--kind", choices=_KINDS, default="bn")
    bound.add_argument("--alpha", type=float, help="rescaling exponent for kind=rescaled")
    bound.set_defaults(func=cmd_bound)

    oracle_cmd = commands.add_parser("oracle", help="exact tail by sign-vector enumeration")
    oracle_cmd.add_argument("--n", type=int)
    oracle_cmd.add_argument("--beta", type=float, default=2.0)
    _add_threshold_flags(oracle_cmd)
    oracle_cmd.add_argument("--stat", choices=sorted(_STATS), default="running-max")
    oracle_cmd.add_argument("--dist", default="rademacher")
    oracle_cmd.set_defaults(func=cmd_oracle)

    simulate_cmd = commands.add_parser("simulate", help="seeded Monte Carlo tail estimate")
    simulate_cmd.add_argument("--n", type=int)
    simulate_cmd.add_argument("--beta", type=float, default=2.0)
    _add_threshold_flags(simulate_cmd)
    simulate_cmd.add_argument("--stat", choices=sorted(_STATS), default="running-max")
    simulate_cmd.add_argument("--dist", default="rademacher")
    simulate_cmd.add_argument("--trials", type=int, default=10**6)
    simulate_cmd.add_argument("--seed", type=int, default=0)
    simulate_cmd.set_defaults(func=cmd_simulate)

    sweep = commands.add_parser("sweep", help="bound/oracle/Monte Carlo table over a grid")
    sweep.add_argument("--n", required=True, help="comma-separated list, e.g. 4,8,16")
    sweep.add_argument("--beta", default="2", help="comma-separated list")
    sweep.add_argument("--s", required=True, help="comma-separated ascending list in (0,1]")
    sweep.add_argument("--stat", choices=sorted(_STATS), default="running-max")
    sweep.add_argument("--dist", default="rademacher")
    sweep.add_argument("--trials", type=int, default=10**4)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--out", help="output path; stdout when omitted")
    sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    sweep.set_defaults(func=cmd_sweep)

    verify_cmd = commands.add_parser("verify", help="run every built-in invariant suite")
    verify_cmd.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # A cross-check that aborted (oracle routes, numeric minimizer).
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
