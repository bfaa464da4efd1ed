"""Closed-form tail bounds for self-normalized sums of symmetric variables.

For independent symmetric random variables xi_1, ..., xi_n and an exponent
beta > 1, the self-normalized statistic is

    max_{1<=k<=n} S_k / V_n(beta),  S_k = xi_1 + ... + xi_k,
    V_n(beta) = (|xi_1|^beta + ... + |xi_n|^beta)^(1/beta).

The statistic never exceeds n^((beta-1)/beta), and its tail at level x
admits a bound B_n(beta, x) that depends on nothing but (n, beta, x).
This module evaluates B_n in log space through two independent routes
(the literal product form and a binary-entropy form), the sub-Gaussian
relaxation exp(-x^2 n^(2/beta-1) / 2), the exponential-moment problem
whose infimum equals B_n for two-point laws, and the reduction of
Student's t-statistic to a self-normalized sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "INTERIOR",
    "ENDPOINT",
    "IMPOSSIBLE",
    "BetaParam",
    "BoundEvaluation",
    "BernsteinResult",
    "endpoint_threshold",
    "threshold_from_s",
    "v_norm",
    "log_cosh",
    "bound_bn",
    "bound_bn_entropy_form",
    "bound_corollary",
    "corollary_is_extrapolated",
    "bound_rescaled",
    "mdp_alpha_window",
    "alpha_in_mdp_window",
    "lambda_star",
    "bernstein_numeric",
    "tstat_threshold",
    "bound_tstat",
    "two_sided_bound",
]

_LN2 = math.log(2.0)

# Threshold regimes: below the attainable endpoint, exactly at it, above it.
INTERIOR = "interior"
ENDPOINT = "endpoint"
IMPOSSIBLE = "impossible"


@dataclass(frozen=True)
class BetaParam:
    """Validated variation exponent; the bound is defined for beta > 1."""

    beta: float

    def __post_init__(self) -> None:
        b = float(self.beta)
        if not math.isfinite(b) or b <= 1.0:
            raise ValueError(f"beta must be a finite real > 1, got {self.beta!r}")
        object.__setattr__(self, "beta", b)


def _beta_value(beta: float | BetaParam) -> float:
    if isinstance(beta, BetaParam):
        return beta.beta
    return BetaParam(beta).beta


def _check_n(n: int, minimum: int = 1, name: str = "n") -> int:
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ValueError(f"{name} must be an integer, got {n!r}")
    if n < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {n}")
    return int(n)


def _check_x(x: float) -> float:
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"threshold x must be a finite real > 0, got {x!r}")
    return x


@dataclass(frozen=True)
class BoundEvaluation:
    """One evaluation of B_n(beta, x).

    s is the threshold rescaled by the endpoint n^((beta-1)/beta); t is the
    product-form parameter (1+s)/(1-s), recorded as +inf at and beyond the
    endpoint where it is undefined.  value = exp(log_value) up to one ulp.
    """

    n: int
    x: float
    s: float
    t: float
    log_value: float
    value: float
    regime: str


@dataclass(frozen=True)
class BernsteinResult:
    """Outcome of the numeric exponential-moment minimization."""

    lambda_star: float
    objective_value: float
    iterations: int
    log_objective: float  # the minimum f(lambda_star); objective_value is its exp


def endpoint_threshold(n: int, beta: float | BetaParam) -> float:
    """Largest attainable value n^((beta-1)/beta) of the statistic."""
    b = _beta_value(beta)
    return float(n) ** ((b - 1.0) / b)


def threshold_from_s(n: int, beta: float | BetaParam, s: float) -> float:
    """Absolute threshold x = s * n^((beta-1)/beta) for a relative level s."""
    return float(s) * endpoint_threshold(_check_n(n), beta)


def v_norm(xs, beta: float | BetaParam) -> float:
    """beta-norm (sum_i |x_i|^beta)^(1/beta) of a non-empty sample vector."""
    b = _beta_value(beta)
    arr = np.asarray(xs, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("sample vector must be a non-empty one-dimensional sequence")
    if not np.all(np.isfinite(arr)):
        raise ValueError("sample vector entries must all be finite")
    return float(np.sum(np.abs(arr) ** b) ** (1.0 / b))


def log_cosh(u: float) -> float:
    """log(cosh(u)) without overflow and without cancellation near 0.

    Large |u| uses |u| - log 2 + log1p(exp(-2|u|)); small |u| uses
    log1p(2 sinh^2(u/2)), accurate down to the u^2/2 series region.
    """
    a = abs(float(u))
    if a < 1.0:
        return math.log1p(2.0 * math.sinh(0.5 * a) ** 2)
    return a - _LN2 + math.log1p(math.exp(-2.0 * a))


def _entropy(s: float) -> float:
    """H(s) = ((1+s)/2) log(1+s) + ((1-s)/2) log(1-s) on [0, 1].

    At s = 1 the (1-s) log(1-s) term carries its limit 0, so H(1) = log 2.
    """
    if s == 1.0:
        return _LN2
    return 0.5 * (1.0 + s) * math.log1p(s) + 0.5 * (1.0 - s) * math.log1p(-s)


def _evaluate(n: int, beta: float | BetaParam, x: float, log_interior) -> BoundEvaluation:
    n = _check_n(n)
    b = _beta_value(beta)
    x = _check_x(x)
    s = x / endpoint_threshold(n, b)
    if s > 1.0:
        return BoundEvaluation(n, x, s, math.inf, -math.inf, 0.0, IMPOSSIBLE)
    if s == 1.0:
        # Attained only by the all-plus sign configuration: exactly 2^-n.
        return BoundEvaluation(n, x, s, math.inf, -n * _LN2, 2.0 ** (-n), ENDPOINT)
    t = (1.0 + s) / (1.0 - s)
    log_value = log_interior(n, b, x, s, t)
    return BoundEvaluation(n, x, s, t, log_value, math.exp(log_value), INTERIOR)


def _log_bn_product(n: int, b: float, x: float, s: float, t: float) -> float:
    # 2^-n (sqrt t + 1/sqrt t)^n t^(-n^(1/beta) x / 2), term by term in logs.
    rt = math.sqrt(t)
    return (
        -n * _LN2
        + n * math.log(rt + 1.0 / rt)
        - 0.5 * float(n) ** (1.0 / b) * x * math.log(t)
    )


def _log_bn_entropy(n: int, b: float, x: float, s: float, t: float) -> float:
    return -n * _entropy(s)


def bound_bn(n: int, beta: float | BetaParam, x: float) -> BoundEvaluation:
    """Tail bound B_n(beta, x) in its literal product form, log-evaluated.

    For s = x / n^((beta-1)/beta) < 1 and t = (1+s)/(1-s),

        B_n = 2^-n (sqrt(t) + 1/sqrt(t))^n t^(-n^(1/beta) x / 2).

    At s = 1 the bound equals 2^-n exactly; for s > 1 the event is empty
    (the statistic cannot exceed its endpoint) and the value is 0.

    Args:
        n: number of summands, integer >= 1.
        beta: variation exponent > 1.
        x: threshold, finite real > 0.
    """
    return _evaluate(n, beta, x, _log_bn_product)


def bound_bn_entropy_form(n: int, beta: float | BetaParam, x: float) -> BoundEvaluation:
    """Same bound as exp(-n H(s)) with H the binary entropy of (1+s)/2.

    Algebraically identical to bound_bn; kept as an independent numeric
    route so the two implementations can cross-check each other.
    """
    return _evaluate(n, beta, x, _log_bn_entropy)


def _corollary_exponent(n: int, b: float, x: float) -> float:
    """q = x^2 n^(2/beta - 1) / 2, so that bound_corollary = min(1, exp(-q))."""
    return 0.5 * x * x * float(n) ** (2.0 / b - 1.0)


def bound_corollary(n: int, beta: float | BetaParam, x: float) -> float:
    """Sub-Gaussian relaxation exp(-x^2 n^(2/beta - 1) / 2).

    Derived for beta in (1, 2]; larger beta still evaluates (see
    corollary_is_extrapolated) and still dominates bound_bn.
    """
    n = _check_n(n)
    b = _beta_value(beta)
    x = _check_x(x)
    return min(1.0, math.exp(-_corollary_exponent(n, b, x)))


def corollary_is_extrapolated(beta: float | BetaParam) -> bool:
    """True when beta > 2, where bound_corollary leaves its derived range."""
    return _beta_value(beta) > 2.0


def mdp_alpha_window(beta: float | BetaParam) -> tuple[float, float]:
    """Open interval of scaling exponents ((beta-2)/(2 beta), (beta-1)/beta).

    Inside this window the rescaled threshold x n^alpha sits in the
    moderate-deviation range; alpha = (beta-1)/beta is the large-deviation
    edge.
    """
    b = _beta_value(beta)
    return (b - 2.0) / (2.0 * b), (b - 1.0) / b


def alpha_in_mdp_window(beta: float | BetaParam, alpha: float) -> bool:
    lo, hi = mdp_alpha_window(beta)
    return lo < float(alpha) < hi


def bound_rescaled(n: int, beta: float | BetaParam, x: float, alpha: float) -> float:
    """bound_corollary at the rescaled threshold x * n^alpha."""
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be a finite real, got {alpha!r}")
    return bound_corollary(n, beta, _check_x(x) * float(_check_n(n)) ** alpha)


def lambda_star(n: int, beta: float | BetaParam, x: float) -> float:
    """Closed-form minimizer of the exponential-moment objective.

    lambda*(x) = (n^(1/beta) / 2) log((n^((beta-1)/beta) + x) /
    (n^((beta-1)/beta) - x)); +inf at and beyond the endpoint.
    """
    n = _check_n(n)
    b = _beta_value(beta)
    x = _check_x(x)
    nb = endpoint_threshold(n, b)
    if x >= nb:
        return math.inf
    return 0.5 * float(n) ** (1.0 / b) * math.log((nb + x) / (nb - x))


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_MAX_ITERATIONS = 200


def bernstein_numeric(
    n: int, beta: float | BetaParam, x: float, tol: float = 1e-10
) -> BernsteinResult:
    """Minimize exp(-lambda x) cosh(lambda / n^(1/beta))^n over lambda >= 0.

    Works on f(lambda) = -lambda x + n log_cosh(lambda / n^(1/beta)), which
    is strictly convex: a doubling search brackets the minimum (the
    derivative turns positive once tanh(lambda/n^(1/beta)) exceeds s), then
    golden-section refines it.  The attained minimum must agree with the
    closed form bound_bn; this routine is the independent numeric route of
    that cross-check, so it never consults the closed form.

    Args:
        n: number of summands, integer >= 1.
        beta: variation exponent > 1.
        x: threshold with 0 < x < n^((beta-1)/beta); the endpoint and the
            impossible regime are rejected (the closed form covers those).
        tol: relative width at which the golden-section bracket stops.
    """
    n = _check_n(n)
    b = _beta_value(beta)
    x = _check_x(x)
    tol = float(tol)
    if not math.isfinite(tol) or tol <= 0.0:
        raise ValueError(f"tol must be a finite real > 0, got {tol!r}")
    s = x / endpoint_threshold(n, b)
    if s >= 1.0:
        raise ValueError(
            "numeric minimization needs x strictly below the endpoint "
            f"n^((beta-1)/beta); got scaled threshold s = {s}"
        )
    n1b = float(n) ** (1.0 / b)

    def f(lam: float) -> float:
        return -lam * x + n * log_cosh(lam / n1b)

    # Bracket: f'(lam) > 0 once tanh(lam / n^(1/beta)) > s, which a doubling
    # search reaches because s < 1.
    hi = n1b
    while math.tanh(hi / n1b) <= s:
        hi *= 2.0
        if hi > 1e300:
            raise RuntimeError("bracketing the exponential-moment minimum failed")

    lo = 0.0
    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    fc, fd = f(c), f(d)
    iterations = 0
    while hi - lo > tol * max(1.0, 0.5 * (lo + hi)):
        if iterations >= _MAX_ITERATIONS:
            raise RuntimeError(
                f"golden-section search did not converge in {_MAX_ITERATIONS} iterations"
            )
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_PHI * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_PHI * (hi - lo)
            fd = f(d)
        iterations += 1
    lam = 0.5 * (lo + hi)
    log_objective = f(lam)
    return BernsteinResult(lam, math.exp(log_objective), iterations, log_objective)


def tstat_threshold(n: int, x: float) -> float:
    """Self-normalized level x sqrt(n / (n + x^2 - 1)) matching {T_n >= x}.

    The t-statistic event {T_n >= x} coincides with the self-normalized sum
    exceeding this level, which always lies in (0, sqrt(n)]; the value is
    clamped at sqrt(n) so rounding cannot push it past the endpoint.
    """
    n = _check_n(n, minimum=2)
    x = _check_x(x)
    raw = x * math.sqrt(n / (n + x * x - 1.0))
    return min(raw, endpoint_threshold(n, 2.0))


def _t_value(n: int, mean, ss):
    """Student's t sqrt(n) mean / sqrt(ss / (n - 1)) from the sample mean and
    the sum of squared deviations ss; inf or nan, silently, where ss is 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.sqrt(float(n)) * mean / np.sqrt(ss / (n - 1))


def bound_tstat(n: int, x: float) -> BoundEvaluation:
    """Tail bound for Student's t-statistic: B_n(2, tstat_threshold(n, x))."""
    return bound_bn(n, 2.0, tstat_threshold(n, x))


def two_sided_bound(n: int, beta: float | BetaParam, x: float) -> float:
    """Two-sided version min(1, 2 B_n(beta, x)) from the sign symmetry."""
    return min(1.0, 2.0 * bound_bn(n, beta, x).value)
