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
Student's t-statistic to a self-normalized sum.  The first three run on
an array of thresholds of one (n, beta), unchecked, as a sweep row calls
them; the public functions check their input and make one-entry calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "INTERIOR",
    "ENDPOINT",
    "IMPOSSIBLE",
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


def _check_beta(beta: float) -> float:
    """The variation exponent as a float; the bound is defined for beta > 1."""
    b = float(beta)
    if not math.isfinite(b) or b <= 1.0:
        raise ValueError(f"beta must be a finite real > 1, got {beta!r}")
    return b


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


def _check_cell(n: int, beta: float, x: float) -> tuple[int, float, float]:
    """n, beta and x of one bound evaluation, checked in that order."""
    return _check_n(n), _check_beta(beta), _check_x(x)


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


def endpoint_threshold(n: int, beta: float) -> float:
    """Largest attainable value n^((beta-1)/beta) of the statistic."""
    return _endpoint(_check_n(n), _check_beta(beta))


def _endpoint(n: int, b: float) -> float:
    """Unchecked endpoint_threshold."""
    return float(n) ** ((b - 1.0) / b)


def threshold_from_s(n: int, beta: float, s: float) -> float:
    """Absolute threshold x = s * n^((beta-1)/beta) for a relative level s."""
    return float(s) * endpoint_threshold(n, beta)


def v_norm(xs, beta: float) -> float:
    """beta-norm (sum_i |x_i|^beta)^(1/beta) of a non-empty sample vector."""
    b = _check_beta(beta)
    arr = np.asarray(xs, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("sample vector must be a non-empty one-dimensional sequence")
    if not np.all(np.isfinite(arr)):
        raise ValueError("sample vector entries must all be finite")
    return float(_beta_norm(arr, b))


def _beta_norm(values: np.ndarray, b: float):
    """Unchecked V_n(b) over the last axis, of a vector or of each row of a block;
    the root runs on an array, as numpy scalar ** uses libm pow (last bit differs)."""
    powers = np.abs(values)
    powers **= b  # in place; numpy squares for b = 2 instead of calling pow
    return np.asarray(powers.sum(axis=-1)) ** (1.0 / b)


def log_cosh(u: float | np.ndarray) -> float | np.ndarray:
    """log(cosh(u)) without overflow and without cancellation near 0.

    Large |u| uses |u| - log 2 + log1p(exp(-2|u|)); small |u| uses
    log1p(2 sinh^2(u/2)), accurate down to the u^2/2 series region.  Each
    branch runs only on its own entries (sinh overflows past |u| ~ 710).
    A scalar gives a float, computed as a one-entry array so that it equals
    the array result entry for entry; an array gives an array.
    """
    a = np.abs(np.atleast_1d(np.asarray(u, dtype=float)))
    out = np.empty_like(a)
    small = a < 1.0
    out[small] = np.log1p(2.0 * np.sinh(0.5 * a[small]) ** 2)
    large = a[~small]
    out[~small] = large - _LN2 + np.log1p(np.exp(-2.0 * large))
    return float(out[0]) if np.ndim(u) == 0 else out


def _libm(f, a: np.ndarray) -> np.ndarray:
    """The math function f entry by entry.  numpy's log, log1p and exp differ
    from libm's in the last bit on a few percent of inputs, which can move
    the 12th significant digit of a rendered bound."""
    return np.array([f(v) for v in a.tolist()], dtype=float)


def _bn_cells(n: int, b: float, x: np.ndarray, entropy: bool = False):
    """Unchecked s, log B_n and B_n at the thresholds x (an array) of one (n, b).

    Below the endpoint the log is the product form or, with entropy, -n H(s),
    computed on those cells only so that no other cell warns; s = 1 gives
    exactly 2^-n, and s > 1 gives 0 with log -inf.  Powers of n stay Python
    float powers and logs and exps run through _libm, so every entry equals
    the scalar formula bit for bit.
    """
    s = x / _endpoint(n, b)
    # The endpoint is attained only by the all-plus sign configuration.
    log_value = np.where(s == 1.0, -n * _LN2, -math.inf)
    below = s < 1.0
    u = s[below]
    if entropy:
        # H(s) = ((1+s)/2) log(1+s) + ((1-s)/2) log(1-s), the binary entropy term.
        h = 0.5 * (1.0 + u) * _libm(math.log1p, u) + 0.5 * (1.0 - u) * _libm(math.log1p, -u)
        log_value[below] = -n * h
    else:
        # 2^-n (sqrt t + 1/sqrt t)^n t^(-n^(1/beta) x / 2), term by term in logs.
        t = (1.0 + u) / (1.0 - u)
        rt = np.sqrt(t)
        log_value[below] = (-n * _LN2 + n * _libm(math.log, rt + 1.0 / rt)
                            - 0.5 * float(n) ** (1.0 / b) * x[below] * _libm(math.log, t))
    value = _libm(math.exp, log_value)
    value[s == 1.0] = 2.0 ** (-n)
    return s, log_value, value


def _evaluate(n: int, beta: float, x: float, entropy: bool) -> BoundEvaluation:
    n, b, x = _check_cell(n, beta, x)
    (s,), (log_value,), (value,) = _bn_cells(n, b, np.array([x]), entropy)
    regime = INTERIOR if s < 1.0 else ENDPOINT if s == 1.0 else IMPOSSIBLE
    t = (1.0 + s) / (1.0 - s) if s < 1.0 else math.inf
    return BoundEvaluation(n, x, float(s), float(t), float(log_value), float(value), regime)


def bound_bn(n: int, beta: float, x: float) -> BoundEvaluation:
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
    return _evaluate(n, beta, x, entropy=False)


def bound_bn_entropy_form(n: int, beta: float, x: float) -> BoundEvaluation:
    """Same bound as exp(-n H(s)) with H the binary entropy of (1+s)/2.

    Algebraically identical to bound_bn; kept as an independent numeric
    route so the two implementations can cross-check each other.
    """
    return _evaluate(n, beta, x, entropy=True)


def _corollary_log(n: int, b: float, x):
    """Unchecked log -x^2 n^(2/beta - 1) / 2 of bound_corollary, at a float or an
    array of thresholds x of one checked (n, b)."""
    return -0.5 * x * x * float(n) ** (2.0 / b - 1.0)


def bound_corollary(n: int, beta: float, x: float) -> float:
    """Sub-Gaussian relaxation exp(-x^2 n^(2/beta - 1) / 2).

    Derived for beta in (1, 2]; larger beta still evaluates (see
    corollary_is_extrapolated) and still dominates bound_bn.
    """
    n, b, x = _check_cell(n, beta, x)
    return math.exp(_corollary_log(n, b, x))


def corollary_is_extrapolated(beta: float) -> bool:
    """True when beta > 2, where bound_corollary leaves its derived range."""
    return _check_beta(beta) > 2.0


def mdp_alpha_window(beta: float) -> tuple[float, float]:
    """Open interval of scaling exponents ((beta-2)/(2 beta), (beta-1)/beta).

    Inside this window the rescaled threshold x n^alpha sits in the
    moderate-deviation range; alpha = (beta-1)/beta is the large-deviation
    edge.
    """
    b = _check_beta(beta)
    return (b - 2.0) / (2.0 * b), (b - 1.0) / b


def alpha_in_mdp_window(beta: float, alpha: float) -> bool:
    lo, hi = mdp_alpha_window(beta)
    return lo < float(alpha) < hi


def _rescaled_x(n: int, x: float, alpha: float) -> float:
    """The rescaled threshold x * n^alpha; alpha must keep it finite and > 0."""
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be a finite real, got {alpha!r}")
    x = _check_x(x)
    n = _check_n(n)
    try:
        scaled = x * float(n) ** alpha
    except OverflowError:
        scaled = math.inf
    if not 0.0 < scaled < math.inf:
        raise ValueError(f"alpha={alpha!r} takes x * n^alpha out of (0, inf) at n={n}")
    return scaled


def bound_rescaled(n: int, beta: float, x: float, alpha: float) -> float:
    """bound_corollary at the rescaled threshold x * n^alpha."""
    return bound_corollary(n, beta, _rescaled_x(n, x, alpha))


def lambda_star(n: int, beta: float, x: float) -> float:
    """Closed-form minimizer of the exponential-moment objective.

    lambda*(x) = (n^(1/beta) / 2) log((n^((beta-1)/beta) + x) /
    (n^((beta-1)/beta) - x)); +inf at and beyond the endpoint.
    """
    n, b, x = _check_cell(n, beta, x)
    nb = _endpoint(n, b)
    if x >= nb:
        return math.inf
    return 0.5 * float(n) ** (1.0 / b) * math.log((nb + x) / (nb - x))


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_MAX_ITERATIONS = 200
_TOL = 1e-10  # relative width at which the golden-section bracket stops


def bernstein_numeric(n: int, beta: float, x: float) -> BernsteinResult:
    """Minimize exp(-lambda x) cosh(lambda / n^(1/beta))^n over lambda >= 0.

    A one-cell call of the search that _bernstein_search runs on many cells;
    see there for the method.  The attained minimum must agree with the
    closed form bound_bn; this routine is the independent numeric route of
    that cross-check, so it never consults the closed form.

    Args:
        n: number of summands, integer >= 1.
        beta: variation exponent > 1.
        x: threshold with 0 < x < n^((beta-1)/beta); the endpoint and the
            impossible regime are rejected (the closed form covers those).
    """
    n, b, x = _check_cell(n, beta, x)
    s = x / _endpoint(n, b)
    if s >= 1.0:
        raise ValueError(
            "numeric minimization needs x strictly below the endpoint "
            f"n^((beta-1)/beta); got scaled threshold s = {s}"
        )
    lam, log_objective, iterations = _bernstein_search(*np.array([[n, n ** (1.0 / b), x, s]]).T)
    return BernsteinResult(
        float(lam[0]), math.exp(log_objective[0]), int(iterations[0]), float(log_objective[0])
    )


def _bernstein_search(n, n1b, x, s) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """bernstein_numeric for many cells, in one vectorized search.

    Cell i has n[i] summands, n1b[i] = n[i]^(1/beta), threshold x[i] and
    s[i] = x[i] / n[i]^((beta-1)/beta) < 1, all checked by the caller.
    Returns the minimizers, the minima f(lambda_star) and the iteration
    counts; objective_value is math.exp of the minimum.

    Works on f(lambda) = -lambda x + n log_cosh(lambda / n^(1/beta)), which
    is strictly convex: a doubling search brackets each minimum (the
    derivative turns positive once tanh(lambda/n^(1/beta)) exceeds s), then
    golden-section refines it.  Every cell runs the same float operations
    in its own array entry and stops moving once its bracket is narrow
    enough, so its result does not depend on the other cells.
    """
    # Bracket: f'(lam) > 0 once tanh(lam / n^(1/beta)) > s, which a doubling
    # search reaches because s < 1.
    hi = n1b.copy()
    low = np.tanh(hi / n1b) <= s
    while low.any():
        hi[low] *= 2.0
        if (hi[low] > 1e300).any():
            raise RuntimeError("bracketing the exponential-moment minimum failed")
        low = np.tanh(hi / n1b) <= s

    # Golden-section on the cells still open, which all have run the same
    # number of steps; a cell leaves with its midpoint once its bracket is
    # narrow enough.
    lam = np.empty_like(hi)
    iterations = np.empty(n.size, dtype=int)
    lo = np.zeros_like(hi)
    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    cell, cn, cn1b, cx = np.arange(n.size), n, n1b, x
    fc, fd = _moment_log(c, cn, cn1b, cx), _moment_log(d, cn, cn1b, cx)
    step = 0
    while True:
        done = ~(hi - lo > _TOL * np.maximum(1.0, 0.5 * (lo + hi)))
        if done.any():
            lam[cell[done]] = 0.5 * (lo[done] + hi[done])
            iterations[cell[done]] = step
            keep = ~done
            lo, hi, c, d, fc, fd, cell, cn, cn1b, cx = (
                a[keep] for a in (lo, hi, c, d, fc, fd, cell, cn, cn1b, cx)
            )
        if not cell.size:
            break
        if step >= _MAX_ITERATIONS:
            raise RuntimeError(
                f"golden-section search did not converge in {_MAX_ITERATIONS} iterations"
            )
        # Where f(c) < f(d) the minimum lies in [lo, d]: d <- c and a new c.
        # Elsewhere it lies in [c, hi]: c <- d and a new d.
        left = fc < fd
        hi = np.where(left, d, hi)
        lo = np.where(left, lo, c)
        kept, f_kept = np.where(left, c, d), np.where(left, fc, fd)
        width = _INV_PHI * (hi - lo)
        probe = np.where(left, hi - width, lo + width)
        f_probe = _moment_log(probe, cn, cn1b, cx)
        c, fc = np.where(left, probe, kept), np.where(left, f_probe, f_kept)
        d, fd = np.where(left, kept, probe), np.where(left, f_kept, f_probe)
        step += 1
    return lam, _moment_log(lam, n, n1b, x), iterations


def _moment_log(lam, n, n1b, x):
    """The log objective f(lambda) = -lambda x + n log_cosh(lambda / n^(1/beta))."""
    return -lam * x + n * log_cosh(lam / n1b)


def tstat_threshold(n: int, x: float) -> float:
    """Self-normalized level x sqrt(n / (n + x^2 - 1)) matching {T_n >= x}.

    The t-statistic event {T_n >= x} coincides with the self-normalized sum
    exceeding this level, which always lies in (0, sqrt(n)]; the value is
    clamped at sqrt(n) so rounding cannot push it past the endpoint, and
    it is sqrt(n), its limit, where x^2 overflows.
    """
    n = _check_n(n, minimum=2)
    x = _check_x(x)
    root_n = endpoint_threshold(n, 2.0)
    if math.isinf(x * x):
        return root_n
    return min(x * math.sqrt(n / (n + x * x - 1.0)), root_n)


def _t_value(n: int, mean, ss):
    """Student's t sqrt(n) mean / sqrt(ss / (n - 1)) from the sample mean and
    the sum of squared deviations ss; inf or nan, silently, where ss is 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.sqrt(float(n)) * mean / np.sqrt(ss / (n - 1))


def bound_tstat(n: int, x: float) -> BoundEvaluation:
    """Tail bound for Student's t-statistic: B_n(2, tstat_threshold(n, x))."""
    return bound_bn(n, 2.0, tstat_threshold(n, x))


def _two_sided(evaluation: BoundEvaluation) -> tuple[float, float]:
    """(log value, value) of the two-sided bound min(1, 2 B_n) from one B_n."""
    return min(0.0, _LN2 + evaluation.log_value), min(1.0, 2.0 * evaluation.value)


def two_sided_bound(n: int, beta: float, x: float) -> float:
    """Two-sided version min(1, 2 B_n(beta, x)) from the sign symmetry."""
    return _two_sided(bound_bn(n, beta, x))[1]
