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
arrays of cells, each with its own (n, beta), unchecked, as the sweep's
grid evaluator calls them; the public functions check their input and make
one-entry calls.
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
        raise ValueError(f"beta must be a finite real > 1, got {b!r}")
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
    """beta-norm (sum_i |x_i|^beta)^(1/beta) of a non-empty sample vector: a
    row of _beta_norm bit for bit, or, where a power could overflow or leave
    the normal floats, the norm of the vector over its largest |entry|, scaled back."""
    b = _check_beta(beta)
    arr = np.asarray(xs, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("sample vector must be a non-empty one-dimensional sequence")
    if not np.all(np.isfinite(arr)):
        raise ValueError("sample vector entries must all be finite")
    top = float(np.abs(arr).max())
    if top > 0.0 and abs(b * math.log2(top)) + math.log2(arr.size) > 1000.0:
        return float(top * _beta_norm(arr / top, b))  # numpy multiply: warns past the float range
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


def _bn_cells(n: np.ndarray, endpoint: np.ndarray, x: np.ndarray, entropy: bool = False):
    """Unchecked s, log B_n and B_n at thresholds x, one entry per cell; n (as
    floats) and endpoint (_endpoint of the cell's n and beta) are per-cell
    arrays of the same shape.

    Below the endpoint the log is the product form or, with entropy, -n H(s),
    computed on those cells only so that no other cell warns; s = 1 gives
    exactly 2^-n, and s > 1 gives 0 with log -inf.  atanh and exp run
    through _libm, 2^-n is Python's float power entry by entry, and
    log_cosh is lane-independent, so every entry equals its one-entry call
    bit for bit.
    """
    s = x / endpoint
    at_end = s == 1.0
    # The endpoint is attained only by the all-plus sign configuration.
    log_value = np.where(at_end, n * -_LN2, -math.inf)
    below = s < 1.0
    u, m = s[below], n[below]
    if entropy:
        # H(s) = ((1+s)/2) log(1+s) + ((1-s)/2) log(1-s), the binary entropy term.
        h = 0.5 * (1.0 + u) * _libm(math.log1p, u) + 0.5 * (1.0 - u) * _libm(math.log1p, -u)
        log_value[below] = -m * h
    else:
        # The log of 2^-n (sqrt t + 1/sqrt t)^n t^(-n^(1/beta) x / 2), with
        # sqrt t = e^a.  Term by term, -n log 2 + n log(sqrt t + 1/sqrt t)
        # would cancel n log 2 down to about n s^2 / 2 and lose every digit.
        a = _libm(math.atanh, u)
        log_value[below] = m * (log_cosh(a) - u * a)
    value = _libm(math.exp, log_value)
    value[at_end] = [2.0 ** -m for m in n[at_end].tolist()]
    return s, log_value, value


def _evaluate(n: int, beta: float, x: float, entropy: bool) -> BoundEvaluation:
    n, b, x = _check_cell(n, beta, x)
    (s,), (log_value,), (value,) = _bn_cells(
        np.array([float(n)]), np.array([_endpoint(n, b)]), np.array([x]), entropy
    )
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
    route so the two implementations can cross-check each other.  It loses
    digits at small s: its two log1p terms are +-s/2 to first order and
    cancel down to s^2/2, so its log is off by about 1e-16 / s relative.
    """
    return _evaluate(n, beta, x, entropy=True)


def _corollary_scale(n: int, b: float) -> float:
    """n^(2/beta - 1), the power of n in bound_corollary's exponent."""
    return float(n) ** (2.0 / b - 1.0)


def _corollary_log(x, scale):
    """Unchecked log -x^2 n^(2/beta - 1) / 2 of bound_corollary, at a float or an
    array of thresholds x, with scale = _corollary_scale(n, beta) a float or
    an array of x's shape."""
    return -0.5 * x * x * scale


def bound_corollary(n: int, beta: float, x: float) -> float:
    """Sub-Gaussian relaxation exp(-x^2 n^(2/beta - 1) / 2).

    Derived for beta in (1, 2]; larger beta still evaluates (see
    corollary_is_extrapolated) and still dominates bound_bn.
    """
    n, b, x = _check_cell(n, beta, x)
    return math.exp(_corollary_log(x, _corollary_scale(n, b)))


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
    (n^((beta-1)/beta) - x)); +inf at and beyond the endpoint.  Evaluated as
    n^(1/beta) atanh(s), since the log of the rounded ratio loses digits as
    1e-16 / s.
    """
    n, b, x = _check_cell(n, beta, x)
    nb = _endpoint(n, b)
    if x >= nb:
        return math.inf
    return float(n) ** (1.0 / b) * math.atanh(x / nb)


_MAX_ITERATIONS = 200
# Relative width at which the bisection bracket stops.  The sign of f'
# resolves it; the value of f, flat near its minimum, resolves only about
# sqrt(eps) relative.
_TOL = 1e-10


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
    lam, log_objective, iterations = _bernstein_search([(n, b, [x])])
    return BernsteinResult(
        float(lam[0]), math.exp(log_objective[0]), int(iterations[0]), float(log_objective[0])
    )


def _bernstein_search(rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """bernstein_numeric for many cells, in one vectorized search.

    rows is an iterable of (n, beta, thresholds), checked by the caller, with
    every threshold strictly below n^((beta-1)/beta); a row may be empty.
    Returns the minimizers, the minima f(lambda_star) and the iteration
    counts, one entry per threshold in row order; objective_value is
    math.exp of the minimum.

    Works on f(lambda) = -lambda x + n log_cosh(lambda / n^(1/beta)), which
    is strictly convex with f'(lambda) = n^((beta-1)/beta) (tanh(lambda /
    n^(1/beta)) - s): a doubling search brackets each minimum, then bisection
    on the sign of f' refines it.  Neither step evaluates f, whose value is
    flat to within rounding near the minimum; only the minimum returned
    does.  Every cell runs the same float operations in its own array entry
    and stops moving once its bracket is narrow enough, so its result does
    not depend on the other cells.
    """
    # Powers of n as Python floats; float(n): a Python int past 2^64 would
    # make an object array.
    rows = [(float(m), float(b), np.asarray(xs, dtype=float)) for m, b, xs in rows]
    sizes = [xs.size for *_, xs in rows]
    n = np.repeat([m for m, _, _ in rows], sizes)
    n1b = np.repeat([m ** (1.0 / b) for m, b, _ in rows], sizes)
    x = np.concatenate([np.empty(0)] + [xs for *_, xs in rows])
    s = x / np.repeat([_endpoint(m, b) for m, b, _ in rows], sizes)

    # Bracket: a doubling search reaches a point past the minimum because s < 1.
    hi = n1b.copy()
    low = ~_past_minimum(hi, n1b, s)
    while low.any():
        hi[low] *= 2.0
        if (hi[low] > 1e300).any():
            raise RuntimeError("bracketing the exponential-moment minimum failed")
        low = ~_past_minimum(hi, n1b, s)

    # Bisection on the cells still open, which all have run the same number
    # of steps; a cell leaves with its midpoint once its bracket is narrow
    # enough.
    lam = np.empty_like(hi)
    iterations = np.empty(n.size, dtype=int)
    lo = np.zeros_like(hi)
    cell, cn1b, cs = np.arange(n.size), n1b, s
    step = 0
    while True:
        mid = 0.5 * (lo + hi)
        done = ~(hi - lo > _TOL * np.maximum(1.0, mid))
        if done.any():
            lam[cell[done]] = mid[done]
            iterations[cell[done]] = step
            keep = ~done
            lo, hi, mid, cell, cn1b, cs = (a[keep] for a in (lo, hi, mid, cell, cn1b, cs))
        if not cell.size:
            break
        if step >= _MAX_ITERATIONS:
            raise RuntimeError(f"bisection search did not converge in {_MAX_ITERATIONS} iterations")
        past = _past_minimum(mid, cn1b, cs)
        hi = np.where(past, mid, hi)
        lo = np.where(past, lo, mid)
        step += 1
    return lam, _moment_log(lam, n, n1b, x), iterations


def _past_minimum(lam, n1b, s):
    """Where f'(lambda) > 0, that is tanh(lambda / n^(1/beta)) > s."""
    return np.tanh(lam / n1b) > s


def _moment_log(lam, n, n1b, x):
    """The log objective f(lambda) = -lambda x + n log_cosh(lambda / n^(1/beta))."""
    return -lam * x + n * log_cosh(lam / n1b)


def _bound_grid(n_values, beta_values, levels) -> tuple[list, list, list, list]:
    """x, B_n, bound_corollary and bernstein_numeric's objective_value (None
    at and beyond the endpoint) of each cell of a checked (n, beta, s) grid,
    as flat lists in (n, beta, s) order.

    One pass over the whole grid: the Python-float powers of each (n, beta)
    are repeated across its levels, and one search fills the numeric minima.
    Each entry equals its one-cell call bit for bit."""
    pairs = [(n, float(b)) for n in n_values for b in beta_values]
    width = len(levels)

    def per_cell(f) -> np.ndarray:
        return np.repeat([f(n, b) for n, b in pairs], width)

    endpoint = per_cell(_endpoint)
    x = np.tile(np.asarray(levels, dtype=float), len(pairs)) * endpoint
    s, _, value = _bn_cells(per_cell(lambda n, b: float(n)), endpoint, x)
    corollary = _libm(math.exp, _corollary_log(x, per_cell(_corollary_scale)))
    below = s < 1.0
    rows = [(n, b, xs[inside]) for (n, b), xs, inside in
            zip(pairs, x.reshape(-1, width), below.reshape(-1, width))]
    _, log_objective, _ = _bernstein_search(rows)
    numeric = np.full(x.size, None, dtype=object)
    numeric[below] = list(map(math.exp, log_objective.tolist()))
    return x.tolist(), value.tolist(), corollary.tolist(), numeric.tolist()


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
