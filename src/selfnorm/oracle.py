"""Exhaustive sign enumeration for self-normalized tail probabilities.

With magnitudes a_1..a_n held fixed, the sign vector (eps_1..eps_n) ranges
over all 2^n equally likely outcomes, so tail probabilities of the
self-normalized sum and of the t-statistic are exact dyadic rationals
obtained by counting.  Everything here counts; nothing samples.

Thresholds are compared through a relative snap guard of 1e-9: the event
{stat >= x} is counted as {stat >= x - 1e-9 max(1, |x|)}.  Sign-vector
statistics take values on a fixed finite set, so when a requested
threshold lands (up to floating-point rounding of the inputs) exactly on
one of those atoms, the guard keeps the atom inside the >= event instead
of letting the last bit of rounding decide.  Thresholds farther than the
guard from every atom are classified exactly as written.  The Monte Carlo
module applies the same guard so the two agree sign vector for sign
vector.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bounds import _beta_value, _check_n, _check_x, tstat_threshold, v_norm

__all__ = [
    "MAX_ENUM_N",
    "TIE_GUARD",
    "RUNNING_MAX",
    "FINAL_SUM",
    "ExactTail",
    "tie_guarded",
    "exact_tail",
    "exact_tail_multi",
    "exact_tstat_tail",
]

# 2^30 sign vectors is the enumeration budget; beyond it the caller must
# use the Monte Carlo module.
MAX_ENUM_N = 30

TIE_GUARD = 1e-9

RUNNING_MAX = "running_max"
FINAL_SUM = "final_sum"

_BLOCK = 1 << 16


def tie_guarded(x: float) -> float:
    """Effective threshold x - 1e-9 max(1, |x|) for the >= event."""
    return x - TIE_GUARD * max(1.0, abs(x))


@dataclass(frozen=True)
class ExactTail:
    """Exact tail count: hits sign vectors out of total = 2^n.

    degenerate counts sign vectors excluded from the t-statistic event
    because every coordinate comes out equal (sample deviation zero); it is
    0 for sum statistics.
    """

    hits: int
    total: int
    degenerate: int = 0

    @property
    def probability(self) -> float:
        return self.hits / self.total

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.hits, self.total)


def _check_magnitudes(mags) -> np.ndarray:
    arr = np.asarray(mags, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("magnitudes must form a non-empty one-dimensional sequence")
    if arr.size > MAX_ENUM_N:
        raise ValueError(
            f"enumeration over 2^{arr.size} sign vectors exceeds the "
            f"n <= {MAX_ENUM_N} budget; use Monte Carlo estimation instead"
        )
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
        raise ValueError("magnitudes must be finite and nonnegative")
    if not np.any(arr > 0.0):
        raise ValueError("at least one magnitude must be positive")
    return arr


def _resolve_workers(workers: int | None) -> int:
    """Block threads: workers, else SELFNORM_THREADS, else 1."""
    if workers is None:
        text = os.environ.get("SELFNORM_THREADS", "1")
        try:
            workers = int(text)
        except ValueError:
            workers = 0
        if workers < 1:
            raise ValueError(f"SELFNORM_THREADS must be a positive integer, got {text!r}")
    elif workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")
    return workers


def _check_stat(stat: str) -> str:
    if stat not in (RUNNING_MAX, FINAL_SUM):
        raise ValueError(f"stat must be {RUNNING_MAX!r} or {FINAL_SUM!r}, got {stat!r}")
    return stat


def _sign_matrix(n: int, lo: int, hi: int) -> np.ndarray:
    idx = np.arange(lo, hi, dtype=np.uint64)
    bits = (idx[:, None] >> np.arange(n, dtype=np.uint64)[None, :]) & np.uint64(1)
    return bits.astype(np.float64) * 2.0 - 1.0


def _tstat_parts(vals: np.ndarray, n: int):
    """Per-row (degenerate mask, t values); t is garbage where degenerate."""
    degenerate = (vals == vals[:, :1]).all(axis=1)
    means = vals.mean(axis=1)
    ss = ((vals - means[:, None]) ** 2).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.sqrt(float(n)) * means / np.sqrt(ss / (n - 1))
    return degenerate, t


def _map_blocks(count_block, total: int, workers: int, block: int) -> list:
    """Apply count_block over contiguous index ranges of at most block
    indices each, threaded when asked.

    Per-range results are pure functions of the range, and the caller
    combines them by integer addition, so the outcome is identical for any
    worker count.
    """
    ranges = [(lo, min(lo + block, total)) for lo in range(0, total, block)]
    if workers == 1 or len(ranges) == 1:
        return [count_block(lo, hi) for lo, hi in ranges]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda r: count_block(*r), ranges))


def exact_tail_multi(
    mags,
    beta: float,
    xs,
    stat: str = RUNNING_MAX,
    workers: int | None = None,
) -> list[ExactTail]:
    """exact_tail at several thresholds sharing one enumeration pass."""
    arr = _check_magnitudes(mags)
    b = _beta_value(beta)
    stat = _check_stat(stat)
    workers = _resolve_workers(workers)
    n = arr.size
    v = v_norm(arr, b)
    cuts = np.array([tie_guarded(_check_x(x)) * v for x in xs])
    total = 1 << n

    def count_block(lo: int, hi: int) -> np.ndarray:
        vals = _sign_matrix(n, lo, hi) * arr[None, :]
        if stat == RUNNING_MAX:
            stats = np.cumsum(vals, axis=1).max(axis=1)
        else:
            stats = vals.sum(axis=1)
        return (stats[:, None] >= cuts[None, :]).sum(axis=0)

    counts = sum(_map_blocks(count_block, total, workers, _BLOCK))
    return [ExactTail(hits=int(c), total=total) for c in counts]


def exact_tail(
    mags,
    beta: float,
    x: float,
    stat: str = RUNNING_MAX,
    workers: int | None = None,
) -> ExactTail:
    """Exact tail probability of the self-normalized sum by enumeration.

    Counts sign vectors whose statistic (running maximum of prefix sums, or
    the final sum) reaches x * V_n(beta); V_n is the same for every sign
    vector.  The returned hits/total ratio is the exact probability.

    Args:
        mags: nonnegative magnitudes, 1 <= len <= 30, at least one positive.
        beta: variation exponent > 1.
        x: threshold on the self-normalized scale, > 0.
        stat: "running_max" or "final_sum".
        workers: enumeration threads; defaults to SELFNORM_THREADS or 1.
            The count is identical for every worker count.
    """
    return exact_tail_multi(mags, beta, [x], stat, workers)[0]


def exact_tstat_tail(mags, x: float, workers: int | None = None) -> ExactTail:
    """Exact tail count of Student's t-statistic by sign enumeration.

    Every sign vector with sample deviation zero (all coordinates equal,
    where T_n is undefined) is excluded from the event and tallied in
    degenerate.  The remaining vectors are classified twice: directly from
    T_n >= x and through the equivalent self-normalized event
    S_n >= tstat_threshold(n, x) * V_n(2).  The two classifications must
    match vector for vector; a mismatch aborts rather than returning a
    number that depends on the route taken.
    """
    arr = _check_magnitudes(mags)
    n = _check_n(int(arr.size), minimum=2)
    x = _check_x(x)
    workers = _resolve_workers(workers)
    tau = tstat_threshold(n, x)
    cut_t = tie_guarded(x)
    cut_sum = tie_guarded(tau) * v_norm(arr, 2.0)
    total = 1 << n

    def count_block(lo: int, hi: int) -> np.ndarray:
        vals = _sign_matrix(n, lo, hi) * arr[None, :]
        degenerate, t = _tstat_parts(vals, n)
        live = ~degenerate
        direct = live & (t >= cut_t)
        ident = live & (vals.sum(axis=1) >= cut_sum)
        return np.array(
            [direct.sum(), degenerate.sum(), (direct != ident).sum()], dtype=np.int64
        )

    hits, degenerate, disagree = sum(_map_blocks(count_block, total, workers, _BLOCK))
    if disagree:
        raise RuntimeError(
            f"t-statistic event and its self-normalized form disagree on "
            f"{disagree} of {total} sign vectors"
        )
    return ExactTail(hits=int(hits), total=total, degenerate=int(degenerate))
