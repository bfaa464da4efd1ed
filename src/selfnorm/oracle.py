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

The kernel doubles prefix states one coordinate at a time: each state
carries its partial sum S and the running maximum M of its prefix sums,
and coordinate a maps them to S <- [S - a, S + a], M <- max([M, M], S),
O(2^n) work in all.  The first max(1, n - 16) coordinates build a head of
at most 2^14 states; each block extends a slice of it over the rest, so
no block holds more than 2^16 sign vectors whatever n is.  Additions run
in np.cumsum's sequential order: running maxima are bit-identical to a
cumulative sum, and the final sum is the sequential S_n, which for float
magnitudes can differ in the last ulp from numpy's pairwise sum.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bounds import _beta_value, _check_n, _check_x, _t_value, tstat_threshold, v_norm

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

# Most coordinates a block extends the head over: 2^16 sign vectors.
_TAIL = 16


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


def _double(states: np.ndarray, mags: np.ndarray) -> np.ndarray:
    """Extend prefix states (rows: partial sums, then running maxima if
    present) over mags; state i becomes states i (sign -) and i + k (+)."""
    k = states.shape[1]
    out = np.empty((len(states), k << mags.size))
    out[:, :k] = states
    s = out[0]
    for a in mags:
        np.add(s[:k], a, out=s[k : 2 * k])
        np.subtract(s[:k], a, out=s[:k])
        for m in out[1:]:
            # S - a <= S <= M, so only the + branch can raise the maximum.
            np.maximum(m[:k], s[k : 2 * k], out=m[k : 2 * k])
        k *= 2
    return out


def _enumerate(arr: np.ndarray, running_max: bool, count_block, workers: int) -> list:
    """count_block(lo, hi, stats) over blocks [lo, hi) of the 2^n sign vectors;
    stats are running maxima if running_max, else final sums.  The first
    block starts with the all-minus vector, the last ends with all-plus."""
    n = arr.size
    t = min(n - 1, _TAIL)
    first = np.array([[-arr[0], arr[0]]] * (1 + running_max))
    head = _double(first, arr[1 : n - t])

    def extend(lo: int, hi: int):
        return count_block(lo, hi, _double(head[:, lo >> t : hi >> t], arr[n - t :])[-1])

    return _map_blocks(extend, 1 << n, workers, 1 << min(n, _TAIL))


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
    if stat not in (RUNNING_MAX, FINAL_SUM):
        raise ValueError(f"stat must be {RUNNING_MAX!r} or {FINAL_SUM!r}, got {stat!r}")
    _resolve_workers(workers)
    v = v_norm(arr, b)
    cuts = [tie_guarded(_check_x(x)) * v for x in xs]
    total = 1 << arr.size

    def count_block(lo: int, hi: int, stats: np.ndarray) -> np.ndarray:
        return np.array([np.count_nonzero(stats >= c) for c in cuts], dtype=np.int64)

    # A sum-statistic block is a few short numpy calls, so threads would
    # only contend for the interpreter lock: blocks run in one thread.
    counts = sum(_enumerate(arr, stat == RUNNING_MAX, count_block, 1))
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
        workers: checked like exact_tstat_tail's (default SELFNORM_THREADS
            or 1), but sum statistics always enumerate in one thread.
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
    square_sum = float((arr * arr).sum())
    # Only the all-minus (first in the first block) and all-plus (last in
    # the last) vectors can be constant, and only with equal magnitudes.
    # They are also the only vectors whose deviation can cancel in
    # sum(a^2) - S_n^2 / n: any other has two coordinates of opposite sign
    # (or a zero), so its ss is at least sum(a^2) / 2n.  Their t therefore
    # comes from the centred magnitudes.
    constant = bool(np.all(arr == arr[0]))
    mean = arr.mean()
    t_plus = _t_value(n, mean, ((arr - mean) ** 2).sum())

    def count_block(lo: int, hi: int, sums: np.ndarray) -> np.ndarray:
        direct = _t_value(n, sums / n, square_sum - sums * sums / n) >= cut_t
        ident = sums >= cut_sum
        for i, edge, t in ((0, lo == 0, -t_plus), (-1, hi == total, t_plus)):
            if edge:
                direct[i] = not constant and t >= cut_t
                ident[i] &= not constant
        return np.array([np.count_nonzero(direct), np.count_nonzero(direct != ident)])

    hits, disagree = sum(_enumerate(arr, False, count_block, workers))
    degenerate = 2 if constant else 0
    if disagree:
        raise RuntimeError(
            f"t-statistic event and its self-normalized form disagree on "
            f"{disagree} of {total} sign vectors"
        )
    return ExactTail(hits=int(hits), total=total, degenerate=degenerate)
