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

Counting splits the sign vectors in the middle (Horowitz and Sahni's
meet in the middle).  Each half's prefix states, its partial sum S and
the running maximum M of its prefix sums, come from doubling one
coordinate at a time, S <- [S - a, S + a], M <- max([M, M], S), in
sequential order within the half.  The vector that joins state i of the
first half h = n // 2 coordinates to state j of the rest has final sum
S1_i + S2_j and running maximum max(M1_i, S1_i + M2_j).  The second
half's key (S2, or M2) is sorted once, and each first-half state finds
its hits as a suffix of it with np.searchsorted: O(2^(n/2) log) work per
threshold and two halves of at most 2^15 states each at n = 30, whatever
the threshold count.  Float addition is monotone, so each count equals a
count_nonzero over the materialized pair statistics exactly.  For float
magnitudes S1 + S2 and S1 + M2 are not the sequential cumulative sums,
and differ from them in the last ulps; that moves a count only when a
statistic lies within rounding of the tie-guarded cut.  Integer-valued
normalized magnitudes sum exactly either way.

Student's t is counted in the same pass: off the two constant sign
vectors, {T_n >= x} is the final sum's event at beta = 2 and level
tstat_threshold(n, x) (Efron 1969), formed in tstat_level alone, with the
tie guard on t.  The statistic names (STATS), their check and the bound
each statistic is held to are defined here.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bounds import BoundEvaluation, bound_bn, bound_tstat, tstat_threshold
from .bounds import _beta_norm, _check_beta, _check_n, _check_x, _t_value

__all__ = [
    "MAX_ENUM_N",
    "TIE_GUARD",
    "RUNNING_MAX",
    "FINAL_SUM",
    "TSTAT",
    "STATS",
    "ExactTail",
    "tie_guarded",
    "tstat_level",
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
TSTAT = "tstat"
STATS = (RUNNING_MAX, FINAL_SUM, TSTAT)


def tie_guarded(x: float) -> float:
    """Effective threshold x - 1e-9 max(1, |x|) for the >= event."""
    return x - TIE_GUARD * max(1.0, abs(x))


def tstat_level(n: int, x: float) -> float:
    """Level of S_n / V_n(2) whose >= event is {T_n >= tie_guarded(x)}; a guard on
    the level itself would move t's cut by about 1e-9 (1 + x^2 / (n - 1)) relative."""
    g = tie_guarded(x)
    # Efron's map is odd; for x <= 1e-9 the guarded t is 0 or negative.
    return math.copysign(tstat_threshold(n, abs(g)), g) if g else 0.0


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


def _magnitude_array(mags) -> np.ndarray:
    """mags, non-empty, finite, nonnegative and with one positive, as a float
    vector over its largest entry.  Every statistic here is scale-free; at
    unit scale V_n stays finite and >= 1 and S_n^2 finite whatever the input's."""
    arr = np.asarray(mags, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("magnitudes must form a non-empty one-dimensional sequence")
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
        raise ValueError("magnitudes must be finite and nonnegative")
    if not np.any(arr > 0.0):
        raise ValueError("at least one magnitude must be positive")
    return arr / arr.max()


def _check_magnitudes(mags) -> np.ndarray:
    arr = _magnitude_array(mags)
    if arr.size > MAX_ENUM_N:
        raise ValueError(
            f"enumeration over 2^{arr.size} sign vectors exceeds the "
            f"n <= {MAX_ENUM_N} budget; use Monte Carlo estimation instead"
        )
    return arr


def _count_at(stats: np.ndarray, cuts) -> np.ndarray:
    """Hits of stats >= c for each cut c."""
    # Elementwise >=, not a search over sorted values: a NaN statistic
    # must stay a miss at every cut.
    return np.array([np.count_nonzero(stats >= c) for c in cuts], dtype=np.int64)


def _check_stat(stat: str, n: int) -> int:
    """n for stat, one of STATS; Student's t needs two observations."""
    if stat not in STATS:
        raise ValueError(f"stat must be one of {STATS}, got {stat!r}")
    return _check_n(n, minimum=2 if stat == TSTAT else 1)


def _bound_for(stat: str, n: int, beta: float, x: float) -> BoundEvaluation:
    """The bound stat's tail at x is checked against (beta unused by tstat)."""
    return bound_tstat(n, x) if stat == TSTAT else bound_bn(n, beta, x)


def _check_betas(beta, count: int) -> list[float]:
    """beta checked as one float for all count thresholds, or one per threshold."""
    if np.isscalar(beta) or np.ndim(beta) == 0:  # np.isscalar: the cheap test for a float
        return [_check_beta(beta)] * count
    if len(beta) != count:
        raise ValueError(f"beta must be one value or one per threshold ({count}), got {len(beta)}")
    return [_check_beta(b) for b in beta]


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
        return workers
    return _check_n(workers, name="worker count")


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


def _prefix_states(mags: np.ndarray, rows: int) -> np.ndarray:
    """Prefix states of mags, partial sums then (rows == 2) running maxima;
    state 0 is the all-minus vector, the last state the all-plus one."""
    if mags.size == 0:
        # No prefix sum yet: the maximum over none never reaches a cut.
        return np.array([[0.0], [-np.inf]])[:rows]
    return _double(np.array([[-mags[0], mags[0]]] * rows), mags[1:])


def _halves(arr: np.ndarray, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Prefix states of arr[:n // 2] and of arr[n // 2:]."""
    h = arr.size // 2
    return _prefix_states(arr[:h], rows), _prefix_states(arr[h:], rows)


def _starts(base: np.ndarray, keys: np.ndarray, cut: float) -> np.ndarray:
    """For each b in base, the first j with b + keys[j] >= cut.

    keys is sorted ascending and ends in +inf, so a row without a hit gets
    the count of finite keys.  fl(b + k) is nondecreasing in k, so a row's
    hits form a suffix of keys: searchsorted on cut - b finds where it
    starts up to the rounding of that difference, and rows where the
    actual sums say otherwise are bisected on those sums.  The count is
    therefore exactly count_nonzero(b + keys[:-1] >= cut) for every row.
    """
    start = np.searchsorted(keys, cut - base)
    late = base + keys[start] < cut
    early = (start > 0) & (base + keys[start - 1] >= cut)
    bad = np.flatnonzero(late | early)
    if bad.size:
        # Keys closer together than the rounding of b + k (a second half
        # far smaller than the first) can put the start several keys off.
        b, after = base[bad], late[bad]
        lo = np.where(after, start[bad] + 1, 0)
        hi = np.where(after, keys.size - 1, start[bad] - 1)
        while np.any(lo < hi):
            mid = (lo + hi) // 2
            hit = b + keys[mid] >= cut
            lo, hi = np.where(hit, lo, mid + 1), np.where(hit, mid, hi)
        start[bad] = lo
    return start


def _tstat_tail(arr, x: float, cut: float, sums1, keys, start, hits: int) -> ExactTail:
    """{T_n >= x} from the pass's count of S_n >= cut, where the cut is
    tstat_level(n, x) * V_n(2) on the sorted final sums.

    Constant sign vectors (sample deviation zero, T_n undefined) leave the
    event and go to degenerate.  T_n rises strictly with S_n, so the direct
    route T_n >= x is evaluated only where the count can change: each
    first-half state's last miss and first hit, and the all-minus and
    all-plus vectors.  If the routes disagree on any of them, the count
    aborts rather than depend on the route taken.
    """
    n, total = arr.size, 1 << arr.size
    cut_t = tie_guarded(x)
    square_sum = float((arr * arr).sum())
    # Only the all-minus (state 0 of both halves) and all-plus (the last
    # state of both) vectors can be constant, and only with equal magnitudes.
    # They are also the only vectors whose deviation can cancel in
    # sum(a^2) - S_n^2 / n: any other has two coordinates of opposite sign
    # (or a zero), so its ss is at least sum(a^2) / 2n.  Their t therefore
    # comes from the centred magnitudes.
    constant = bool(np.all(arr == arr[0]))
    mean = arr.mean()
    t_plus = _t_value(n, mean, ((arr - mean) ** 2).sum())
    # t rises strictly with S_n, so the routes can only part where a row's
    # hits begin: check each row's last miss and first hit, then the
    # all-minus and all-plus vectors (row 0 and the last row, the first and
    # last key; a key tied with them has their value) once each.
    last, partners = sums1.size - 1, keys.size - 1
    has_miss, has_hit = start > 0, start < partners
    i = np.concatenate([np.flatnonzero(has_miss), np.flatnonzero(has_hit)])
    j = np.concatenate([start[has_miss] - 1, start[has_hit]])
    inner = ~(((i == 0) & (j == 0)) | ((i == last) & (j == partners - 1)))
    i = np.append(i[inner], [0, last])
    j = np.append(j[inner], [0, partners - 1])
    sums = sums1[i] + keys[j]
    direct = _t_value(n, sums / n, square_sum - sums * sums / n) >= cut_t
    ident = sums >= cut
    direct[-2:] = [not constant and t >= cut_t for t in (-t_plus, t_plus)]
    ident[-2:] &= not constant
    disagree = np.count_nonzero(direct != ident)
    if constant:
        hits -= int(np.count_nonzero(sums[-2:] >= cut))
    if disagree:
        raise RuntimeError(
            f"t-statistic event and its self-normalized form disagree on "
            f"{disagree} of {total} sign vectors"
        )
    return ExactTail(hits=hits, total=total, degenerate=2 if constant else 0)


def exact_tail_multi(
    mags, beta: float, xs, stat: str = RUNNING_MAX, workers: int | None = None
) -> list[ExactTail]:
    """exact_tail at several thresholds sharing one enumeration pass; beta is one
    float or one per threshold, and only the cut x V_n(beta) depends on it."""
    arr = _check_magnitudes(mags)
    xs = list(xs)
    bs = _check_betas(beta, len(xs))
    n = _check_stat(stat, arr.size)
    _resolve_workers(workers)
    xs = [_check_x(x) for x in xs]
    if not xs:
        return []
    tstat, running_max = stat == TSTAT, stat == RUNNING_MAX
    # Off the constant vectors T_n >= x iff S_n >= tstat_level(n, x) V_n(2).
    levels = [tstat_level(n, x) if tstat else tie_guarded(x) for x in xs]
    norms = {b: float(_beta_norm(arr, 2.0 if tstat else b)) for b in set(bs)}
    # Pair (i, j) has statistic S1_i + S2_j, or max(M1_i, S1_i + M2_j).
    # Normalized magnitudes are finite and at most 1, so no statistic is
    # NaN and a sorted search counts what _count_at would.
    first, second = _halves(arr, 1 + running_max)
    keys = np.append(np.sort(second[-1]), np.inf)
    tails = []
    for x, level, b in zip(xs, levels, bs):
        cut = level * norms[b]
        start = _starts(first[0], keys, cut)
        if running_max:
            start[first[1] >= cut] = 0
        hits = int((keys.size - 1 - start).sum())
        tails.append(_tstat_tail(arr, x, cut, first[0], keys, start, hits) if tstat
                     else ExactTail(hits=hits, total=1 << n))
    return tails


def exact_tail(
    mags, beta: float, x: float, stat: str = RUNNING_MAX, workers: int | None = None
) -> ExactTail:
    """Exact tail probability of a self-normalized statistic by enumeration.

    Counts sign vectors whose statistic reaches x: the running maximum of
    prefix sums or the final sum against x * V_n(beta) (the same for every
    sign vector), or Student's t against x, leaving out the constant
    vectors, where t is undefined, and tallying them in degenerate.  The
    returned hits/total ratio is the exact probability.

    Args:
        mags: nonnegative magnitudes, 1 <= len <= 30 (2 for tstat), at
            least one positive; only their ratios matter.
        beta: variation exponent > 1; checked and ignored under tstat.
        x: threshold on the statistic's scale, > 0.
        stat: "running_max", "final_sum" or "tstat".
        workers: checked like estimate_tail's (default SELFNORM_THREADS or
            1) and otherwise unused: enumeration always runs in one thread.
    """
    return exact_tail_multi(mags, beta, [x], stat, workers)[0]


def exact_tstat_tail(mags, x: float, workers: int | None = None) -> ExactTail:
    """Exact tail count of Student's t-statistic: exact_tail at stat "tstat"."""
    return exact_tail_multi(mags, 2.0, [x], TSTAT, workers)[0]
