"""Monte Carlo estimation of self-normalized tail probabilities.

Every distribution here is symmetric about 0 by construction: each
coordinate draws a magnitude and, independently, a fair sign.  Trials live
on a counter-based generator (Philox) at a fixed stride of raw 64-bit words
per trial, so trial i consumes the same words no matter how the trial range
is partitioned across workers; hit counts are therefore identical for any
worker count.  A trial's first words feed the magnitudes of a random law,
one word each: the magnitude uniform is its word's top 53 bits on a 2^-53
grid (numpy's Generator.random).  The next ceil(n/64) words feed the signs,
one bit each: coordinate j is negative when bit j mod 64 of sign word
j // 64 is 1.  A block's values are transformed in place in one contiguous
array.

Under the running maximum and the final sum, a law whose magnitudes are all
equal (Rademacher, two-point, a constant fixed vector) is counted without
values: its statistic is an integer level k in [-n, n] over the constant
V_n(beta), so each block's levels are read from the sign bytes through
per-byte tables and tallied in one histogram over the levels drawn, in one
thread.  Each level's statistic k / V_n(beta) is then the float division
the values route makes, so the hit counts are the same.

Event membership uses the same 1e-9 relative threshold guard as the exact
enumeration module, so sampled and enumerated counts classify discrete
atoms identically.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.random import Philox

from .bounds import _beta_norm, _check_beta, _check_n, _check_x, _rescaled_x, _t_value
from .oracle import FINAL_SUM, RUNNING_MAX, TSTAT, tie_guarded, tstat_level
from .oracle import _check_betas, _check_stat, _count_at, _magnitude_array, _resolve_workers

__all__ = [
    "DistributionSpec",
    "TailEstimate",
    "LogRatePoint",
    "wilson_interval",
    "respects",
    "estimate_tail",
    "estimate_tail_multi",
    "efron_check",
    "empirical_log_rate",
]

# Two-sided 99% normal quantile used by the Wilson score interval, written
# out (it is float(scipy.special.ndtri(0.995))) so that import loads no scipy.
Z99 = 2.5758293035489004

_TRIAL_BLOCK = 1 << 12
_U64 = (1 << 64) - 1
# Half the uniform grid spacing; added to map [0, 1) draws into (0, 1).
_HALF_ULP = 2.0**-54
# Shifts by it pass dtype=np.uint64: under numpy 1.x's value-based casting a
# uint8 array shifted by this scalar would run in uint8, and 1 << 63 is 0.
_SIGN_SHIFT = np.uint64(63)
# Unit steps by sign byte, for a byte's first L = 1..8 sign bits (row L - 1),
# least significant first; a 0 bit steps +1, a 1 bit -1.  _BYTE_SUM holds
# the sum of a byte's L steps, _BYTE_TOP the largest of its L prefix sums.
_BYTE_BITS = np.unpackbits(np.arange(256, dtype=np.uint8)[None], axis=0, bitorder="little")
_BYTE_SUM = np.cumsum(1 - 2 * _BYTE_BITS.astype(np.int64), axis=0)
_BYTE_TOP = np.maximum.accumulate(_BYTE_SUM, axis=0)

_KINDS = (
    "rademacher",
    "uniform_symmetric",
    "gaussian",
    "symmetric_pareto",
    "fixed_magnitudes",
)


@dataclass(frozen=True)
class DistributionSpec:
    """A symmetric sampling law: magnitude source plus independent sign.

    kind selects the magnitude law; tail_index and magnitudes carry the
    kind-specific parameter and are ignored otherwise; magnitudes is kept at unit scale.
    """

    kind: str
    tail_index: float = 0.0
    magnitudes: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        if self.kind == "symmetric_pareto":
            if not math.isfinite(self.tail_index) or self.tail_index <= 0.0:
                raise ValueError(f"tail index must be > 0, got {self.tail_index!r}")
        if self.kind == "fixed_magnitudes":
            arr = _magnitude_array(self.magnitudes)
            object.__setattr__(self, "magnitudes", tuple(float(a) for a in arr))

    @classmethod
    def rademacher(cls) -> "DistributionSpec":
        return cls("rademacher")

    @classmethod
    def two_point(cls, a: float) -> "DistributionSpec":
        """Magnitude a with a fair sign: the Rademacher law, as every statistic is scale-free."""
        a = float(a)
        if not math.isfinite(a) or a <= 0.0:
            raise ValueError(f"two-point magnitude must be > 0, got {a!r}")
        return cls.rademacher()

    @classmethod
    def uniform(cls) -> "DistributionSpec":
        return cls("uniform_symmetric")

    @classmethod
    def gaussian(cls) -> "DistributionSpec":
        return cls("gaussian")

    @classmethod
    def pareto(cls, tail_index: float) -> "DistributionSpec":
        return cls("symmetric_pareto", tail_index=float(tail_index))

    @classmethod
    def fixed(cls, magnitudes) -> "DistributionSpec":
        return cls("fixed_magnitudes", magnitudes=tuple(magnitudes))

    def infinite_moment(self, beta: float) -> bool:
        """True when E|xi|^beta diverges (Pareto with tail_index <= beta)."""
        b = _check_beta(beta)
        return self.kind == "symmetric_pareto" and self.tail_index <= b

    def supports_exact(self) -> bool:
        """True when sign enumeration applies: magnitudes carry no randomness."""
        return self.kind in ("rademacher", "fixed_magnitudes")

    def check_length(self, n: int) -> None:
        """Reject sample size n when a fixed magnitude vector has another length."""
        if self.kind == "fixed_magnitudes" and len(self.magnitudes) != n:
            raise ValueError(
                f"fixed magnitude vector has length {len(self.magnitudes)}, "
                f"but n = {n} was requested"
            )

    def exact_magnitudes(self, n: int) -> list[float]:
        """The fixed magnitude vector this law implies for sample size n, at unit scale."""
        if self.kind == "rademacher":
            return [1.0] * n
        if self.kind == "fixed_magnitudes":
            self.check_length(n)
            return list(self.magnitudes)
        raise ValueError(f"{self.kind} has random magnitudes; no exact enumeration")


@dataclass(frozen=True)
class TailEstimate:
    """Monte Carlo tail estimate with a 99% Wilson score interval."""

    hits: int
    trials: int
    p_hat: float
    ci_low: float
    ci_high: float
    seed: int
    degenerate_count: int


@dataclass(frozen=True)
class LogRatePoint:
    """Normalized empirical decay rate log(p_hat) / n^e at one sample size.

    log_rate is -inf when no trial hit; log_rate_upper comes from the Wilson
    upper confidence limit and is always finite.
    """

    n: int
    log_rate: float
    log_rate_upper: float
    estimate: TailEstimate


def wilson_interval(hits: int, trials: int) -> tuple[float, float]:
    """99% Wilson score interval for a binomial proportion, clamped to [0, 1]."""
    if trials <= 0:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 <= hits <= trials:
        raise ValueError(f"hits must lie in [0, {trials}], got {hits}")
    p = hits / trials
    z2 = Z99 * Z99
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    margin = (Z99 / denom) * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials**2))
    # At the boundaries the score equation's outer root is exactly 0 or 1;
    # evaluating the quotient would land a few ulps inside and break
    # ci_low <= p_hat <= ci_high.
    low = 0.0 if hits == 0 else max(0.0, center - margin)
    high = 1.0 if hits == trials else min(1.0, center + margin)
    return low, high


def respects(estimate: TailEstimate, bound: float) -> bool:
    """True when p_hat <= bound + 3 half-widths of its 99% interval."""
    return estimate.p_hat <= bound + 3.0 * (estimate.ci_high - estimate.p_hat)


def _check_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if not 0 <= seed <= _U64:
        raise ValueError(f"seed must fit in 64 bits, got {seed}")
    return int(seed)


def _words_per_trial(spec: DistributionSpec, n: int) -> int:
    # n magnitude words for a random law (none for a fixed one) and one sign
    # bit per coordinate, padded to the 4-per-counter granularity Philox
    # advances in.
    m = 0 if spec.supports_exact() else n
    return (m + (n + 63) // 64 + 3) // 4 * 4


def _trial_block(n: int) -> int:
    # Trials per block, sized by the (rows, n) values array: 2^12 up to
    # n = 20; beyond, as many as fit in its 640 KB, so a block's passes stay
    # in a 2 MB L2 cache; past n = 81,920 one trial.
    return max(1, min(_TRIAL_BLOCK, _TRIAL_BLOCK * 20 // n))


def _draw_words(spec, n: int, seed: int, lo: int, hi: int) -> np.ndarray:
    """Trials lo..hi-1 of seed's stream, one row each: trial i reads raw words
    [i c, (i + 1) c) of Philox(key=seed), c = _words_per_trial(spec, n)."""
    spec.check_length(n)
    c = _words_per_trial(spec, n)
    bit_gen = Philox(key=seed)
    bit_gen.advance(lo * c // 4)
    return bit_gen.random_raw((hi - lo, c))


def _draw_values(spec, n: int, seed: int, lo: int, hi: int) -> np.ndarray:
    """The sample values of trials lo..hi-1 of seed's stream (see _draw_words)."""
    return _transform(spec, _draw_words(spec, n, seed, lo, hi), n)


def _map_blocks(count, spec, n: int, seed: int, trials: int, workers: int):
    """Sum count(values) over the blocks of trials 0..trials-1, each block
    drawn by _draw_values, threaded when asked.

    A block's count is a pure function of its trial range, and the counts
    are combined by integer addition, so the outcome is identical for any
    worker count.
    """
    block = _trial_block(n)

    def count_block(lo: int) -> int | np.ndarray:
        return count(_draw_values(spec, n, seed, lo, min(lo + block, trials)))

    starts = range(0, trials, block)
    if workers == 1 or len(starts) == 1:
        return sum(map(count_block, starts))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return sum(pool.map(count_block, starts))


def _transform(spec: DistributionSpec, words: np.ndarray, n: int) -> np.ndarray:
    """Turn each row of a uint64 block of raw words into n sample values.

    A random law's columns [0, n) feed the magnitudes and the first n bits
    of the columns after them the signs; a fixed law's signs start at
    column 0.  The magnitude columns are reused as scratch.  The values go
    to one new contiguous (rows, n) array, transformed in place there.
    """
    m = 0 if spec.supports_exact() else n
    # Sign bits in little-endian order, on any platform: byte k of a word
    # holds bits 8k..8k+7.
    sign_bytes = words[:, m:].astype("<u8", copy=False).view(np.uint8)
    minus = np.unpackbits(sign_bytes, axis=1, count=n, bitorder="little")
    if m == 0:
        # The sign bits shifted into place, XOR the unit magnitudes' bits,
        # are the values.
        val_bits = np.left_shift(minus, _SIGN_SHIFT, dtype=np.uint64)
        mags = np.asarray(spec.exact_magnitudes(n))
        np.bitwise_xor(val_bits, mags.view(np.uint64), out=val_bits)
        return val_bits.view(np.float64)
    bits = words[:, :n]
    # numpy's next_double: the top 53 bits on the 2^-53 grid of [0, 1).
    np.right_shift(bits, 11, out=bits)
    vals = bits * 2.0**-53
    if spec.kind == "gaussian":
        # |N(0,1)| through the half-normal quantile (scipy loads on the
        # first Gaussian draw).  The half-ulp shift keeps the argument
        # above 0.5; the top word's rounds to 1.0, so clamp it below 1.
        from scipy.special import ndtri

        vals += _HALF_ULP
        vals *= 0.5
        vals += 0.5
        np.minimum(vals, 1.0 - 2.0**-53, out=vals)
        ndtri(vals, out=vals)
    elif spec.kind == "symmetric_pareto":
        vals += _HALF_ULP
        vals **= -1.0 / spec.tail_index
    # XOR flips the value's sign bit where the sign bit is 1, as
    # -1.0 * magnitude does (for -0.0 and inf too; magnitudes are never
    # NaN).  The magnitude words are spent, so the shifted signs go there.
    np.left_shift(minus, _SIGN_SHIFT, out=bits, dtype=np.uint64)
    val_bits = vals.view(np.uint64)
    np.bitwise_xor(val_bits, bits, out=val_bits)
    return vals


def _running_max(vals: np.ndarray) -> np.ndarray:
    """max_k S_k of each row, its sums added left to right as np.cumsum adds them."""
    rows, n = vals.shape
    # numpy's cumsum loops row by row, so on a block with at least as many
    # rows as columns a walk over the columns is faster; on a wider one it is not.
    if rows < n:
        return np.cumsum(vals, axis=1).max(axis=1)
    acc = vals[:, 0].copy()
    top = acc.copy()
    for j in range(1, n):
        acc += vals[:, j]
        np.maximum(top, acc, out=top)
    return top


def _sign_levels(words: np.ndarray, n: int, stat: str) -> np.ndarray:
    """Integer max_k S_k (running max) or S_n (final sum) of each row's n unit
    steps, read from the sign bits of a fixed law's block of raw words."""
    nb = (n + 7) // 8
    signs = words.astype("<u8", copy=False).view(np.uint8)[:, :nb]
    last = (n - 1) % 8  # table row of the last byte, which holds last + 1 signs
    if len(signs) < 64 * nb:
        # Blocks past n of about 100 (81 x 125 at n = 1000), where a walk over
        # the byte columns is slower: gather every byte, then add each byte's
        # best prefix to the sum of the bytes before it.
        steps = np.take(_BYTE_SUM[7], signs)
        steps[:, -1] = np.take(_BYTE_SUM[last], signs[:, -1])
        if stat == FINAL_SUM:
            return steps.sum(axis=1)
        tops = np.take(_BYTE_TOP[7], signs)
        tops[:, -1] = np.take(_BYTE_TOP[last], signs[:, -1])
        tops[:, 1:] += np.cumsum(steps[:, :-1], axis=1)
        return tops.max(axis=1)
    acc = np.zeros(len(signs), dtype=np.int64)
    top = np.full(len(signs), -n, dtype=np.int64)
    for j in range(nb):
        row = 7 if j < nb - 1 else last
        if stat == RUNNING_MAX:
            np.maximum(top, acc + np.take(_BYTE_TOP[row], signs[:, j]), out=top)
        acc += np.take(_BYTE_SUM[row], signs[:, j])
    return top if stat == RUNNING_MAX else acc


def _level_counts(spec, n: int, stat: str, seed: int, trials: int) -> tuple[int, np.ndarray]:
    """(low, hist): hist[i] of trials 0..trials-1 of a unit-magnitude law have
    level low + i.  hist spans the levels drawn, not all 2n + 1 (a block past
    n = 81,920 is one trial).  One thread: two were slower at every n measured."""
    low, hist = 0, np.zeros(0, dtype=np.int64)
    block = _trial_block(n)
    for lo in range(0, trials, block):
        levels = _sign_levels(_draw_words(spec, n, seed, lo, min(lo + block, trials)), n, stat)
        start, stop = min(low, int(levels.min())), max(low + hist.size, int(levels.max()) + 1)
        hist = np.pad(hist, (low - start, stop - low - hist.size))
        low = start
        hist += np.bincount(levels - low, minlength=hist.size)
    return low, hist


def _ratios(sums: np.ndarray, norms) -> list:
    """Per-entry (degenerate mask, sums / v) for each V_n array v in norms; v
    holds one entry per entry of sums, or one entry shared by all of them."""
    pairs = []
    for v in norms:
        with np.errstate(divide="ignore", invalid="ignore"):
            stats = sums / v
        pairs.append((~np.isfinite(stats) | ~np.isfinite(v), stats))
    return pairs


def _statistics(vals: np.ndarray, stat: str, betas, fixed: bool = False) -> list:
    """Per-row (degenerate mask, statistic) of a block of samples for each b in
    betas, the numerator reduced once.  A degenerate row has no finite statistic:
    V_n(b) or S / V_n(b) is not finite (V_n(b) = 0 included), or under tstat the row
    is constant or t or its sum of squared deviations ss is not finite (ss = inf
    gives t = 0).  fixed: all rows share |values|, so row 0's V_n is theirs."""
    if stat == TSTAT:
        means = vals.mean(axis=1)
        dev = vals - means[:, None]
        dev **= 2
        ss = dev.sum(axis=1)
        t = _t_value(vals.shape[1], means, ss)
        degenerate = (vals == vals[:, :1]).all(axis=1) | ~np.isfinite(ss) | ~np.isfinite(t)
        return [(degenerate, t)] * len(betas)
    sums = _running_max(vals) if stat == RUNNING_MAX else vals.sum(axis=1)
    return _ratios(sums, [_beta_norm(vals[:1] if fixed else vals, b) for b in betas])


def _unit_norm(n: int, b: float) -> np.ndarray:
    """V_n(b) of n unit magnitudes, as _beta_norm gives it for np.ones((1, n)):
    the powers are 1 and their sum is exactly n (n < 2^53), so the root is
    the same array power on the same value."""
    return np.asarray([float(n)]) ** (1.0 / b)


def estimate_tail_multi(
    spec: DistributionSpec,
    n: int,
    beta: float,
    xs,
    stat: str = RUNNING_MAX,
    trials: int = 10**6,
    seed: int = 0,
    workers: int | None = None,
) -> list[TailEstimate]:
    """estimate_tail at several thresholds sharing one Monte Carlo stream.

    beta is one float or one per threshold.  Each block is drawn once and
    reduced once per distinct beta; every threshold is then counted against
    its beta's statistic vector, so entry i equals
    estimate_tail(spec, n, beta[i], xs[i], stat, trials, seed, workers).
    """
    n = _check_stat(stat, n)
    xs = list(xs)
    bs = _check_betas(beta, len(xs))
    cuts = [tie_guarded(_check_x(x)) for x in xs]
    trials = _check_n(trials, name="trials")
    seed = _check_seed(seed)
    workers = _resolve_workers(workers)
    if not cuts:
        return []
    distinct = list(dict.fromkeys(bs))
    groups = [[i for i, b in enumerate(bs) if b == d] for d in distinct]
    fixed = spec.supports_exact()  # unit or fixed vector: one V_n per block

    def count(pairs, weights=None) -> np.ndarray:
        # Each entry of a statistic vector counts once, or weights[k] times.
        counts = np.empty((2, len(cuts)), dtype=np.int64)  # hits, degenerate
        for (degenerate, stats), group in zip(pairs, groups):
            if weights is None:
                counts[0, group] = _count_at(stats[~degenerate], [cuts[i] for i in group])
                counts[1, group] = degenerate.sum()
            else:
                counts[0, group] = [weights[~degenerate & (stats >= cuts[i])].sum() for i in group]
                counts[1, group] = weights[degenerate].sum()
        return counts

    unit = spec.kind == "rademacher" or fixed and set(spec.magnitudes) == {1.0}
    if stat != TSTAT and unit:
        # Every row's statistic is its level k over V_n of n unit magnitudes.
        first, hist = _level_counts(spec, n, stat, seed, trials)
        levels = np.arange(first, first + hist.size, dtype=float)
        counts = count(_ratios(levels, [_unit_norm(n, b) for b in distinct]), hist)
    else:
        counts = _map_blocks(
            lambda vals: count(_statistics(vals, stat, distinct, fixed)), spec, n, seed, trials, workers
        )
    estimates = []
    for h, degenerate in counts.T.tolist():
        low, high = wilson_interval(h, trials)
        estimates.append(TailEstimate(h, trials, h / trials, low, high, seed, degenerate))
    return estimates


def estimate_tail(
    spec: DistributionSpec,
    n: int,
    beta: float,
    x: float,
    stat: str = RUNNING_MAX,
    trials: int = 10**6,
    seed: int = 0,
    workers: int | None = None,
) -> TailEstimate:
    """Estimate P(statistic >= x) with a 99% Wilson interval.

    Degenerate trials have no finite statistic (V_n or S / V_n not finite, V_n = 0
    included; under tstat a constant sample, or a t or sum of squared deviations
    that is not finite): they count as non-hits and are tallied in
    degenerate_count.  Fixed magnitudes count at unit scale, as in the oracle.
    Identical arguments give identical hits for every worker count.

    Args:
        spec: sampling law.
        n: sample size (>= 2 for tstat).
        beta: variation exponent for V_n; ignored by the tstat statistic.
        x: threshold, > 0.
        stat: "running_max", "final_sum" or "tstat".
        trials: Monte Carlo sample count, >= 1.
        seed: 64-bit stream key.
        workers: block threads; defaults to SELFNORM_THREADS or 1.  A law of
            equal magnitudes under a sum statistic is counted in one thread
            whatever the value (see the module docstring).
    """
    return estimate_tail_multi(spec, n, beta, [x], stat, trials, seed, workers)[0]


def efron_check(
    spec: DistributionSpec,
    n: int,
    x: float,
    trials: int = 10**5,
    seed: int = 0,
    workers: int | None = None,
) -> int:
    """Count trials where {T_n >= x} and its self-normalized form disagree.

    For every trial with a finite nonzero sample deviation the indicator of
    T_n >= x must equal the indicator of S_n / V_n(2) >= tstat_threshold(n, x),
    both under the tie guard on t's scale (oracle.tstat_level); the return
    value is the number of violations (0 when the reduction holds).
    Degenerate trials are skipped.
    """
    n = _check_n(n, minimum=2)
    x = _check_x(x)
    trials = _check_n(trials, name="trials")
    seed = _check_seed(seed)
    workers = _resolve_workers(workers)
    cut_t, level = tie_guarded(x), tstat_level(n, x)

    def count(vals: np.ndarray) -> int:
        degenerate, t = _statistics(vals, TSTAT, (2.0,))[0]
        ratio = _statistics(vals, FINAL_SUM, (2.0,))[0][1]
        return int((~degenerate & ((t >= cut_t) != (ratio >= level))).sum())

    return _map_blocks(count, spec, n, seed, trials, workers)


def _mix_seed(seed: int, k: int) -> int:
    """Derive a 64-bit substream key from (seed, k); splitmix64 finalizer."""
    z = (seed + k * 0x9E3779B97F4A7C15) & _U64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
    return z ^ (z >> 31)


def empirical_log_rate(
    spec: DistributionSpec,
    beta: float,
    c: float,
    alpha: float,
    n_list=(10, 20, 40),
    trials: int = 10**6,
    seed: int = 0,
    workers: int | None = None,
) -> list[LogRatePoint]:
    """Empirical decay rates of P(max_k S_k / V_n >= c n^alpha) over n.

    For each n the running-maximum tail at threshold c n^alpha is estimated
    (on a substream derived from (seed, n)) and log(p_hat) is normalized by
    n^(2 alpha + 2/beta - 1), the scale on which the moderate- and
    large-deviation limits live.  Cells with zero hits report log_rate
    -inf; log_rate_upper, from the Wilson upper limit, stays usable either
    way.
    """
    b = _check_beta(beta)
    alpha = float(alpha)
    c = float(c)
    if not math.isfinite(c) or c <= 0.0:
        raise ValueError(f"c must be a finite real > 0, got {c!r}")
    if alpha == (b - 1.0) / b and c > 1.0:
        raise ValueError(
            "at the large-deviation scaling alpha = (beta-1)/beta the level "
            f"c must lie in (0, 1], got {c}"
        )
    exponent = 2.0 * alpha + 2.0 / b - 1.0
    points = []
    for n in n_list:
        n = _check_n(n)
        est = estimate_tail(
            spec,
            n,
            b,
            _rescaled_x(n, c, alpha),
            RUNNING_MAX,
            trials,
            _mix_seed(_check_seed(seed), n),
            workers,
        )
        norm = float(n) ** exponent
        rate = math.log(est.p_hat) / norm if est.hits > 0 else -math.inf
        points.append(
            LogRatePoint(
                n=n,
                log_rate=rate,
                log_rate_upper=math.log(est.ci_high) / norm,
                estimate=est,
            )
        )
    return points
