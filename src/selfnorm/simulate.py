"""Monte Carlo estimation of self-normalized tail probabilities.

Every distribution here is symmetric about 0 by construction: each
coordinate draws a magnitude and, independently, a fair sign.  Trials live
on a counter-based generator (Philox) at a fixed stride of uniforms per
trial, so trial i consumes the same draws no matter how the trial range is
partitioned across workers; hit counts are therefore identical for any
worker count.

Event membership uses the same 1e-9 relative threshold guard as the exact
enumeration module, so sampled and enumerated counts classify discrete
atoms identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox
from scipy.special import ndtri

from .bounds import _beta_value, _check_n, _check_x, _t_value, tstat_threshold
from .oracle import FINAL_SUM, RUNNING_MAX, tie_guarded
from .oracle import _map_blocks, _resolve_workers

__all__ = [
    "TSTAT",
    "STATS",
    "DistributionSpec",
    "TailEstimate",
    "LogRatePoint",
    "wilson_interval",
    "respects",
    "trial_stream",
    "sample_vector",
    "estimate_tail",
    "estimate_tail_multi",
    "efron_check",
    "empirical_log_rate",
]

TSTAT = "tstat"
STATS = (RUNNING_MAX, FINAL_SUM, TSTAT)

# Two-sided 99% normal quantile used by the Wilson score interval.
Z99 = float(ndtri(0.995))

_TRIAL_BLOCK = 1 << 15
_U64 = (1 << 64) - 1
# Half the uniform grid spacing; added to map [0, 1) draws into (0, 1).
_HALF_ULP = 2.0**-54

_KINDS = (
    "rademacher",
    "two_point",
    "uniform_symmetric",
    "gaussian",
    "symmetric_pareto",
    "fixed_magnitudes",
)


@dataclass(frozen=True)
class DistributionSpec:
    """A symmetric sampling law: magnitude source plus independent sign.

    kind selects the magnitude law; a, tail_index and magnitudes carry the
    kind-specific parameter and are ignored otherwise.
    """

    kind: str
    a: float = 1.0
    tail_index: float = 0.0
    magnitudes: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        if self.kind == "two_point":
            if not math.isfinite(self.a) or self.a <= 0.0:
                raise ValueError(f"two-point magnitude must be > 0, got {self.a!r}")
        if self.kind == "symmetric_pareto":
            if not math.isfinite(self.tail_index) or self.tail_index <= 0.0:
                raise ValueError(f"tail index must be > 0, got {self.tail_index!r}")
        if self.kind == "fixed_magnitudes":
            if not self.magnitudes:
                raise ValueError("fixed_magnitudes needs a non-empty magnitude tuple")
            arr = np.asarray(self.magnitudes, dtype=float)
            if not np.all(np.isfinite(arr)) or np.any(arr < 0.0) or not np.any(arr > 0.0):
                raise ValueError(
                    "fixed magnitudes must be finite, nonnegative, not all zero"
                )
            object.__setattr__(self, "magnitudes", tuple(float(a) for a in arr))

    @classmethod
    def rademacher(cls) -> "DistributionSpec":
        return cls("rademacher")

    @classmethod
    def two_point(cls, a: float) -> "DistributionSpec":
        return cls("two_point", a=float(a))

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
        return cls("fixed_magnitudes", magnitudes=tuple(float(a) for a in magnitudes))

    def infinite_moment(self, beta: float) -> bool:
        """True when E|xi|^beta diverges (Pareto with tail_index <= beta)."""
        b = _beta_value(beta)
        return self.kind == "symmetric_pareto" and self.tail_index <= b

    def supports_exact(self) -> bool:
        """True when sign enumeration applies: magnitudes carry no randomness."""
        return self.kind in ("rademacher", "two_point", "fixed_magnitudes")

    def check_length(self, n: int) -> None:
        """Reject sample size n when a fixed magnitude vector has another length."""
        if self.kind == "fixed_magnitudes" and len(self.magnitudes) != n:
            raise ValueError(
                f"fixed magnitude vector has length {len(self.magnitudes)}, "
                f"but n = {n} was requested"
            )

    def exact_magnitudes(self, n: int) -> list[float]:
        """The fixed magnitude vector this law implies for sample size n."""
        if self.kind == "rademacher":
            return [1.0] * n
        if self.kind == "two_point":
            return [self.a] * n
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


def wilson_interval(hits: int, trials: int, z: float = Z99) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion, clamped to [0, 1]."""
    if trials <= 0:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 <= hits <= trials:
        raise ValueError(f"hits must lie in [0, {trials}], got {hits}")
    p = hits / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    margin = (z / denom) * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials**2))
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


def _doubles_per_trial(n: int) -> int:
    # n magnitude uniforms + n sign uniforms, padded to the 4-per-counter
    # granularity Philox advances in.
    return ((2 * n + 3) // 4) * 4


def _trial_block(n: int) -> int:
    # Trials per block: 2^15 up to n = 20; beyond, as many as fit in n = 20's
    # 10 MB of uniforms, so block memory stays bounded whatever n is.
    rows = _TRIAL_BLOCK * _doubles_per_trial(20) // _doubles_per_trial(n)
    return max(1, min(_TRIAL_BLOCK, rows))


def trial_stream(seed: int, n: int, trial_index: int) -> Generator:
    """Generator positioned at trial_index's private slice of the stream."""
    c = _doubles_per_trial(n)
    bit_gen = Philox(key=_check_seed(seed))
    bit_gen.advance(trial_index * c // 4)
    return Generator(bit_gen)


def _transform(spec: DistributionSpec, u_mag: np.ndarray, u_sign: np.ndarray) -> np.ndarray:
    """Map magnitude/sign uniforms to sample values, elementwise."""
    sign = np.where(u_sign < 0.5, 1.0, -1.0)
    kind = spec.kind
    if kind == "rademacher":
        return sign
    if kind == "two_point":
        return sign * spec.a
    if kind == "uniform_symmetric":
        return sign * u_mag
    if kind == "gaussian":
        # |N(0,1)| through the half-normal quantile; the half-ulp shift keeps
        # the argument inside (0.5, 1).
        return sign * ndtri(0.5 + 0.5 * (u_mag + _HALF_ULP))
    if kind == "symmetric_pareto":
        return sign * (u_mag + _HALF_ULP) ** (-1.0 / spec.tail_index)
    mags = np.asarray(spec.magnitudes, dtype=float)
    return sign * np.broadcast_to(mags, u_mag.shape)


def sample_vector(spec: DistributionSpec, n: int, stream: Generator) -> np.ndarray:
    """Draw one length-n sample, consuming exactly 2n uniforms.

    With stream = trial_stream(seed, n, i) this reproduces row i of any
    blocked estimation run with the same seed.
    """
    n = _check_n(n)
    spec.check_length(n)
    u = stream.random(2 * n)
    return _transform(spec, u[:n], u[n:])


def _tstat_parts(vals: np.ndarray, n: int):
    """Per-row (degenerate mask, t values); t is garbage where degenerate."""
    degenerate = (vals == vals[:, :1]).all(axis=1)
    means = vals.mean(axis=1)
    ss = ((vals - means[:, None]) ** 2).sum(axis=1)
    return degenerate, _t_value(n, means, ss)


def _draw_values(spec, n: int, seed: int, lo: int, hi: int) -> np.ndarray:
    u = trial_stream(seed, n, lo).random((hi - lo, _doubles_per_trial(n)))
    return _transform(spec, u[:, :n], u[:, n : 2 * n])


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

    Each block is drawn and reduced to its statistic once; every threshold
    is then counted against the same statistic vector, so entry i equals
    estimate_tail(spec, n, beta, xs[i], stat, trials, seed, workers).
    """
    if stat not in STATS:
        raise ValueError(f"stat must be one of {STATS}, got {stat!r}")
    n = _check_n(n, minimum=2 if stat == TSTAT else 1)
    b = _beta_value(beta)
    cuts = np.array([tie_guarded(_check_x(x)) for x in xs])
    trials = _check_n(trials, name="trials")
    seed = _check_seed(seed)
    workers = _resolve_workers(workers)
    spec.check_length(n)

    def count_block(lo: int, hi: int) -> np.ndarray:
        vals = _draw_values(spec, n, seed, lo, hi)
        if stat == TSTAT:
            degenerate, stat_vals = _tstat_parts(vals, n)
        else:
            v = (np.abs(vals) ** b).sum(axis=1) ** (1.0 / b)
            degenerate = v == 0.0
            safe_v = np.where(degenerate, 1.0, v)
            if stat == RUNNING_MAX:
                stat_vals = np.cumsum(vals, axis=1).max(axis=1) / safe_v
            else:
                stat_vals = vals.sum(axis=1) / safe_v
        # Elementwise >=, not a search over sorted values: a NaN statistic
        # must stay a miss at every cut.
        live = stat_vals[~degenerate]
        hits = (live[:, None] >= cuts[None, :]).sum(axis=0)
        return np.append(hits, degenerate.sum())

    *hits, degenerate = sum(_map_blocks(count_block, trials, workers, _trial_block(n)))
    degenerate = int(degenerate)
    estimates = []
    for h in map(int, hits):
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

    Degenerate trials (V_n = 0, or sample deviation zero under tstat) count
    as non-hits and are tallied in degenerate_count.  Identical arguments
    give identical hits for every worker count.

    Args:
        spec: sampling law.
        n: sample size (>= 2 for tstat).
        beta: variation exponent for V_n; ignored by the tstat statistic.
        x: threshold, > 0.
        stat: "running_max", "final_sum" or "tstat".
        trials: Monte Carlo sample count, >= 1.
        seed: 64-bit stream key.
        workers: block threads; defaults to SELFNORM_THREADS or 1.
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

    For every trial with nonzero sample deviation the indicator of
    T_n >= x must equal the indicator of S_n / V_n(2) >= tstat_threshold(n, x);
    the return value is the number of violations (0 when the reduction
    holds).  Degenerate trials are skipped.
    """
    n = _check_n(n, minimum=2)
    x = _check_x(x)
    trials = _check_n(trials, name="trials")
    seed = _check_seed(seed)
    workers = _resolve_workers(workers)
    tau = tstat_threshold(n, x)
    cut_t = tie_guarded(x)
    cut_ratio = tie_guarded(tau)

    def count_block(lo: int, hi: int) -> int:
        vals = _draw_values(spec, n, seed, lo, hi)
        degenerate, t = _tstat_parts(vals, n)
        v = np.sqrt((vals * vals).sum(axis=1))
        safe_v = np.where(degenerate, 1.0, v)
        ratio = vals.sum(axis=1) / safe_v
        live = ~degenerate
        return int((live & ((t >= cut_t) != (ratio >= cut_ratio))).sum())

    return sum(_map_blocks(count_block, trials, workers, _trial_block(n)))


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
    b = _beta_value(beta)
    alpha = float(alpha)
    c = float(c)
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be a finite real, got {alpha!r}")
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
            c * float(n) ** alpha,
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
