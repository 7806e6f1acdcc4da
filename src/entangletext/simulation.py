"""Monte-Carlo estimates of how often random count matrices violate CHSH.

Entries of a 4x4 matrix are drawn i.i.d. from a distribution over
{1, ..., B} (bounded Zipfian, homogeneous, or truncated Poisson) via
inverse-CDF sampling, and the fraction of matrices admitting a violating
partition is estimated. The draw gives ``searchsorted(cdf, u) + 1``,
clipped to B, for every uniform key u, through a guide table
(``_InverseCdfDraw``): K is a power of two, so floor(u * K) is the key's
exact bucket, the bucket edges are decided by the same ``searchsorted``,
and only keys in buckets that straddle a cdf step fall back to it.

Matrices are sampled and decided in chunks: a float32 verdict
(``chsh._FloatVerdict``) decides every matrix whose float maximum of |S|
lies more than its band, 2**-16, from 2, where its rounding error cannot
change the answer. Only the matrices inside that band go through the
exact ``chsh_max_abs_batch``, so every count is exact. They are few (a
few hundred in the 800,000 matrices of the default figure sweep), so
each estimate collects them over its chunks and re-decides them in
batches of at most one chunk, not once per chunk. The buffers of the
uniforms, the draw and the verdict are allocated once per estimate and
reused by every chunk.

All randomness flows through numpy Generators seeded explicitly, so
every estimate is reproducible bit for bit. Sweep points run on a thread
pool capped by ENTANGLE_THREADS; each point owns its Generator and its
buffers, so a sweep does not depend on the thread count.
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chsh import VIOLATION_BOUND, _FloatVerdict, chsh_max_abs_batch
from .corpus import _integer

__all__ = [
    "DistributionSpec",
    "ViolationEstimate",
    "CurveSet",
    "distribution_pmf",
    "estimate_violation_probability",
    "parameter_sweep",
]

# Matrices per sampling chunk; the reused buffers take about 1.1 KB per
# matrix, 0.7 KB of it the verdict's float32 buffers, and the close
# matrices awaiting the exact kernel at most 128 bytes more. With the
# float64 verdict (1.8 KB per matrix), on the default 80-point figure
# sweep (2 vCPUs, median of 5 alternating fresh-interpreter runs), 2,048
# took 0.48 s on two threads against 0.67, 0.53 and 0.59 s for 1,024,
# 4,096 and 8,192, with peak RSS 41, 45, 52 and 66 MB for the four sizes;
# on one thread 1,024 to 4,096 ran within noise (0.78-0.83 s) and 8,192
# took 1.01 s.
_SAMPLE_CHUNK = 2048

# the zipf grid of the paper's figure: 0.1, 0.2, ..., 2.0
DEFAULT_EXPONENTS = tuple(round(0.1 * i, 10) for i in range(1, 21))


def _caller_stacklevel() -> int:
    """Warning stack level, for ``__post_init__``, of the first caller above
    the dataclass-generated ``__init__`` that is not in this module."""
    frame, level = sys._getframe(3), 3
    while frame is not None and frame.f_code.co_filename == __file__:
        frame, level = frame.f_back, level + 1
    return level


@dataclass(frozen=True)
class DistributionSpec:
    """A sampling model for co-occurrence values on {1, ..., B}."""

    kind: str  # "zipf" | "homogeneous" | "poisson"
    support_bound: int  # B
    exponent: float | None = None  # zipf decay exponent
    poisson_mean: float | None = None  # mean of the untruncated Poisson

    def __post_init__(self):
        if self.kind not in ("zipf", "homogeneous", "poisson"):
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        object.__setattr__(self, "support_bound", _integer(self.support_bound, "support bound"))
        if self.support_bound < 1:
            raise ValueError(f"support bound must be >= 1, got {self.support_bound}")
        if self.kind == "zipf":
            # written so that nan fails the comparison
            if self.exponent is None or not 0 <= self.exponent < math.inf:
                raise ValueError(
                    f"zipf requires a finite non-negative exponent, got {self.exponent}"
                )
            if self.exponent == 0:
                warnings.warn(
                    "zipf exponent 0 degenerates to the homogeneous distribution",
                    stacklevel=_caller_stacklevel(),
                )
        if self.kind == "poisson" and (
            self.poisson_mean is None or not 0 < self.poisson_mean < math.inf
        ):
            raise ValueError(f"poisson requires a finite positive mean, got {self.poisson_mean}")

    @classmethod
    def zipf(cls, exponent: float, support_bound: int) -> "DistributionSpec":
        return cls(kind="zipf", support_bound=support_bound, exponent=exponent)

    @classmethod
    def homogeneous(cls, support_bound: int) -> "DistributionSpec":
        return cls(kind="homogeneous", support_bound=support_bound)

    @classmethod
    def poisson(cls, mean: float, support_bound: int) -> "DistributionSpec":
        return cls(kind="poisson", support_bound=support_bound, poisson_mean=mean)


@dataclass(frozen=True)
class ViolationEstimate:
    spec: DistributionSpec
    n_samples: int
    p_hat: float
    std_err: float
    seed: int


@dataclass(frozen=True)
class CurveSet:
    """Estimates over a (parameter, B) grid, one estimate per point."""

    kind: str
    grid: tuple[tuple[float | None, int], ...]
    estimates: tuple[ViolationEstimate, ...]

    def __post_init__(self):
        object.__setattr__(self, "grid", tuple(tuple(p) for p in self.grid))
        object.__setattr__(self, "estimates", tuple(self.estimates))
        if len(self.grid) != len(self.estimates):
            raise ValueError("one estimate is required per grid point")


def distribution_pmf(spec: DistributionSpec) -> np.ndarray:
    """Probability of each value 1..B under ``spec``, normalized to 1."""
    b = spec.support_bound
    values = np.arange(1, b + 1, dtype=np.float64)
    if spec.kind == "zipf":
        weights = values ** (-spec.exponent)
    elif spec.kind == "homogeneous":
        weights = np.ones(b)
    else:
        # log-space keeps far-off-center truncations from underflowing to 0/0
        mu = spec.poisson_mean
        log_w = np.array([k * math.log(mu) - mu - math.lgamma(k + 1) for k in range(1, b + 1)])
        weights = np.exp(log_w - log_w.max())
    return weights / weights.sum()


def _guide_buckets(n_values: int) -> int:
    """Buckets of the guide table: the smallest power of two >= 32 per value,
    kept between 2**10 and 2**16."""
    return min(max(1 << (32 * n_values - 1).bit_length(), 1 << 10), 1 << 16)


class _InverseCdfDraw:
    """Values 1..B drawn from ``cdf`` for up to ``capacity`` uniform keys.

    Each key u in [0, 1] gets ``min(searchsorted(cdf, u, side="right") + 1,
    B)`` through a guide table of K + 1 buckets, bucket j holding
    [j/K, (j+1)/K). K is a power of two, so u * K is exact and floor(u * K)
    is the key's bucket. The table holds ``searchsorted`` of every bucket
    edge; since ``searchsorted`` is monotone, a bucket whose two edges map
    to one index maps every key inside it there, so one gather draws those
    keys. Keys in buckets that straddle a cdf step go through
    ``searchsorted`` itself. Each call writes into buffers allocated here
    and returns a view of them.
    """

    def __init__(self, cdf: np.ndarray, capacity: int):
        self._cdf = cdf
        self._k = _guide_buckets(len(cdf))
        lo = np.searchsorted(cdf, np.arange(self._k + 2) / self._k, side="right")
        self._values = np.minimum(lo[:-1] + 1, len(cdf))
        self._straddles = lo[:-1] != lo[1:]
        self._bucket = np.empty(capacity, dtype=np.intp)
        self._out = np.empty(capacity, dtype=np.intp)
        self._straddling = np.empty(capacity, dtype=bool)

    def __call__(self, uniforms: np.ndarray) -> np.ndarray:
        keys = uniforms.reshape(-1)
        n = keys.size
        bucket = np.multiply(keys, self._k, out=self._bucket[:n], casting="unsafe")
        # "clip" avoids the buffered bounds check of "raise"; it sends any key
        # past the table to bucket K, which is exact for every u >= 1
        out = np.take(self._values, bucket, out=self._out[:n], mode="clip")
        straddling = np.take(self._straddles, bucket, out=self._straddling[:n], mode="clip")
        fallback = np.flatnonzero(straddling)
        if fallback.size:
            exact = np.searchsorted(self._cdf, keys[fallback], side="right")
            exact += 1
            out[fallback] = np.minimum(exact, len(self._cdf), out=exact)
        return out.reshape(uniforms.shape)


def _exact_violations(matrices: list[np.ndarray]) -> int:
    """How many matrices of the listed (n, 4, 4) count batches violate, decided exactly."""
    max_abs, _, _ = chsh_max_abs_batch(np.concatenate(matrices))
    return int(np.count_nonzero(max_abs > VIOLATION_BOUND))


def estimate_violation_probability(
    spec: DistributionSpec, n_samples: int, seed: int
) -> ViolationEstimate:
    """Fraction of sampled matrices admitting a CHSH-violating partition.

    Fully determined by (spec, n_samples, seed); sampling is chunked but the
    uniform stream, and hence the estimate, is independent of chunk size.
    The float32 verdict decides each chunk's clear matrices, and
    ``chsh_max_abs_batch`` re-decides only those within its band of |S| =
    2, collected over the chunks and passed at most ``chunk`` at a time.
    """
    n_samples = _integer(n_samples, "n_samples")
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    rng = np.random.default_rng(seed)
    cdf = np.cumsum(distribution_pmf(spec))
    chunk = min(n_samples, _SAMPLE_CHUNK)
    uniforms = np.empty((chunk, 4, 4))
    draw = _InverseCdfDraw(cdf, uniforms.size)
    verdict = _FloatVerdict(chunk)
    n_violations = 0
    band: list[np.ndarray] = []  # copies of the close matrices, at most chunk
    n_band = 0
    remaining = n_samples
    while remaining > 0:
        take = min(remaining, chunk)
        draws = draw(rng.random(out=uniforms[:take]))
        violated, close = verdict(draws)
        n_violations += int(np.count_nonzero(violated))
        n_close = int(np.count_nonzero(close))
        if n_close:
            if n_band + n_close > chunk:
                n_violations += _exact_violations(band)
                band, n_band = [], 0
            band.append(draws[close])
            n_band += n_close
        remaining -= take
    if band:
        n_violations += _exact_violations(band)
    p_hat = n_violations / n_samples
    return ViolationEstimate(
        spec=spec,
        n_samples=n_samples,
        p_hat=p_hat,
        std_err=math.sqrt(p_hat * (1.0 - p_hat) / n_samples),
        seed=seed,
    )


def max_workers(n_jobs: int) -> int:
    """Thread-pool size: min(jobs, cpu count), capped by ENTANGLE_THREADS."""
    limit = os.cpu_count() or 1
    env = os.environ.get("ENTANGLE_THREADS")
    if env:
        try:
            limit = min(limit, max(1, int(env)))
        except ValueError:
            raise ValueError(f"ENTANGLE_THREADS must be an integer, got {env!r}")
    return max(1, min(n_jobs, limit))


def _point_seed(root_seed: int, index: int) -> int:
    """Deterministic per-grid-point seed derived from (root seed, index)."""
    return int(np.random.SeedSequence(entropy=(root_seed, index)).generate_state(1)[0])


def _spec_for(kind: str, parameter: float | None, bound: int) -> DistributionSpec:
    if kind == "zipf":
        return DistributionSpec.zipf(parameter, bound)
    if kind == "poisson":
        return DistributionSpec.poisson(parameter, bound)
    return DistributionSpec(kind, bound)  # rejects an unknown kind


def parameter_sweep(
    kind: str,
    parameters: Sequence[float] | None,
    bounds: Sequence[int],
    n_samples: int,
    seed: int,
) -> CurveSet:
    """One estimate per (parameter, B) grid point.

    Points are grouped by B, parameters in the given order. ``parameters``
    is ignored for the homogeneous kind; when omitted it is
    DEFAULT_EXPONENTS for zipf and B / 10 for the truncated Poisson. An
    empty grid raises. Per-point seeds derive from (seed, point index), so
    the sweep is reproducible as a whole. Every point is validated before
    any is sampled; points then run in parallel.
    """
    bounds = list(bounds)
    if not bounds:
        raise ValueError("at least one support bound is required")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if kind == "homogeneous":
        grid = [(None, b) for b in bounds]
    elif parameters is None and kind == "poisson":
        grid = [(b / 10.0, b) for b in bounds]
    else:
        parameters = list(DEFAULT_EXPONENTS if parameters is None else parameters)
        if not parameters:
            raise ValueError(f"the parameter grid for kind {kind!r} is empty")
        grid = [(p, b) for b in bounds for p in parameters]

    specs = [_spec_for(kind, parameter, bound) for parameter, bound in grid]
    seeds = [_point_seed(seed, index) for index in range(len(grid))]
    with ThreadPoolExecutor(max_workers=max_workers(len(grid))) as pool:
        estimates = tuple(
            pool.map(estimate_violation_probability, specs, [n_samples] * len(grid), seeds)
        )
    return CurveSet(kind=kind, grid=tuple(grid), estimates=estimates)
