"""Monte-Carlo estimates of how often random count matrices violate CHSH.

Entries of a 4x4 matrix are drawn i.i.d. from a distribution over
{1, ..., B} (bounded Zipfian, homogeneous, or truncated Poisson) via
inverse-CDF sampling, and the fraction of matrices admitting a violating
partition is estimated. The draw gives ``searchsorted(cdf, u) + 1``,
clipped to B, for every uniform key u, through a guide table
(``_InverseCdfDraw``): K is a power of two, so floor(u * K) is the key's
exact bucket, the bucket edges are decided by the same ``searchsorted``,
and only keys in buckets that straddle a cdf step fall back to it.

Matrices are sampled and decided in chunks. The draw writes each chunk's
counts as float32 straight into the buffer of a float32 verdict
(``chsh._FloatVerdict``), which decides every matrix whose float maximum
of |S| lies more than its band, 2**-16, from 2, where its rounding error
cannot change the answer. Only the matrices inside that band go through
the exact ``chsh_max_abs_batch``, so every count is exact; their counts
are drawn again by ``searchsorted`` on their own uniforms, as float32
rounds counts above 2**24. They are few (a few hundred in the 820,000
matrices of the default figure sweep), so each estimate collects them
over its chunks and re-decides them at most ``chsh._KERNEL_BATCH`` per
kernel call, not once per chunk. The uniforms and the verdict's four
float32 buffers, 576 bytes per matrix, are allocated once per sweep
worker, or per estimate off a sweep, and reused by every chunk; the
draw borrows one of the verdict's buffers for its bucket numbers.

All randomness flows through numpy Generators seeded explicitly, so
every estimate is reproducible bit for bit. Sweep points run on a thread
pool capped by ENTANGLE_THREADS; each point owns its Generator, and
every buffer is written before it is read, so a sweep does not depend
on the thread count.
"""

from __future__ import annotations

import math
import os
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chsh import _KERNEL_BATCH, VIOLATION_BOUND, _FloatVerdict, chsh_max_abs_batch
from .corpus import _integer

__all__ = [
    "DistributionSpec",
    "ViolationEstimate",
    "CurveSet",
    "distribution_pmf",
    "estimate_violation_probability",
    "parameter_sweep",
]

# Matrices per sampling chunk, so that a default point of 10,000 samples
# takes two chunks. Each chunk makes about 40 numpy calls, and on the
# sweep's thread pool each call hands the GIL between the workers, so a
# point's time follows its number of chunks. The reused buffers take 576
# bytes per matrix (128 of uniforms, 448 of the verdict's float32
# buffers), 2.88 MB per chunk, and the close matrices awaiting the exact
# kernel 128 bytes each.
_SAMPLE_CHUNK = 5000

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
    """Values 1..B drawn from ``cdf`` for uniform keys.

    Each key u in [0, 1] gets ``min(searchsorted(cdf, u, side="right") + 1,
    B)`` through a guide table of K + 1 buckets, bucket j holding
    [j/K, (j+1)/K). K is a power of two, so u * K is exact and floor(u * K)
    is the key's bucket. The table holds ``searchsorted`` of every bucket
    edge; since ``searchsorted`` is monotone, a bucket whose two edges map
    to one index maps every key inside it there, so one gather draws those
    keys. The table holds its values as float32, the type the verdict
    reads, and 0 for a bucket that straddles a cdf step; keys gathered as
    0 go through ``searchsorted`` itself (``exact``). Float32 rounds values
    above 2**24, so the exact kernel takes its counts from ``exact``.
    """

    def __init__(self, cdf: np.ndarray):
        self._cdf = cdf
        self._k = _guide_buckets(len(cdf))
        lo = np.searchsorted(cdf, np.arange(self._k + 2) / self._k, side="right")
        values = np.minimum(lo[:-1] + 1, len(cdf))
        self._values = np.where(lo[:-1] == lo[1:], values, 0).astype(np.float32)

    def __call__(self, keys: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """The value of every key into the float32 ``out``, of the shape of
        ``keys``, with the intp ``scratch`` of that shape for the buckets."""
        bucket = np.multiply(keys, self._k, out=scratch, casting="unsafe")
        # "clip" avoids the buffered bounds check of "raise"; it sends any key
        # past the table to bucket K, which is exact for every u >= 1
        np.take(self._values, bucket, out=out, mode="clip")
        straddling = np.flatnonzero(out == 0)
        if straddling.size:
            index = np.unravel_index(straddling, out.shape)
            out[index] = self.exact(keys[index])
        return out

    def exact(self, keys: np.ndarray) -> np.ndarray:
        """The value of every key as an intp array, by ``searchsorted``."""
        values = np.searchsorted(self._cdf, keys, side="right")
        values += 1
        return np.minimum(values, len(self._cdf), out=values)


def _exact_violations(matrices: list[np.ndarray]) -> int:
    """How many matrices of the listed (n, 4, 4) count batches violate,
    decided exactly, at most _KERNEL_BATCH per kernel call."""
    queued = np.concatenate(matrices)
    n_violations = 0
    for first in range(0, len(queued), _KERNEL_BATCH):
        max_abs, _, _ = chsh_max_abs_batch(queued[first : first + _KERNEL_BATCH])
        n_violations += int(np.count_nonzero(max_abs > VIOLATION_BOUND))
    return n_violations


# The sampling buffers of the sweep worker running on this thread, reused
# by every point it samples: allocated per point, they went back to the
# system after each one and were faulted in again, about 24,000 page
# faults per default sweep on two threads. Only a sweep pool's threads
# hold them, so they go when the pool shuts down.
_worker = threading.local()


def _start_worker() -> None:
    _worker.buffers = None


def _chunk_buffers(chunk: int) -> tuple[np.ndarray, _FloatVerdict]:
    """Uniforms and float verdict for chunks of ``chunk`` matrices: a sweep
    worker's own, kept from point to point, or new ones off the pool."""
    buffers = getattr(_worker, "buffers", None)
    if buffers is None or len(buffers[0]) != chunk:
        buffers = np.empty((chunk, 4, 4)), _FloatVerdict(chunk)
        if hasattr(_worker, "buffers"):
            _worker.buffers = buffers
    return buffers


def estimate_violation_probability(
    spec: DistributionSpec, n_samples: int, seed: int
) -> ViolationEstimate:
    """Fraction of sampled matrices admitting a CHSH-violating partition.

    Fully determined by (spec, n_samples, seed); sampling is chunked but the
    uniform stream, and hence the estimate, is independent of chunk size.
    The draw writes each chunk's float32 counts into the verdict's buffer,
    and the float32 verdict decides the clear matrices. Those within its
    band of |S| = 2 are drawn again exactly from their own uniforms,
    collected over the chunks, and re-decided by ``chsh_max_abs_batch``
    at most _KERNEL_BATCH at a time.
    """
    n_samples = _integer(n_samples, "n_samples")
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    rng = np.random.default_rng(seed)
    draw = _InverseCdfDraw(np.cumsum(distribution_pmf(spec)))
    uniforms, verdict = _chunk_buffers(min(n_samples, _SAMPLE_CHUNK))
    chunk = len(uniforms)
    n_violations = 0
    band: list[np.ndarray] = []  # exact counts of the close matrices
    n_band = 0
    remaining = n_samples
    while remaining > 0:
        take = min(remaining, chunk)
        keys = rng.random(out=uniforms[:take])
        draw(keys.transpose(1, 2, 0), *verdict.buffers(take))
        violated, close = verdict.decide(take)
        n_violations += int(np.count_nonzero(violated))
        n_close = int(np.count_nonzero(close))
        if n_close:
            band.append(draw.exact(keys[close]))
            n_band += n_close
            if n_band >= _KERNEL_BATCH:
                n_violations += _exact_violations(band)
                band, n_band = [], 0
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
    with ThreadPoolExecutor(max_workers(len(grid)), initializer=_start_worker) as pool:
        estimates = tuple(
            pool.map(estimate_violation_probability, specs, [n_samples] * len(grid), seeds)
        )
    return CurveSet(kind=kind, grid=tuple(grid), estimates=estimates)
