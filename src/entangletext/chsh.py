"""CHSH statistics over 4x4 co-occurrence submatrices.

A partition splits four row terms into two ordered pairs: an unprimed
measurement X = (X1, X2) and a primed one X' = (X'1, X'2), with outcome
+1 for the first element of a pair and -1 for the second; columns are
partitioned the same way. Each (row pair, column pair) block of counts
yields the empirical expectation

    E = (f11 + f22 - f12 - f21) / (f11 + f22 + f12 + f21),

undefined when the block holds no observations, and the CHSH combination

    S = E(AB) + E(A'B) + E(AB') - E(A'B')

is classical only inside [-2, 2]. Flipping both outcome labels on one
side negates S, so enumeration keeps one representative per flip class:
the unprimed pair in ascending index order, 12 partitions per side, 144
partition pairs per submatrix. A partition pair whose S is undefined is
skipped; it cannot witness a violation.

Every reported maximum of |S| comes from one kernel, ``_split_kernel``.
Four indices split into two unordered pairs in 3 ways per side, so the
144 partition pairs fall into 9 split pairs of 16. The 16 partition pairs of
a split pair share its four block expectations x = n/d and differ only in
the signs they give them: an odd number of minus signs (the sign of
E(A'B') is minus the product of the other three), and every such pattern
occurs. So, with row halves a, b and column halves c, d, their best |S|
is the largest of the eight sums +-x_ac +-x_ad +-x_bc +-x_bd with an odd
number of minus signs. Each of these negates one x of one column half and
none or both of the other's, so with no case on the signs

    best |S| = max(|x_ac - x_bc| + |x_ad + x_bd|, |x_ac + x_bc| + |x_ad - x_bd|).

The kernel evaluates this on integers over the common denominator D = d1
d2 d3 d4, so the verdict |S| > 2 is exact with no float band, and the
reported maximum is the exact value correctly rounded. A split pair with
an empty block skips its 16 partition pairs.

The integers are int64 while 4 x (largest count) < 6888: every d is then
below 6888, so D < 6888**4 and every numerator (at most 4 D) is below
2**53, exact in int64 and in float64. Larger counts run the same
expressions on Python ints. The argmax is the first split pair, row
split major, whose exact maximum is largest, then the first of its
partition pairs in enumerate_partitions() order that attains it.

Clear verdicts are decided in float32 by the same closed form:
``_FloatVerdict`` for the simulator's matrices, and
``entanglement_proportion`` for the subset pairs that survive its prune.
``_band_verdict`` calls a float maximum of |S| violated above 2 + band and
close within the band of 2, and the kernel re-decides the close ones. The
band is ``_FLOAT_BAND``, 2**-16. The simulator draws its counts as
float32 straight into the verdict's buffer, so counts above 2**24 reach
the verdict rounded, which the proof below allows; the kernel takes
exact counts. A verdict outside the band is exact for any non-negative
int64 counts; with u = 2**-24 the float32 unit roundoff:

- Each count converts within a relative u, and each of the three
  additions or subtractions that form a block's numer, or its denom,
  adds at most u times a magnitude no larger than the exact block sum d.
  So the float numer and denom are within about 3u d of the exact ones,
  denom is zero only for an empty block, and since |numer| <= d, every
  float x = numer / denom is within about 7u of the exact x: 6u from
  the inputs of the division and u from its rounding. (While d is at
  most 2**24 the sums are exact and only the division rounds.)
- A sum or difference of two x is at most 2 in magnitude, so it, and
  its absolute value, is within 7u + 7u + 2u = 16u, the last for its
  rounding. A sum of two of those is at most 4, so it is within 16u +
  16u + 4u = 36u (2.1e-6), plus terms of order u**2. The maximum of two
  such sums, and the maximum over split pairs, round nothing, so the
  float maximum of |S| is within 36u of the exact one, under a seventh
  of the 2**-16 (1.5e-5, 256u) band.
- A float maximum above 2 + band therefore proves a violation and one
  below 2 - band proves none; exact ties at |S| = 2 always land in the
  band. The comparisons round nothing: the band is a power of two, so
  2 + band and 2 - band are exact, and so is top - 2 for any float
  maximum top in [1, 4] (Sterbenz).

Every block layout numbers the pairs of n indices in combinations(range(n),
2) order. Of the six pairs of four indices (``_PAIRS``), pairs s and 5 - s
are the two halves of split s, and half 0 holds index 0. ``_block_terms``
builds the numer and denom of every block in this numbering, for the float
verdict and for the scan's prune table alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations

import numpy as np

from .cooccurrence import CoocMatrix

__all__ = [
    "Partition",
    "SubMatrix",
    "ChshEvaluation",
    "PairDetail",
    "ProportionReport",
    "expected_value",
    "chsh_statistic",
    "canonical_partitions",
    "enumerate_partitions",
    "max_abs_chsh",
    "chsh_max_abs_batch",
    "entanglement_proportion",
]

VIOLATION_BOUND = 2.0

# Canonical per-side index configurations (a1, a2, a3, a4): unprimed pair
# (a1, a2) with a1 < a2, primed pair (a3, a4) in either order. Exactly the
# 4!/2 = 12 orderings that survive the global outcome-flip symmetry.
_CONFIGS = tuple(p for p in permutations(range(4)) if p[0] < p[1])

N_PARTITIONS_PER_SIDE = len(_CONFIGS)
N_PARTITION_PAIRS = N_PARTITIONS_PER_SIDE**2

# the pair numbering of the module docstring
_PAIRS = tuple(combinations(range(4), 2))

# A float32 maximum of |S| within this of 2 is re-decided exactly: the
# band of the simulator's verdict and of the subset scan (module docstring).
_FLOAT_BAND = 2.0**-16

# The kernel runs in int64 while 4 x (largest count), the largest possible
# block denominator, is below this bound: 4 * 6888**4 < 2**53.
_DENOMINATOR_LIMIT = 6888

# Bound entries per chunk of the subset scan, one per (live column split,
# row split): 9 x 4,096, an unpruned chunk of about 4,096 subset pairs.
# A chunk takes whole live row subsets, at least one, so its bound, its
# per-split-pair arrays and its per-subset-pair maxima stay within this
# many entries; 4x larger chunks doubled the traced peak of a k = 10,
# W = 5 scan (1.2 to 2.6 MB) and gave no steady saving in time.
_SCAN_CHUNK = 9 * 4096

# Subset pairs per exact kernel call of the scan; the kernel's temporaries
# take about 3.5 KB per matrix, so a call stays under 1 MB.
_KERNEL_BATCH = 256


def _half(split: int, half: int) -> tuple[int, int]:
    """The pair of four indices that is half ``half`` of split ``split``."""
    return _PAIRS[5 - split if half else split]


def _side_split(config) -> tuple[int, int, int]:
    """(split, half holding the unprimed pair, sign of the primed pair)."""
    pair = _PAIRS.index(config[:2])
    return min(pair, 5 - pair), int(pair > 2), 1 if config[2] < config[3] else -1


def _split_tables() -> tuple[np.ndarray, np.ndarray]:
    """Partition pairs and block signs of the 9 split pairs.

    Split pair 3 * row split + column split holds 16 partition pairs, listed
    in enumerate_partitions() order. Each gives the four blocks of its split
    pair, numbered 2 * row half + column half, a sign of +1 or -1.
    """
    sides = [_side_split(c) for c in _CONFIGS]
    index: list[list[int]] = [[] for _ in range(9)]
    signs: list[list[list[int]]] = [[] for _ in range(9)]
    for r, (row_split, hu, sr) in enumerate(sides):
        for c, (col_split, hw, sc) in enumerate(sides):
            coef = [0] * 4
            coef[2 * hu + hw] = 1  # E(AB)
            coef[2 * (1 - hu) + hw] = sr  # E(A'B)
            coef[2 * hu + 1 - hw] = sc  # E(AB')
            coef[2 * (1 - hu) + 1 - hw] = -sr * sc  # -E(A'B')
            index[3 * row_split + col_split].append(r * N_PARTITIONS_PER_SIDE + c)
            signs[3 * row_split + col_split].append(coef)
    return np.array(index), np.array(signs)


_SPLIT_PARTITIONS, _SPLIT_SIGNS = _split_tables()
# (row, column) index pairs of block b of split pair j at [b, j]: (4, 9, 2)
_BLOCK_ROWS = np.array([[_half(j // 3, b // 2) for j in range(9)] for b in range(4)])
_BLOCK_COLS = np.array([[_half(j % 3, b % 2) for j in range(9)] for b in range(4)])


@dataclass(frozen=True)
class Partition:
    """Assignment of four indices to two ordered two-outcome measurements."""

    side: str  # "rows" | "cols"
    unprimed: tuple[int, int]  # X = (X1, X2): X1 -> +1, X2 -> -1
    primed: tuple[int, int]  # X' = (X'1, X'2)

    def __post_init__(self):
        if self.side not in ("rows", "cols"):
            raise ValueError(f"side must be 'rows' or 'cols', got {self.side!r}")
        object.__setattr__(self, "unprimed", tuple(self.unprimed))
        object.__setattr__(self, "primed", tuple(self.primed))
        if sorted(self.unprimed + self.primed) != [0, 1, 2, 3]:
            raise ValueError(
                f"partition must use indices 0..3 exactly once: {self.unprimed} {self.primed}"
            )


@dataclass(frozen=True)
class SubMatrix:
    """A 4x4 block of co-occurrence counts with its term labels."""

    rows: tuple[str, str, str, str]
    cols: tuple[str, str, str, str]
    counts: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        object.__setattr__(self, "cols", tuple(self.cols))
        counts = np.ascontiguousarray(np.asarray(self.counts, dtype=np.int64))
        if len(self.rows) != 4 or len(self.cols) != 4 or counts.shape != (4, 4):
            raise ValueError("submatrix must be 4x4 with four labels per side")
        if counts.min() < 0:
            raise ValueError("co-occurrence counts must be non-negative")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)


@dataclass(frozen=True)
class ChshEvaluation:
    """Outcome of the 144-partition scan of one submatrix."""

    rows: tuple[str, ...]
    cols: tuple[str, ...]
    max_abs_s: float
    argmax: tuple[Partition, Partition] | None  # None when every pair is skipped
    violated: bool
    skipped_partitions: int


@dataclass(frozen=True)
class PairDetail:
    """One subset pair's best partition, kept for reporting."""

    row_terms: tuple[str, ...]
    col_terms: tuple[str, ...]
    s: float  # signed statistic at the argmax partition
    row_partition: Partition
    col_partition: Partition


@dataclass(frozen=True)
class ProportionReport:
    """Fraction of 4-term subset pairs admitting a violating partition."""

    topic_id: str
    window_size: int
    method: str
    p: float
    n_pairs_total: int
    n_pairs_entangled: int
    details: tuple[PairDetail, ...] | None = None


def expected_value(f11: int, f12: int, f21: int, f22: int) -> float | None:
    """Empirical expectation of one 2x2 block; None when the block is empty."""
    if min(f11, f12, f21, f22) < 0:
        raise ValueError("block counts must be non-negative")
    total = f11 + f12 + f21 + f22
    if total == 0:
        return None
    return (f11 + f22 - f12 - f21) / total


@lru_cache(maxsize=None)
def canonical_partitions(side: str) -> tuple[Partition, ...]:
    """The 12 canonical partitions of one side, in deterministic order."""
    return tuple(
        Partition(side=side, unprimed=(c[0], c[1]), primed=(c[2], c[3]))
        for c in _CONFIGS
    )


def enumerate_partitions() -> tuple[tuple[Partition, Partition], ...]:
    """All 144 (row partition, column partition) pairs, row-major."""
    rows = canonical_partitions("rows")
    cols = canonical_partitions("cols")
    return tuple((r, c) for r in rows for c in cols)


def chsh_statistic(
    matrix: SubMatrix, row_partition: Partition, col_partition: Partition
) -> float | None:
    """S for one partition pair; None if any block expectation is undefined."""
    f = matrix.counts

    def block(rp: tuple[int, int], cp: tuple[int, int]) -> float | None:
        r1, r2 = rp
        c1, c2 = cp
        return expected_value(f[r1, c1], f[r1, c2], f[r2, c1], f[r2, c2])

    e_ab = block(row_partition.unprimed, col_partition.unprimed)
    e_apb = block(row_partition.primed, col_partition.unprimed)
    e_abp = block(row_partition.unprimed, col_partition.primed)
    e_apbp = block(row_partition.primed, col_partition.primed)
    if e_ab is None or e_apb is None or e_abp is None or e_apbp is None:
        return None
    return e_ab + e_apb + e_abp - e_apbp


def _first_exact_max(numer: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """Per column, the first row where numer / denom is largest (denom > 0)."""
    numer, denom = numer.astype(object), denom.astype(object)
    cols = np.arange(numer.shape[1])
    first = np.zeros(numer.shape[1], dtype=np.intp)
    for j in range(1, len(numer)):
        first[numer[j] * denom[first, cols] > numer[first, cols] * denom[j]] = j
    return first


def _split_kernel(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact CHSH maximum of each block of an (n, 4, 4) non-negative integer array.

    Returns (signed S at the argmax, argmax index into enumerate_partitions(),
    skipped partition pairs). |S| is the exact maximum correctly rounded,
    except that a maximum above 2 is never rounded down to 2. A block whose
    partition pairs are all skipped reports S = 0 and argmax 0.
    """
    in_int64 = 4 * int(blocks.max(initial=0)) < _DENOMINATOR_LIMIT
    f = np.ascontiguousarray(blocks.transpose(1, 2, 0), dtype=np.int64 if in_int64 else object)
    r1, r2 = _BLOCK_ROWS[..., 0], _BLOCK_ROWS[..., 1]
    c1, c2 = _BLOCK_COLS[..., 0], _BLOCK_COLS[..., 1]
    f11, f12, f21, f22 = f[r1, c1], f[r1, c2], f[r2, c1], f[r2, c2]
    numer = f11 + f22 - f12 - f21  # (4 blocks, 9 split pairs, n)
    denom = f11 + f22 + f12 + f21
    empty = (denom == 0).any(axis=0)
    denom[denom == 0] = 1  # keeps D non-zero; empty split pairs are masked
    d0, d1, d2, d3 = denom
    d01, d23 = d0 * d1, d2 * d3
    common = d01 * d23
    scaled = numer * np.stack([d1 * d23, d0 * d23, d01 * d3, d01 * d2])
    s0, s1, s2, s3 = scaled  # blocks ac, ad, bc, bd of the module docstring
    best = np.maximum(abs(s0 - s2) + abs(s1 + s3), abs(s0 + s2) + abs(s1 - s3))
    best[empty] = -1

    # correct rounding is monotone, so a unique float maximum is the exact one
    value = np.asarray(best / common, dtype=np.float64)
    split = value.argmax(axis=0)
    cols = np.arange(len(blocks))
    top = value[split, cols]
    tied = np.flatnonzero((value == top).sum(axis=0) > 1)
    if len(tied):
        split[tied] = _first_exact_max(best[:, tied], common[:, tied])

    best, common = best[split, cols], common[split, cols]
    # S * D of the 16 partition pairs of each chosen split pair
    s16 = (_SPLIT_SIGNS[split] @ scaled[:, split, cols].T[:, :, None])[..., 0]
    first = (np.abs(s16) == best[:, None]).argmax(axis=1)
    # only reachable above the int64 bound, where D can exceed 2**51
    above = (best > 2 * common) & (top <= VIOLATION_BOUND)
    top = np.where(above, np.nextafter(VIOLATION_BOUND, 4.0), np.maximum(top, 0.0))
    signed = np.where(s16[cols, first] < 0, -top, top)
    return signed, _SPLIT_PARTITIONS[split, first], 16 * empty.sum(axis=0)


def chsh_max_abs_batch(matrices) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scan a batch of 4x4 count matrices over all 144 partition pairs.

    Returns (max_abs, argmax, n_skipped) arrays of length n; argmax indexes
    enumerate_partitions(). ``max_abs > 2`` is the exact violation decision.
    """
    m = np.asarray(matrices)
    if m.ndim == 2:
        m = m[None]
    if m.ndim != 3 or m.shape[1:] != (4, 4):
        raise ValueError(f"expected (n, 4, 4) matrices, got shape {m.shape}")
    if m.size and m.min() < 0:
        raise ValueError("co-occurrence counts must be non-negative")
    counts = m.astype(np.int64)
    if (counts != m).any():
        raise ValueError("co-occurrence counts must be integers")
    signed, argmax, n_skipped = _split_kernel(counts)
    return np.abs(signed), argmax, n_skipped


def _block_terms(f, pairs, numer, denom) -> None:
    """numer and denom of every (row pair, column pair) block of counts f.

    f is (rows, columns, ...). numer = f11 + f22 - f12 - f21 and denom =
    f11 + f12 + f21 + f22 go into the caller's (row pairs, column pairs,
    ...) buffers, and the caller's (row pairs, columns, ...) scratch
    ``pairs`` holds the row-pair differences while numer is built, then
    the row-pair sums while denom is built. The pairs (r, r + 1), ..., (r,
    n - 1) of n indices are consecutive in the module docstring's
    numbering, so each side takes n - 1 calls per operation, f[r] - f[r +
    1:] and f[r] + f[r + 1:]. Every element gets the same operation on the
    same operands as it would from one call per pair, so the results are
    bit for bit the same.
    """
    n, m = f.shape[:2]
    for combine, out in ((np.subtract, numer), (np.add, denom)):
        for r in range(n - 1):
            p = slice(r * (2 * n - r - 1) // 2, (r + 1) * (2 * n - r - 2) // 2)
            combine(f[r], f[r + 1:], out=pairs[p])
        for c in range(m - 1):
            q = slice(c * (2 * m - c - 1) // 2, (c + 1) * (2 * m - c - 2) // 2)
            combine(pairs[:, c, None], pairs[:, c + 1:], out=out[:, q])


def _band_verdict(top: np.ndarray, band: float) -> tuple[np.ndarray, np.ndarray]:
    """(violated, close): float maxima of |S| above 2 + band, and within band of 2."""
    return top > VIOLATION_BOUND + band, np.abs(top - VIOLATION_BOUND) <= band


class _FloatVerdict:
    """Float32 verdict |S| > 2 for batches of up to ``capacity`` 4x4 count matrices.

    ``decide(n)`` decides the n matrices in the (4, 4, n) float32 counts
    buffer that ``buffers(n)`` returns, and returns boolean arrays
    (violated, close): ``violated`` where the float maximum of |S| is
    above 2 + _FLOAT_BAND, ``close`` where it is within _FLOAT_BAND of 2
    (``_band_verdict``). Outside the band the verdict is exact; only
    ``close`` matrices need ``chsh_max_abs_batch``. Calling the instance
    on an (n, 4, 4) array of non-negative integer counts, n <= capacity,
    first copies them into the counts buffer, transposed and rounded to
    float32. An instance must not be shared between threads.

    It keeps four float32 buffers, 112 floats per matrix, and every
    intermediate lands in one of them: the counts buffer holds the counts;
    the pairs buffer holds ``_block_terms``' row-pair differences, then its
    row-pair sums, then the best |S| of each split pair; the x buffer lends
    ``buffers`` an intp scratch of 16 per matrix, then holds numer, then x;
    the denom buffer holds denom, then U and D below. So one instance
    serves every chunk of a sampling run with no temporaries larger than
    its two results. numer and denom take a buffer each, not one of 72
    floats per matrix: glibc's malloc raises its mmap and trim thresholds
    to the largest block freed, so the larger the largest buffer, the more
    freed memory each sweep thread's arena keeps resident after its pool
    shuts down.

    ``_block_terms`` gives the numer and denom of all 36 (row pair, column
    pair) blocks, pairs numbered as in the module docstring, and x = numer /
    denom. Halves s and 5 - s of split s are [:3] and [:2:-1], of the rows,
    then of the columns. For row split s and column pair q, U = |x[s, q] +
    x[5 - s, q]| and D = |x[s, q] - x[5 - s, q]|, and split pair (s, t) takes
    its best |S| = max(D[s, t] + U[s, 5 - t], U[s, t] + D[s, 5 - t]), the
    closed form of the module docstring that ``_split_kernel`` evaluates on
    integers. An empty block gives x = 0/0 = NaN, so its split pair is NaN,
    and the maximum over the nine split pairs is taken with fmax, which
    never picks NaN: a matrix whose split pairs are all skipped is neither
    violated nor close. The module docstring proves the float32 best |S|
    within 36 x 2**-24 (2.1e-6) of the exact one at any count size, so the
    verdict outside the band, over seven times that, is exact.
    """

    def __init__(self, capacity: int):
        self._counts = np.empty(16 * capacity, np.float32)
        self._pairs = np.empty(24 * capacity, np.float32)  # row-pair terms, then best
        self._x = np.empty(36 * capacity, np.float32)  # scratch, numer, then x
        self._denom = np.empty(36 * capacity, np.float32)  # denom, then U and D

    def buffers(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """(counts, scratch): the (4, 4, n) float32 counts ``decide(n)``
        reads, and a (4, 4, n) intp array free for any use until then."""
        return (self._counts[: 16 * n].reshape(4, 4, n),
                self._x.view(np.intp)[: 16 * n].reshape(4, 4, n))

    def __call__(self, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n = len(counts)
        self.buffers(n)[0][...] = counts.transpose(1, 2, 0)
        return self.decide(n)

    def decide(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        x, denom = self._x[: 36 * n].reshape(6, 6, n), self._denom[: 36 * n].reshape(6, 6, n)
        _block_terms(self._counts[: 16 * n].reshape(4, 4, n),
                     self._pairs[: 24 * n].reshape(6, 4, n), x, denom)
        with np.errstate(invalid="ignore"):
            np.divide(x, denom, out=x)

        # U and D replace denom; best replaces the row-pair sums
        terms = denom.reshape(2, 3, 6, n)
        np.add(x[:3], x[:2:-1], out=terms[0])
        np.subtract(x[:3], x[:2:-1], out=terms[1])
        np.abs(terms, out=terms)
        up, down = terms
        # split pair (s, t) of rows and columns lands at [s, t]
        best, other = self._pairs[: 18 * n].reshape(2, 3, 3, n)
        np.add(down[:, :3], up[:, :2:-1], out=best)
        np.add(up[:, :3], down[:, :2:-1], out=other)
        np.maximum(best, other, out=best)
        return _band_verdict(np.fmax.reduce(best, axis=(0, 1)), _FLOAT_BAND)


def _partition_pair(index: int) -> tuple[Partition, Partition]:
    """The (row, column) partitions at one enumerate_partitions() index."""
    return (
        canonical_partitions("rows")[index // N_PARTITIONS_PER_SIDE],
        canonical_partitions("cols")[index % N_PARTITIONS_PER_SIDE],
    )


def max_abs_chsh(matrix: SubMatrix) -> ChshEvaluation:
    """Exhaustive 144-partition evaluation of one submatrix."""
    signed, argmax, n_skipped = _split_kernel(matrix.counts[None])
    skipped = int(n_skipped[0])
    value = abs(float(signed[0]))
    return ChshEvaluation(
        rows=matrix.rows,
        cols=matrix.cols,
        max_abs_s=value,
        argmax=None if skipped == N_PARTITION_PAIRS else _partition_pair(int(argmax[0])),
        violated=value > VIOLATION_BOUND,
        skipped_partitions=skipped,
    )


def _split_halves(subsets: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Numbers of the two halves of every (4-subset, split) of range(n).

    Pairs of range(n) and the splits of each subset follow the module
    docstring's numbering; half 0 holds the subset's first index.
    """
    members = subsets[:, np.array(_PAIRS)]  # (subset, pair, 2)
    a, b = members[..., 0], members[..., 1]
    number = a * (2 * n - a - 1) // 2 + b - a - 1  # position in combinations()
    return number[:, :3].ravel(), number[:, :2:-1].ravel()


@lru_cache(maxsize=8)
def _subsets(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 4-subsets of range(n) and their ``_split_halves``, read-only."""
    subsets = np.array(list(combinations(range(n), 4)))
    arrays = (subsets, *_split_halves(subsets, n))
    for array in arrays:
        array.setflags(write=False)
    return arrays


def _live_side(table: np.ndarray, h0: np.ndarray, h1: np.ndarray) -> tuple[np.ndarray, ...]:
    """The splits of one side's 4-subsets that can be live in the scan.

    table is the scan's float32 |x|. Pairs of the side number its rows (its
    transpose for the columns), and split 3 x subset + split has halves h0
    and h1 (``_split_halves``). A split is live when two entries of
    table[h0] + table[h1] sum above 2 - _FLOAT_BAND. A first stage takes
    top2, the sum of the two largest entries of each table row, from one
    partition of the table, and drops the splits where top2[h0] + top2[h1]
    is not above 2 - _FLOAT_BAND; it bounds every sum of two entries of
    table[h0] + table[h1] (``entanglement_proportion``). Only the other
    splits take the test on the two largest entries, about _SCAN_CHUNK
    entries at a time. Returns the live splits' halves, the subsets that
    hold a live split, and each live split's position among those subsets.
    """
    top2 = np.partition(table, -2, axis=1)[:, -2:].sum(axis=1)
    splits = np.flatnonzero(top2[h0] + top2[h1] > VIOLATION_BOUND - _FLOAT_BAND)
    live = np.empty(len(splits), dtype=bool)
    step = max(1, _SCAN_CHUNK // table.shape[1])
    for first in range(0, len(splits), step):
        part = slice(first, first + step)
        v = table[h0[splits[part]]] + table[h1[splits[part]]]
        v.partition(-2, axis=1)
        live[part] = v[:, -1] + v[:, -2] > VIOLATION_BOUND - _FLOAT_BAND
    splits = splits[live]
    # sorted, so each subset's first live split starts a new number
    new = np.ones(len(splits), dtype=bool)
    np.not_equal(splits[1:] // 3, splits[:-1] // 3, out=new[1:])
    return h0[splits], h1[splits], splits[new] // 3, np.cumsum(new) - 1


def _live_split_pairs(table, x, h0, h1, c0, c1) -> tuple[np.ndarray, ...]:
    """The live split pairs of some row splits and column splits, and their float best |S|.

    table holds the scan's float32 |x| (-inf for an empty block), and x
    the signed x (NaN for an empty block), one row per row pair and one
    column per column pair; row split i has halves h0[i] and h1[i], and
    column split j halves c0[j] and c1[j]. Three tables are laid out with
    one row per column pair and one column per row split: the sums u =
    |x|[h0] + |x|[h1], plus = |x[h0] + x[h1]| and minus = |x[h0] - x[h1]|.
    The bound sum|x| on split pair (j, i) is u[c0[j], i] + u[c1[j], i], so
    each column split gathers two whole rows of u, and the split pairs
    whose bound is above 2 - _FLOAT_BAND are live; they hold no empty
    block. A live split pair takes its best |S| = max(minus[c0] + plus[c1],
    plus[c0] + minus[c1]), the module docstring's closed form, by four
    gathers: the same operations on the same operands as ``_FloatVerdict``,
    so the same float. Returns (j, i, best) of the live split pairs, j
    major.
    """
    a, b = table[h0], table[h1]
    u = np.ascontiguousarray((a + b).T)
    bound = np.take(u, c0, axis=0)
    bound += np.take(u, c1, axis=0)
    live = np.flatnonzero(bound > VIOLATION_BOUND - _FLOAT_BAND)
    j, i = np.divmod(live, len(h0))
    if not len(live):
        return j, i, bound[:0]
    a, b = x[h0].T, x[h1].T
    plus, minus = np.add(a, b, order="C"), np.subtract(a, b, order="C")
    np.abs(plus, out=plus)
    np.abs(minus, out=minus)
    e0, e1 = c0[j] * len(h0) + i, c1[j] * len(h0) + i
    best, other = minus.take(e0), plus.take(e0)
    best += plus.take(e1)
    other += minus.take(e1)
    np.maximum(best, other, out=best)
    return j, i, best


class _ExactQueue:
    """Subset pairs of a scan waiting for ``_split_kernel``.

    ``add`` queues subset pairs by index into the scan, each with its float
    maximum of |S| and whether it is close; the others are float
    violations that may rank among the strongest ``top_details``. Once
    _KERNEL_BATCH pairs are queued they are decided, _KERNEL_BATCH per
    kernel call, and ``finish`` decides the rest. The queue counts the
    close pairs that violate in ``n_entangled`` and keeps the exact S,
    argmax and index of the strongest ``top_details`` violations, ordered by
    |S| descending, then index.
    """

    def __init__(self, blocks, top_details: int):
        self._blocks = blocks  # subset-pair indices -> (n, 4, 4) counts
        self._top_details = top_details
        self._queue: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._queued = 0
        self._strongest = np.empty(0, np.float32)  # the largest top_details float |S| seen
        self._floor = -np.inf
        self.n_entangled = 0
        self.index = np.empty(0, dtype=np.int64)
        self.signed = np.empty(0)
        self.argmax = np.empty(0, dtype=np.int64)

    def raise_floor(self, tops: np.ndarray) -> float:
        """Take in float |S| of violations; return the floor.

        The floor is the top_details-th largest float |S| taken in so far,
        less _FLOAT_BAND, or -inf while fewer have been taken in.
        """
        known = np.concatenate([self._strongest, tops])
        if len(known) > self._top_details:
            known = np.partition(known, -self._top_details)[-self._top_details:]
        self._strongest = known
        if len(known) == self._top_details:
            self._floor = known.min() - _FLOAT_BAND
        return self._floor

    def add(self, index: np.ndarray, close: np.ndarray, tops: np.ndarray) -> None:
        self._queue.append((index, close, tops))
        self._queued += len(index)
        if self._queued >= _KERNEL_BATCH:
            self._decide(everything=False)

    def finish(self) -> None:
        if self._queued:
            self._decide(everything=True)

    def _decide(self, everything: bool) -> None:
        """Decide the queued pairs in full batches, or all of them."""
        index, close, tops = (np.concatenate(column) for column in zip(*self._queue))
        # the floor may have risen past candidates queued before it did
        kept = close | (tops >= self._floor)
        index, close, tops = index[kept], close[kept], tops[kept]
        n = len(index) if everything else len(index) - len(index) % _KERNEL_BATCH
        self._queue, self._queued = [(index[n:], close[n:], tops[n:])], len(index) - n
        for first in range(0, n, _KERNEL_BATCH):
            part = slice(first, min(n, first + _KERNEL_BATCH))
            signed, argmax, _ = _split_kernel(self._blocks(index[part]))
            violates = np.abs(signed) > VIOLATION_BOUND
            self.n_entangled += int((violates & close[part]).sum())
            if self._top_details > 0:
                self.index = np.concatenate([self.index, index[part][violates]])
                self.signed = np.concatenate([self.signed, signed[violates]])
                self.argmax = np.concatenate([self.argmax, argmax[violates]])
                keep = np.lexsort((self.index, -np.abs(self.signed)))[: self._top_details]
                self.index, self.signed, self.argmax = (
                    self.index[keep], self.signed[keep], self.argmax[keep])


def entanglement_proportion(matrix: CoocMatrix, top_details: int = 0) -> ProportionReport:
    """Scan every pair of 4-term subsets of the concept terms.

    A subset pair is entangled when some partition pair yields |S| > 2.
    With 10-term concepts this is 210 x 210 = 44,100 subset pairs. When
    ``top_details`` > 0, the strongest violating pairs are attached to the
    report (ordered by |S| descending, then subset indices).

    Most subset pairs are proven safe before any exact arithmetic. Each of
    the 16 partition pairs of a split pair adds its four block expectations
    x with signs of +1 or -1, so none reaches |S| above sum|x|, and a
    subset pair whose nine split pairs all have sum|x| <= 2 cannot violate.
    The scan takes x = numer / denom in float32 from one table over (row
    pair, column pair) blocks, built by ``_block_terms`` in the module
    docstring's pair numbering, and its bound on a split pair is the float
    sum|x| of the table's |x|. Its band is _FLOAT_BAND, 2**-16 (1.5e-5).
    With u = 2**-24, the bound cannot drop a violation:

    - Each float |x| is within about 7u of the exact one at any count
      size (module docstring), and a float sum of four, in either order
      of its pairwise additions, adds at most 2u, 2u and 4u from its
      three roundings, so it is within 36u (2.1e-6) of the exact sum|x|,
      far inside the band.
    - An empty block has |x| = -inf, so its split pair sums to -inf and
      never survives; ``_split_kernel`` skips such split pairs too.

    The bound is applied at two levels. First to whole splits: for a row
    split, v = |x| of half 0 plus |x| of half 1, one entry per column
    pair, and the bound on the row split with any column split is v[q] +
    v[q'] for that column split's two halves q and q', two distinct column
    pairs. It is therefore at most the sum of the two largest entries of v
    (float addition is monotone), so a row split whose two largest entries
    sum to 2 - band or less has no split pair above 2 - band. The same
    test on the per-row-pair sums of a column split's two halves prunes
    column splits; it adds the same four |x| in another order, so its
    float sum is also within 36u of the exact sum|x|, and a split pair it
    prunes has exact sum|x| below 2 and cannot violate. Dropping such a
    split pair changes no subset pair's verdict: the other split pairs
    decide as before, and a maximum it alone would have put in the band
    the kernel would have found below 2. An empty block keeps -inf in v.
    Both tests run on about _SCAN_CHUNK entries of v at a time.

    A cheaper bound goes first and spares most splits that test
    (``_live_side``). Let top2[p] be the float sum of the two largest |x|
    in row p of the table (row pair p, one entry per column pair; the
    transpose for the columns).

    - Exact arithmetic: v[q] + v[q'] = (|x|[h0, q] + |x|[h0, q']) + (|x|[h1,
      q] + |x|[h1, q']) for the row split's halves h0 and h1, and as q and
      q' are distinct, each bracket is at most top2 of its half. So
      top2[h0] + top2[h1] is at least every sum|x| the row split can have
      with any column split, and the same holds for column splits. An
      empty block's -inf carries through top2 as through v: a half whose
      top2 is -inf has an empty block at all but at most one column pair,
      so every split pair of its split holds an empty block and is
      skipped.
    - Floats: the bound above holds for the table's float |x| as well.
      The float top2[h0] + top2[h1] is within 8u of the real sum of its
      four float |x| (2u, 2u and 4u from its three roundings), and each
      float |x| is within about 7u of the exact one, so every split pair
      of the split has exact sum|x| at most top2[h0] + top2[h1] plus 36u.
      A split where that is 2 - band or less therefore has only split
      pairs of exact sum|x| below 2. Its float v test might, within that
      error, have kept it; then its split pairs could at most have put a
      subset pair's maximum in the band, where the kernel would have
      found it below 2. Dropping them changes no verdict, as above.

    Then the scan sums |x| only for the live row splits against the live
    column splits, whole live row subsets at a time, because a subset
    pair's maximum is taken over all nine of its split pairs. A chunk
    takes as many as keep its bound, one entry per (live column split,
    row split), and each of its per-row-split tables, one entry per
    (column pair, row split), within _SCAN_CHUNK entries, and at least
    one. The split pairs whose bound is above 2 - band are live, and each
    takes its float best |S| by the module docstring's closed form
    (``_live_split_pairs``). Every other split pair is below 2 - band, so
    a subset pair's float maximum over its live split pairs decides it as
    in the module docstring. The order leaves every count and tie as it
    was: a subset pair's float maximum is taken by np.maximum.at, whose
    result does not depend on the order of its operands, and the subset
    pairs go to the count and the kernel in the order of their (row
    subset, column subset) numbers.

    ``_split_kernel`` sees, on their full 4x4 blocks, only the close subset
    pairs, which it decides and counts, and the violated ones whose float
    |S| is at least the ``top_details``-th largest |S| known so far less
    the band. The known values are floats only, the float maxima of the
    violations found so far, so this floor is widened by the band: each of
    the ``top_details`` floats behind it is within 36u (2.1e-6) of its
    pair's exact |S|, so a violation whose float |S| is below the floor
    is weaker than ``top_details`` others by more than the band less 72u
    (the band is 256u) and cannot be reported. The floor only rises;
    queued candidates it has passed are dropped before the kernel sees
    them. Every reported S, argmax and tie rule is the kernel's. The pairs
    are collected over the chunks and decided _KERNEL_BATCH per kernel call
    (``_ExactQueue``).

    Violating pairs are counted per chunk and only the strongest
    ``top_details`` of them are kept, so no array spans all subset pairs.
    """
    n_rows, n_cols = matrix.counts.shape
    if n_rows < 4 or n_cols < 4:
        raise ValueError("the co-occurrence matrix needs at least 4 terms per side")

    row_subsets, *row_halves = _subsets(n_rows)
    col_subsets, *col_halves = _subsets(n_cols)
    n_cs = len(col_subsets)
    n_total = len(row_subsets) * n_cs
    pairs = np.empty((n_rows * (n_rows - 1) // 2, n_cols), np.float32)
    x, table = np.empty((2, len(pairs), n_cols * (n_cols - 1) // 2), np.float32)
    _block_terms(matrix.counts.astype(np.float32), pairs, x, table)
    # numer becomes x, NaN for an empty block, and denom its |x|, -inf there
    with np.errstate(invalid="ignore"):
        np.divide(x, table, out=x)
    np.abs(x, out=table)
    table[np.isnan(x)] = -np.inf
    col_h0, col_h1, col_subset, col_number = _live_side(
        np.ascontiguousarray(table.T), *col_halves)
    row_h0, row_h1, row_subset, row_number = _live_side(table, *row_halves)
    row_start = np.searchsorted(row_number, np.arange(len(row_subset) + 1))
    n_lcs = max(1, len(col_subset))
    # row splits per chunk: each takes one bound entry per live column split,
    # and one entry of each of u, plus and minus per column pair (_live_split_pairs)
    row_budget = _SCAN_CHUNK // max(len(col_h0), len(table[0]))

    n_entangled = 0
    exact = _ExactQueue(
        lambda index: matrix.counts[
            row_subsets[index // n_cs][:, :, None], col_subsets[index % n_cs][:, None, :]],
        top_details,
    )
    first = 0
    while first < len(row_subset):
        last = np.searchsorted(row_start, row_start[first] + row_budget, "right") - 1
        last = max(first + 1, last)
        rows = slice(row_start[first], row_start[last])
        chunk_first, first = first, last
        j, i, best = _live_split_pairs(
            table, x, row_h0[rows], row_h1[rows], col_h0, col_h1)
        if not len(best):
            continue
        # float maximum of |S| per (live row subset, live column subset) of the chunk
        top = np.full((last - chunk_first) * n_lcs, -np.inf, np.float32)
        local_rows = row_number[rows] - chunk_first
        np.maximum.at(top, local_rows[i] * n_lcs + col_number[j], best)
        pairs = np.flatnonzero(top > VIOLATION_BOUND - _FLOAT_BAND)
        top = top[pairs]
        violated, close = _band_verdict(top, _FLOAT_BAND)
        n_violated = int(violated.sum())
        n_entangled += n_violated
        to_kernel = close
        if top_details > 0 and n_violated:
            # a violation can rank among the strongest top_details only if its
            # float |S| reaches the top_details-th largest known |S|, less the band
            to_kernel = close | (violated & (top >= exact.raise_floor(top[violated])))
        if not to_kernel.any():
            continue
        rs, cs = np.divmod(pairs[to_kernel], n_lcs)
        index = row_subset[rs + chunk_first] * n_cs + col_subset[cs]
        exact.add(index, close[to_kernel], top[to_kernel])
    exact.finish()
    n_entangled += exact.n_entangled
    top_index, top_signed, top_argmax = exact.index, exact.signed, exact.argmax

    details: tuple[PairDetail, ...] | None = None
    if top_details > 0:
        pair = matrix.concept_pair
        built = []
        for idx, s, arg in zip(top_index.tolist(), top_signed.tolist(), top_argmax.tolist()):
            rs_idx, cs_idx = divmod(idx, n_cs)
            row_partition, col_partition = _partition_pair(arg)
            built.append(
                PairDetail(
                    row_terms=tuple(pair.c1[i] for i in row_subsets[rs_idx]),
                    col_terms=tuple(pair.c2[j] for j in col_subsets[cs_idx]),
                    s=s,
                    row_partition=row_partition,
                    col_partition=col_partition,
                )
            )
        details = tuple(built)

    return ProportionReport(
        topic_id=matrix.concept_pair.topic_id,
        window_size=matrix.window_size,
        method=matrix.concept_pair.method,
        p=n_entangled / n_total,
        n_pairs_total=n_total,
        n_pairs_entangled=n_entangled,
        details=details,
    )
