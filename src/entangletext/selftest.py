"""Built-in verification suite runnable from the CLI.

Six checks with embedded, independently coded oracles: exact-rational
block expectations, the alternating large/small matrix whose best
partition reaches 4 * 198/202, equivalence of the canonical 144-partition
scan with the full 24 x 24 row/column ordering scan, the subset scan's
verdicts, sampling-pmf normalization, and the simulator's guide-table
draw, whose float32 values go straight to the float verdict, held to
``searchsorted`` on keys at bucket edges and cdf steps. The
large/small and ordering checks also hold ``chsh_max_abs_batch``, the
exact kernel behind every verdict, and the float32 verdict that decides
the clear ``simulate`` matrices to the exact ordering scan; a matrix the
float verdict calls close must lie within its band (``chsh._FLOAT_BAND``)
of |S| = 2, where the exact kernel decides it. The scan check holds
``entanglement_proportion``, whose float32 values decide the clear subset
pairs, to ``chsh_max_abs_batch`` on every subset block of a 6x6 matrix.
The ordering check's matrices and the scan check's matrix both hold a
near-tie, counts above 2**24 whose max |S| exceeds 2 by 4.6e-8 but reads
2 - 2**-23 in float32, so the float verdict and the scan each pass only
with their band (``_FLOAT_BAND``).
The partition table used by the canonical side is injectable so a corrupted
table is detectable (negative control in the test suite).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np

from . import chsh
from .chsh import SubMatrix, canonical_partitions, chsh_statistic, enumerate_partitions
from .chsh import _FloatVerdict, chsh_max_abs_batch, entanglement_proportion, expected_value
from .cooccurrence import CoocMatrix
from .relevance import ConceptPair
from .simulation import DistributionSpec, distribution_pmf
from .simulation import _guide_buckets, _InverseCdfDraw

__all__ = ["CheckResult", "run_selftest"]

_N_MATRICES = 50  # random matrices of the ordering-equivalence check
_SCAN_DETAILS = 5  # strongest violations the scan-verdicts check compares
_SEED = 7


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _expectation_fraction(f11, f12, f21, f22):
    total = f11 + f12 + f21 + f22
    if total == 0:
        return None
    return Fraction(f11 + f22 - f12 - f21, total)


def _check_expectations(rng) -> CheckResult:
    quads = rng.integers(0, 200, size=(50, 4)).tolist()
    worst = 0.0
    for f11, f12, f21, f22 in quads:
        got = expected_value(f11, f12, f21, f22)
        want = _expectation_fraction(f11, f12, f21, f22)
        if (got is None) != (want is None):
            return CheckResult("block expectations", False, "definedness mismatch")
        if got is not None:
            worst = max(worst, abs(got - float(want)))
    if expected_value(0, 0, 0, 0) is not None:
        return CheckResult("block expectations", False, "(0,0,0,0) must be undefined")
    passed = worst <= 1e-12
    return CheckResult("block expectations", passed, f"max |error| = {worst:.2e}")


# alternating large/small counts: the best partition reaches 4 * 198/202
_LARGE_SMALL = np.array(
    [[100, 1, 100, 1], [1, 100, 1, 100], [100, 1, 1, 100], [1, 100, 100, 1]]
)


# max |S| is exactly 2, and reads exactly 2 in float32 too
_EXACT_TIE = np.array([[10, 1, 8, 2], [9, 1, 8, 11], [2, 1, 9, 7], [10, 10, 0, 3]])

# max |S| is 2 + 11/239999994 (2 + 4.6e-8) but reads 2 - 2**-23 in float32,
# which rounds these counts: the float verdict and the scan must leave it to
# the exact kernel
_FLOAT32_NEAR_TIE = np.array([[40000000, 50000000, 70000000, 0], [50000000, 0, 40000000, 100000000],
                              [60000000, 10000000, 90000000, 9999997], [70000000, 0, 30000000, 60000000]])


def _submatrix(counts) -> SubMatrix:
    return SubMatrix(rows=("r1", "r2", "r3", "r4"), cols=("c1", "c2", "c3", "c4"), counts=counts)


def _canonical_scan(counts, partition_pairs) -> tuple[list[float], int]:
    """|S| of every defined pair of a partition table, and the number skipped."""
    matrix = _submatrix(counts)
    values = [chsh_statistic(matrix, row_p, col_p) for row_p, col_p in partition_pairs]
    return [abs(s) for s in values if s is not None], values.count(None)


def _ordering_scan(f) -> tuple[list[Fraction], int]:
    """Exact |S| of every defined (row ordering, column ordering) pair of a
    4x4 matrix, and the number of orderings with an undefined block."""
    values = []
    skipped = 0
    orderings = list(permutations(range(4)))
    for rp in orderings:
        for cp in orderings:
            blocks = [
                _expectation_fraction(f[r0][c0], f[r0][c1], f[r1][c0], f[r1][c1])
                for r0, r1 in ((rp[0], rp[1]), (rp[2], rp[3]))
                for c0, c1 in ((cp[0], cp[1]), (cp[2], cp[3]))
            ]
            if any(b is None for b in blocks):
                skipped += 1
            else:
                e_ab, e_abp, e_apb, e_apbp = blocks
                values.append(abs(e_ab + e_apb + e_abp - e_apbp))
    return values, skipped


def _batch_mismatch(counts, full_abs, full_skipped) -> str | None:
    """How chsh_max_abs_batch or the float verdict disagrees with the exact
    ordering scan, if either does."""
    max_abs, _, n_skipped = chsh_max_abs_batch(counts)
    want = max(full_abs, default=Fraction(0))
    if bool(max_abs[0] > 2) != (want > 2):
        return "batch kernel verdict differs from the exact scan"
    if abs(max_abs[0] - float(want)) > 1e-12:
        return f"batch kernel max |S| {max_abs[0]!r} != {float(want)!r}"
    if full_skipped != 4 * n_skipped[0]:
        return "batch kernel skip count differs from the exact scan"
    violated, close = _FloatVerdict(1)(np.asarray(counts)[None])
    distance = abs(float(want) - 2)
    band = chsh._FLOAT_BAND  # the package's band, even under a test's fake verdict
    if close[0] and (violated[0] or distance > band + 1e-12):
        return f"float verdict calls max |S| {float(want)!r} close to 2"
    if not close[0] and (violated[0] != (want > 2) or distance < band - 1e-12):
        return f"float verdict decides max |S| {float(want)!r} wrongly"
    return None


def _check_large_small(partition_pairs) -> CheckResult:
    target = 4 * Fraction(198, 202)
    best = max(_canonical_scan(_LARGE_SMALL, partition_pairs)[0], default=0.0)
    natural = (canonical_partitions("rows")[0], canonical_partitions("cols")[0])
    s_swapped = chsh_statistic(_submatrix(_LARGE_SMALL[:, [1, 0, 3, 2]]), *natural)
    full_abs, full_skipped = _ordering_scan(_LARGE_SMALL.tolist())
    mismatch = _batch_mismatch(_LARGE_SMALL, full_abs, full_skipped)
    ok = (
        abs(best - float(target)) <= 1e-9
        and best > 2.0
        and s_swapped is not None
        and s_swapped < 0
        and abs(abs(s_swapped) - float(target)) <= 1e-9
        and max(full_abs) == target
        and mismatch is None
    )
    return CheckResult(
        "large/small pattern",
        ok,
        mismatch
        or f"max |S| = {best:.10f} (target {float(target):.10f}), swapped S = {s_swapped:.6f}",
    )


def _check_ordering_equivalence(partition_pairs, rng) -> CheckResult:
    matrices = [rng.integers(0, 21, size=(4, 4)) for _ in range(_N_MATRICES)]
    for k, counts in enumerate(matrices + [_EXACT_TIE, _FLOAT32_NEAR_TIE]):
        canonical_abs, canonical_skipped = _canonical_scan(counts, partition_pairs)
        full_abs, full_skipped = _ordering_scan(counts.tolist())
        want = np.repeat(np.sort(canonical_abs), 4)
        got = np.sort([float(v) for v in full_abs])
        if full_skipped != 4 * canonical_skipped:
            problem = "skip counts diverge"
        elif want.shape != got.shape or not np.allclose(want, got, atol=1e-12, rtol=0.0):
            problem = "|S| multisets diverge"
        else:
            problem = _batch_mismatch(counts, full_abs, full_skipped)
        if problem:
            return CheckResult("ordering equivalence", False, f"{problem} on matrix {k}")
    return CheckResult(
        "ordering equivalence",
        True,
        f"{_N_MATRICES} matrices, an exact tie and a near-tie at |S| = 2, 576 vs 144 orderings",
    )


def _check_scan_verdicts() -> CheckResult:
    # _LARGE_SMALL in the top-left 4x4 block, then _FLOAT32_NEAR_TIE over
    # the bottom-right one (the two share a 2x2 corner), zeros elsewhere
    counts = np.zeros((6, 6), dtype=np.int64)
    counts[:4, :4] = _LARGE_SMALL
    counts[2:, 2:] = _FLOAT32_NEAR_TIE
    labels = [tuple(f"{side}{i}" for i in range(6)) for side in "rc"]
    pair = ConceptPair(c1=labels[0], c2=labels[1], method="frequency", topic_id="selftest")
    matrix = CoocMatrix(pair, window_size=1, counts=counts, n_windows=int(counts.max()))
    report = entanglement_proportion(matrix, top_details=_SCAN_DETAILS)

    subsets = list(combinations(range(6), 4))
    blocks = np.array([counts[np.ix_(rows, cols)] for rows in subsets for cols in subsets])
    max_abs, argmax, _ = chsh_max_abs_batch(blocks)
    violated = np.flatnonzero(max_abs > 2).tolist()
    strongest = sorted(violated, key=lambda i: (-max_abs[i], i))[:_SCAN_DETAILS]
    want = [
        (subsets[i // len(subsets)], subsets[i % len(subsets)], max_abs[i],
         enumerate_partitions()[argmax[i]])
        for i in strongest
    ]
    got = [
        (tuple(labels[0].index(t) for t in d.row_terms),
         tuple(labels[1].index(t) for t in d.col_terms), abs(d.s),
         (d.row_partition, d.col_partition))
        for d in report.details
    ]
    if report.n_pairs_entangled != len(violated):
        problem = f"scan counts {report.n_pairs_entangled} violations, the kernel {len(violated)}"
        return CheckResult("scan verdicts", False, problem)
    if got != want:
        return CheckResult("scan verdicts", False, "scan details differ from the kernel's")
    return CheckResult(
        "scan verdicts",
        True,
        f"{len(violated)} of {len(blocks)} subset pairs violate; top {_SCAN_DETAILS} match",
    )


_SAMPLING_SPECS = (
    DistributionSpec.zipf(0.7, 100),
    DistributionSpec.zipf(2.0, 500),
    DistributionSpec.homogeneous(64),
    DistributionSpec.poisson(10.0, 100),
    DistributionSpec.poisson(1.0, 5),
)


def _check_pmf_normalization() -> CheckResult:
    worst = 0.0
    for spec in _SAMPLING_SPECS:
        pmf = distribution_pmf(spec)
        if (pmf < 0).any():
            return CheckResult("pmf normalization", False, f"negative mass for {spec.kind}")
        worst = max(worst, abs(float(pmf.sum()) - 1.0))
    b1 = distribution_pmf(DistributionSpec.homogeneous(1))
    if b1.shape != (1,) or b1[0] != 1.0:
        return CheckResult("pmf normalization", False, "B=1 must be a point mass")
    return CheckResult("pmf normalization", worst <= 1e-12, f"max |sum - 1| = {worst:.2e}")


def _check_inverse_cdf_draw() -> CheckResult:
    n_keys = 0
    for spec in _SAMPLING_SPECS:
        cdf = np.cumsum(distribution_pmf(spec))
        k = _guide_buckets(len(cdf))
        # every bucket edge (0 and 1 among them), each cdf value and its neighbours
        keys = np.concatenate(
            [np.arange(k + 1) / k, cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 2.0)]
        )
        want = np.minimum(np.searchsorted(cdf, keys, side="right") + 1, len(cdf))
        got = _InverseCdfDraw(cdf)(keys, np.empty(keys.shape, np.float32),
                                   np.empty(keys.shape, np.intp))
        if not np.array_equal(got, want):
            return CheckResult(
                "inverse-CDF draw", False, f"differs from searchsorted for {spec.kind}"
            )
        n_keys += keys.size
    return CheckResult(
        "inverse-CDF draw", True, f"{n_keys} edge keys over {len(_SAMPLING_SPECS)} pmfs"
    )


def run_selftest(partition_pairs=None, stream=None) -> list[CheckResult]:
    """Run every embedded check and print one line per check.

    ``partition_pairs`` overrides the canonical 144-pair table (test hook:
    a corrupted table must fail the ordering-equivalence check).
    """
    stream = stream if stream is not None else sys.stdout
    if partition_pairs is None:
        partition_pairs = enumerate_partitions()
    rng = np.random.default_rng(_SEED)
    results = [
        _check_expectations(rng),
        _check_large_small(partition_pairs),
        _check_ordering_equivalence(partition_pairs, rng),
        _check_scan_verdicts(),
        _check_pmf_normalization(),
        _check_inverse_cdf_draw(),
    ]
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name:<{width}}  {r.detail}", file=stream)
    return results
