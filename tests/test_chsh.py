"""CHSH statistics: expectations, partitions, scans, and their invariants."""

import tracemalloc
from fractions import Fraction
from itertools import combinations, permutations, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entangletext import (
    ConceptPair,
    CoocMatrix,
    PairDetail,
    Partition,
    SubMatrix,
    canonical_partitions,
    chsh_max_abs_batch,
    chsh_statistic,
    count_cooccurrences,
    entanglement_proportion,
    enumerate_partitions,
    expected_value,
    max_abs_chsh,
)
from entangletext import chsh, selftest

from oracles import (
    chsh_all_orderings,
    chsh_fraction,
    expectation_fraction,
    max_abs_all_orderings,
    violates_all_orderings,
)

LABELS4 = ("w", "x", "y", "z")


def _sub(counts):
    return SubMatrix(rows=LABELS4, cols=LABELS4, counts=np.asarray(counts))


def _flip(partition):
    # both outcome labels swapped: the same measurements, S negated
    return Partition(
        side=partition.side,
        unprimed=partition.unprimed[::-1],
        primed=partition.primed[::-1],
    )


def large_small_matrix(large=100, small=1):
    return np.array(
        [
            [large, small, large, small],
            [small, large, small, large],
            [large, small, small, large],
            [small, large, large, small],
        ]
    )


def _boundary_block():
    # four blocks whose expectations are 1/3, 1/3, 1/3, -1: float sums can stray
    # above 2 but the exact statistic is exactly 2
    third = np.array([[2, 1], [1, 2]])
    anti = np.array([[0, 5], [5, 0]])
    return np.block([[third, third], [third, anti]])


class TestExpectedValue:
    def test_direct_arithmetic(self):
        assert expected_value(100, 1, 1, 100) == pytest.approx(198 / 202, abs=1e-15)

    def test_symmetric_cancellation(self):
        assert expected_value(5, 5, 5, 5) == 0.0

    def test_perfect_correlation(self):
        assert expected_value(3, 0, 0, 0) == 1.0

    def test_zero_denominator_undefined(self):
        assert expected_value(0, 0, 0, 0) is None

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            expected_value(1, -1, 0, 0)

    def test_against_fraction_reference(self):
        rng = np.random.default_rng(5)
        for f11, f12, f21, f22 in rng.integers(0, 300, size=(200, 4)).tolist():
            got = expected_value(f11, f12, f21, f22)
            want = expectation_fraction(f11, f12, f21, f22)
            if want is None:
                assert got is None
            else:
                assert got == pytest.approx(float(want), abs=1e-15)
                assert -1.0 <= got <= 1.0


class TestPartitions:
    def test_twelve_per_side_144_pairs(self):
        rows = canonical_partitions("rows")
        cols = canonical_partitions("cols")
        assert len(rows) == len(cols) == 12
        assert len(enumerate_partitions()) == 144
        assert len(set(rows)) == 12

    def test_each_index_used_exactly_once(self):
        for partition in canonical_partitions("rows"):
            assert sorted(partition.unprimed + partition.primed) == [0, 1, 2, 3]

    def test_canonical_form(self):
        for partition in canonical_partitions("rows"):
            flipped = _flip(partition)
            assert partition.unprimed[0] < partition.unprimed[1]
            assert not flipped.unprimed[0] < flipped.unprimed[1]

    def test_canonical_set_covers_all_orderings_up_to_flip(self):
        # every one of the 24 orderings is a canonical partition or its flip
        seen = set()
        for p in permutations(range(4)):
            partition = Partition(side="rows", unprimed=(p[0], p[1]), primed=(p[2], p[3]))
            if partition.unprimed[0] > partition.unprimed[1]:
                partition = _flip(partition)
            seen.add((partition.unprimed, partition.primed))
        assert len(seen) == 12
        assert seen == {
            (p.unprimed, p.primed) for p in canonical_partitions("rows")
        }

    def test_invalid_partition_rejected(self):
        with pytest.raises(ValueError):
            Partition(side="rows", unprimed=(0, 0), primed=(2, 3))
        with pytest.raises(ValueError):
            Partition(side="middle", unprimed=(0, 1), primed=(2, 3))


class TestChshStatistic:
    def test_uniform_matrix_zero_everywhere(self):
        matrix = _sub(np.full((4, 4), 7))
        for row_p, col_p in enumerate_partitions():
            assert chsh_statistic(matrix, row_p, col_p) == 0.0

    def test_block_perfect_correlation_is_exactly_two(self):
        counts = np.array(
            [[9, 0, 9, 0], [0, 9, 0, 9], [9, 0, 9, 0], [0, 9, 0, 9]]
        )
        natural = (canonical_partitions("rows")[0], canonical_partitions("cols")[0])
        assert chsh_statistic(_sub(counts), *natural) == 2.0

    def test_large_small_pattern_value(self):
        matrix = _sub(large_small_matrix())
        natural = (canonical_partitions("rows")[0], canonical_partitions("cols")[0])
        s = chsh_statistic(matrix, *natural)
        assert s == pytest.approx(float(4 * Fraction(198, 202)), abs=1e-12)

    def test_undefined_when_any_block_empty(self):
        counts = np.zeros((4, 4), dtype=int)
        counts[0, 0] = 5  # only the AB block has data
        natural = (canonical_partitions("rows")[0], canonical_partitions("cols")[0])
        assert chsh_statistic(_sub(counts), *natural) is None

    def test_outcome_flip_negates(self):
        rng = np.random.default_rng(11)
        matrix = _sub(rng.integers(0, 15, size=(4, 4)))
        for row_p, col_p in enumerate_partitions():
            s = chsh_statistic(matrix, row_p, col_p)
            flipped_rows = chsh_statistic(matrix, _flip(row_p), col_p)
            if s is None:
                assert flipped_rows is None
            else:
                assert flipped_rows == -s

    def test_against_fraction_reference(self):
        rng = np.random.default_rng(313)
        rows = canonical_partitions("rows")
        cols = canonical_partitions("cols")
        for counts in rng.integers(0, 12, size=(25, 4, 4)):
            matrix = _sub(counts)
            reference = {}
            for rp in permutations(range(4)):
                for cp in permutations(range(4)):
                    reference[(rp, cp)] = None
            values = chsh_all_orderings(counts.tolist())
            keys = [
                (rp, cp)
                for rp in permutations(range(4))
                for cp in permutations(range(4))
            ]
            reference = dict(zip(keys, values))
            for row_p in rows:
                for col_p in cols:
                    got = chsh_statistic(matrix, row_p, col_p)
                    want = reference[
                        (row_p.unprimed + row_p.primed, col_p.unprimed + col_p.primed)
                    ]
                    if want is None:
                        assert got is None
                    else:
                        assert got == pytest.approx(float(want), abs=1e-12)


class TestMaxAbsChsh:
    def test_large_small_pattern(self):
        evaluation = max_abs_chsh(_sub(large_small_matrix()))
        assert evaluation.max_abs_s == pytest.approx(
            float(4 * Fraction(198, 202)), abs=1e-12
        )
        assert evaluation.violated
        assert evaluation.skipped_partitions == 0
        assert evaluation.argmax is not None

    def test_column_swapped_negative_sign(self):
        swapped = large_small_matrix()[:, [1, 0, 3, 2]]
        evaluation = max_abs_chsh(_sub(swapped))
        assert evaluation.max_abs_s == pytest.approx(
            float(4 * Fraction(198, 202)), abs=1e-12
        )
        natural = (canonical_partitions("rows")[0], canonical_partitions("cols")[0])
        s = chsh_statistic(_sub(swapped), *natural)
        assert s < 0
        assert abs(s) == pytest.approx(evaluation.max_abs_s, abs=1e-12)

    def test_uniform_matrix(self):
        evaluation = max_abs_chsh(_sub(np.full((4, 4), 7)))
        assert evaluation.max_abs_s == 0.0
        assert not evaluation.violated

    def test_all_zero_matrix_all_skipped(self):
        evaluation = max_abs_chsh(_sub(np.zeros((4, 4), dtype=int)))
        assert evaluation.skipped_partitions == 144
        assert evaluation.max_abs_s == 0.0
        assert not evaluation.violated
        assert evaluation.argmax is None

    def test_block_perfect_correlation_boundary(self):
        counts = np.array(
            [[9, 0, 9, 0], [0, 9, 0, 9], [9, 0, 9, 0], [0, 9, 0, 9]]
        )
        evaluation = max_abs_chsh(_sub(counts))
        assert evaluation.max_abs_s == pytest.approx(2.0, abs=1e-12)
        assert not evaluation.violated

    def test_range_bound(self):
        rng = np.random.default_rng(99)
        for counts in rng.integers(0, 30, size=(50, 4, 4)):
            assert 0.0 <= max_abs_chsh(_sub(counts)).max_abs_s <= 4.0

    def test_transpose_symmetry(self):
        rng = np.random.default_rng(123)
        for counts in rng.integers(0, 20, size=(40, 4, 4)):
            a = max_abs_chsh(_sub(counts)).max_abs_s
            b = max_abs_chsh(_sub(counts.T)).max_abs_s
            assert a == pytest.approx(b, abs=1e-12)

    def test_scale_invariance_exact(self):
        rng = np.random.default_rng(321)
        for counts in rng.integers(0, 20, size=(30, 4, 4)):
            base = max_abs_chsh(_sub(counts)).max_abs_s
            scaled = max_abs_chsh(_sub(counts * 17)).max_abs_s
            assert base == scaled

    def test_permutation_closure(self):
        rng = np.random.default_rng(77)
        counts = rng.integers(0, 25, size=(4, 4))
        base = max_abs_chsh(_sub(counts)).max_abs_s
        for _ in range(10):
            perm_r = rng.permutation(4)
            perm_c = rng.permutation(4)
            shuffled = counts[np.ix_(perm_r, perm_c)]
            assert max_abs_chsh(_sub(shuffled)).max_abs_s == pytest.approx(
                base, abs=1e-12
            )

    def test_exact_oracle_on_random_matrices(self):
        rng = np.random.default_rng(2718)
        for counts in rng.integers(0, 10, size=(30, 4, 4)):
            evaluation = max_abs_chsh(_sub(counts))
            exact = max_abs_all_orderings(counts.tolist())
            assert evaluation.max_abs_s == pytest.approx(float(exact), abs=1e-12)
            assert evaluation.violated == violates_all_orderings(counts.tolist())

    def test_boundary_exactness(self):
        counts = _boundary_block()
        evaluation = max_abs_chsh(_sub(counts))
        exact = max_abs_all_orderings(counts.tolist())
        assert Fraction(evaluation.max_abs_s).limit_denominator(10**9) == exact
        assert evaluation.violated == violates_all_orderings(counts.tolist())


def _tie_rule_argmax(counts):
    """The documented tie rule, restated over exact |S| of all 144 pairs.

    Partition pairs are grouped by split pair (the unordered row and column
    pairs they use); groups are ordered by their first partition pair. The
    argmax is the first partition pair attaining the maximum in the first
    group that holds it; None when every partition pair is skipped.
    """
    groups = {}
    for index, (row_p, col_p) in enumerate(enumerate_partitions()):
        key = tuple(
            frozenset((frozenset(p.unprimed), frozenset(p.primed))) for p in (row_p, col_p)
        )
        s = chsh_fraction(counts, row_p.unprimed + row_p.primed, col_p.unprimed + col_p.primed)
        groups.setdefault(key, []).append((index, None if s is None else abs(s)))
    values = [v for members in groups.values() for _, v in members if v is not None]
    if not values:
        return None
    best = max(values)
    for members in groups.values():
        for index, value in members:
            if value == best:
                return index


def _assert_exact(counts):
    """Verdict, maximum, skips and argmax of max_abs_chsh against the oracles."""
    evaluation = max_abs_chsh(_sub(counts))
    exact = max_abs_all_orderings(counts)
    assert evaluation.violated == violates_all_orderings(counts)
    assert evaluation.max_abs_s == float(exact)
    undefined = sum(s is None for s in chsh_all_orderings(counts))
    assert 4 * evaluation.skipped_partitions == undefined  # 4 orderings per pair
    index = _tie_rule_argmax(counts)
    if index is None:
        assert evaluation.argmax is None
    else:
        row_p, col_p = evaluation.argmax
        s = chsh_fraction(counts, row_p.unprimed + row_p.primed, col_p.unprimed + col_p.primed)
        assert abs(s) == exact
        assert enumerate_partitions()[index] == evaluation.argmax


_counts = st.one_of(st.integers(0, 3), st.integers(0, 40))


class TestSplitKernelExactness:
    @settings(max_examples=150, deadline=None)
    @given(counts=st.lists(st.lists(_counts, min_size=4, max_size=4), min_size=4, max_size=4))
    def test_matches_exact_oracles(self, counts):
        _assert_exact(counts)

    @pytest.mark.parametrize("scale", [10**6, 10**15])
    def test_boundary_block_above_int64_bound(self, scale):
        evaluation = max_abs_chsh(_sub(_boundary_block() * scale))
        assert evaluation.max_abs_s == 2.0
        assert not evaluation.violated

    def test_violation_within_half_an_ulp_of_2_stays_above_2(self):
        # exact max |S| is 2 + 1/(9 * 10**15), which correctly rounds to 2.0
        counts = _boundary_block() * 10**15
        counts[0, 0] += 1
        exact = max_abs_all_orderings(counts.tolist())
        assert exact > 2 and float(exact) == 2.0
        evaluation = max_abs_chsh(_sub(counts))
        assert evaluation.violated
        assert evaluation.max_abs_s == np.nextafter(2.0, 3.0)

    def test_split_pairs_tied_in_float_are_ordered_exactly(self):
        # two split pairs whose exact maxima differ by far less than an ulp:
        # the later one holds the maximum, so a float argmax would pick wrong
        k = 10**16
        counts = [
            [k, 0, 0, 0],
            [0, 2 * k, 2 * k, 2 * k],
            [0, 2 * k, 2 * k, 2 * k - 1],
            [k, 3 * k, 3 * k, 3 * k],
        ]
        _assert_exact(counts)

    def test_random_counts_near_1e8(self):
        rng = np.random.default_rng(10**8)
        for counts in rng.integers(10**8 - 1000, 10**8 + 1000, size=(8, 4, 4)):
            _assert_exact(counts.tolist())
        # entries near 0 or near 1e8: strong correlations, violations included
        near = rng.integers(0, 2, size=(12, 4, 4)) * 10**8 + rng.integers(0, 1000, size=(12, 4, 4))
        assert any(max_abs_chsh(_sub(c)).violated for c in near)
        for counts in near:
            _assert_exact(counts.tolist())

    def test_batch_matches_single_matrix_path_above_int64_bound(self):
        rng = np.random.default_rng(6888)
        matrices = rng.integers(0, 2, size=(10, 4, 4)) * 10**8 + rng.integers(0, 9, size=(10, 4, 4))
        max_abs, argmax, skipped = chsh_max_abs_batch(matrices)
        for k in range(10):
            evaluation = max_abs_chsh(_sub(matrices[k]))
            assert max_abs[k] == evaluation.max_abs_s
            assert skipped[k] == evaluation.skipped_partitions
            assert enumerate_partitions()[argmax[k]] == evaluation.argmax


class TestBatchKernel:
    def test_matches_scalar_path(self):
        rng = np.random.default_rng(4242)
        matrices = rng.integers(0, 18, size=(60, 4, 4))
        max_abs, argmax, skipped = chsh_max_abs_batch(matrices)
        pairs = enumerate_partitions()
        for k in range(60):
            evaluation = max_abs_chsh(_sub(matrices[k]))
            assert max_abs[k] == evaluation.max_abs_s
            assert skipped[k] == evaluation.skipped_partitions
            if evaluation.argmax is not None:
                assert pairs[argmax[k]] == evaluation.argmax

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            chsh_max_abs_batch(np.zeros((3, 5)))
        with pytest.raises(ValueError):
            chsh_max_abs_batch(np.full((2, 4, 4), -1))


def _assert_float_verdict(matrices):
    """The float verdict against the exact kernel: exact outside the band,
    and the band holds only maxima within ``_FLOAT_BAND`` of 2."""
    matrices = np.asarray(matrices, dtype=np.int64)
    violated, close = chsh._FloatVerdict(len(matrices))(matrices)
    max_abs = chsh_max_abs_batch(matrices)[0]
    assert not (violated & close).any()
    assert (violated == (max_abs > 2))[~close].all()
    assert (np.abs(max_abs[close] - 2) <= chsh._FLOAT_BAND).all()
    return violated, close


# maximum |S| exactly 2: the first reaches it with S = +2, the third has
# zero counts
_EXACT_TIE = np.array([[9, 1, 1, 7], [6, 1, 1, 2], [8, 4, 8, 1], [2, 1, 6, 6]])
_SECOND_TIE = np.array([[10, 1, 8, 2], [9, 1, 8, 11], [2, 1, 9, 7], [10, 10, 0, 3]])
_THIRD_TIE = np.array([[6, 1, 0, 0], [8, 1, 0, 2], [3, 9, 3, 9], [1, 4, 0, 10]])
_PAIRS_OF_FOUR = list(combinations(range(4), 2))


@st.composite
def _matrices_with_empty_blocks(draw):
    # whole 2x2 blocks are zeroed, up to every block of the matrix
    n = draw(st.integers(1, 6))
    flat = draw(st.lists(_counts, min_size=16 * n, max_size=16 * n))
    matrices = np.array(flat, dtype=np.int64).reshape(n, 4, 4)
    for k in range(n):
        blocks = draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=8))
        for p, q in blocks:
            rows, cols = _PAIRS_OF_FOUR[p], _PAIRS_OF_FOUR[q]
            matrices[k][np.ix_(rows, cols)] = 0
    return matrices


def _float_maxima(matrices):
    """The float32 maximum of |S| that _FloatVerdict takes for each matrix."""
    seen = []
    band_verdict = chsh._band_verdict

    def recording(top, band):
        seen.append(top.copy())
        return band_verdict(top, band)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(chsh, "_band_verdict", recording)
        chsh._FloatVerdict(len(matrices))(np.asarray(matrices, dtype=np.int64))
    return seen[0]


@st.composite
def _near_extremes(draw):
    # a pattern of 0, 1 and 2 times a scale, plus 0-3 per entry: blocks of
    # equal pattern entries give x near 0, blocks with a zero diagonal or
    # off-diagonal x near -1 or +1, and scales above 2**24 round in float32
    n = draw(st.integers(1, 8))
    pattern = draw(st.lists(st.integers(0, 2), min_size=16 * n, max_size=16 * n))
    noise = draw(st.lists(st.integers(0, 3), min_size=16 * n, max_size=16 * n))
    scale = draw(st.sampled_from([1, 1000, 2**24 + 1, 10**8 + 7, 2**40 + 3]))
    return (np.array(pattern) * scale + np.array(noise)).reshape(n, 4, 4)


class TestFloatVerdict:
    @settings(max_examples=150, deadline=None)
    @given(matrices=_matrices_with_empty_blocks())
    def test_zeros_and_empty_blocks(self, matrices):
        _assert_float_verdict(matrices)

    @settings(max_examples=100, deadline=None)
    @given(
        flat=st.lists(
            st.one_of(st.integers(0, 3), st.integers(1722, 10**9)), min_size=16, max_size=128
        )
    )
    def test_counts_above_the_int64_bound(self, flat):
        matrices = np.array(flat[: len(flat) // 16 * 16], dtype=np.int64).reshape(-1, 4, 4)
        _assert_float_verdict(matrices)

    @settings(max_examples=100, deadline=None)
    @given(
        flat=st.lists(
            st.one_of(st.integers(0, 3), st.integers(2**24 + 1, 2**61)), min_size=16, max_size=128
        )
    )
    def test_counts_not_exact_in_float32(self, flat):
        # most counts above 2**24 round when converted to float32
        matrices = np.array(flat[: len(flat) // 16 * 16], dtype=np.int64).reshape(-1, 4, 4)
        _assert_float_verdict(matrices)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.integers(1, 8))
    def test_ties_moved_off_2_at_the_2_56_scale(self, data, n):
        # entries in {0, 1, 2} put many maxima exactly on 2; times 2**56 plus an
        # offset of 0-3 per entry, the exact maxima move off 2 by under 1e-15
        # and the float32 counts lose the offsets
        size = 16 * n
        base = data.draw(st.lists(st.integers(0, 2), min_size=size, max_size=size))
        offset = data.draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
        matrices = np.array(base, dtype=np.int64) * 2**56 + np.array(offset, dtype=np.int64)
        _assert_float_verdict(matrices.reshape(n, 4, 4))

    @settings(max_examples=50, deadline=None)
    @given(
        scale=st.integers(1, 10**12),
        rows=st.permutations(range(4)),
        cols=st.permutations(range(4)),
        transpose=st.booleans(),
    )
    def test_exact_ties_land_in_the_band(self, scale, rows, cols, transpose):
        ties = []
        for tie in (_EXACT_TIE, _SECOND_TIE, _THIRD_TIE, _boundary_block()):
            tie = tie[np.ix_(rows, cols)] * scale
            ties.append(tie.T if transpose else tie)
        violated, close = _assert_float_verdict(ties)
        assert close.all() and not violated.any()
        assert (chsh_max_abs_batch(np.array(ties))[0] == 2).all()

    def test_exact_ties(self):
        evaluation = max_abs_chsh(_sub(_EXACT_TIE))
        row_p, col_p = evaluation.argmax
        assert chsh_statistic(_sub(_EXACT_TIE), row_p, col_p) == 2.0
        assert max_abs_all_orderings(_SECOND_TIE.tolist()) == 2
        assert max_abs_all_orderings(_THIRD_TIE.tolist()) == 2
        violated, close = _assert_float_verdict([_EXACT_TIE, _SECOND_TIE, _THIRD_TIE])
        assert close.all() and not violated.any()

    def test_buffers_are_reused_across_batch_sizes(self):
        rng = np.random.default_rng(1722)
        matrices = rng.integers(0, 30, size=(64, 4, 4))
        verdict = chsh._FloatVerdict(64)
        whole = verdict(matrices)
        parts = [verdict(matrices[k : k + 5]) for k in range(0, 64, 5)]
        for got, want in zip(whole, zip(*parts)):
            assert np.array_equal(got, np.concatenate(want))

    def test_allocates_112_floats_per_matrix(self):
        tracemalloc.start()
        try:
            chsh._FloatVerdict(10_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 112 * 4 * 10_000 <= peak < 112 * 4 * 10_000 + 4096

    @settings(max_examples=100, deadline=None)
    @given(matrices=_near_extremes())
    def test_within_36u_of_the_exact_maximum(self, matrices):
        # x near 0 and near +-1, at counts float32 holds and at counts it rounds
        for top, exact in zip(_float_maxima(matrices), chsh_max_abs_batch(matrices)[0]):
            if not np.isnan(top):
                assert abs(float(top) - exact) <= 36 * 2.0**-24

    def test_near_tie_above_2_24_reads_below_2(self):
        # the closed form misreads this violation by 2**-23 + 4.6e-8, inside the band
        counts = selftest._FLOAT32_NEAR_TIE
        top = _float_maxima(counts[None])[0]
        assert top == np.float32(2 - 2.0**-23)
        assert max_abs_all_orderings(counts.tolist()) == 2 + Fraction(11, 239999994)
        violated, close = _assert_float_verdict(counts[None])
        assert close.all() and not violated.any()


# four block expectations: eighths are exact in floats, and so are their
# sums; reusing one value with either sign gives equal magnitudes, and
# zeros of both signs
@st.composite
def _four_x(draw):
    values = draw(st.lists(st.integers(-8, 8).map(lambda k: k / 8), min_size=1, max_size=4))
    picks = draw(st.lists(st.tuples(st.sampled_from(values), st.sampled_from([1.0, -1.0])),
                          min_size=4, max_size=4))
    return [sign * value for value, sign in picks]


class TestClosedForm:
    """best |S| of a split pair with blocks ac, ad, bc, bd is
    max(|x_ac - x_bc| + |x_ad + x_bd|, |x_ac + x_bc| + |x_ad - x_bd|)."""

    def test_each_split_pair_gives_every_odd_sign_pattern(self):
        odd = {p for p in product((1, -1), repeat=4) if p.count(-1) % 2}
        for signs in chsh._SPLIT_SIGNS:
            assert {tuple(row) for row in signs.tolist()} == odd

    @settings(max_examples=300, deadline=None)
    @given(x=_four_x())
    @example(x=[0.0, -0.0, 0.0, -0.0])
    @example(x=[0.5, -0.5, -0.5, 0.5])
    @example(x=[1.0, 1.0, -1.0, 1.0])
    def test_equals_the_best_odd_sign_pattern(self, x):
        ac, ad, bc, bd = (Fraction(v) for v in x)
        closed = max(abs(ac - bc) + abs(ad + bd), abs(ac + bc) + abs(ad - bd))
        odd = [p for p in product((1, -1), repeat=4) if p.count(-1) % 2]
        assert closed == max(abs(sum(e * v for e, v in zip(p, (ac, ad, bc, bd)))) for p in odd)
        for signs in chsh._SPLIT_SIGNS:
            assert closed == max(abs(sum(e * v for e, v in zip(row, (ac, ad, bc, bd))))
                                 for row in signs.tolist())
        a, b, c, d = x
        assert max(abs(a - c) + abs(b + d), abs(a + c) + abs(b - d)) == closed


def _four_cell_terms(f):
    """numer and denom of every (row pair, column pair) block, pairs in
    combinations() order, straight from the four cells."""
    rows = list(combinations(range(f.shape[0]), 2))
    cols = list(combinations(range(f.shape[1]), 2))
    cells = [[(f[r1, c1], f[r1, c2], f[r2, c1], f[r2, c2]) for c1, c2 in cols] for r1, r2 in rows]
    numer = np.array([[f11 + f22 - f12 - f21 for f11, f12, f21, f22 in row] for row in cells])
    denom = np.array([[f11 + f12 + f21 + f22 for f11, f12, f21, f22 in row] for row in cells])
    return numer, denom


def _built_terms(f):
    """chsh._block_terms on fresh buffers of f's dtype."""
    n_rows, n_cols = len(f), f.shape[1]
    pairs = np.empty((n_rows * (n_rows - 1) // 2, *f.shape[1:]), dtype=f.dtype)
    shape = (len(pairs), n_cols * (n_cols - 1) // 2, *f.shape[2:])
    numer, denom = np.empty((2, *shape), dtype=f.dtype)
    chsh._block_terms(f, pairs, numer, denom)
    return numer, denom


def _split_of_four(split):
    """Halves 0 and 1 of split s of four indices: index 0 with index s + 1, then the rest."""
    first = (0, split + 1)
    return first, tuple(i for i in range(4) if i not in first)


@st.composite
def _counts_with_zero_lines(draw, shape):
    f = np.array(draw(st.lists(st.integers(0, 10**6), min_size=int(np.prod(shape)),
                               max_size=int(np.prod(shape))))).reshape(shape)
    f[draw(st.lists(st.integers(0, shape[0] - 1), max_size=shape[0]))] = 0
    f[:, draw(st.lists(st.integers(0, shape[1] - 1), max_size=shape[1]))] = 0
    return f.astype(draw(st.sampled_from([np.int64, np.float64])))


class TestBlockLayout:
    """The one pair numbering, as the scan, the float verdict and the kernel use it."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.integers(2, 12), m=st.integers(2, 12))
    def test_block_terms_match_the_four_cells(self, data, n, m):
        f = data.draw(_counts_with_zero_lines((n, m)))
        for got, want in zip(_built_terms(f), _four_cell_terms(f)):
            assert got.dtype == f.dtype and np.array_equal(got, want)

    @settings(max_examples=50, deadline=None)
    @given(data=st.data(), k=st.integers(1, 8))
    def test_block_terms_of_a_batch_match_the_four_cells(self, data, k):
        f = data.draw(_counts_with_zero_lines((4, 4, k)))
        for got, want in zip(_built_terms(f), _four_cell_terms(f)):
            assert got.shape == (6, 6, k) and np.array_equal(got, want)

    def test_split_halves_are_numbered_in_combinations_order(self):
        for n in range(4, 21):
            position = {pair: k for k, pair in enumerate(combinations(range(n), 2))}
            subsets = np.array(list(combinations(range(n), 4)))
            want = [
                [position[tuple(int(subset[i]) for i in half)] for half in _split_of_four(split)]
                for subset in subsets
                for split in range(3)
            ]
            assert np.array_equal(np.stack(chsh._split_halves(subsets, n), axis=1), want)

    def test_block_gathers_follow_the_splits(self):
        for j in range(9):
            for b in range(4):
                assert tuple(chsh._BLOCK_ROWS[b, j]) == _split_of_four(j // 3)[b // 2]
                assert tuple(chsh._BLOCK_COLS[b, j]) == _split_of_four(j % 3)[b % 2]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_block_terms_equal_one_call_per_pair(self, dtype):
        # inexact operands, so any change of operation or operand order shows
        f = np.random.default_rng(3).random((7, 9, 5)).astype(dtype) * 1e3
        total, diff = np.empty((2, 21, 9, 5), dtype=dtype)
        numer, denom = np.empty((2, 21, 36, 5), dtype=dtype)
        for p, (r1, r2) in enumerate(combinations(range(7), 2)):
            total[p], diff[p] = f[r1] + f[r2], f[r1] - f[r2]
        for q, (c1, c2) in enumerate(combinations(range(9), 2)):
            numer[:, q], denom[:, q] = diff[:, c1] - diff[:, c2], total[:, c1] + total[:, c2]
        for got, want in zip(_built_terms(f), (numer, denom)):
            assert got.tobytes() == want.tobytes()

    def test_subsets_are_cached_read_only(self):
        for n in range(4, 21):
            subsets, h0, h1 = got = chsh._subsets(n)
            want = np.array(list(combinations(range(n), 4)))
            assert np.array_equal(subsets, want)
            for half, want_half in zip((h0, h1), chsh._split_halves(want, n)):
                assert np.array_equal(half, want_half)
            assert chsh._subsets(n) is got
            for array in got:
                with pytest.raises(ValueError):
                    array[0] = 0


# the float32 spacing just below 2
_SPACING = 2.0**-23


def _live_side_reference(table, h0, h1):
    """Split by split: live when the two largest entries of table[h0] +
    table[h1] sum above 2 - band in float32; returns what chsh._live_side
    returns."""
    def top_two(v):
        v = np.sort(v)
        return v[-1] + v[-2]

    live = [s for s in range(len(h0))
            if top_two(table[h0[s]] + table[h1[s]]) > 2 - chsh._FLOAT_BAND]
    subsets = sorted({s // 3 for s in live})
    number = [subsets.index(s // 3) for s in live]
    return h0[live], h1[live], np.array(subsets, dtype=np.intp), np.array(number, dtype=np.intp)


def _plant(table, rows, q, offset):
    """Set the four entries of rows x q so that they sum to 2 - band +
    offset. Each entry, each sum of two and the sum of four is exact in
    float32, so the offset alone, down to one spacing, decides the test."""
    quarter = 0.5 - chsh._FLOAT_BAND / 4
    table[rows[0], q] = quarter + np.array([1, -2]) * 2.0**-13
    table[rows[1], q] = quarter + np.array([-3, 4]) * 2.0**-13 + np.array([0, offset])


def _boundary_table(rng, n, n_cols):
    """A float32 |x| table over the pairs of n indices and n_cols column
    pairs: a background below `scale`, -inf for empty blocks, and the four
    entries of a few splits set so that they sum within 8 float32 spacings
    of 2 - band."""
    h0, h1 = chsh._subsets(n)[1:]
    scale = rng.choice([0.45, 0.6, 1.0])
    table = (rng.random((n * (n - 1) // 2, n_cols)) * scale).astype(np.float32)
    table[rng.random(table.shape) < rng.choice([0.0, 0.05, 0.3])] = -np.inf
    for split in rng.choice(len(h0), size=min(len(h0), 6), replace=False):
        q = rng.choice(n_cols, size=2, replace=False)
        offset = rng.choice([-8, -3, -1, 1, 3, 8]) * _SPACING
        _plant(table, (h0[split], h1[split]), q, offset)
    return table, h0, h1


class TestLiveSide:
    """The whole-split prune against a split-by-split top-two reference."""

    @pytest.mark.parametrize("chunk", [1, 7, 4096])
    def test_equals_top_two_reference(self, chunk, monkeypatch):
        monkeypatch.setattr(chsh, "_SCAN_CHUNK", chunk)
        rng = np.random.default_rng(chunk)
        n_live = n_splits = 0
        for n in range(4, 14):
            for _ in range(3):
                n_cols = int(rng.integers(4, 14))
                table, h0, h1 = _boundary_table(rng, n, n_cols * (n_cols - 1) // 2)
                got = chsh._live_side(table, h0, h1)
                want = _live_side_reference(table, h0, h1)
                assert len(got) == len(want) == 4
                for a, b in zip(got, want):
                    assert np.array_equal(a, b)
                n_live, n_splits = n_live + len(got[0]), n_splits + len(h0)
        # both verdicts occur in bulk
        assert 0.05 < n_live / n_splits < 0.95

    def test_a_planted_split_straddles_the_threshold(self):
        # the four planted entries of split 4 sum to 2 - band + offset, and
        # every other split of the background sums to at most 1.9
        rng = np.random.default_rng(11)
        h0, h1 = chsh._subsets(6)[1:]
        for offset in (-4 * _SPACING, -_SPACING, _SPACING, 4 * _SPACING):
            table = (rng.random((15, 10)) * 0.45).astype(np.float32)
            _plant(table, (h0[4], h1[4]), slice(0, 2), offset)
            live = chsh._live_side(table, h0, h1)
            # split 4 is split 1 of subset 1
            assert [a.tolist() for a in live] == (
                [[h0[4]], [h1[4]], [1], [0]] if offset > 0 else [[], [], [], []])


class TestLiveSplitPairs:
    """The scan's per-chunk sum, plus and minus tables against four gathers
    of x per split pair."""

    @pytest.mark.parametrize("seed", range(8))
    def test_equals_four_gathers(self, seed):
        rng = np.random.default_rng(seed)
        n_rp, n_cp, n_rs, n_cs = rng.integers(3, 40, size=4)
        # |x| mostly above 1/4, so that both verdicts occur in bulk
        x = rng.choice([-1, 1], size=(n_rp, n_cp)) * (rng.random((n_rp, n_cp)) * 0.8 + 0.2)
        x[rng.random(x.shape) < 0.1] = 0.0
        x[rng.random(x.shape) < 0.05] = -0.0
        x[rng.random(x.shape) < 0.05] = np.nan  # an empty block's 0/0
        x = x.astype(np.float32)
        table = np.where(np.isnan(x), np.float32(-np.inf), np.abs(x))
        h0, h1 = rng.integers(0, n_rp, size=(2, n_rs))
        c0, c1 = rng.integers(0, n_cp, size=(2, n_cs))
        j, i, best = chsh._live_split_pairs(table, x, h0, h1, c0, c1)

        jj, ii = (a.ravel() for a in np.meshgrid(np.arange(n_cs), np.arange(n_rs), indexing="ij"))
        x00, x01 = x[h0[ii], c0[jj]], x[h0[ii], c1[jj]]
        x10, x11 = x[h1[ii], c0[jj]], x[h1[ii], c1[jj]]
        m00, m01, m10, m11 = (np.where(np.isnan(v), np.float32(-np.inf), np.abs(v))
                              for v in (x00, x01, x10, x11))
        bound = (m00 + m10) + (m01 + m11)
        first = np.abs(x00 - x10) + np.abs(x01 + x11)
        second = np.abs(x00 + x10) + np.abs(x01 - x11)
        live = bound > 2 - chsh._FLOAT_BAND
        assert np.array_equal(j, jj[live]) and np.array_equal(i, ii[live])
        want = np.maximum(first, second)[live]
        assert best.dtype == np.float32 and best.tobytes() == want.tobytes()
        # both verdicts occur, and each of the two sums is the larger somewhere
        assert 0 < live.sum() < live.size
        assert 0 < (first[live] > second[live]).sum() < live.sum()

    def test_equals_the_float_verdict(self):
        # 4x4 matrices through the scan and through _FloatVerdict: the same
        # float maximum, bit for bit, wherever it is above 2 - band
        rng = np.random.default_rng(5)
        matrices = rng.integers(0, 2**30, size=(60, 4, 4)) * rng.integers(0, 2, size=(60, 4, 4))
        h0, h1 = chsh._subsets(4)[1:]
        above = 0
        for counts, top in zip(matrices, _float_maxima(matrices)):
            numer, denom = _built_terms(counts.astype(np.float32))
            with np.errstate(invalid="ignore"):
                x = numer / denom
            table = np.where(np.isnan(x), np.float32(-np.inf), np.abs(x))
            scan = chsh._live_split_pairs(table, x, h0, h1, h0, h1)[2].max(initial=-np.inf)
            if top > 2 - chsh._FLOAT_BAND:
                above += 1
                assert scan.tobytes() == top.tobytes()
            else:
                assert not scan > 2 - chsh._FLOAT_BAND
        assert 0 < above < len(matrices)

    def test_nothing_live(self):
        table = np.full((6, 6), 0.25, dtype=np.float32)
        j, i, best = chsh._live_split_pairs(
            table, table, np.arange(3), np.arange(3, 6), np.arange(3), np.arange(3, 6))
        assert len(j) == len(i) == len(best) == 0


def _cooc_from_counts(counts, method="frequency"):
    n1, n2 = counts.shape
    pair = ConceptPair(
        c1=tuple(f"a{i}" for i in range(n1)),
        c2=tuple(f"b{j}" for j in range(n2)),
        method=method,
        topic_id="t",
    )
    return CoocMatrix(
        concept_pair=pair,
        window_size=5,
        counts=counts,
        n_windows=int(counts.max(initial=0)) + 1,
    )


def _unpruned_scan(matrix, top_details):
    """Reference scan: _split_kernel on every subset pair, one row subset at
    a time, then one global (-|S|, subset-pair index) sort of the
    violations; returns (n_entangled, details)."""
    counts, pair = matrix.counts, matrix.concept_pair
    rows = np.array(list(combinations(range(counts.shape[0]), 4)))
    cols = np.array(list(combinations(range(counts.shape[1]), 4)))
    violations = []  # (subset-pair index, signed S, argmax)
    for r, row in enumerate(rows):
        signed, argmax, _ = chsh._split_kernel(counts[row[None, :, None], cols[:, None, :]])
        found = np.flatnonzero(np.abs(signed) > 2)
        violations += zip((r * len(cols) + found).tolist(), signed[found].tolist(),
                          argmax[found].tolist())
    order = sorted(violations, key=lambda v: (-abs(v[1]), v[0]))
    details = tuple(
        PairDetail(
            row_terms=tuple(pair.c1[i] for i in rows[idx // len(cols)]),
            col_terms=tuple(pair.c2[j] for j in cols[idx % len(cols)]),
            s=s,
            row_partition=enumerate_partitions()[arg][0],
            col_partition=enumerate_partitions()[arg][1],
        )
        for idx, s, arg in order[:top_details]
    )
    return len(violations), details if top_details > 0 else None


@st.composite
def _small_counts(draw):
    # entries in {0, 1, 2}: block sums land exactly on 2 and empty blocks occur;
    # 10**4 puts 4 x (largest count) above the int64 bound of 6888, and 2**50
    # and 2**52 put block sums at and above 2**53, where floats still hold
    # them exactly; 2**56 plus an offset of 0-3 per entry makes the float
    # sums inexact and moves the ties at |S| = 2 off 2 by under 1e-15
    k = draw(st.integers(4, 7))
    flat = draw(st.lists(st.integers(0, 2), min_size=k * k, max_size=k * k))
    scale = draw(st.sampled_from([1, 10**4, 2**50, 2**52, 2**56]))
    counts = np.array(flat, dtype=np.int64).reshape(k, k) * scale
    if scale == 2**56:
        offset = draw(st.lists(st.integers(0, 3), min_size=k * k, max_size=k * k))
        counts += np.array(offset, dtype=np.int64).reshape(k, k)
    return counts


class TestEntanglementProportion:
    def test_uniform_matrix_no_violations(self):
        matrix = _cooc_from_counts(np.full((10, 10), 4, dtype=np.int64))
        report = entanglement_proportion(matrix)
        assert report.p == 0.0
        assert report.n_pairs_total == 44100
        assert report.n_pairs_entangled == 0

    def test_planted_block_in_flat_background(self):
        # top-left 4x4 holds the alternating pattern, everything else large
        counts = np.full((10, 10), 100, dtype=np.int64)
        counts[:4, :4] = large_small_matrix()
        matrix = _cooc_from_counts(counts)
        report = entanglement_proportion(matrix, top_details=5)
        # the pure pattern block must violate
        block = _sub(matrix.counts[np.ix_([0, 1, 2, 3], [0, 1, 2, 3])])
        assert max_abs_chsh(block).violated
        assert report.n_pairs_entangled >= 1
        assert report.details
        assert abs(report.details[0].s) > 2.0

    def test_exhaustive_oracle_on_reduced_concepts(self):
        # 6x6 matrix: 15 x 15 subset pairs, oracle-checkable exhaustively
        rng = np.random.default_rng(808)
        counts = rng.integers(0, 7, size=(6, 6)).astype(np.int64)
        matrix = _cooc_from_counts(counts)
        report = entanglement_proportion(matrix)
        expected = 0
        for rows in combinations(range(6), 4):
            for cols in combinations(range(6), 4):
                block = counts[np.ix_(rows, cols)]
                if violates_all_orderings(block.tolist()):
                    expected += 1
        assert report.n_pairs_total == 225
        assert report.n_pairs_entangled == expected
        assert report.p == expected / 225

    def test_exhaustive_oracle_on_planted_block_in_large_background(self):
        # alternating pattern in the top-left corner, large counts elsewhere
        counts = np.full((6, 6), 100, dtype=np.int64)
        counts[:4, :4] = large_small_matrix()
        report = entanglement_proportion(_cooc_from_counts(counts))
        expected = sum(
            violates_all_orderings(counts[np.ix_(rows, cols)].tolist())
            for rows in combinations(range(6), 4)
            for cols in combinations(range(6), 4)
        )
        assert expected >= 1  # the planted block itself violates
        assert report.n_pairs_entangled == expected
        assert report.p == expected / 225

    def test_agrees_with_max_abs_chsh_on_sampled_subsets(self, bundled_by_id):
        topic = bundled_by_id["storm"]
        from entangletext import build_concept_pair, rank_by_frequency

        pair = build_concept_pair(rank_by_frequency(topic))
        matrix = count_cooccurrences(pair, topic.windows(5))
        report = entanglement_proportion(matrix, top_details=20)
        for detail in report.details:
            rows = tuple(pair.c1.index(t) for t in detail.row_terms)
            cols = tuple(pair.c2.index(t) for t in detail.col_terms)
            evaluation = max_abs_chsh(_sub(matrix.counts[np.ix_(rows, cols)]))
            assert evaluation.violated
            assert abs(detail.s) == pytest.approx(evaluation.max_abs_s, abs=1e-12)
            s_at_argmax = chsh_statistic(
                _sub(matrix.counts[np.ix_(rows, cols)]),
                detail.row_partition,
                detail.col_partition,
            )
            assert s_at_argmax == pytest.approx(detail.s, abs=1e-12)

    def test_too_small_matrix_rejected(self):
        with pytest.raises(ValueError):
            entanglement_proportion(_cooc_from_counts(np.zeros((3, 5), dtype=np.int64)))

    def test_details_sorted_by_strength(self, bundled_by_id):
        topic = bundled_by_id["storm"]
        from entangletext import build_concept_pair, rank_by_frequency

        pair = build_concept_pair(rank_by_frequency(topic))
        matrix = count_cooccurrences(pair, topic.windows(5))
        report = entanglement_proportion(matrix, top_details=50)
        strengths = [abs(d.s) for d in report.details]
        assert strengths == sorted(strengths, reverse=True)
        assert len(report.details) == min(50, report.n_pairs_entangled)

    @settings(max_examples=80, deadline=None)
    @given(counts=_small_counts(), top_details=st.integers(0, 12))
    def test_pruned_scan_equals_unpruned_reference(self, counts, top_details):
        matrix = _cooc_from_counts(counts)
        report = entanglement_proportion(matrix, top_details=top_details)
        n_entangled, details = _unpruned_scan(matrix, top_details)
        assert report.n_pairs_entangled == n_entangled
        assert report.details == details

    def test_pruned_scan_equals_exact_oracle_on_6x6(self):
        # entries in {0, 1, 2}, as drawn and scaled above the int64 bound
        counts = np.random.default_rng(62).integers(0, 3, size=(6, 6)).astype(np.int64)
        expected = sum(
            violates_all_orderings(counts[np.ix_(rows, cols)].tolist())
            for rows in combinations(range(6), 4)
            for cols in combinations(range(6), 4)
        )
        assert 0 < expected < 225
        for scale in (1, 3000):
            report = entanglement_proportion(_cooc_from_counts(counts * scale))
            assert report.n_pairs_entangled == expected

    def test_tied_details_across_chunks(self, monkeypatch):
        # 555 violations with |S| exactly 4 among 4,142; one row of subsets
        # (70 subset pairs) per chunk, so the tied top spans many chunks
        counts = np.random.default_rng(1).integers(0, 2, size=(8, 8))
        matrix = _cooc_from_counts(counts)
        monkeypatch.setattr(chsh, "_SCAN_CHUNK", 1)
        for top_details in (100, 5000):
            report = entanglement_proportion(matrix, top_details=top_details)
            n_entangled, details = _unpruned_scan(matrix, top_details)
            assert report.n_pairs_entangled == n_entangled
            assert report.details == details
            assert len(report.details) == min(top_details, n_entangled)
        assert all(abs(d.s) == 4.0 for d in report.details[:555])
        first_rows = {d.row_terms for d in report.details[:100]}
        assert len(first_rows) > 1

    @pytest.mark.parametrize("chunk", [1, 7])
    @pytest.mark.parametrize("k, seed", [(4, 0), (5, 1), (6, 2), (7, 3), (8, 4)])
    def test_chunk_edges_equal_unpruned_reference(self, chunk, k, seed, monkeypatch):
        # budgets of 1 and 7 bound entries are below one row split's entries
        # (one per column pair), so every chunk takes the one whole row
        # subset a chunk must hold at least, or a subset pair would be
        # counted once per chunk
        counts = np.random.default_rng(seed).integers(0, 3, size=(k, k))
        matrix = _cooc_from_counts(counts)
        monkeypatch.setattr(chsh, "_SCAN_CHUNK", chunk)
        for top_details in (0, 3, 1000):
            report = entanglement_proportion(matrix, top_details=top_details)
            n_entangled, details = _unpruned_scan(matrix, top_details)
            assert report.n_pairs_entangled == n_entangled
            assert report.details == details

    @pytest.mark.parametrize("chunk", [1, 7, 4096])
    @pytest.mark.parametrize("transpose", [False, True], ids=["rows-prune", "columns-prune"])
    @pytest.mark.parametrize("k, seed", [(7, 5), (7, 20), (8, 1)])
    def test_one_side_pruned_equals_unpruned_reference(
        self, k, seed, transpose, chunk, monkeypatch
    ):
        # counts in {0, 1, 2} over flat rows of 30: a row split whose halves
        # both lie in the flat rows has every |x| near 0 and is pruned, while
        # every column split stays live
        counts = np.full((k, k), 30, dtype=np.int64)
        n_flat = k - 5
        counts[:-n_flat] = np.random.default_rng(seed).integers(0, 3, size=(5, k))
        if transpose:
            counts = counts.T
        matrix = _cooc_from_counts(counts)
        seen = []
        live_side = chsh._live_side

        def recording_live_side(table, h0, h1):
            halves = live_side(table, h0, h1)
            seen.append((len(halves[0]), len(h0)))
            return halves

        monkeypatch.setattr(chsh, "_live_side", recording_live_side)
        monkeypatch.setattr(chsh, "_SCAN_CHUNK", chunk)
        report = entanglement_proportion(matrix, top_details=1000)
        n_entangled, details = _unpruned_scan(matrix, 1000)
        assert n_entangled > 0
        assert report.n_pairs_entangled == n_entangled
        assert report.details == details
        # columns are tested first, then rows
        cols, rows = seen
        (live, n_splits), (kept, n_kept) = (cols, rows) if transpose else (rows, cols)
        assert 0 < live < n_splits
        assert kept == n_kept

    def test_chunk_edges_at_k13_with_pruned_columns(self, monkeypatch):
        # eight flat columns prune most column splits; a budget of two row
        # splits per chunk is smaller than the three live splits of most row
        # subsets, so chunks hold one or two whole row subsets
        counts = np.full((13, 13), 30, dtype=np.int64)
        counts[:, :5] = np.random.default_rng(13).integers(0, 3, size=(13, 5))
        matrix = _cooc_from_counts(counts)
        seen = []
        live_side = chsh._live_side

        def recording_live_side(table, h0, h1):
            seen.append(live_side(table, h0, h1))
            return seen[-1]

        monkeypatch.setattr(chsh, "_live_side", recording_live_side)
        entanglement_proportion(matrix)
        (col_h0, *_), (*_, row_number) = seen
        assert 0 < len(col_h0) < 2145 // 2
        assert (np.bincount(row_number) == 3).sum() > 100
        n_entangled, details = _unpruned_scan(matrix, 1000)
        assert n_entangled > 1000
        for chunk in (1, 2 * len(col_h0)):
            monkeypatch.setattr(chsh, "_SCAN_CHUNK", chunk)
            for top_details in (0, 3, 1000):
                report = entanglement_proportion(matrix, top_details=top_details)
                assert report.n_pairs_entangled == n_entangled
                assert report.details == (details[:top_details] if top_details else None)

    def test_floor_keeps_ties_that_read_apart_in_float32(self):
        # rows 0 and 5 are equal, so blocks of equal |S| sit in subset pairs
        # whose splits add their |x| in other orders: of the four pairs tied
        # at |S| = 2.8, numbers 17 and 182 read 2.8000002 in float32 and 101
        # and 221 read 2.79999995. At top_details 3 the floor reaches
        # 2.8000002, and only its band keeps pair 101, reported third.
        counts = np.array([[1, 0, 2, 2, 2, 0], [0, 2, 1, 2, 2, 2], [1, 1, 0, 1, 1, 0],
                           [2, 2, 0, 1, 2, 0], [1, 2, 1, 1, 2, 0], [1, 0, 2, 2, 2, 0]])
        matrix = _cooc_from_counts(counts)
        for top_details in (2, 3, 4):
            report = entanglement_proportion(matrix, top_details=top_details)
            assert report.details == _unpruned_scan(matrix, top_details)[1]
        assert [abs(d.s) for d in report.details[1:]] == [2.8] * 3
        assert report.details[2].row_terms == ("a0", "a2", "a3", "a4")

    def test_all_to_kernel_in_capped_batches(self, bundled_by_id, monkeypatch):
        # a band wider than any |S| prunes nothing and calls every subset pair
        # close, so the kernel decides each one, in calls of at most the cap
        topic = bundled_by_id["storm"]
        from entangletext import build_concept_pair, rank_by_frequency

        pair = build_concept_pair(rank_by_frequency(topic))
        matrix = count_cooccurrences(pair, topic.windows(5))
        expected = entanglement_proportion(matrix, top_details=10)
        seen = []
        kernel = chsh._split_kernel

        def counting_kernel(blocks):
            seen.append(len(blocks))
            return kernel(blocks)

        monkeypatch.setattr(chsh, "_FLOAT_BAND", 4.0)
        monkeypatch.setattr(chsh, "_split_kernel", counting_kernel)
        report = entanglement_proportion(matrix, top_details=10)
        assert report.n_pairs_entangled == expected.n_pairs_entangled > 0
        assert report.details == expected.details
        assert sum(seen) == report.n_pairs_total
        assert max(seen) <= chsh._KERNEL_BATCH

    def test_kernel_sees_only_the_band_and_the_top_candidates(self, bundled_by_id, monkeypatch):
        topic = bundled_by_id["storm"]
        from entangletext import build_concept_pair, rank_by_frequency

        pair = build_concept_pair(rank_by_frequency(topic))
        matrix = count_cooccurrences(pair, topic.windows(5))
        seen = []
        kernel = chsh._split_kernel

        def counting_kernel(blocks):
            seen.append(len(blocks))
            return kernel(blocks)

        monkeypatch.setattr(chsh, "_split_kernel", counting_kernel)
        report = entanglement_proportion(matrix, top_details=10)
        monkeypatch.setattr(chsh, "_split_kernel", kernel)
        n_entangled, details = _unpruned_scan(matrix, 10)
        assert (report.n_pairs_entangled, report.details) == (n_entangled, details)
        # every violation survives the prune, so the floats decided most survivors
        assert 0 < sum(seen) < n_entangled // 10

    def test_memory_bounded_at_k15(self):
        # the full-length signed + argmax arrays alone took 1,863,225 x 16 B
        counts = np.full((15, 15), 20, dtype=np.int64)
        counts += np.random.default_rng(15).integers(0, 3, size=(15, 15))
        counts[:4, :4] = large_small_matrix()
        matrix = _cooc_from_counts(counts)
        tracemalloc.start()
        try:
            report = entanglement_proportion(matrix, top_details=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.n_pairs_total == 1_863_225
        assert report.n_pairs_entangled >= 1
        assert peak < 1_863_225 * 16
