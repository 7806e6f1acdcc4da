"""Windowed indicator counting and histograms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entangletext import (
    ConceptPair,
    CoocMatrix,
    Window,
    cooccurrence_histogram,
    count_cooccurrences,
)

from oracles import cooccurrence_reference, histogram_reference


def _pair(n=10):
    return ConceptPair(
        c1=tuple(f"a{i}" for i in range(n)),
        c2=tuple(f"b{i}" for i in range(n)),
        method="frequency",
        topic_id="t",
    )


def _window(terms, index=0, doc="d"):
    return Window(doc_id=doc, index=index, terms=tuple(terms))


class TestCountCooccurrences:
    def test_multiplicity_ignored(self):
        pair = _pair()
        matrix = count_cooccurrences(pair, [_window(["a0", "b0", "a0"])])
        assert matrix.counts[0, 0] == 1
        assert matrix.counts.sum() == 1

    def test_no_c1_terms_gives_zero_matrix(self):
        pair = _pair()
        matrix = count_cooccurrences(pair, [_window(["b0", "b1", "x"])])
        assert matrix.counts.sum() == 0
        assert matrix.n_windows == 1

    def test_empty_window_list(self):
        matrix = count_cooccurrences(_pair(), [])
        assert matrix.counts.shape == (10, 10)
        assert matrix.counts.sum() == 0
        assert matrix.n_windows == 0

    def test_each_window_contributes_at_most_one_per_cell(self):
        pair = _pair()
        windows = [_window(["a0", "b0"] * 5, index=i) for i in range(7)]
        matrix = count_cooccurrences(pair, windows)
        assert matrix.counts[0, 0] == 7

    def test_matches_reference_on_bundled_corpus(self, bundled_by_id, planted_expected):
        for topic_id, exp_topic in planted_expected["topics"].items():
            topic = bundled_by_id[topic_id]
            doc_lists = [d.terms for d in topic.documents]
            for method, exp_m in exp_topic["methods"].items():
                pair = ConceptPair(
                    c1=tuple(exp_m["c1"]), c2=tuple(exp_m["c2"]),
                    method=method, topic_id=topic_id,
                )
                for width_str, cell in exp_m["cells"].items():
                    width = int(width_str)
                    windows = topic.windows(width)
                    matrix = count_cooccurrences(pair, windows, width)
                    ref_counts, ref_windows = cooccurrence_reference(
                        doc_lists, width, pair.c1, pair.c2
                    )
                    assert matrix.counts.tolist() == ref_counts == cell["matrix"]
                    assert matrix.n_windows == ref_windows == cell["n_windows"]

    def test_planted_unique_and_forbidden_pairs(
        self, bundled_by_id, planted_facts, planted_expected
    ):
        for topic_id, facts in planted_facts.items():
            topic = bundled_by_id[topic_id]
            exp_m = planted_expected["topics"][topic_id]["methods"]["frequency"]
            pair = ConceptPair(
                c1=tuple(exp_m["c1"]), c2=tuple(exp_m["c2"]),
                method="frequency", topic_id=topic_id,
            )
            matrix = count_cooccurrences(pair, topic.windows(5), 5)
            ua, ub = facts["unique_pair"]
            fa, fb = facts["forbidden_pair"]
            assert matrix.counts[pair.c1.index(ua), pair.c2.index(ub)] == 1
            assert matrix.counts[pair.c1.index(fa), pair.c2.index(fb)] == 0

    def test_window_order_invariance(self, bundled_by_id):
        topic = bundled_by_id["storm"]
        pair = _bundled_pair(topic)
        windows = topic.windows(5)
        a = count_cooccurrences(pair, windows, 5)
        b = count_cooccurrences(pair, list(reversed(windows)), 5)
        assert np.array_equal(a.counts, b.counts)

    def test_shard_merge_equals_whole(self, bundled_by_id):
        topic = bundled_by_id["harvest"]
        pair = _bundled_pair(topic)
        windows = topic.windows(5)
        whole = count_cooccurrences(pair, windows, 5)
        parts = [
            count_cooccurrences(pair, windows[i::3], 5) for i in range(3)
        ]
        assert np.array_equal(np.sum([p.counts for p in parts], axis=0), whole.counts)

    def test_monotone_under_window_growth(self, bundled_by_id):
        topic = bundled_by_id["orchestra"]
        pair = _bundled_pair(topic)
        windows = topic.windows(5)
        partial = count_cooccurrences(pair, windows[:30], 5)
        full = count_cooccurrences(pair, windows, 5)
        assert (full.counts >= partial.counts).all()

    def test_entries_bounded_by_window_count(self, bundled_by_id):
        for topic in bundled_by_id.values():
            pair = _bundled_pair(topic)
            matrix = count_cooccurrences(pair, topic.windows(5), 5)
            assert matrix.counts.max() <= matrix.n_windows

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_shard_merge_property(self, data):
        vocab_a = [f"a{i}" for i in range(4)]
        vocab_b = [f"b{i}" for i in range(4)]
        pair = ConceptPair(
            c1=tuple(vocab_a), c2=tuple(vocab_b), method="frequency", topic_id="t"
        )
        n_windows = data.draw(st.integers(min_value=0, max_value=30))
        windows = [
            _window(
                data.draw(
                    st.lists(
                        st.sampled_from(vocab_a + vocab_b + ["x", "y"]),
                        min_size=1,
                        max_size=6,
                    )
                ),
                index=i,
            )
            for i in range(n_windows)
        ]
        split = data.draw(st.integers(min_value=0, max_value=n_windows))
        whole = count_cooccurrences(pair, windows)
        left = count_cooccurrences(pair, windows[:split])
        right = count_cooccurrences(pair, windows[split:])
        assert np.array_equal(left.counts + right.counts, whole.counts)


def _bundled_pair(topic):
    from entangletext import build_concept_pair, rank_by_frequency

    return build_concept_pair(rank_by_frequency(topic))


class TestHistogram:
    def test_all_zero_matrix(self):
        matrix = count_cooccurrences(_pair(), [])
        hist = cooccurrence_histogram(matrix)
        assert hist.bins == {0: 100}

    def test_unit_binning_direct_tally(self):
        counts = np.zeros((10, 10), dtype=np.int64)
        counts.ravel()[:9] = 5
        counts[9, 9] = 50
        matrix = CoocMatrix(
            concept_pair=_pair(), window_size=5, counts=counts, n_windows=60
        )
        hist = cooccurrence_histogram(matrix)
        assert hist.bins == {0: 90, 5: 9, 50: 1}
        assert sum(hist.bins.values()) == 100

    def test_matches_reference_on_bundled_corpus(self, bundled_by_id, planted_expected):
        topic = bundled_by_id["storm"]
        pair = _bundled_pair(topic)
        matrix = count_cooccurrences(pair, topic.windows(5), 5)
        hist = cooccurrence_histogram(matrix)
        assert hist.bins == histogram_reference(matrix.counts.tolist())
        frozen = planted_expected["topics"]["storm"]["methods"]["frequency"]["cells"]["5"]
        assert {str(k): v for k, v in hist.bins.items()} == frozen["histogram"]

    def test_bins_always_sum_to_matrix_size(self, bundled_by_id):
        for topic in bundled_by_id.values():
            matrix = count_cooccurrences(_bundled_pair(topic), topic.windows(5), 5)
            hist = cooccurrence_histogram(matrix)
            assert sum(hist.bins.values()) == matrix.counts.size


class TestCoocMatrixValidation:
    def test_count_exceeding_windows_rejected(self):
        counts = np.full((10, 10), 3, dtype=np.int64)
        with pytest.raises(ValueError, match="exceeds"):
            CoocMatrix(concept_pair=_pair(), window_size=5, counts=counts, n_windows=2)

    def test_negative_counts_rejected(self):
        counts = np.zeros((10, 10), dtype=np.int64)
        counts[0, 0] = -1
        with pytest.raises(ValueError, match="non-negative"):
            CoocMatrix(concept_pair=_pair(), window_size=5, counts=counts, n_windows=5)

    def test_counts_read_only(self):
        matrix = count_cooccurrences(_pair(), [_window(["a0", "b0"])])
        with pytest.raises(ValueError):
            matrix.counts[0, 0] = 99
