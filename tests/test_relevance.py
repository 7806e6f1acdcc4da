"""Ranking arithmetic, tie rules, and concept-pair construction."""

import math
import tracemalloc
from unittest import mock

import pytest

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from entangletext import relevance
from entangletext import (
    ConceptPair,
    CorpusError,
    RankedTerms,
    TermSequence,
    TopicCorpus,
    Vocabulary,
    build_concept_pair,
    document_frequencies,
    rank_by_frequency,
    rank_by_tfidf,
)

from oracles import frequency_ranking_reference, tfidf_ranking_reference


def _topic(topic_id, docs, vocabulary=None):
    # topics ranked against one collection must share one vocabulary
    vocabulary = Vocabulary() if vocabulary is None else vocabulary
    return TopicCorpus(
        topic_id=topic_id,
        documents=tuple(
            TermSequence(f"{topic_id}-{i}", vocabulary.encode(terms), vocabulary)
            for i, terms in enumerate(docs)
        ),
    )


def _wide_topic(topic_id, extra_docs=(), seed_terms=26, vocabulary=None):
    # 26 distinct single-letter terms with strictly decreasing counts
    letters = [chr(ord("a") + i) for i in range(seed_terms)]
    doc = []
    for rank, term in enumerate(letters):
        doc.extend([term] * (seed_terms - rank))
    return _topic(topic_id, [doc, *extra_docs], vocabulary)


class TestFrequencyRanking:
    def test_direct_counting(self):
        topic = _wide_topic("t")
        ranked = rank_by_frequency(topic)
        assert ranked.method == "frequency"
        assert ranked.terms[0] == ("a", 26.0)
        assert ranked.terms[1] == ("b", 25.0)
        assert len(ranked.terms) == 26

    def test_small_example_counts(self):
        # "a a a b b c" plus vocabulary padding on a second document
        padding = [chr(ord("d") + i) for i in range(20)]
        topic = _topic("t", [["a", "a", "a", "b", "b", "c"], padding])
        ranked = rank_by_frequency(topic)
        top = [t for t in ranked.terms if t[0] in "abc"]
        assert top == [("a", 3.0), ("b", 2.0), ("c", 1.0)]

    def test_tie_breaks_lexicographic(self):
        padding = [chr(ord("f") + i) for i in range(20)]
        topic = _topic("t", [["e", "e", "d", "d", "z", "z"], padding])
        ranked = rank_by_frequency(topic)
        assert [t for t, _ in ranked.terms[:3]] == ["d", "e", "z"]

    def test_matches_reference(self, bundled_by_id):
        for topic in bundled_by_id.values():
            ranked = rank_by_frequency(topic)
            reference = frequency_ranking_reference([d.terms for d in topic.documents])
            assert [(t, float(c)) for t, c in reference] == list(ranked.terms)

    def test_insufficient_vocabulary(self):
        # ranking a tiny topic is fine; its concept pair needs 2k ranked terms
        topic = _topic("tiny", [["a", "b", "c"]])
        ranked = rank_by_frequency(topic)
        assert len(ranked.terms) == 3
        with pytest.raises(CorpusError, match="insufficient ranked terms"):
            build_concept_pair(ranked)

    def test_rank_stability_under_duplication(self, bundled_by_id):
        for topic in bundled_by_id.values():
            ranked = rank_by_frequency(topic)
            tripled = TopicCorpus(
                topic_id=topic.topic_id,
                documents=tuple(
                    TermSequence(d.doc_id, np.tile(d.ids, 3), d.vocabulary)
                    for d in topic.documents
                ),
            )
            ranked3 = rank_by_frequency(tripled)
            assert [t for t, _ in ranked.terms] == [t for t, _ in ranked3.terms]


class TestTfidfRanking:
    def test_single_document_collection_scores_reduce_to_tf(self):
        topic = _wide_topic("t")
        ranked = rank_by_tfidf(topic, [topic])
        # every term occurs in the only document: score = tf * (ln(2/2) + 1)
        by_term = dict(ranked.terms)
        assert by_term["a"] == pytest.approx(26.0)
        assert by_term["z"] == pytest.approx(1.0)

    def test_stated_formula_value(self):
        # tf=4, N=9, df=1 -> 4 * (ln(5) + 1)
        score = 4 * (math.log((9 + 1) / (1 + 1)) + 1.0)
        assert score == pytest.approx(10.43775164973641)

        vocabulary = Vocabulary()
        main = _wide_topic("main", extra_docs=[("rareword",) * 4], vocabulary=vocabulary)
        others = [
            _topic(f"o{i}", [[f"filler{i}{j}" for j in range(30)]], vocabulary)
            for i in range(7)
        ]
        # collection: 2 docs in main + 7 elsewhere = 9; rareword df=1, tf=4
        ranked = rank_by_tfidf(main, [main, *others])
        assert dict(ranked.terms)["rareword"] == pytest.approx(score, abs=1e-12)

    def test_matches_reference(self, bundled_topics, bundled_by_id):
        all_docs = [d.terms for t in bundled_topics for d in t.documents]
        df = document_frequencies(bundled_topics)
        for topic in bundled_by_id.values():
            ranked = rank_by_tfidf(topic, bundled_topics, df=df)
            reference = tfidf_ranking_reference(
                [d.terms for d in topic.documents], all_docs
            )
            assert [t for t, _ in reference] == [t for t, _ in ranked.terms]
            for (_, a), (_, b) in zip(reference, ranked.terms):
                assert a == b  # identical float arithmetic

    def test_empty_collection_rejected(self):
        topic = _wide_topic("t")
        with pytest.raises(ValueError, match="collection"):
            rank_by_tfidf(topic, [])

    def test_separate_vocabularies_rejected(self):
        # term ids of different loads do not name the same terms
        topic, other = _wide_topic("t"), _wide_topic("u")
        with pytest.raises(ValueError, match="one vocabulary"):
            rank_by_tfidf(topic, [topic, other])
        with pytest.raises(ValueError, match="one vocabulary"):
            document_frequencies([topic, other])
        with pytest.raises(ValueError, match="df does not match"):
            rank_by_tfidf(topic, [topic], df=np.ones(3, dtype=np.int64))


class TestTermStatistics:
    def test_counts_and_document_frequencies(self):
        topic = _topic("t", [["a", "a", "b"], ["a", "c"]])
        tf = dict(rank_by_frequency(topic).terms)
        df = document_frequencies([topic])
        index = topic.vocabulary.index
        assert tf["a"] == 3.0 and df[index["a"]] == 2
        assert tf["b"] == 1.0 and df[index["b"]] == 1

    def test_collection_wide_df(self, bundled_topics):
        topic = bundled_topics[0]
        df = document_frequencies(bundled_topics)
        # shared vocabulary occurs in documents of other topics too
        assert df[topic.vocabulary.index["report"]] > len(topic.documents)


class TestTermCountRuns:
    @settings(max_examples=60, deadline=None)
    @given(
        docs=st.lists(st.lists(st.integers(0, 11), max_size=9), min_size=1, max_size=8),
        run=st.sampled_from([1, 2, 7, 1 << 16]),
    )
    def test_counts_match_reference_at_any_run_size(self, docs, run):
        # runs close inside, at and after the last document, around empty ones
        terms = [[f"t{i}" for i in doc] for doc in docs]
        topic = _topic("t", terms)
        reference = frequency_ranking_reference(terms)
        with mock.patch.object(relevance, "_COUNT_RUN", run):
            ranked = rank_by_frequency(topic)
        assert list(ranked.terms) == [(t, float(c)) for t, c in reference]

    def test_a_run_holds_at_least_a_vocabulary_of_tokens(self):
        # 200 documents of 10 tokens over 500 terms: 4 bincounts of 500
        # tokens each, not one vocabulary-long bincount per document
        topic = TestRankingMemory._topic(2_000)
        with mock.patch.object(relevance, "_COUNT_RUN", 1), mock.patch.object(
            relevance.np, "bincount", wraps=np.bincount
        ) as bincount:
            rank_by_frequency(topic)
        assert [len(call.args[0]) for call in bincount.call_args_list] == [500] * 4


class TestRankingMemory:
    # traced bytes a ranking may allocate above its topic: runs of about
    # _COUNT_RUN tokens keep the joined ids and their intp copy near 0.8 MB,
    # while one bincount over the topic's ids took 1.2 MB at N and 9.6 MB at 8N
    BOUND = 1_000_000

    @staticmethod
    def _topic(n_tokens):
        """n_tokens over 500 terms in 200 documents."""
        rng = np.random.default_rng(n_tokens)
        vocabulary = Vocabulary()
        vocabulary.encode([f"t{i}" for i in range(500)])
        ids = rng.integers(0, 500, n_tokens)
        return TopicCorpus("t", tuple(
            TermSequence(f"d{i}", part, vocabulary)
            for i, part in enumerate(np.array_split(ids, 200))
        ))

    @pytest.mark.parametrize("method", ["frequency", "tfidf"])
    @pytest.mark.parametrize("n_tokens", [100_000, 800_000])
    def test_peak_does_not_grow_with_tokens(self, n_tokens, method):
        topic = self._topic(n_tokens)
        df = document_frequencies([topic])
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            if method == "frequency":
                ranked = rank_by_frequency(topic)
            else:
                ranked = rank_by_tfidf(topic, [topic], df=df)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(ranked.terms) == 500
        assert peak < self.BOUND


class TestConceptPair:
    def test_top_and_next_ten(self):
        ranking = RankedTerms(
            topic_id="t",
            method="frequency",
            terms=tuple((f"t{i:02d}", float(30 - i)) for i in range(30)),
        )
        pair = build_concept_pair(ranking)
        assert pair.c1 == tuple(f"t{i:02d}" for i in range(10))
        assert pair.c2 == tuple(f"t{i:02d}" for i in range(10, 20))

    def test_exactly_twenty_terms_ok_nineteen_fails(self):
        terms20 = tuple((f"t{i:02d}", float(20 - i)) for i in range(20))
        build_concept_pair(RankedTerms(topic_id="t", method="frequency", terms=terms20))
        with pytest.raises(CorpusError, match="insufficient"):
            build_concept_pair(
                RankedTerms(topic_id="t", method="frequency", terms=terms20[:19])
            )

    def test_small_k(self):
        ranking = RankedTerms(
            topic_id="t",
            method="frequency",
            terms=(("w", 4.0), ("x", 3.0), ("y", 2.0), ("z", 1.0)),
        )
        pair = build_concept_pair(ranking, k=2)
        assert pair.c1 == ("w", "x")
        assert pair.c2 == ("y", "z")

    def test_disjointness_enforced(self):
        with pytest.raises(ValueError, match="distinct"):
            ConceptPair(c1=("a", "b"), c2=("b", "c"), method="frequency", topic_id="t")

    def test_disjoint_on_bundled_corpus(self, bundled_topics):
        df = document_frequencies(bundled_topics)
        for topic in bundled_topics:
            for ranked in (
                rank_by_frequency(topic),
                rank_by_tfidf(topic, bundled_topics, df=df),
            ):
                pair = build_concept_pair(ranked)
                assert not set(pair.c1) & set(pair.c2)
                assert len(pair.c1) == len(pair.c2) == 10

    def test_frozen_concepts_match_oracle(self, bundled_topics, planted_expected):
        df = document_frequencies(bundled_topics)
        for topic in bundled_topics:
            exp = planted_expected["topics"][topic.topic_id]["methods"]
            freq = build_concept_pair(rank_by_frequency(topic))
            tfidf = build_concept_pair(rank_by_tfidf(topic, bundled_topics, df=df))
            assert list(freq.c1) == exp["frequency"]["c1"]
            assert list(freq.c2) == exp["frequency"]["c2"]
            assert list(tfidf.c1) == exp["tfidf"]["c1"]
            assert list(tfidf.c2) == exp["tfidf"]["c2"]

    def test_scores_non_increasing_enforced(self):
        with pytest.raises(ValueError, match="non-increasing"):
            RankedTerms(topic_id="t", method="frequency", terms=(("a", 1.0), ("b", 2.0)))
