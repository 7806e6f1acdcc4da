"""Term relevance ranking and concept-pair construction.

Two ranking methods: raw within-topic frequency, and tf-idf with a
smoothed idf, score = tf * (ln((N + 1) / (df + 1)) + 1), where N counts
every document in the collection and df counts the documents containing
the term collection-wide. Both counts are bincounts over term ids. Ties
always break lexicographically so every ranking is a total order. The
top-k terms form one concept, the next k the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .corpus import CorpusError, TopicCorpus, Vocabulary

__all__ = [
    "CONCEPT_SIZE",
    "RankedTerms",
    "ConceptPair",
    "document_frequencies",
    "rank_by_frequency",
    "rank_by_tfidf",
    "build_concept_pair",
]

CONCEPT_SIZE = 10
_COUNT_RUN = 1 << 16  # tokens at which a run of documents is bincounted


@dataclass(frozen=True)
class RankedTerms:
    """Full relevance ranking of a topic (callers truncate as needed)."""

    topic_id: str
    method: str  # "frequency" | "tfidf"
    terms: tuple[tuple[str, float], ...]  # (term, score), scores non-increasing

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple((t, s) for t, s in self.terms))
        scores = [s for _, s in self.terms]
        if any(a < b for a, b in zip(scores, scores[1:])):
            raise ValueError("ranking scores must be non-increasing")


@dataclass(frozen=True)
class ConceptPair:
    """Two disjoint term sets: ranks 1..k and ranks k+1..2k of one ranking."""

    c1: tuple[str, ...]
    c2: tuple[str, ...]
    method: str
    topic_id: str

    def __post_init__(self):
        object.__setattr__(self, "c1", tuple(self.c1))
        object.__setattr__(self, "c2", tuple(self.c2))
        if len(self.c1) != len(self.c2):
            raise ValueError("concept term lists must have equal size")
        combined = self.c1 + self.c2
        if len(set(combined)) != len(combined):
            raise ValueError("concept terms must be distinct and disjoint")


def _shared_vocabulary(topics: Sequence[TopicCorpus]) -> Vocabulary:
    vocabulary = topics[0].vocabulary
    if any(t.vocabulary is not vocabulary for t in topics):
        raise ValueError("topics must share one vocabulary (load them together)")
    return vocabulary


def document_frequencies(collection: Iterable[TopicCorpus]) -> np.ndarray:
    """Number of documents, collection-wide, containing each term, by term id.

    Computed once per run and shared read-only by every tf-idf ranking.
    """
    collection = list(collection)
    if not collection:
        raise ValueError("collection must not be empty")
    vocabulary = _shared_vocabulary(collection)
    distinct = []
    for topic in collection:
        for doc in topic.documents:
            ids = np.sort(doc.ids)
            distinct.append(ids[np.diff(ids, prepend=-1) != 0])
    return np.bincount(np.concatenate(distinct), minlength=len(vocabulary))


def _term_counts(topic: TopicCorpus) -> tuple[np.ndarray, list[str], list[int]]:
    """Ids of the topic's distinct terms, the terms, and their counts (Python ints).

    The counts are summed over bincounts of runs of whole documents. A run
    closes once it holds max(_COUNT_RUN, vocabulary size) tokens, so its
    temporaries (the joined int32 ids and bincount's intp copy of them) stay
    near that size plus one document, and the runs' vocabulary-long sums cost
    no more than the tokens.
    """
    n_terms = len(topic.vocabulary)
    limit = max(_COUNT_RUN, n_terms)
    tf = np.zeros(n_terms, dtype=np.intp)
    last = len(topic.documents) - 1
    run, size = [], 0
    for i, doc in enumerate(topic.documents):
        run.append(doc.ids)
        size += len(doc.ids)
        if size >= limit or i == last:
            tf += np.bincount(np.concatenate(run), minlength=n_terms)
            run, size = [], 0
    present = np.flatnonzero(tf)
    terms = topic.vocabulary.terms
    return present, [terms[i] for i in present.tolist()], tf[present].tolist()


def rank_by_frequency(topic: TopicCorpus) -> RankedTerms:
    """Rank a topic's terms by occurrence count, ties lexicographic."""
    _, terms, tfs = _term_counts(topic)
    ordered = sorted(zip(terms, tfs), key=lambda kv: (-kv[1], kv[0]))
    return RankedTerms(
        topic_id=topic.topic_id,
        method="frequency",
        terms=tuple((term, float(tf)) for term, tf in ordered),
    )


def rank_by_tfidf(
    topic: TopicCorpus,
    collection: Iterable[TopicCorpus],
    df: np.ndarray | None = None,
) -> RankedTerms:
    """Rank a topic's terms by tf * (ln((N+1)/(df+1)) + 1).

    ``df`` may be passed precomputed (see document_frequencies); otherwise
    it is derived from ``collection``. N is the total document count of the
    collection. The topic and the collection must share one vocabulary.
    """
    collection = list(collection)
    if not collection:
        raise ValueError("collection must not be empty")
    vocabulary = _shared_vocabulary([topic, *collection])
    if df is None:
        df = document_frequencies(collection)
    elif len(df) != len(vocabulary):
        raise ValueError("df does not match the vocabulary of the collection")
    n_docs = sum(len(t.documents) for t in collection)

    present, terms, tfs = _term_counts(topic)
    scored = [
        (term, tf * (math.log((n_docs + 1) / (n + 1)) + 1.0))
        for term, tf, n in zip(terms, tfs, df[present].tolist())
    ]
    scored.sort(key=lambda kv: (-kv[1], kv[0]))
    return RankedTerms(topic_id=topic.topic_id, method="tfidf", terms=tuple(scored))


def build_concept_pair(ranked: RankedTerms, k: int = CONCEPT_SIZE) -> ConceptPair:
    """Split ranks 1..k and k+1..2k into the two concept term lists."""
    if k < 1:
        raise ValueError(f"concept size must be >= 1, got {k}")
    if len(ranked.terms) < 2 * k:
        raise CorpusError(
            f"topic {ranked.topic_id!r}: insufficient ranked terms "
            f"({len(ranked.terms)}, need at least {2 * k})"
        )
    terms = [t for t, _ in ranked.terms]
    return ConceptPair(
        c1=tuple(terms[:k]),
        c2=tuple(terms[k : 2 * k]),
        method=ranked.method,
        topic_id=ranked.topic_id,
    )
