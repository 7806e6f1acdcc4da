"""Windowed co-occurrence counting between two concept term sets.

A window contributes at most 1 to each (c1 term, c2 term) cell: the count
is the number of windows in which both terms appear at least once,
regardless of multiplicity. Counts over a partition of the windows (for
example, over disjoint sets of documents) therefore merge by plain
integer addition.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .corpus import TopicWindows
from .relevance import ConceptPair

__all__ = ["CoocMatrix", "count_cooccurrences", "cooccurrence_histogram"]


@dataclass(frozen=True)
class CoocMatrix:
    """Window-indicator counts, entry (i, j) for (c1[i], c2[j])."""

    concept_pair: ConceptPair
    window_size: int
    counts: np.ndarray  # (len(c1), len(c2)) non-negative integers
    n_windows: int

    def __post_init__(self):
        counts = np.ascontiguousarray(np.asarray(self.counts, dtype=np.int64))
        expected = (len(self.concept_pair.c1), len(self.concept_pair.c2))
        if counts.shape != expected:
            raise ValueError(f"counts shape {counts.shape} != concept shape {expected}")
        if counts.min(initial=0) < 0:
            raise ValueError("co-occurrence counts must be non-negative")
        if self.n_windows < 0:
            raise ValueError("n_windows must be non-negative")
        if counts.size and counts.max(initial=0) > self.n_windows:
            raise ValueError("a count exceeds the number of windows scanned")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)


def count_cooccurrences(pair: ConceptPair, windows: TopicWindows) -> CoocMatrix:
    """Count, per term pair, the windows where both terms occur.

    One lookup array sends each term id to its concept slot (c1 terms
    first, then c2 terms, -1 elsewhere); marking (window, slot) presence
    ignores multiplicity. Zero windows yield the zero matrix, and concept
    terms absent from the vocabulary count zero.
    """
    n1 = len(pair.c1)
    index = windows.vocabulary.index
    slot_of = np.full(len(windows.vocabulary), -1, dtype=np.intp)
    for slot, term in enumerate(pair.c1 + pair.c2):
        term_id = index.get(term)
        if term_id is not None:
            slot_of[term_id] = slot
    slots = slot_of[windows.ids]
    hit = slots >= 0
    present = np.zeros((windows.n_windows, n1 + len(pair.c2)))
    present[windows.window_of[hit], slots[hit]] = 1.0

    # 0/1 float products summed by BLAS: every partial sum is an integer
    # below 2**53, so the counts are exact
    counts = (present[:, :n1].T @ present[:, n1:]).astype(np.int64)
    return CoocMatrix(
        concept_pair=pair,
        window_size=windows.window_size,
        counts=counts,
        n_windows=windows.n_windows,
    )


def cooccurrence_histogram(matrix: CoocMatrix) -> dict[int, int]:
    """Tally the matrix entries: {value: count}, one key per distinct value, ascending."""
    return dict(sorted(Counter(matrix.counts.ravel().tolist()).items()))
