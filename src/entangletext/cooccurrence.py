"""Windowed co-occurrence counting between two concept term sets.

A window contributes at most 1 to each (c1 term, c2 term) cell: the count
is the number of windows in which both terms appear at least once,
regardless of multiplicity. Counts over a partition of the window list
therefore merge by plain integer addition.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import Window
from .relevance import ConceptPair

__all__ = [
    "CoocMatrix",
    "Histogram",
    "count_cooccurrences",
    "cooccurrence_histogram",
    "matrix_to_csv",
]


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


@dataclass(frozen=True)
class Histogram:
    """Tally of matrix entries by co-occurrence value."""

    window_size: int
    topic_id: str
    bins: dict

    def __post_init__(self):
        object.__setattr__(self, "bins", dict(self.bins))


def count_cooccurrences(
    pair: ConceptPair,
    windows: Sequence[Window],
    window_size: int | None = None,
) -> CoocMatrix:
    """Count, per term pair, the windows where both terms occur.

    All windows must come from the same topic and window size; an empty
    window list yields the zero matrix. ``window_size`` is recorded on the
    result; when omitted it falls back to the longest window seen (the
    trailing window of a document may be shorter than the configured size).
    """
    n1, n2 = len(pair.c1), len(pair.c2)
    row_of = {term: i for i, term in enumerate(pair.c1)}
    col_of = {term: j for j, term in enumerate(pair.c2)}

    if window_size is None:
        window_size = max((len(w.terms) for w in windows), default=0)
    n_windows = len(windows)
    present_rows = np.zeros((n_windows, n1), dtype=np.int64)
    present_cols = np.zeros((n_windows, n2), dtype=np.int64)
    for w_idx, window in enumerate(windows):
        for term in set(window.terms):
            i = row_of.get(term)
            if i is not None:
                present_rows[w_idx, i] = 1
            j = col_of.get(term)
            if j is not None:
                present_cols[w_idx, j] = 1

    counts = present_rows.T @ present_cols
    return CoocMatrix(
        concept_pair=pair, window_size=window_size, counts=counts, n_windows=n_windows
    )


def cooccurrence_histogram(matrix: CoocMatrix) -> Histogram:
    """Tally the matrix entries: one bin per distinct value, ascending."""
    return Histogram(
        window_size=matrix.window_size,
        topic_id=matrix.concept_pair.topic_id,
        bins=dict(sorted(Counter(matrix.counts.ravel().tolist()).items())),
    )


def matrix_to_csv(matrix: CoocMatrix, path: str | Path) -> None:
    """Write the matrix with c2 terms as header row and c1 terms as row labels."""
    pair = matrix.concept_pair
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["", *pair.c2])
        for i, term in enumerate(pair.c1):
            writer.writerow([term, *matrix.counts[i].tolist()])
