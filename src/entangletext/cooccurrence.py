"""Windowed co-occurrence counting between two concept term sets.

A window contributes at most 1 to each (c1 term, c2 term) cell: the count
is the number of windows in which both terms appear at least once,
regardless of multiplicity. Counts over a partition of the windows (for
example, over disjoint sets of documents) therefore merge by plain
integer addition.

``count_cooccurrences`` uses that to keep its memory fixed as the topic
grows. It walks the positions in window order, in blocks that each hold
the whole of at most ``_BLOCK_WINDOWS`` consecutive window numbers and
at most ``_BLOCK_POSITIONS`` positions, but always one window at least.
In a block it looks up the concept slot of every position, keeps only the
hits (the positions whose term is in the concept pair), marks their
(window, slot) presence in a 0/1 float32 matrix with one row per window
of the block, and adds the product of the matrix's ``c1`` and ``c2``
halves to the int64 counts. Each entry of a block's product sums at
most ``_BLOCK_WINDOWS`` products of 0 and 1, so while that constant
stays below 2**24 every partial sum is an integer float32 holds
exactly. The temporaries are bounded by the block, not by the number
of windows or their width.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .corpus import TopicWindows
from .relevance import ConceptPair

__all__ = ["CoocMatrix", "count_cooccurrences", "cooccurrence_histogram"]

# window numbers per counting block; below 2**24 so float32 counts are exact
_BLOCK_WINDOWS = 2048
# positions per counting block, unless one window holds more; 2,048 windows
# of width 64 fill it, so only wider windows make smaller blocks
_BLOCK_POSITIONS = 1 << 17
# positions per slice when checking that window numbers never decrease
_CHECK_SLICE = 1 << 16
_INTP_MAX = int(np.iinfo(np.intp).max)


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

    One lookup array, of the smallest signed integer type that holds -1
    and 2k, sends each term id to its concept slot (c1 terms first, then
    c2 terms, -1 elsewhere); marking (window, slot) presence ignores
    multiplicity. Blocks take consecutive window numbers, so window
    numbers that ever decrease along the positions are sorted first.
    Zero windows yield the zero matrix, and concept terms absent from
    the vocabulary count zero.
    """
    n1, n_slots = len(pair.c1), len(pair.c1) + len(pair.c2)
    index = windows.vocabulary.index
    slot_of = np.full(len(windows.vocabulary), -1, dtype=np.min_scalar_type(-1 - n_slots))
    for slot, term in enumerate(pair.c1 + pair.c2):
        term_id = index.get(term)
        if term_id is not None:
            slot_of[term_id] = slot
    ids, window_of = windows.ids, windows.window_of
    if not _ascending(window_of):
        order = np.argsort(window_of, kind="stable")
        ids, window_of = ids[order], window_of[order]

    counts = np.zeros((n1, n_slots - n1), dtype=np.int64)
    last = _BLOCK_WINDOWS - 1
    start = 0
    while start < len(window_of):
        first = int(window_of[start])
        # every position of windows first .. first + last, capped so the
        # edge stays an intp
        stop = int(np.searchsorted(window_of, min(first + last, _INTP_MAX), side="right"))
        if stop - start > _BLOCK_POSITIONS:
            # the windows before the one holding position start + _BLOCK_POSITIONS,
            # or else window first alone
            edge = int(window_of[start + _BLOCK_POSITIONS])
            stop = int(np.searchsorted(window_of, edge, side="left" if edge > first else "right"))
        slots = slot_of.take(ids[start:stop])
        hits = np.flatnonzero(slots >= 0)
        if hits.size:
            # flat (window row, slot) index of each hit in the block's matrix
            cells = window_of[start:stop].take(hits)
            cells -= first
            cells *= n_slots
            cells += slots.take(hits)
            present = np.zeros((int(cells[-1]) // n_slots + 1, n_slots), dtype=np.float32)
            present.ravel()[cells] = 1.0
            counts += (present[:, :n1].T @ present[:, n1:]).astype(np.int64)
        start = stop
    return CoocMatrix(
        concept_pair=pair,
        window_size=windows.window_size,
        counts=counts,
        n_windows=windows.n_windows,
    )


def _ascending(values: np.ndarray) -> bool:
    """True when values never decrease, checked one bounded slice at a time."""
    for start in range(0, len(values) - 1, _CHECK_SLICE):
        part = values[start : start + _CHECK_SLICE + 1]
        if (part[1:] < part[:-1]).any():
            return False
    return True


def cooccurrence_histogram(matrix: CoocMatrix) -> dict[int, int]:
    """Tally the matrix entries: {value: count}, one key per distinct value, ascending."""
    return dict(sorted(Counter(matrix.counts.ravel().tolist()).items()))
