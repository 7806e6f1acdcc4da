"""Windowed co-occurrence counting between two concept term sets.

A window contributes at most 1 to each (c1 term, c2 term) cell: the count
is the number of windows in which both terms appear at least once,
regardless of multiplicity. Counts over a partition of the windows (for
example, over disjoint sets of documents) therefore merge by plain
integer addition.

``count_cooccurrences`` uses that to keep its memory fixed as the topic
grows. It reads the topic's documents in order, in blocks that each hold
whole windows: runs of whole documents, with a document longer than the
room left cut at a window edge. A block holds at most ``_BLOCK_WINDOWS``
windows and at most ``_BLOCK_POSITIONS`` positions, but always one
window at least. In a block it looks up the concept slot of every
position, keeps only the hits (the positions whose term is in the concept
pair), marks their (window, slot) presence in a 0/1 float32 matrix with
one row per window of the block (position i of a document lies in its
window i // W, so the rows follow from the document lengths), and adds
the product of the matrix's ``c1`` and ``c2`` halves to the int64 counts.
Each entry of a block's product sums at most ``_BLOCK_WINDOWS`` products
of 0 and 1, so while that constant stays below 2**24 every partial sum is
an integer float32 holds exactly. A block's temporaries are bounded by the
block, not by the number of windows or their width, and are released
before the next block is read.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .corpus import TopicWindows
from .relevance import ConceptPair

__all__ = ["CoocMatrix", "count_cooccurrences", "cooccurrence_histogram"]

# windows per counting block; below 2**24 so float32 counts are exact
_BLOCK_WINDOWS = 2048
# positions per counting block, unless one window holds more; 2,048 windows
# of width 64 fill it, so only wider windows make smaller blocks
_BLOCK_POSITIONS = 1 << 17


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
    multiplicity. Zero windows yield the zero matrix, and concept terms
    absent from the vocabulary count zero.
    """
    n1, n_slots = len(pair.c1), len(pair.c1) + len(pair.c2)
    vocabulary = windows.topic.vocabulary
    slot_of = np.full(len(vocabulary), -1, dtype=np.min_scalar_type(-1 - n_slots))
    for slot, term in enumerate(pair.c1 + pair.c2):
        term_id = vocabulary.index.get(term)
        if term_id is not None:
            slot_of[term_id] = slot
    counts = np.zeros((n1, n_slots - n1), dtype=np.int64)
    for block in _blocks(windows.topic.documents, windows.window_size):
        counts += _block_counts(block, windows.window_size, slot_of, n1, n_slots)
    return CoocMatrix(
        concept_pair=pair,
        window_size=windows.window_size,
        counts=counts,
        n_windows=windows.n_windows,
    )


def _blocks(documents, width: int):
    """Each counting block, as the id slices of its documents in order.

    A slice ends at its document's end or at a window edge, so it holds
    whole windows, all full but perhaps the last.
    """
    block, n_windows, n_positions = [], 0, 0
    for document in documents:
        ids = document.ids
        while len(ids):
            # the rest of the document, or the whole windows the block has room for
            cut = min(len(ids), (_BLOCK_WINDOWS - n_windows) * width)
            if n_positions + cut > _BLOCK_POSITIONS:
                cut = (_BLOCK_POSITIONS - n_positions) // width * width
            if cut < 1:
                if block:
                    yield block
                    block, n_windows, n_positions = [], 0, 0
                    continue
                cut = min(len(ids), width)  # one window at least
            block.append(ids[:cut])
            ids = ids[cut:]
            n_windows += -(-cut // width)
            n_positions += cut
    if block:
        yield block


def _block_counts(block, width: int, slot_of: np.ndarray, n1: int, n_slots: int):
    """One block's counts (0 when it holds no hit); its temporaries end
    with the call."""
    slots = np.concatenate([slot_of.take(ids) for ids in block])
    hits = np.flatnonzero(slots >= 0)
    if not hits.size:
        return 0
    # positions per window of the block: the width, but the remainder for
    # the last window of a slice
    lengths = np.array([len(ids) for ids in block])
    per_slice = -(-lengths // width)
    last = np.cumsum(per_slice) - 1
    span = np.full(last[-1] + 1, width, dtype=np.intp)
    span[last] = lengths - (per_slice - 1) * width
    # flat (window row, slot) index of each hit in the block's matrix
    rows = np.arange(len(span), dtype=np.min_scalar_type(-len(span) * n_slots))
    cells = np.repeat(rows, span).take(hits)
    cells *= n_slots
    cells += slots.take(hits)
    present = np.zeros((len(span), n_slots), dtype=np.float32)
    present.ravel()[cells] = 1.0
    return (present[:, :n1].T @ present[:, n1:]).astype(np.int64)


def cooccurrence_histogram(matrix: CoocMatrix) -> dict[int, int]:
    """Tally the matrix entries: {value: count}, one key per distinct value, ascending."""
    return dict(sorted(Counter(matrix.counts.ravel().tolist()).items()))
