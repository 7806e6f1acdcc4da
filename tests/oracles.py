"""Independent reference implementations used only as test oracles.

Everything here is deliberately written from scratch in a different style
from the package: exact Fraction / integer arithmetic instead of floats,
plain loops instead of vectorized tables, pattern strings instead of
positional scanning. Oracles must stay import-free of the modules they
check.
"""

from __future__ import annotations

import re
from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import log

# ----------------------------------------------------------------------
# Porter (1980) reference stemmer, consonant/vowel pattern-string style
# ----------------------------------------------------------------------


def _pattern(word: str) -> str:
    """Classify every letter as 'c' or 'v' (y depends on its predecessor)."""
    flags = []
    for i, ch in enumerate(word):
        if ch in "aeiou":
            flags.append("v")
        elif ch == "y":
            flags.append("v" if (i > 0 and flags[i - 1] == "c") else "c")
        else:
            flags.append("c")
    return "".join(flags)


def _m(stem: str) -> int:
    return _pattern(stem).count("vc")


def _contains_vowel(stem: str) -> bool:
    return "v" in _pattern(stem)


def _double_consonant(stem: str) -> bool:
    p = _pattern(stem)
    return len(stem) >= 2 and stem[-1] == stem[-2] and p[-2:] == "cc"


def _cvc_not_wxy(stem: str) -> bool:
    return (
        len(stem) >= 3
        and _pattern(stem).endswith("cvc")
        and stem[-1] not in "wxy"
    )


def porter_reference(word: str) -> str:
    w = word.lower()

    # step 1a
    for suffix, repl in (("sses", "ss"), ("ies", "i"), ("ss", "ss"), ("s", "")):
        if w.endswith(suffix):
            w = w[: len(w) - len(suffix)] + repl
            break

    # step 1b
    if w.endswith("eed"):
        if _m(w[:-3]) > 0:
            w = w[:-1]
    else:
        stripped = None
        if w.endswith("ed") and _contains_vowel(w[:-2]):
            stripped = w[:-2]
        elif w.endswith("ing") and _contains_vowel(w[:-3]):
            stripped = w[:-3]
        if stripped is not None:
            if stripped.endswith(("at", "bl", "iz")):
                w = stripped + "e"
            elif _double_consonant(stripped) and stripped[-1] not in "lsz":
                w = stripped[:-1]
            elif _m(stripped) == 1 and _cvc_not_wxy(stripped):
                w = stripped + "e"
            else:
                w = stripped

    # step 1c
    if w.endswith("y") and _contains_vowel(w[:-1]):
        w = w[:-1] + "i"

    # steps 2 and 3: (m > 0) suffix rewrites, longest suffix decides
    for table in (
        {
            "ational": "ate", "tional": "tion", "enci": "ence", "anci": "ance",
            "izer": "ize", "abli": "able", "alli": "al", "entli": "ent",
            "eli": "e", "ousli": "ous", "ization": "ize", "ation": "ate",
            "ator": "ate", "alism": "al", "iveness": "ive", "fulness": "ful",
            "ousness": "ous", "aliti": "al", "iviti": "ive", "biliti": "ble",
        },
        {
            "icate": "ic", "ative": "", "alize": "al", "iciti": "ic",
            "ical": "ic", "ful": "", "ness": "",
        },
    ):
        match = max(
            (s for s in table if w.endswith(s)), key=len, default=None
        )
        if match is not None and _m(w[: len(w) - len(match)]) > 0:
            w = w[: len(w) - len(match)] + table[match]

    # step 4: (m > 1) deletions, ion needs a stem ending in s or t
    step4 = (
        "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
        "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
    )
    match = max((s for s in step4 if w.endswith(s)), key=len, default=None)
    if match is not None:
        stem = w[: len(w) - len(match)]
        if _m(stem) > 1 and (match != "ion" or stem.endswith(("s", "t"))):
            w = stem

    # step 5a
    if w.endswith("e"):
        stem = w[:-1]
        if _m(stem) > 1 or (_m(stem) == 1 and not _cvc_not_wxy(stem)):
            w = stem

    # step 5b
    if w.endswith("ll") and _m(w[:-1]) > 1:
        w = w[:-1]

    return w


# ----------------------------------------------------------------------
# Normalization pipeline oracle
# ----------------------------------------------------------------------


def normalize_reference(text, stoplist, stemming=True):
    """Alphabetic tokens, lowercased, stop-filtered, then reference-stemmed."""
    out = []
    for token in re.findall(r"[A-Za-z]+", text):
        token = token.lower()
        if token in stoplist:
            continue
        out.append(porter_reference(token) if stemming else token)
    return out


def tile_reference(terms, width):
    """Non-overlapping tiles of `width` terms; trailing partial tile kept."""
    return [list(terms[i : i + width]) for i in range(0, len(terms), width)]


# ----------------------------------------------------------------------
# Ranking oracles
# ----------------------------------------------------------------------


def frequency_ranking_reference(doc_term_lists):
    counts = Counter()
    for terms in doc_term_lists:
        counts.update(terms)
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))


def tfidf_ranking_reference(topic_doc_term_lists, collection_doc_term_lists):
    tf = Counter()
    for terms in topic_doc_term_lists:
        tf.update(terms)
    df = Counter()
    for terms in collection_doc_term_lists:
        df.update(set(terms))
    n_docs = len(collection_doc_term_lists)
    scored = [
        (term, count * (log((n_docs + 1) / (df[term] + 1)) + 1.0))
        for term, count in tf.items()
    ]
    return sorted(scored, key=lambda kv: (-kv[1], kv[0]))


# ----------------------------------------------------------------------
# Co-occurrence counting oracle
# ----------------------------------------------------------------------


def cooccurrence_reference(doc_term_lists, width, c1, c2):
    """Indicator counts per (c1 term, c2 term) over per-document tiles.

    Returns (counts as list of lists, number of windows scanned).
    """
    counts = [[0] * len(c2) for _ in c1]
    n_windows = 0
    for terms in doc_term_lists:
        for tile in tile_reference(terms, width):
            n_windows += 1
            present = set(tile)
            for i, a in enumerate(c1):
                if a not in present:
                    continue
                for j, b in enumerate(c2):
                    if b in present:
                        counts[i][j] += 1
    return counts, n_windows


def histogram_reference(counts):
    tally = Counter()
    for row in counts:
        for value in row:
            tally[value] += 1
    return dict(tally)


# ----------------------------------------------------------------------
# CHSH oracles: every row/column ordering (24 x 24 = 576), exact arithmetic
# ----------------------------------------------------------------------


def expectation_fraction(f11, f12, f21, f22):
    total = f11 + f12 + f21 + f22
    if total == 0:
        return None
    return Fraction(f11 + f22 - f12 - f21, total)


def chsh_fraction(matrix, rows, cols):
    """S for one ordering: rows = (a1, a2, a1', a2'), cols likewise."""
    a1, a2, b1, b2 = rows[0], rows[1], cols[0], cols[1]
    a3, a4, b3, b4 = rows[2], rows[3], cols[2], cols[3]

    def block(r, rr, c, cc):
        return expectation_fraction(
            matrix[r][c], matrix[r][cc], matrix[rr][c], matrix[rr][cc]
        )

    e_ab = block(a1, a2, b1, b2)
    e_apb = block(a3, a4, b1, b2)
    e_abp = block(a1, a2, b3, b4)
    e_apbp = block(a3, a4, b3, b4)
    if None in (e_ab, e_apb, e_abp, e_apbp):
        return None
    return e_ab + e_apb + e_abp - e_apbp


def chsh_all_orderings(matrix):
    """All 576 S values (Fraction or None) in permutation-lexicographic order."""
    return [
        chsh_fraction(matrix, rows, cols)
        for rows in permutations(range(4))
        for cols in permutations(range(4))
    ]


def violates_all_orderings(matrix):
    return any(s is not None and abs(s) > 2 for s in chsh_all_orderings(matrix))


def max_abs_all_orderings(matrix):
    values = [abs(s) for s in chsh_all_orderings(matrix) if s is not None]
    return max(values, default=Fraction(0))


# ----------------------------------------------------------------------
# Float variant of the full-orderings scan, for bulk equivalence checks.
# Expectations are memoized per ordered (row pair, column pair) so that a
# thousand matrices stay inside the acceptance runtime budget; the loop
# structure over 24 x 24 orderings is unchanged.
# ----------------------------------------------------------------------

_ORDERED_PAIRS = [(i, j) for i in range(4) for j in range(4) if i != j]
_PAIR_POS = {pair: idx for idx, pair in enumerate(_ORDERED_PAIRS)}
_ORDERINGS = list(permutations(range(4)))
# per ordering: position of (p0, p1) and (p2, p3) in the pair table
_ORDERING_PAIRS = [
    (_PAIR_POS[(p[0], p[1])], _PAIR_POS[(p[2], p[3])]) for p in _ORDERINGS
]


def chsh_floats_all_orderings(matrix):
    """All 576 S values as floats (None where undefined)."""
    table = []
    for r1, r2 in _ORDERED_PAIRS:
        row = []
        for c1, c2 in _ORDERED_PAIRS:
            f11, f12 = matrix[r1][c1], matrix[r1][c2]
            f21, f22 = matrix[r2][c1], matrix[r2][c2]
            total = f11 + f12 + f21 + f22
            row.append(None if total == 0 else (f11 + f22 - f12 - f21) / total)
        table.append(row)

    out = []
    for u, v in _ORDERING_PAIRS:
        row_u, row_v = table[u], table[v]
        for w, x in _ORDERING_PAIRS:
            e_ab = row_u[w]
            e_apb = row_v[w]
            e_abp = row_u[x]
            e_apbp = row_v[x]
            if e_ab is None or e_apb is None or e_abp is None or e_apbp is None:
                out.append(None)
            else:
                out.append(e_ab + e_apb + e_abp - e_apbp)
    return out


def violates_all_orderings_float(matrix):
    return any(s is not None and (s > 2.0 or s < -2.0) for s in chsh_floats_all_orderings(matrix))
