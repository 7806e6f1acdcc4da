"""Classic Porter (1980) suffix-stripping stemmer.

Five rule steps applied in sequence. Within a step the longest matching
suffix wins, its condition is evaluated on the stem that remains after
removing it, and a failed condition blocks the whole step (no shorter
suffix is retried). No short-word guard: the original algorithm stems
words of every length. Input is expected to be a lowercase alphabetic
token; uppercase input is lowercased first.

Steps 2, 3 and 4 find their longest suffix by length, not by testing
every rule: each rule list is built once into its distinct suffix
lengths, longest first, and a dict from suffix to replacement. The first
length n whose ``word[-n:]`` is a key gives the longest matching suffix.
When the word is no longer than n, ``word[-n:]`` is the whole word, which
matches only if the word itself is a suffix, and then it is the longest.
"""

from __future__ import annotations

import operator

__all__ = ["stem"]

_VOWELS = frozenset("aeiou")


def _consonants(word: str) -> list[bool]:
    """Whether each letter of word is a consonant, in one left-to-right pass.

    y is a vowel exactly when it follows a consonant, so a y at the start
    of the word is a consonant.
    """
    flags = []
    consonant = False
    for ch in word:
        consonant = ch not in _VOWELS and (ch != "y" or not consonant)
        flags.append(consonant)
    return flags


def _measure(stem: str) -> int:
    """Number of vowel-to-consonant transitions: m in [C](VC)^m[V]."""
    flags = _consonants(stem)
    return sum(map(operator.gt, flags[1:], flags))  # consonant after vowel: True > False


def _has_vowel(stem: str) -> bool:
    return not all(_consonants(stem))


def _ends_double_consonant(stem: str) -> bool:
    # a doubled letter other than a vowel or y is two consonants; "yy" never
    # is, since a y after a consonant is a vowel
    return len(stem) >= 2 and stem[-1] == stem[-2] and stem[-1] not in "aeiouy"


def _ends_cvc(stem: str) -> bool:
    # consonant-vowel-consonant where the final consonant is not w, x or y
    return (
        len(stem) >= 3
        and stem[-1] not in "wxy"
        and _consonants(stem)[-3:] == [True, False, True]
    )


def _step1a(word: str) -> str:
    if word.endswith("sses"):
        return word[:-2]
    if word.endswith("ies"):
        return word[:-2]
    if word.endswith("ss"):
        return word
    if word.endswith("s"):
        return word[:-1]
    return word


def _step1b(word: str) -> str:
    if word.endswith("eed"):
        if _measure(word[:-3]) > 0:
            return word[:-1]
        return word
    if word.endswith("ed"):
        stem = word[:-2]
        if _has_vowel(stem):
            return _step1b_adjust(stem)
        return word
    if word.endswith("ing"):
        stem = word[:-3]
        if _has_vowel(stem):
            return _step1b_adjust(stem)
        return word
    return word


def _step1b_adjust(stem: str) -> str:
    """Cleanup after a successful ED/ING removal."""
    if stem.endswith(("at", "bl", "iz")):
        return stem + "e"
    if _ends_double_consonant(stem) and stem[-1] not in "lsz":
        return stem[:-1]
    if _measure(stem) == 1 and _ends_cvc(stem):
        return stem + "e"
    return stem


def _step1c(word: str) -> str:
    if word.endswith("y") and _has_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


_STEP2_RULES = (
    ("ational", "ate"),
    ("tional", "tion"),
    ("enci", "ence"),
    ("anci", "ance"),
    ("izer", "ize"),
    ("abli", "able"),
    ("alli", "al"),
    ("entli", "ent"),
    ("eli", "e"),
    ("ousli", "ous"),
    ("ization", "ize"),
    ("ation", "ate"),
    ("ator", "ate"),
    ("alism", "al"),
    ("iveness", "ive"),
    ("fulness", "ful"),
    ("ousness", "ous"),
    ("aliti", "al"),
    ("iviti", "ive"),
    ("biliti", "ble"),
)

_STEP3_RULES = (
    ("icate", "ic"),
    ("ative", ""),
    ("alize", "al"),
    ("iciti", "ic"),
    ("ical", "ic"),
    ("ful", ""),
    ("ness", ""),
)

_STEP4_SUFFIXES = (
    "al",
    "ance",
    "ence",
    "er",
    "ic",
    "able",
    "ible",
    "ant",
    "ement",
    "ment",
    "ent",
    "ion",
    "ou",
    "ism",
    "ate",
    "iti",
    "ous",
    "ive",
    "ize",
)


def _suffix_table(rules):
    """A rule list as (its distinct suffix lengths, longest first; suffix -> replacement)."""
    replacements = dict(rules)
    return sorted({len(suffix) for suffix in replacements}, reverse=True), replacements


_STEP2 = _suffix_table(_STEP2_RULES)
_STEP3 = _suffix_table(_STEP3_RULES)
_STEP4 = _suffix_table((suffix, "") for suffix in _STEP4_SUFFIXES)


def _apply_rule_list(word, table, min_measure):
    """Rewrite the longest suffix of word in table when m(stem) > min_measure.

    Step 4's "ion" also needs a stem ending in s or t; no other step has
    that suffix.
    """
    lengths, replacements = table
    for n in lengths:
        suffix = word[-n:]
        if suffix in replacements:
            stem = word[: len(word) - len(suffix)]
            if _measure(stem) > min_measure and (suffix != "ion" or stem.endswith(("s", "t"))):
                return stem + replacements[suffix]
            return word
    return word


def _step5a(word: str) -> str:
    if word.endswith("e"):
        stem = word[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            return stem
    return word


def _step5b(word: str) -> str:
    if word.endswith("l") and _ends_double_consonant(word) and _measure(word[:-1]) > 1:
        return word[:-1]
    return word


def stem(word: str) -> str:
    """Stem a single token with the original 1980 rule set."""
    word = word.lower()
    word = _step1a(word)
    word = _step1b(word)
    word = _step1c(word)
    word = _apply_rule_list(word, _STEP2, 0)
    word = _apply_rule_list(word, _STEP3, 0)
    word = _apply_rule_list(word, _STEP4, 1)
    word = _step5a(word)
    word = _step5b(word)
    return word
