"""Stemmer checks against an independently written reference implementation."""

import random
import string

import pytest

from entangletext.porter import stem

from oracles import porter_reference

# full-pipeline outputs, frozen after cross-verification of both
# implementations (package scanner vs. reference pattern-string version)
KNOWN_STEMS = [
    ("caresses", "caress"), ("ponies", "poni"), ("ties", "ti"), ("caress", "caress"),
    ("cats", "cat"), ("feed", "feed"), ("agreed", "agre"), ("plastered", "plaster"),
    ("bled", "bled"), ("motoring", "motor"), ("sing", "sing"), ("conflated", "conflat"),
    ("troubled", "troubl"), ("sized", "size"), ("hopping", "hop"), ("tanned", "tan"),
    ("falling", "fall"), ("hissing", "hiss"), ("fizzed", "fizz"), ("failing", "fail"),
    ("filing", "file"), ("happy", "happi"), ("sky", "sky"), ("relational", "relat"),
    ("conditional", "condit"), ("rational", "ration"), ("valenci", "valenc"), ("hesitanci", "hesit"),
    ("digitizer", "digit"), ("conformabli", "conform"), ("radicalli", "radic"), ("differentli", "differ"),
    ("vileli", "vile"), ("analogousli", "analog"), ("vietnamization", "vietnam"), ("predication", "predic"),
    ("operator", "oper"), ("feudalism", "feudal"), ("decisiveness", "decis"), ("hopefulness", "hope"),
    ("callousness", "callous"), ("formaliti", "formal"), ("sensitiviti", "sensit"), ("sensibiliti", "sensibl"),
    ("triplicate", "triplic"), ("formative", "form"), ("formalize", "formal"), ("electriciti", "electr"),
    ("electrical", "electr"), ("hopeful", "hope"), ("goodness", "good"), ("revival", "reviv"),
    ("allowance", "allow"), ("inference", "infer"), ("airliner", "airlin"), ("gyroscopic", "gyroscop"),
    ("adjustable", "adjust"), ("defensible", "defens"), ("irritant", "irrit"), ("replacement", "replac"),
    ("adjustment", "adjust"), ("dependent", "depend"), ("adoption", "adopt"), ("homologou", "homolog"),
    ("communism", "commun"), ("activate", "activ"), ("angulariti", "angular"), ("homologous", "homolog"),
    ("effective", "effect"), ("bowdlerize", "bowdler"), ("probate", "probat"), ("rate", "rate"),
    ("cease", "ceas"), ("controll", "control"), ("roll", "roll"), ("agreement", "agreement"),
    ("abilities", "abil"), ("generalization", "gener"), ("oscillators", "oscil"), ("dying", "dy"),
    ("flying", "fly"), ("toy", "toi"), ("crying", "cry"), ("singing", "sing"),
    ("growled", "growl"), ("stemming", "stem"), ("stemmed", "stem"),
]


@pytest.mark.parametrize("word,expected", KNOWN_STEMS)
def test_known_stems(word, expected):
    assert stem(word) == expected


def test_spec_fixture_words():
    assert stem("cats") == "cat"
    assert stem("growled") == "growl"


def test_uppercase_input_is_lowercased():
    assert stem("Cats") == "cat"
    assert stem("STORMS") == "storm"


def test_short_words_are_still_stemmed():
    # the original rule set has no short-word guard
    assert stem("as") == "a"
    assert stem("is") == "i"
    assert stem("a") == "a"
    assert stem("") == ""


# the suffixes of the step 2, 3 and 4 rule lists
RULE_SUFFIXES = [
    "ational", "tional", "enci", "anci", "izer", "abli", "alli", "entli", "eli",
    "ousli", "ization", "ation", "ator", "alism", "iveness", "fulness",
    "ousness", "aliti", "iviti", "biliti", "icate", "ative", "alize",
    "iciti", "ical", "ful", "ness", "al", "ance", "ence", "er", "ic",
    "able", "ible", "ant", "ement", "ment", "ent", "ion", "ou", "ism",
    "ate", "iti", "ous", "ive", "ize",
]


def test_agreement_with_reference_on_generated_words():
    rng = random.Random(20240811)
    letters = "abcdefghilmnoprstuvwxyz"
    suffixes = ["", "s", "es", "ies", "sses", "ed", "eed", "ing", "y", *RULE_SUFFIXES, "e", "ll"]
    for _ in range(20000):
        base = "".join(rng.choice(letters) for _ in range(rng.randint(1, 9)))
        word = base + rng.choice(suffixes)
        assert stem(word) == porter_reference(word), word


def test_rule_suffixes_alone_and_behind_short_stems():
    # words equal to a suffix, or one or two letters longer: the suffix
    # lookup then slices past the start of the word
    letters = string.ascii_lowercase
    stems = ["", *letters, *(a + b for a in letters for b in letters)]
    for suffix in RULE_SUFFIXES:
        for base in stems:
            word = base + suffix
            assert stem(word) == porter_reference(word), word


def test_long_y_runs():
    # each y is a vowel or a consonant by the class of the letter before it,
    # so the class of the last y depends on the whole run
    for run in (1, 2, 3, 50, 1200, 1201):
        for before in ("", "a", "b", "ab"):
            for after in ("", "s", "ed", "ing", "ational", "ement", "e", "l"):
                word = before + "y" * run + after
                assert stem(word) == porter_reference(word), (before, run, after)


def test_agreement_with_reference_on_corpus_vocabulary(bundled_topics):
    vocabulary = sorted({t for topic in bundled_topics for doc in topic.documents for t in doc.terms})
    assert len(vocabulary) >= 75
    for term in vocabulary:
        assert stem(term) == porter_reference(term), term


def test_idempotent_on_corpus_stems(bundled_topics):
    # every emitted stem is a fixed point for the bundled vocabulary
    for topic in bundled_topics:
        for term in {t for doc in topic.documents for t in doc.terms}:
            assert stem(term) == term, term
