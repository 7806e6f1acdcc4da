"""Tokenization, window segmentation, and manifest loading."""

import json
import re
import shutil
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entangletext import (
    ConceptPair,
    CorpusError,
    PipelineConfig,
    RawDocument,
    TermSequence,
    TopicCorpus,
    Vocabulary,
    bundled_corpus_path,
    count_cooccurrences,
    default_stoplist,
    load_topic_corpus,
    tokenize_and_normalize,
)
from entangletext import corpus

from oracles import cooccurrence_reference, normalize_reference, porter_reference, tile_reference


def _doc(text):
    return RawDocument(doc_id="d1", topic_id="t1", text=text)


def _one_document_topic(n_terms):
    vocabulary = Vocabulary()
    doc = TermSequence("d", vocabulary.encode(f"w{i}" for i in range(n_terms)), vocabulary)
    return TopicCorpus(topic_id="t", documents=(doc,))


def _distinct_topic(lengths):
    """A topic of documents with the given lengths, no term used twice."""
    vocabulary = Vocabulary()
    docs = tuple(
        TermSequence(f"d{i}", vocabulary.encode(f"{i}-{j}" for j in range(n)), vocabulary)
        for i, n in enumerate(lengths)
    )
    return TopicCorpus(topic_id="t", documents=docs)


def _same_window(topic, width):
    """Which terms the count finds together, over a topic of distinct terms.

    c1 holds the terms at even positions of the concatenated topic and c2
    those at odd ones, so count (a, b) is 1 exactly when the terms at
    positions 2a and 2b + 1 share a window.
    """
    terms = [t for d in topic.documents for t in d.terms]
    k = len(terms) // 2
    pair = ConceptPair(terms[0 : 2 * k : 2], terms[1 : 2 * k : 2], "frequency", topic.topic_id)
    return count_cooccurrences(pair, topic.windows(width)).counts.tolist()


def _by_position(n_terms, width):
    """_same_window of one document when position i lies in window i // width."""
    k = n_terms // 2
    return [[int(2 * a // width == (2 * b + 1) // width) for b in range(k)] for a in range(k)]


def _by_reference(topic, width):
    """_same_window under the oracle's per-document tiles."""
    terms = [t for d in topic.documents for t in d.terms]
    k = len(terms) // 2
    docs = [d.terms for d in topic.documents]
    return cooccurrence_reference(docs, width, terms[0 : 2 * k : 2], terms[1 : 2 * k : 2])[0]


class TestTokenizeAndNormalize:
    def test_stop_filter_then_stem(self):
        config = PipelineConfig(stoplist=frozenset({"the"}))
        seq = tokenize_and_normalize(_doc("The cats growled."), config)
        assert list(seq.terms) == ["cat", "growl"]

    def test_empty_text(self, pipeline_config):
        assert tokenize_and_normalize(_doc(""), pipeline_config).terms == ()

    def test_all_stopwords_after_lowercasing(self):
        config = PipelineConfig(stoplist=frozenset({"the"}))
        assert tokenize_and_normalize(_doc("THE the The"), config).terms == ()

    def test_digits_and_punctuation_are_separators(self):
        config = PipelineConfig(stoplist=frozenset())
        seq = tokenize_and_normalize(_doc("wind42gust, rain–cloud 7!"), config)
        assert list(seq.terms) == ["wind", "gust", "rain", "cloud"]

    def test_stemming_disabled(self):
        config = PipelineConfig(stoplist=frozenset({"the"}), stemming_enabled=False)
        seq = tokenize_and_normalize(_doc("The cats growled"), config)
        assert list(seq.terms) == ["cats", "growled"]

    def test_stoplist_checked_before_stemming(self):
        # "wills" stems to the stopword "will" but survives: filtering sees
        # the unstemmed token
        config = PipelineConfig(stoplist=frozenset({"will"}))
        seq = tokenize_and_normalize(_doc("wills will"), config)
        assert list(seq.terms) == ["will"]

    def test_matches_reference_pipeline(self, pipeline_config):
        text = "Storms surged; the 12 buoys RECORDED gusting winds near the coast!"
        seq = tokenize_and_normalize(_doc(text), pipeline_config)
        assert list(seq.terms) == normalize_reference(text, pipeline_config.stoplist)

    def test_determinism(self, pipeline_config):
        text = "Waves crashing, tides turning; 1987 storms recorded."
        a = tokenize_and_normalize(_doc(text), pipeline_config)
        b = tokenize_and_normalize(_doc(text), pipeline_config)
        assert a == b

    def test_stoplist_must_be_lowercase(self):
        with pytest.raises(ValueError, match="lowercase"):
            PipelineConfig(stoplist=frozenset({"The"}))

    def test_case_variants_share_one_term_id(self):
        config = PipelineConfig(stoplist=frozenset(), stemming_enabled=False)
        seq = tokenize_and_normalize(_doc("Gust GUST gust gUST"), config)
        assert seq.ids.tolist() == [0, 0, 0, 0]
        assert seq.vocabulary.terms == ["gust"]

    @settings(max_examples=300, deadline=None)
    @given(
        text=st.text(
            st.one_of(
                st.characters(exclude_categories=()),  # any code point, lone surrogates too
                st.sampled_from("abyzABYZ@[`{ \t\n0189.-_"),  # ASCII letters and their neighbours
            )
        )
    )
    @example(text="café ßtraße ſtar \u212aelvin \uff21wide")  # non-ASCII letters end a run
    @example(text="wind42gust, rain–cloud 7! x_y")  # digits and punctuation
    @example(text="Storm\ud800wind")  # a lone surrogate
    def test_tokens_are_the_lowercased_ascii_letter_runs(self, text):
        config = PipelineConfig(stoplist=frozenset(), stemming_enabled=False)
        terms = tokenize_and_normalize(_doc(text), config).terms
        assert list(terms) == [t.lower() for t in re.findall(r"[A-Za-z]+", text)]


class TestSegmentWindows:
    def test_tiling_45_terms(self):
        topic = _distinct_topic([45])
        windows = topic.windows(20)
        assert len(windows) == windows.n_windows == 3
        assert windows.window_size == 20
        # window i holds positions 20i .. 20i + 19
        assert _same_window(topic, 20) == _by_position(45, 20)

    def test_exact_fit(self):
        topic = _distinct_topic([20])
        assert len(topic.windows(20)) == 1
        assert _same_window(topic, 20) == [[1] * 10] * 10

    def test_empty_document(self):
        windows = _one_document_topic(0).windows(7)
        assert len(windows) == windows.n_windows == 0

    def test_window_size_zero_rejected(self):
        with pytest.raises(ValueError):
            _one_document_topic(1).windows(0)

    @pytest.mark.parametrize("size", [2.5, 3.0, "3", 2**63, 10**23], ids=repr)
    def test_window_size_not_an_index_rejected(self, size):
        with pytest.raises(ValueError, match="window size"):
            _one_document_topic(10).windows(size)

    def test_numpy_integer_window_size(self):
        topic = _distinct_topic([45])
        windows = topic.windows(np.int32(20))
        assert windows.window_size == 20 and type(windows.window_size) is int
        assert _same_window(topic, np.int32(20)) == _by_position(45, 20)

    @settings(max_examples=100, deadline=None)
    @given(
        n_terms=st.integers(min_value=0, max_value=300),
        width=st.integers(min_value=1, max_value=40),
    )
    def test_tiling_follows_the_position_formula(self, n_terms, width):
        topic = _distinct_topic([n_terms])
        assert len(topic.windows(width)) == len(tile_reference(topic.documents[0].terms, width))
        assert _same_window(topic, width) == _by_position(n_terms, width)

    def test_windows_never_cross_documents(self):
        topic = _distinct_topic([7, 0, 3, 10])
        assert len(topic.windows(4)) == 6
        assert _same_window(topic, 4) == _by_reference(topic, 4)
        # the last term of d0 and the first of d2 would share a topic-wide tile
        assert _same_window(topic, 4)[3][3] == 0

    @settings(max_examples=100, deadline=None)
    @given(
        lengths=st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=8),
        width=st.one_of(st.integers(min_value=1, max_value=50), st.just(2**62)),
    )
    def test_tiling_matches_per_document_tiles(self, lengths, width):
        """Over any document lengths, empty documents included, and a width
        far beyond every document, the window count is the sum of
        ceil(n / W) and the count sees the oracle's per-document tiles."""
        topic = _distinct_topic(lengths)
        assert topic.windows(width).n_windows == sum(-(-n // width) for n in lengths)
        assert _same_window(topic, width) == _by_reference(topic, width)


class TestTokenSlices:
    """A document is tokenized in slices cut at non-letters, with the ids of the whole text."""

    @pytest.mark.parametrize("slice_chars", [1, 2, 7])
    @settings(max_examples=100, deadline=None)
    @given(
        text=st.text(
            st.one_of(
                st.characters(exclude_categories=()),
                st.sampled_from("abyzABYZ@[`{ \t\n0189.-_"),
            )
        )
    )
    @example(text="Storm\ud800\udc00wind café")  # surrogates and non-ASCII at a cut
    def test_tokens_at_any_slice_size(self, slice_chars, text):
        config = PipelineConfig(stoplist=frozenset(), stemming_enabled=False)
        slices = re.compile(rf"(?s).{{1,{slice_chars}}}[A-Za-z]*")  # as corpus._TOKEN_SLICES
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(corpus, "_TOKEN_SLICES", slices)
            terms = tokenize_and_normalize(_doc(text), config).terms
        assert list(terms) == [t.lower() for t in re.findall(r"[A-Za-z]+", text)]

    @staticmethod
    def _write_big_document(path, syllables_per_word, separators, stoplist):
        """A 1 M-token document of made-up words: (its words, its oracle terms)."""
        rng = np.random.default_rng(0)
        syllables = ["ka", "lo", "Mi", "ren", "sto", "vel", "dar", "ion", "ing", "ed"]
        words = sorted({"".join(rng.choice(syllables, size=k))
                        for k in rng.integers(*syllables_per_word, size=3000)})
        words += ["the", "and", "The", "of"]
        picks = rng.integers(0, len(words), size=1_000_000)
        gaps = rng.integers(0, len(separators), size=len(picks))
        with open(path, "w", encoding="utf-8") as big:
            for first in range(0, len(picks), 50_000):
                big.write("".join(words[w] + separators[g] for w, g in
                                  zip(picks[first:first + 50_000], gaps[first:first + 50_000])))
        stems = [None if w.lower() in stoplist else porter_reference(w.lower()) for w in words]
        return words, [stems[w] for w in picks.tolist() if stems[w] is not None]

    @staticmethod
    def _traced_load(manifest, config):
        tracemalloc.start()
        try:
            (topic,) = load_topic_corpus(manifest, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return topic, peak

    def test_three_documents_in_one_load(self, tmp_path, pipeline_config):
        # a 1 M-token document, one whose only separators are punctuation and
        # newlines, and one token longer than a slice
        stoplist = pipeline_config.stoplist
        words, big_terms = self._write_big_document(
            tmp_path / "big.txt", (1, 4), [" ", " ", " ", ", ", ".\n", "-", " 42 "], stoplist)
        texts = {
            "punctuation": "".join(w + ",.;:!?\n\u2014"[k % 8] for k, w in enumerate(words * 60)),
            "long": "A storm " + "ab" * 40_000 + "cd, then calm",
        }
        entries = [{"doc_id": "big", "path": "big.txt"}]
        for doc_id, text in texts.items():
            (tmp_path / f"{doc_id}.txt").write_text(text, encoding="utf-8")
            entries.append({"doc_id": doc_id, "path": f"{doc_id}.txt"})
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"topics": [{"topic_id": "t", "documents": entries}]}))
        assert len(texts["punctuation"]) > 3 * corpus._TOKEN_SLICE
        assert 2 * 40_000 + 2 > corpus._TOKEN_SLICE

        topic, peak = self._traced_load(manifest, pipeline_config)
        big, *rest = topic.documents
        assert list(big.terms) == big_terms
        for doc, text in zip(rest, texts.values()):
            assert list(doc.terms) == normalize_reference(text, stoplist)
        # 70 MB while a document's byte tokens all existed at once, 21 MB
        # while the 9 MB ASCII file was read whole
        assert (tmp_path / "big.txt").stat().st_size > 8e6
        assert peak < 25e6

    def test_a_non_ascii_document_loads_in_bounded_memory(self, tmp_path, pipeline_config):
        # one em dash made the whole text 2 bytes per character: 51 MB while
        # the 12.8 MB file was read whole, 8.4 MB in slices, most of it the
        # document's ids
        _, big_terms = self._write_big_document(
            tmp_path / "big.txt", (2, 6), [" ", " ", " ", ", ", ".\n", " \u2014 ", " 42 "],
            pipeline_config.stoplist)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(
            {"topics": [{"topic_id": "t", "documents": [{"doc_id": "big", "path": "big.txt"}]}]}))
        topic, peak = self._traced_load(manifest, pipeline_config)
        assert list(topic.documents[0].terms) == big_terms
        assert (tmp_path / "big.txt").stat().st_size > 12e6
        assert peak < 15e6

    @pytest.mark.parametrize("slice_bytes", [1, 2, 7])
    @settings(max_examples=100, deadline=None)
    @given(text=st.text(st.one_of(st.characters(exclude_categories=("Cs",)),
                                  st.sampled_from("abyzABYZ \t\r\n0.-"))))
    def test_read_slices_hold_whole_tokens(self, slice_bytes, text, tmp_path_factory):
        # read in pieces of any size, a file gives the slices of its text
        # decoded whole, each ending at a non-letter or at the end
        path = tmp_path_factory.mktemp("doc") / "d.txt"
        path.write_text(text, encoding="utf-8", newline="")
        slices, blank = [], False
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(corpus, "_TOKEN_SLICE", slice_bytes)
            try:
                for piece in corpus._read_slices(path):
                    slices.append(piece)
            except corpus._DocumentError:
                blank = True
        assert "".join(slices) == text
        assert not any(re.search(r"[A-Za-z]\Z", piece) for piece in slices[:-1])
        assert blank == (not text.strip())


class TestTermIds:
    def test_ids_outside_vocabulary_rejected(self):
        vocabulary = Vocabulary()
        vocabulary.encode(["a", "b"])
        with pytest.raises(ValueError, match="outside"):
            TermSequence("d", [0, 2], vocabulary)
        with pytest.raises(ValueError, match="outside"):
            TermSequence("d", [-1], vocabulary)

    def test_topic_documents_share_one_vocabulary(self):
        one, two = Vocabulary(), Vocabulary()
        one.add("a")
        two.add("a")
        with pytest.raises(ValueError, match="one vocabulary"):
            TopicCorpus("t", (TermSequence("x", [0], one), TermSequence("y", [0], two)))

    def test_one_vocabulary_per_load(self, bundled_topics):
        vocabulary = bundled_topics[0].vocabulary
        assert all(t.vocabulary is vocabulary for t in bundled_topics)
        assert len(set(vocabulary.terms)) == len(vocabulary)
        assert all(vocabulary.index[t] == i for i, t in enumerate(vocabulary.terms))
        assert all(d.ids.dtype == np.int32 for t in bundled_topics for d in t.documents)


class TestLoadTopicCorpus:
    def _write_corpus(self, tmp_path, topics):
        manifest = {"topics": []}
        for topic_id, docs in topics.items():
            entries = []
            for doc_id, text in docs.items():
                path = tmp_path / f"{doc_id}.txt"
                path.write_text(text, encoding="utf-8")
                entries.append({"doc_id": doc_id, "path": path.name})
            manifest["topics"].append({"topic_id": topic_id, "documents": entries})
        manifest_path = tmp_path / "manifest.json"
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        return manifest_path

    def test_structure_mapping(self, tmp_path, pipeline_config):
        manifest = self._write_corpus(
            tmp_path,
            {
                "t1": {"a": "storm winds", "b": "rain clouds", "c": "coastal tides"},
                "t2": {"x": "wheat fields", "y": "barn doors", "z": "grain silos"},
            },
        )
        topics = load_topic_corpus(manifest, pipeline_config)
        assert [t.topic_id for t in topics] == ["t1", "t2"]
        assert all(len(t.documents) == 3 for t in topics)

    _MIXED = {
        "t1": {
            "a": "The Cats and the CATS growled; cats Growled at THE gate.",
            "b": "Wills will WILL; growling Cats, gated GATES and the cat.",
        },
        "t2": {"x": "Growled GROWLED growls; the Gate and the gates.", "y": "And THE cats."},
    }

    @pytest.mark.parametrize(
        "options",
        [{}, {"stemming_enabled": False}],
        ids=["stem", "no-stem"],
    )
    def test_terms_equal_per_document_normalization(self, options, tmp_path):
        config = PipelineConfig(stoplist=frozenset({"the", "and", "will"}), **options)
        topics = load_topic_corpus(self._write_corpus(tmp_path, self._MIXED), config)
        for topic in topics:
            for doc in topic.documents:
                raw = RawDocument(doc.doc_id, topic.topic_id, self._MIXED[topic.topic_id][doc.doc_id])
                assert doc.terms == tokenize_and_normalize(raw, config).terms

    def test_each_distinct_token_stemmed_once_per_load(self, monkeypatch, pipeline_config):
        calls = Counter()
        real_stem = corpus.stem

        def counting_stem(word):
            calls[word] += 1
            return real_stem(word)

        monkeypatch.setattr(corpus, "stem", counting_stem)
        manifest = bundled_corpus_path()
        distinct = set()
        for topic in json.loads(manifest.read_text(encoding="utf-8"))["topics"]:
            for entry in topic["documents"]:
                text = (manifest.parent / entry["path"]).read_text(encoding="utf-8")
                distinct.update(t.lower() for t in re.findall(r"[A-Za-z]+", text))
        distinct -= pipeline_config.stoplist

        load_topic_corpus(manifest, pipeline_config)
        assert calls == Counter(dict.fromkeys(distinct, 1))
        # a second load stems everything again: no memo outlives a load
        load_topic_corpus(manifest, pipeline_config)
        assert calls == Counter(dict.fromkeys(distinct, 2))

    def test_missing_manifest(self, tmp_path, pipeline_config):
        with pytest.raises(CorpusError, match="not found"):
            load_topic_corpus(tmp_path / "nope.json", pipeline_config)

    def test_missing_document_named_in_error(self, tmp_path, pipeline_config):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(
            json.dumps(
                {
                    "topics": [
                        {
                            "topic_id": "t1",
                            "documents": [{"doc_id": "gone", "path": "gone.txt"}],
                        }
                    ]
                }
            ),
            encoding="utf-8",
        )
        with pytest.raises(CorpusError, match="gone.txt"):
            load_topic_corpus(manifest, pipeline_config)

    def test_malformed_json(self, tmp_path, pipeline_config):
        manifest = tmp_path / "manifest.json"
        manifest.write_text("{not json", encoding="utf-8")
        with pytest.raises(CorpusError, match="JSON"):
            load_topic_corpus(manifest, pipeline_config)

    def test_no_topics(self, tmp_path, pipeline_config):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"topics": []}), encoding="utf-8")
        with pytest.raises(CorpusError, match="no topics"):
            load_topic_corpus(manifest, pipeline_config)

    def test_empty_topic_named_in_error(self, tmp_path, pipeline_config):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(
            json.dumps({"topics": [{"topic_id": "hollow", "documents": []}]}),
            encoding="utf-8",
        )
        with pytest.raises(CorpusError, match="hollow"):
            load_topic_corpus(manifest, pipeline_config)

    def test_duplicate_doc_id_rejected(self, tmp_path, pipeline_config):
        (tmp_path / "a.txt").write_text("words here", encoding="utf-8")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(
            json.dumps(
                {
                    "topics": [
                        {
                            "topic_id": "t1",
                            "documents": [
                                {"doc_id": "a", "path": "a.txt"},
                                {"doc_id": "a", "path": "a.txt"},
                            ],
                        }
                    ]
                }
            ),
            encoding="utf-8",
        )
        with pytest.raises(CorpusError, match="repeats doc_id"):
            load_topic_corpus(manifest, pipeline_config)

    def test_empty_document_rejected(self, tmp_path, pipeline_config):
        (tmp_path / "empty.txt").write_text("  \n", encoding="utf-8")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(
            json.dumps(
                {
                    "topics": [
                        {
                            "topic_id": "t1",
                            "documents": [{"doc_id": "e", "path": "empty.txt"}],
                        }
                    ]
                }
            ),
            encoding="utf-8",
        )
        with pytest.raises(CorpusError, match="empty"):
            load_topic_corpus(manifest, pipeline_config)

    @pytest.mark.parametrize(
        "content, message",
        [
            (b" \n" * corpus._TOKEN_SLICE, "is empty"),
            (b"storm " * corpus._TOKEN_SLICE + b"\xff winds",
             rf"not UTF-8 text at byte {6 * corpus._TOKEN_SLICE} \(invalid start byte\)"),
            (b" " * 3 * corpus._TOKEN_SLICE + b"\xff", rf"at byte {3 * corpus._TOKEN_SLICE} "),
            (b" " * (corpus._TOKEN_SLICE - 1) + b"\xe2(", rf"at byte {corpus._TOKEN_SLICE - 1} "),
            (b"storm \xe2\x80", r"at byte 6 \(unexpected end of data\)"),
        ],
        ids=["blank-past-one-slice", "bad-byte-after-text", "bad-byte-after-blanks",
             "character-cut-by-a-read", "character-cut-by-the-end"],
    )
    def test_document_read_in_slices_rejected(self, content, message, tmp_path, pipeline_config):
        (tmp_path / "d.txt").write_bytes(content)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(
            {"topics": [{"topic_id": "t", "documents": [{"doc_id": "d", "path": "d.txt"}]}]}))
        with pytest.raises(CorpusError, match=message):
            load_topic_corpus(manifest, pipeline_config)

    def test_text_after_blank_slices_is_read(self, tmp_path, pipeline_config):
        (tmp_path / "d.txt").write_text(" " * 3 * corpus._TOKEN_SLICE + "storm", encoding="utf-8")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(
            {"topics": [{"topic_id": "t", "documents": [{"doc_id": "d", "path": "d.txt"}]}]}))
        (topic,) = load_topic_corpus(manifest, pipeline_config)
        assert topic.documents[0].terms == ("storm",)


class TestBundledCorpus:
    def test_counts_match_manifest(self, bundled_topics):
        manifest = json.loads(bundled_corpus_path().read_text(encoding="utf-8"))
        listed = {
            t["topic_id"]: [d["doc_id"] for d in t["documents"]]
            for t in manifest["topics"]
        }
        assert len(bundled_topics) == len(listed) == 3
        for topic in bundled_topics:
            assert [d.doc_id for d in topic.documents] == listed[topic.topic_id]
            assert len(topic.documents) == 8

    def test_vocabulary_size(self, bundled_topics, planted_facts):
        for topic in bundled_topics:
            distinct = len({t for doc in topic.documents for t in doc.terms})
            assert distinct >= 25
            assert distinct == planted_facts[topic.topic_id]["distinct_stems"]

    def test_pipeline_idempotent_on_bundled_corpus(self, bundled_topics, pipeline_config):
        for topic in bundled_topics:
            for doc in topic.documents:
                rejoined = RawDocument(
                    doc_id=doc.doc_id, topic_id=topic.topic_id,
                    text=" ".join(doc.terms),
                )
                again = tokenize_and_normalize(rejoined, pipeline_config)
                assert again.terms == doc.terms

    def test_planted_window_content(self, bundled_by_id, planted_facts):
        for topic_id, facts in planted_facts.items():
            doc = next(
                d for d in bundled_by_id[topic_id].documents if d.doc_id == facts["planted_doc_id"]
            )
            tiles = tile_reference(doc.terms, 5)
            assert tiles[facts["planted_window_index"]] == facts["planted_terms"]

    def test_generator_script_reproduces_the_bundled_corpus(self, tmp_path):
        # run scripts/make_synthetic_corpus.py on a copy of the tree, with no
        # corpus files, and compare what it writes with the committed files
        repo = Path(__file__).resolve().parents[1]
        shutil.copytree(repo / "src", tmp_path / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(repo / "scripts", tmp_path / "scripts")
        (tmp_path / "tests").mkdir()
        shutil.copy(repo / "tests" / "oracles.py", tmp_path / "tests")
        corpus_dir = Path("src") / "entangletext" / "data" / "corpus"
        shutil.rmtree(tmp_path / corpus_dir)

        proc = subprocess.run(
            [sys.executable, "scripts/make_synthetic_corpus.py"],
            cwd=tmp_path, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr

        def files(root):
            return {p.name: p.read_bytes() for p in sorted((root / corpus_dir).iterdir())}

        committed = files(repo)
        assert len(committed) == 25  # 24 documents and the manifest
        assert files(tmp_path) == committed
        facts = Path("tests") / "data" / "planted_facts.json"
        assert (tmp_path / facts).read_bytes() == (repo / facts).read_bytes()


def test_default_stoplist_is_normalized():
    stoplist = default_stoplist()
    assert len(stoplist) > 250
    assert all(w == w.lower() and w.isalpha() for w in stoplist)
    assert "the" in stoplist and "and" in stoplist
