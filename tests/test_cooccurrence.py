"""Windowed indicator counting and histograms."""

import json
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entangletext import (
    ConceptPair,
    CoocMatrix,
    PipelineConfig,
    TermSequence,
    TopicCorpus,
    Vocabulary,
    cooccurrence_histogram,
    count_cooccurrences,
    load_topic_corpus,
)
from entangletext import cooccurrence

from oracles import (
    cooccurrence_reference,
    histogram_reference,
    normalize_reference,
    tile_reference,
)


def _pair(n=10):
    return ConceptPair(
        c1=tuple(f"a{i}" for i in range(n)),
        c2=tuple(f"b{i}" for i in range(n)),
        method="frequency",
        topic_id="t",
    )


def _windows(*window_terms):
    """Windows holding exactly the given term lists: each non-empty list is
    one document no longer than the window size, so it is one window."""
    vocabulary = Vocabulary()
    docs = tuple(
        TermSequence(f"d{i}", vocabulary.encode(terms), vocabulary)
        for i, terms in enumerate(window_terms)
    ) or (TermSequence("empty", [], vocabulary),)
    width = max((len(terms) for terms in window_terms), default=1)
    return TopicCorpus(topic_id="t", documents=docs).windows(width)


class TestCountCooccurrences:
    def test_multiplicity_ignored(self):
        pair = _pair()
        matrix = count_cooccurrences(pair, _windows(["a0", "b0", "a0"]))
        assert matrix.counts[0, 0] == 1
        assert matrix.counts.sum() == 1

    def test_no_c1_terms_gives_zero_matrix(self):
        pair = _pair()
        matrix = count_cooccurrences(pair, _windows(["b0", "b1", "x"]))
        assert matrix.counts.sum() == 0
        assert matrix.n_windows == 1

    def test_empty_window_list(self):
        matrix = count_cooccurrences(_pair(), _windows())
        assert matrix.counts.shape == (10, 10)
        assert matrix.counts.sum() == 0
        assert matrix.n_windows == 0

    def test_each_window_contributes_at_most_one_per_cell(self):
        pair = _pair()
        windows = _windows(*[["a0", "b0"] * 5] * 7)
        matrix = count_cooccurrences(pair, windows)
        assert matrix.counts[0, 0] == 7

    def test_matches_reference_on_bundled_corpus(self, bundled_by_id, planted_expected):
        for topic_id, exp_topic in planted_expected["topics"].items():
            topic = bundled_by_id[topic_id]
            doc_lists = [d.terms for d in topic.documents]
            for method, exp_m in exp_topic["methods"].items():
                pair = ConceptPair(
                    c1=tuple(exp_m["c1"]), c2=tuple(exp_m["c2"]),
                    method=method, topic_id=topic_id,
                )
                for width_str, cell in exp_m["cells"].items():
                    width = int(width_str)
                    matrix = count_cooccurrences(pair, topic.windows(width))
                    assert matrix.window_size == width
                    ref_counts, ref_windows = cooccurrence_reference(
                        doc_lists, width, pair.c1, pair.c2
                    )
                    assert matrix.counts.tolist() == ref_counts == cell["matrix"]
                    assert matrix.n_windows == ref_windows == cell["n_windows"]

    def test_planted_unique_and_forbidden_pairs(
        self, bundled_by_id, planted_facts, planted_expected
    ):
        for topic_id, facts in planted_facts.items():
            topic = bundled_by_id[topic_id]
            exp_m = planted_expected["topics"][topic_id]["methods"]["frequency"]
            pair = ConceptPair(
                c1=tuple(exp_m["c1"]), c2=tuple(exp_m["c2"]),
                method="frequency", topic_id=topic_id,
            )
            matrix = count_cooccurrences(pair, topic.windows(5))
            ua, ub = facts["unique_pair"]
            fa, fb = facts["forbidden_pair"]
            assert matrix.counts[pair.c1.index(ua), pair.c2.index(ub)] == 1
            assert matrix.counts[pair.c1.index(fa), pair.c2.index(fb)] == 0

    def test_shard_merge_equals_whole(self, bundled_by_id):
        topic = bundled_by_id["harvest"]
        pair = _bundled_pair(topic)
        whole = count_cooccurrences(pair, topic.windows(5))
        # windows never cross documents, so sharding documents shards windows
        parts = [
            count_cooccurrences(pair, TopicCorpus("harvest", topic.documents[i::3]).windows(5))
            for i in range(3)
        ]
        assert np.array_equal(np.sum([p.counts for p in parts], axis=0), whole.counts)
        assert sum(p.n_windows for p in parts) == whole.n_windows

    def test_monotone_under_window_growth(self, bundled_by_id):
        topic = bundled_by_id["orchestra"]
        pair = _bundled_pair(topic)
        partial = count_cooccurrences(pair, TopicCorpus("orchestra", topic.documents[:4]).windows(5))
        full = count_cooccurrences(pair, topic.windows(5))
        assert 0 < partial.n_windows < full.n_windows
        assert (full.counts >= partial.counts).all()

    def test_entries_bounded_by_window_count(self, bundled_by_id):
        for topic in bundled_by_id.values():
            pair = _bundled_pair(topic)
            matrix = count_cooccurrences(pair, topic.windows(5))
            assert matrix.counts.max() <= matrix.n_windows

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_shard_merge_property(self, data):
        vocab_a = [f"a{i}" for i in range(4)]
        vocab_b = [f"b{i}" for i in range(4)]
        pair = ConceptPair(
            c1=tuple(vocab_a), c2=tuple(vocab_b), method="frequency", topic_id="t"
        )
        n_windows = data.draw(st.integers(min_value=0, max_value=30))
        windows = [
            data.draw(
                st.lists(
                    st.sampled_from(vocab_a + vocab_b + ["x", "y"]),
                    min_size=1,
                    max_size=6,
                )
            )
            for _ in range(n_windows)
        ]
        split = data.draw(st.integers(min_value=0, max_value=n_windows))
        whole = count_cooccurrences(pair, _windows(*windows))
        left = count_cooccurrences(pair, _windows(*windows[:split]))
        right = count_cooccurrences(pair, _windows(*windows[split:]))
        assert (left.n_windows, right.n_windows) == (split, n_windows - split)
        assert np.array_equal(left.counts + right.counts, whole.counts)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_oracles_on_random_topics(self, data):
        """Tiling and counting of a loaded multi-document topic equal the
        per-document oracles, including W = 1, W longer than a document,
        trailing partial windows, a stop-word-only document (no windows)
        and concept terms that never occur."""
        content = ["alpha", "beta", "gamma", "delta", "eps", "zeta"]
        stoplist = ["the", "and", "of"]
        docs = data.draw(
            st.lists(
                st.lists(st.sampled_from(content + stoplist), min_size=1, max_size=25),
                min_size=1,
                max_size=6,
            )
        )
        if data.draw(st.booleans()):
            stop_only = data.draw(st.lists(st.sampled_from(stoplist), min_size=1, max_size=5))
            docs.insert(data.draw(st.integers(0, len(docs))), stop_only)
        width = data.draw(st.sampled_from([1, 2, 3, 7, 30]))
        # "ghost" is in the load's vocabulary (another topic), "never" in none
        candidates = data.draw(st.permutations(content + ["ghost", "never"]))
        k = data.draw(st.integers(1, 4))
        pair = ConceptPair(
            c1=tuple(candidates[:k]), c2=tuple(candidates[k : 2 * k]),
            method="frequency", topic_id="t",
        )
        config = PipelineConfig(stoplist=frozenset(stoplist), stemming_enabled=False)
        texts = [" ".join(doc) for doc in docs]
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            entries = []
            for i, text in enumerate([*texts, "ghost other"]):
                (root / f"{i}.txt").write_text(text, encoding="utf-8")
                entries.append({"doc_id": f"d{i}", "path": f"{i}.txt"})
            manifest = {"topics": [
                {"topic_id": "t", "documents": entries[:-1]},
                {"topic_id": "u", "documents": entries[-1:]},
            ]}
            (root / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
            topic = load_topic_corpus(root / "manifest.json", config)[0]

        doc_lists = [normalize_reference(text, config.stoplist, stemming=False) for text in texts]
        windows = topic.windows(width)
        matrix = count_cooccurrences(pair, windows)
        ref_counts, ref_windows = cooccurrence_reference(doc_lists, width, pair.c1, pair.c2)
        assert matrix.counts.tolist() == ref_counts
        assert matrix.n_windows == len(windows) == ref_windows
        assert matrix.window_size == width


class TestDocumentOrder:
    """Counts, and so every artifact, do not depend on the order in which
    a manifest lists its topics or a topic its documents."""

    @pytest.mark.parametrize("block", [7, 2048])
    @pytest.mark.parametrize("width", [3, 5, 20, 1000])
    def test_counts_equal_under_a_permutation_of_documents(self, bundled_by_id, width, block):
        rng = np.random.default_rng(width)
        for topic in bundled_by_id.values():
            pair = _bundled_pair(topic)
            order = rng.permutation(len(topic.documents))
            shuffled = TopicCorpus(topic.topic_id, tuple(topic.documents[i] for i in order))
            assert [d.doc_id for d in shuffled.documents] != [d.doc_id for d in topic.documents]
            with mock.patch.object(cooccurrence, "_BLOCK_WINDOWS", block):
                a = count_cooccurrences(pair, topic.windows(width))
                b = count_cooccurrences(pair, shuffled.windows(width))
            assert a.counts.sum() > 0
            assert np.array_equal(a.counts, b.counts)
            assert a.n_windows == b.n_windows

    def test_run_analyze_on_a_reversed_manifest_writes_identical_artifacts(
        self, tmp_path, monkeypatch
    ):
        from entangletext import RunConfig, bundled_corpus_path, run_analyze

        bundled = bundled_corpus_path()
        manifest = json.loads(bundled.read_text(encoding="utf-8"))
        for topic in manifest["topics"]:
            for doc in topic["documents"]:
                doc["path"] = str(bundled.parent / doc["path"])
        reversed_manifest = {"topics": [
            {**topic, "documents": topic["documents"][::-1]}
            for topic in manifest["topics"][::-1]
        ]}
        outputs = []
        for name, content in [("default", manifest), ("reversed", reversed_manifest)]:
            # one relative manifest path, so run_metadata.json records the same string
            root = tmp_path / name
            root.mkdir()
            (root / "manifest.json").write_text(json.dumps(content), encoding="utf-8")
            monkeypatch.chdir(root)
            run_analyze(RunConfig(manifest=Path("manifest.json"), out_dir=root / "out"))
            outputs.append(root / "out")
        files = sorted(p.relative_to(outputs[0]) for p in outputs[0].rglob("*") if p.is_file())
        assert len(files) > 10
        assert files == sorted(
            p.relative_to(outputs[1]) for p in outputs[1].rglob("*") if p.is_file()
        )
        for rel in files:
            assert (outputs[0] / rel).read_bytes() == (outputs[1] / rel).read_bytes(), rel


def _dense_counts(pair, windows):
    """The count as one 0/1 presence matrix over every window at once, the
    documents tiled by the oracle."""
    k = len(pair.c1)
    tiles = [
        tile
        for doc in windows.topic.documents
        for tile in tile_reference(doc.terms, windows.window_size)
    ]
    present = np.zeros((len(tiles), 2 * k), dtype=np.int64)
    for row, tile in enumerate(tiles):
        for slot, term in enumerate(pair.c1 + pair.c2):
            present[row, slot] = term in tile
    return (present[:, :k].T @ present[:, k:]).tolist()


def _reference_counts(pair, windows):
    """cooccurrence_reference over the topic's documents."""
    docs = [doc.terms for doc in windows.topic.documents]
    return cooccurrence_reference(docs, windows.window_size, pair.c1, pair.c2)[0]


class TestCountBlocks:
    """Counting one block of windows at a time, with the block made tiny so
    that block edges fall between nearly every pair of windows."""

    @pytest.mark.parametrize("block", [1, 2, 7])
    def test_windows_at_block_edges(self, block):
        # W = 3: window w holds positions 3w .. 3w + 2. a0 ends window 1 and
        # b0 starts window 2, a2 and b2 are in windows 4 and 5, so no window
        # holds both; a1 and b1 open and close window 3. With 2 windows per
        # block, windows 1 and 2 fall in adjacent blocks.
        pair = _pair(4)
        terms = ["x", "x", "x", "x", "x", "a0", "b0", "x", "x",
                 "a1", "x", "b1", "a2", "x", "x", "x", "b2", "x"]
        windows = TopicCorpus("t", (_sequence(terms),)).windows(3)
        with mock.patch.object(cooccurrence, "_BLOCK_WINDOWS", block):
            matrix = count_cooccurrences(pair, windows)
        assert matrix.counts.tolist() == _dense_counts(pair, windows)
        assert matrix.counts.tolist() == _reference_counts(pair, windows)
        assert matrix.counts.sum() == matrix.counts[1, 1] == 1

    @pytest.mark.parametrize("block", [1, 2, 7])
    def test_zero_hits(self, block):
        pair = _pair(4)
        windows = TopicCorpus("t", (_sequence(["x", "y"] * 20),)).windows(3)
        with mock.patch.object(cooccurrence, "_BLOCK_WINDOWS", block):
            matrix = count_cooccurrences(pair, windows)
        assert matrix.counts.tolist() == _dense_counts(pair, windows) == [[0] * 4] * 4
        assert matrix.n_windows == 14

    @pytest.mark.parametrize("block", [1, 2, 7])
    def test_blocks_with_hits_of_one_concept_only(self, block):
        # windows 0-1 hold only c1 terms, windows 2-3 only c2 terms, and
        # windows 4-5 both: with 2 windows per block only the last counts
        pair = _pair(4)
        terms = ["a0", "a1", "a2", "a3", "b0", "b1", "b2", "b3",
                 "a0", "b0", "a1", "b1"]
        windows = TopicCorpus("t", (_sequence(terms),)).windows(2)
        with mock.patch.object(cooccurrence, "_BLOCK_WINDOWS", block):
            matrix = count_cooccurrences(pair, windows)
        assert matrix.counts.tolist() == _dense_counts(pair, windows)
        assert matrix.counts.tolist() == _reference_counts(pair, windows)
        assert matrix.counts.sum() == 2 and matrix.counts[0, 0] == matrix.counts[1, 1] == 1

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_matches_dense_and_reference_at_any_block_bounds(self, data):
        """Blocks cut documents at window edges and close on either bound."""
        terms = [f"a{i}" for i in range(4)] + [f"b{i}" for i in range(4)] + ["x", "y"]
        docs = data.draw(st.lists(st.lists(st.sampled_from(terms), max_size=20), max_size=5))
        width = data.draw(st.one_of(st.integers(1, 5), st.just(int(np.iinfo(np.intp).max))))
        block = data.draw(st.sampled_from([1, 2, 7]))
        positions = data.draw(st.sampled_from([1, 2, 5, 8, 1 << 17]))
        vocabulary = Vocabulary()
        sequences = tuple(
            TermSequence(f"d{i}", vocabulary.encode(doc), vocabulary) for i, doc in enumerate(docs)
        ) or (TermSequence("empty", [], vocabulary),)
        windows = TopicCorpus("t", sequences).windows(width)
        pair = _pair(4)
        with mock.patch.multiple(cooccurrence, _BLOCK_WINDOWS=block, _BLOCK_POSITIONS=positions):
            matrix = count_cooccurrences(pair, windows)
        assert matrix.counts.tolist() == _dense_counts(pair, windows)
        assert matrix.counts.tolist() == _reference_counts(pair, windows)
        assert matrix.n_windows == len(windows)


class TestCountMemory:
    # traced bytes count_cooccurrences may allocate above its inputs; one
    # block's temporaries peak at 0.33 MB at k = 10 and W = 5 (numpy 2.4),
    # so this leaves a 50% margin, while one presence matrix over every
    # window took 5 MB at N and 40 MB at 8N
    BOUND = 500_000

    @staticmethod
    def _topic(n_tokens):
        """n_tokens in 20 documents, about 60% of them concept terms."""
        rng = np.random.default_rng(n_tokens)
        vocabulary = Vocabulary()
        vocabulary.encode(list(_pair().c1 + _pair().c2) + [f"z{i}" for i in range(40)])
        hit = rng.random(n_tokens) < 0.6
        ids = np.where(hit, rng.integers(0, 20, n_tokens), rng.integers(20, 60, n_tokens))
        return TopicCorpus("t", tuple(
            TermSequence(f"d{i}", part, vocabulary)
            for i, part in enumerate(np.array_split(ids, 20))
        ))

    @pytest.mark.parametrize("n_tokens", [100_000, 800_000])
    def test_peak_does_not_grow_with_windows(self, n_tokens):
        windows = self._topic(n_tokens).windows(5)
        pair = _pair()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            matrix = count_cooccurrences(pair, windows)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert matrix.n_windows == n_tokens // 5
        assert peak < self.BOUND

    def test_peak_at_a_wide_window_is_bounded_by_positions(self):
        # 400 windows of 1,000 positions: a block of 2,048 windows would take
        # every position (4.5 MB); at 2**17 positions per block the
        # temporaries peak at 1.19 MB (numpy 2.4), so the bound leaves a
        # 25% margin
        windows = self._topic(400_000).windows(1000)
        pair = _pair()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            matrix = count_cooccurrences(pair, windows)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert matrix.counts.tolist() == _dense_counts(pair, windows)
        assert peak < 1_500_000


def _sequence(terms):
    vocabulary = Vocabulary()
    return TermSequence("d", vocabulary.encode(terms), vocabulary)


def _bundled_pair(topic):
    from entangletext import build_concept_pair, rank_by_frequency

    return build_concept_pair(rank_by_frequency(topic))


class TestHistogram:
    def test_all_zero_matrix(self):
        matrix = count_cooccurrences(_pair(), _windows())
        hist = cooccurrence_histogram(matrix)
        assert hist == {0: 100}

    def test_unit_binning_direct_tally(self):
        counts = np.zeros((10, 10), dtype=np.int64)
        counts.ravel()[:9] = 5
        counts[9, 9] = 50
        matrix = CoocMatrix(
            concept_pair=_pair(), window_size=5, counts=counts, n_windows=60
        )
        hist = cooccurrence_histogram(matrix)
        assert hist == {0: 90, 5: 9, 50: 1}
        assert sum(hist.values()) == 100

    def test_matches_reference_on_bundled_corpus(self, bundled_by_id, planted_expected):
        topic = bundled_by_id["storm"]
        pair = _bundled_pair(topic)
        matrix = count_cooccurrences(pair, topic.windows(5))
        hist = cooccurrence_histogram(matrix)
        assert hist == histogram_reference(matrix.counts.tolist())
        frozen = planted_expected["topics"]["storm"]["methods"]["frequency"]["cells"]["5"]
        assert {str(k): v for k, v in hist.items()} == frozen["histogram"]

    def test_bins_always_sum_to_matrix_size(self, bundled_by_id):
        for topic in bundled_by_id.values():
            matrix = count_cooccurrences(_bundled_pair(topic), topic.windows(5))
            hist = cooccurrence_histogram(matrix)
            assert sum(hist.values()) == matrix.counts.size


class TestCoocMatrixValidation:
    def test_count_exceeding_windows_rejected(self):
        counts = np.full((10, 10), 3, dtype=np.int64)
        with pytest.raises(ValueError, match="exceeds"):
            CoocMatrix(concept_pair=_pair(), window_size=5, counts=counts, n_windows=2)

    def test_negative_counts_rejected(self):
        counts = np.zeros((10, 10), dtype=np.int64)
        counts[0, 0] = -1
        with pytest.raises(ValueError, match="non-negative"):
            CoocMatrix(concept_pair=_pair(), window_size=5, counts=counts, n_windows=5)

    def test_counts_read_only(self):
        matrix = count_cooccurrences(_pair(), _windows(["a0", "b0"]))
        with pytest.raises(ValueError):
            matrix.counts[0, 0] = 99
