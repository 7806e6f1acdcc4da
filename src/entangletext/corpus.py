"""Topic-corpus ingestion: tokenization, normalization, window segmentation.

Raw documents are reduced to ordered term sequences by one fixed
normalization (maximal runs of ASCII letters, lowercased, stop-word
filtered, Porter-stemmed unless stemming is off), kept as int32 ids into
one vocabulary per load. A topic's windows of width W are a value, not an
index: position i of a document lies in its window i // W, windows never
cross document boundaries, and the trailing partial window is kept so no
terms are dropped. The co-occurrence count reads the documents' own ids.

Tokenizing works on bytes: the text is encoded to UTF-8, one 256-entry
``bytes.translate`` table lowercases ASCII letters and turns every other
byte into a space, and ``split()`` yields the tokens. A document goes
through this in slices of about 65,536 characters, each cut at a
non-letter, so its byte tokens never all exist at once. A document file
is read in pieces of as many bytes and decoded piece by piece, so its
whole text never exists at once either. Every byte of a multi-byte
UTF-8 sequence is at least 0x80, so a non-ASCII character ends a run
exactly as it does for ``[A-Za-z]+`` on the str. Lone surrogates are
encoded with ``surrogatepass`` and so also end a run.
A per-load memo maps each byte token to its term id, and only a memo
miss decodes the token and stems it.
"""

from __future__ import annotations

import codecs
import json
import operator
import re
import string
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Iterable

import numpy as np

from .porter import stem

__all__ = [
    "CorpusError",
    "PipelineConfig",
    "RawDocument",
    "Vocabulary",
    "TermSequence",
    "TopicWindows",
    "TopicCorpus",
    "default_stoplist",
    "load_stoplist",
    "tokenize_and_normalize",
    "load_topic_corpus",
    "bundled_corpus_path",
]


def _integer(value, what: str) -> int:
    """value as an int; ValueError naming ``what`` unless it is an integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def _window_size(value) -> int:
    """value as a window size: an integer from 1 to the largest numpy index."""
    size, largest = _integer(value, "window size"), int(np.iinfo(np.intp).max)
    if not 1 <= size <= largest:
        raise ValueError(f"window size must be from 1 to {largest}, got {size}")
    return size


class CorpusError(Exception):
    """A manifest, document or vocabulary problem that makes a run impossible."""


def default_stoplist() -> frozenset[str]:
    """The bundled English stop-word list (lowercase, unstemmed)."""
    text = (
        resources.files("entangletext.data")
        .joinpath("stopwords_english.txt")
        .read_text(encoding="utf-8")
    )
    return frozenset(text.split())


def load_stoplist(path: str | Path) -> frozenset[str]:
    """Read a stoplist file: one word per line, blank lines ignored."""
    path = Path(path)
    if not path.is_file():
        raise CorpusError(f"stoplist file not found: {path}")
    try:
        words = frozenset(path.read_text(encoding="utf-8").split())
    except UnicodeDecodeError as exc:
        raise CorpusError(f"stoplist {path} is not UTF-8 text ({exc})") from exc
    bad = sorted(w for w in words if w != w.lower())
    if bad:
        raise CorpusError(f"stoplist {path}: entries must be lowercase: {bad[:5]}")
    return words


# byte -> its lowercase form for an ASCII letter, else a space
_LOWERCASE_LETTERS = bytes(
    ord(chr(b).lower()) if chr(b) in string.ascii_letters else ord(" ") for b in range(256)
)


@dataclass(frozen=True)
class PipelineConfig:
    """Normalization choices, immutable for the lifetime of a run.

    Tokens are always lowercased; ``stoplist`` entries are matched against
    the lowercased, unstemmed token, and surviving tokens are Porter-stemmed
    when ``stemming_enabled``.
    """

    stoplist: frozenset[str] = field(default_factory=default_stoplist)
    stemming_enabled: bool = True

    def __post_init__(self):
        object.__setattr__(self, "stoplist", frozenset(self.stoplist))
        bad = sorted(w for w in self.stoplist if w != w.lower())
        if bad:
            raise ValueError(f"stoplist entries must be lowercase: {bad[:5]}")


@dataclass(frozen=True)
class RawDocument:
    doc_id: str
    topic_id: str
    text: str


class Vocabulary:
    """The distinct terms of one load; a term's id is its position in ``terms``.

    Ids are only ever appended, so an id array stays valid as the
    vocabulary grows.
    """

    def __init__(self):
        self.terms: list[str] = []
        self.index: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self.terms)

    def add(self, term: str) -> int:
        """The id of term, appending it when new."""
        term_id = self.index.get(term)
        if term_id is None:
            term_id = self.index[term] = len(self.terms)
            self.terms.append(term)
        return term_id

    def encode(self, terms: Iterable[str]) -> np.ndarray:
        """Term ids (int32) of a term sequence, appending new terms."""
        return np.array([self.add(t) for t in terms], dtype=np.int32)


@dataclass(frozen=True, eq=False)
class TermSequence:
    """Ordered normalized terms of one document, as ids into a vocabulary."""

    doc_id: str
    ids: np.ndarray  # int32 term ids, read-only
    vocabulary: Vocabulary

    def __post_init__(self):
        ids = np.array(self.ids, dtype=np.int32).reshape(-1)
        if ids.size and (ids.min() < 0 or ids.max() >= len(self.vocabulary)):
            raise ValueError(f"document {self.doc_id!r} has term ids outside its vocabulary")
        ids.setflags(write=False)
        object.__setattr__(self, "ids", ids)

    @property
    def terms(self) -> tuple[str, ...]:
        """The terms as strings, in document order."""
        return tuple(map(self.vocabulary.terms.__getitem__, self.ids.tolist()))

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other):
        if not isinstance(other, TermSequence):
            return NotImplemented
        return self.doc_id == other.doc_id and self.terms == other.terms


@dataclass(frozen=True)
class TopicCorpus:
    """All normalized documents of one topic, over one shared vocabulary."""

    topic_id: str
    documents: tuple[TermSequence, ...]

    def __post_init__(self):
        documents = tuple(self.documents)
        if not documents:
            raise ValueError(f"topic {self.topic_id!r} has no documents")
        if any(d.vocabulary is not documents[0].vocabulary for d in documents):
            raise ValueError(f"documents of topic {self.topic_id!r} must share one vocabulary")
        object.__setattr__(self, "documents", documents)

    @property
    def vocabulary(self) -> Vocabulary:
        return self.documents[0].vocabulary

    def windows(self, window_size: int) -> TopicWindows:
        """Windows of width window_size over every document, in document order."""
        return TopicWindows(self, window_size)


@dataclass(frozen=True)
class TopicWindows:
    """Fixed-width windows over one topic: the topic, the width, the count.

    Position i of a document lies in its window i // window_size. Windows
    never cross a document boundary and a document's trailing partial
    window is kept, so a document of n terms holds ceil(n / window_size)
    windows; ``n_windows`` is their sum over the topic. No per-position
    array is held: ``count_cooccurrences`` reads the documents' own ids.
    """

    topic: TopicCorpus
    window_size: int
    n_windows: int = field(init=False)

    def __post_init__(self):
        window_size = _window_size(self.window_size)
        object.__setattr__(self, "window_size", window_size)
        n_windows = sum(-(-len(d) // window_size) for d in self.topic.documents)
        object.__setattr__(self, "n_windows", n_windows)

    def __len__(self) -> int:
        return self.n_windows


_STOP = -1  # term id of a token the stoplist removes

# bytes of a document file read, and characters of a text tokenized, at a
# time: a byte token takes about 45 bytes, so a whole 1 M-token document
# split at once peaked near 66 MB, and one read whole at twice its size or more
_TOKEN_SLICE = 1 << 16
_TOKEN_SLICES = re.compile(rf"(?s).{{1,{_TOKEN_SLICE}}}[A-Za-z]*")


class _TermIds(dict):
    """Lowercase byte token -> term id (or _STOP) for the documents of one load.

    A miss decodes the token, stop-filters it, then stems it, so each
    distinct lowercased token reaches ``stem`` once per load.
    """

    def __init__(self, config: PipelineConfig, vocabulary: Vocabulary):
        super().__init__()
        self.config = config
        self.vocabulary = vocabulary

    def __missing__(self, token: bytes) -> int:
        word = token.decode("ascii")
        if word in self.config.stoplist:
            term_id = _STOP
        else:
            term_id = self.vocabulary.add(stem(word) if self.config.stemming_enabled else word)
        self[token] = term_id
        return term_id


def tokenize_and_normalize(raw: RawDocument, config: PipelineConfig) -> TermSequence:
    """Extract, lowercase, stop-filter and stem the tokens of one document.

    Token order is preserved; empty text yields an empty sequence. The
    result has a vocabulary of its own.
    """
    return _normalize(raw, _TermIds(config, Vocabulary()))


def _normalize(raw: RawDocument, term_ids: _TermIds) -> TermSequence:
    """tokenize_and_normalize with a caller-owned token memo and vocabulary.

    Normalization is a pure function of the token, so a memo shared by the
    documents of one load normalizes each distinct token once. The text
    is tokenized in ``_TOKEN_SLICES``: _TOKEN_SLICE characters, then the
    rest of a letter run, so every slice ends at a non-letter or at the
    end and holds whole tokens.
    """
    slices = (part[0] for part in _TOKEN_SLICES.finditer(raw.text))
    return _normalize_slices(raw.doc_id, slices, term_ids)


def _normalize_slices(doc_id: str, slices: Iterable[str], term_ids: _TermIds) -> TermSequence:
    """The terms of a document given as slices that each hold whole tokens.

    Only one slice's bytes and byte tokens exist at a time.
    """
    pieces = [np.empty(0, np.int32)]
    for text in slices:
        tokens = text.encode("utf-8", "surrogatepass").translate(_LOWERCASE_LETTERS).split()
        ids = np.fromiter(map(term_ids.__getitem__, tokens), np.int32, len(tokens))
        pieces.append(ids[ids != _STOP])
    ids = np.concatenate(pieces)
    del pieces  # TermSequence keeps a copy of ids
    return TermSequence(doc_id=doc_id, ids=ids, vocabulary=term_ids.vocabulary)


class _DocumentError(Exception):
    """Why a document file cannot be loaded: it is not UTF-8, or it is empty."""


def _read_slices(path: Path) -> Iterable[str]:
    """The UTF-8 text of a file in slices that each hold whole tokens.

    The file is read and decoded _TOKEN_SLICE bytes at a time, and a
    piece's trailing letter run goes on to the next slice, so every slice
    ends at a non-letter or at the end of the file. A byte that is not
    UTF-8 raises _DocumentError with its offset in the file, and so does
    a file that holds only whitespace, once it is read.
    """
    decoder = codecs.getincrementaldecoder("utf-8")()
    offset = 0  # in the file, of the next read
    blank = True
    run: list[str] = []  # a letter run not yet ended
    with open(path, "rb") as stream:
        while True:
            data = stream.read(_TOKEN_SLICE)
            held = len(decoder.getstate()[0])  # bytes of a character the last read cut
            try:
                piece = decoder.decode(data, final=not data)
            except UnicodeDecodeError as exc:
                raise _DocumentError(f"is not UTF-8 text at byte {offset - held + exc.start} "
                                     f"({exc.reason})") from None
            if not data:
                break
            offset += len(data)
            blank = blank and (not piece or piece.isspace())
            cut = len(piece.rstrip(string.ascii_letters))
            if cut:
                run.append(piece[:cut])
                yield "".join(run)
                run = []
            run.append(piece[cut:])
    if blank:
        raise _DocumentError("is empty")
    yield "".join(run)


def _manifest_error(path, detail):
    return CorpusError(f"manifest {path}: {detail}")


def load_topic_corpus(manifest_path: str | Path, config: PipelineConfig) -> list[TopicCorpus]:
    """Load every topic listed in a manifest file.

    The manifest is JSON of the form
    ``{"topics": [{"topic_id": ..., "documents": [{"doc_id": ..., "path": ...}]}]}``;
    document paths are resolved relative to the manifest's directory. Each
    topic_id must be one plain file-name component (no ``/``, ``\\`` or
    NUL, not ``.`` or ``..``), because artifact file names start with it.
    All structural problems, and files that are not UTF-8, raise CorpusError
    naming the offending entry.
    """
    manifest_path = Path(manifest_path)
    if not manifest_path.is_file():
        raise CorpusError(f"manifest not found: {manifest_path}")
    try:
        data = json.loads(manifest_path.read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8 (UnicodeDecodeError) or not JSON
        raise _manifest_error(manifest_path, f"not valid UTF-8 JSON ({exc})") from exc

    topics = data.get("topics") if isinstance(data, dict) else None
    if not isinstance(topics, list) or not topics:
        raise _manifest_error(manifest_path, "no topics")

    base = manifest_path.parent
    term_ids = _TermIds(config, Vocabulary())  # lives for this load only
    corpora: list[TopicCorpus] = []
    seen_topics: set[str] = set()
    for entry in topics:
        topic_id = entry.get("topic_id") if isinstance(entry, dict) else None
        if not topic_id or not isinstance(topic_id, str):
            raise _manifest_error(manifest_path, f"topic entry without topic_id: {entry!r}")
        if topic_id in (".", "..") or any(c in topic_id for c in "/\\\0"):
            raise _manifest_error(manifest_path, f"topic_id {topic_id!r} is not a plain file name")
        if topic_id in seen_topics:
            raise _manifest_error(manifest_path, f"duplicate topic_id {topic_id!r}")
        seen_topics.add(topic_id)

        doc_entries = entry.get("documents")
        if not isinstance(doc_entries, list) or not doc_entries:
            raise _manifest_error(manifest_path, f"topic {topic_id!r} lists no documents")

        documents: list[TermSequence] = []
        seen_docs: set[str] = set()
        for doc_entry in doc_entries:
            doc_id = doc_entry.get("doc_id") if isinstance(doc_entry, dict) else None
            rel = doc_entry.get("path") if isinstance(doc_entry, dict) else None
            if not (doc_id and isinstance(doc_id, str) and rel and isinstance(rel, str)):
                raise _manifest_error(
                    manifest_path,
                    f"topic {topic_id!r} has a document entry without a string doc_id/path: {doc_entry!r}",
                )
            if doc_id in seen_docs:
                raise _manifest_error(
                    manifest_path, f"topic {topic_id!r} repeats doc_id {doc_id!r}"
                )
            seen_docs.add(doc_id)
            doc_path = Path(rel)
            if not doc_path.is_absolute():
                doc_path = base / doc_path
            if not doc_path.is_file():
                raise _manifest_error(
                    manifest_path, f"document file not found: {doc_path} (doc_id {doc_id!r})"
                )
            try:
                documents.append(_normalize_slices(doc_id, _read_slices(doc_path), term_ids))
            except _DocumentError as exc:
                raise _manifest_error(
                    manifest_path, f"document {doc_id!r} of topic {topic_id!r} {exc}: {doc_path}"
                ) from None
        corpora.append(TopicCorpus(topic_id=topic_id, documents=tuple(documents)))
    return corpora


def bundled_corpus_path() -> Path:
    """Path of the bundled synthetic corpus manifest."""
    return Path(str(resources.files("entangletext.data").joinpath("corpus/manifest.json")))
