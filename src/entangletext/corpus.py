"""Topic-corpus ingestion: tokenization, normalization, window segmentation.

Raw documents are reduced to ordered term sequences (maximal alphabetic
runs, lowercased, stop-word filtered, Porter-stemmed) and then tiled into
fixed-size windows. Windows never cross document boundaries; the trailing
partial window is kept so no terms are dropped.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .porter import stem

__all__ = [
    "CorpusError",
    "PipelineConfig",
    "RawDocument",
    "TermSequence",
    "Window",
    "TopicCorpus",
    "default_stoplist",
    "load_stoplist",
    "tokenize_and_normalize",
    "segment_windows",
    "load_topic_corpus",
    "bundled_corpus_path",
]


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
    words = frozenset(path.read_text(encoding="utf-8").split())
    bad = sorted(w for w in words if w != w.lower())
    if bad:
        raise CorpusError(f"stoplist entries must be lowercase: {bad[:5]}")
    return words


@dataclass(frozen=True)
class PipelineConfig:
    """Normalization choices, immutable for the lifetime of a run.

    ``stoplist`` entries are matched against the lowercased, unstemmed
    token. When ``lowercase`` is off, surviving tokens keep their original
    case unless stemming is on (the stemmer emits lowercase).
    """

    stoplist: frozenset[str] = field(default_factory=default_stoplist)
    stemming_enabled: bool = True
    lowercase: bool = True
    token_pattern: str = r"[A-Za-z]+"  # maximal runs of alphabetic characters

    def __post_init__(self):
        object.__setattr__(self, "stoplist", frozenset(self.stoplist))
        bad = sorted(w for w in self.stoplist if w != w.lower())
        if bad:
            raise ValueError(f"stoplist entries must be lowercase: {bad[:5]}")
        # tokens are whole matches (re.findall returns groups instead)
        if re.compile(self.token_pattern).groups:
            raise ValueError(
                f"token_pattern must have no capturing groups, use (?:...): {self.token_pattern!r}"
            )


@dataclass(frozen=True)
class RawDocument:
    doc_id: str
    topic_id: str
    text: str


@dataclass(frozen=True)
class TermSequence:
    """Ordered normalized terms of one document."""

    doc_id: str
    terms: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))

    def __len__(self) -> int:
        return len(self.terms)


@dataclass(frozen=True)
class Window:
    """One tile of consecutive terms within a single document."""

    doc_id: str
    index: int
    terms: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))


@dataclass(frozen=True)
class TopicCorpus:
    """All normalized documents of one topic."""

    topic_id: str
    documents: tuple[TermSequence, ...]

    def __post_init__(self):
        object.__setattr__(self, "documents", tuple(self.documents))

    def windows(self, window_size: int) -> list[Window]:
        """Windows of width window_size over every document, in document order."""
        out: list[Window] = []
        for doc in self.documents:
            out.extend(segment_windows(doc, window_size))
        return out


def tokenize_and_normalize(raw: RawDocument, config: PipelineConfig) -> TermSequence:
    """Extract, lowercase, stop-filter and stem the tokens of one document.

    Token order is preserved; empty text yields an empty sequence.
    """
    return _normalize(raw, config, {})


def _normalize(raw: RawDocument, config: PipelineConfig, stems: dict[str, str]) -> TermSequence:
    """tokenize_and_normalize with a caller-owned memo of lowercased token -> stem.

    Stemming is a pure function of the lowercased token, so a memo shared by
    the documents of one load stems each distinct token once.
    """
    stoplist = config.stoplist
    out: list[str] = []
    for token in re.findall(config.token_pattern, raw.text):
        lowered = token.lower()
        if lowered in stoplist:
            continue
        if config.stemming_enabled:
            term = stems.get(lowered)
            if term is None:
                term = stems[lowered] = stem(lowered)
            out.append(term)
        else:
            out.append(lowered if config.lowercase else token)
    return TermSequence(doc_id=raw.doc_id, terms=tuple(out))


def segment_windows(seq: TermSequence, window_size: int) -> list[Window]:
    """Tile a term sequence into ceil(len/W) windows of at most W terms."""
    if window_size < 1:
        raise ValueError(f"window size must be >= 1, got {window_size}")
    return [
        Window(doc_id=seq.doc_id, index=i, terms=seq.terms[start : start + window_size])
        for i, start in enumerate(range(0, len(seq.terms), window_size))
    ]


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
    stems: dict[str, str] = {}  # lives for this load only
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
                text = doc_path.read_text(encoding="utf-8")
            except UnicodeDecodeError as exc:
                raise _manifest_error(
                    manifest_path, f"document {doc_id!r} is not UTF-8 text: {doc_path} ({exc})"
                ) from exc
            if not text.strip():
                raise _manifest_error(
                    manifest_path, f"document {doc_id!r} of topic {topic_id!r} is empty: {doc_path}"
                )
            raw = RawDocument(doc_id=doc_id, topic_id=topic_id, text=text)
            documents.append(_normalize(raw, config, stems))
        corpora.append(TopicCorpus(topic_id=topic_id, documents=tuple(documents)))
    return corpora


def bundled_corpus_path() -> Path:
    """Path of the bundled synthetic corpus manifest."""
    return Path(str(resources.files("entangletext.data").joinpath("corpus/manifest.json")))
