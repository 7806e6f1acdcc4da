"""Seeded workload inputs: corpus manifests the analyze workloads read.

Every input is a pure function of (workload, seed) and is written once
under the cache directory before anything is timed. The bundled-corpus
workloads copy the bundled documents and list them in a seed-shuffled
order: the analysis must not depend on manifest order, so the frozen
planted expectations stay the oracle for every seed.

The large corpus follows the scene/theme recipe of
scripts/make_synthetic_corpus.py at a much larger size. Its vocabulary
is fixed (built from VOCAB_SEED) so that every seed costs the same per
token; the seed drives only the scene sequence and the rendering. Each
topic has two theme sets and two mid sets of stems; a scene draws from
one side (or both), so terms co-occur more within a side than across.
Surfaces carry English inflections (-s, -ing, -ed, -ation, ...) so the
stemmer does real suffix work, and stop words from the bundled list are
interleaved as fillers.
"""

from __future__ import annotations

import bisect
import json
import random
import shutil
from pathlib import Path

VOCAB_SEED = 1909_09708

# analyze_large size: topics x documents x scene groups of 5 stems each
LARGE_TOPICS = ("delta", "kappa", "sigma")
LARGE_DOCS_PER_TOPIC = 40
LARGE_GROUPS_PER_DOC = 280
LARGE_RARE_PER_TOPIC = 400
LARGE_SHARED = 40

_ONSETS = ("b", "c", "d", "f", "g", "l", "m", "n", "p", "r", "s", "t", "v", "br", "cr",
           "dr", "gl", "pl", "st", "tr", "sh", "ch", "th")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ou", "ee")
_CODAS = ("", "", "n", "r", "l", "m", "st", "nd", "rt", "ck")
_SUFFIXES = ("", "s", "ing", "ed", "er", "ers", "ation", "ness", "ful", "ment",
             "ize", "al", "ly", "ity", "ive")
_DIGITS = ("1987", "12", "7", "1992", "3", "40")
_PUNCT_END = (".", ".", ".", "!", "?")


def stoplist(root: Path) -> list[str]:
    """The bundled stop words, read as data (no package import)."""
    path = root / "src" / "entangletext" / "data" / "stopwords_english.txt"
    return sorted(set(path.read_text(encoding="utf-8").split()))


def write_bundled(root: Path, dest: Path, seed: int, topic_ids=None) -> Path:
    """Copy the bundled corpus (optionally a subset of topics) in seeded order."""
    src = root / "src" / "entangletext" / "data" / "corpus"
    manifest = json.loads((src / "manifest.json").read_text(encoding="utf-8"))
    rng = random.Random(seed)
    topics = [t for t in manifest["topics"] if topic_ids is None or t["topic_id"] in topic_ids]
    rng.shuffle(topics)
    dest.mkdir(parents=True, exist_ok=True)
    for topic in topics:
        docs = list(topic["documents"])
        rng.shuffle(docs)
        topic["documents"] = docs
        for doc in docs:
            shutil.copyfile(src / doc["path"], dest / doc["path"])
    path = dest / "manifest.json"
    path.write_text(json.dumps({"topics": topics}, indent=1) + "\n", encoding="utf-8")
    return path


def _word(rng: random.Random, syllables: int) -> str:
    return "".join(
        rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_CODAS) for _ in range(syllables)
    )


def large_vocabulary(stop: list[str]) -> dict:
    """Fixed per-topic stem pools, each base with its inflected surfaces."""
    rng = random.Random(VOCAB_SEED)
    stopset = set(stop)
    used: set[str] = set()

    def fresh(n: int) -> list[list[str]]:
        out = []
        while len(out) < n:
            base = _word(rng, rng.choice((1, 2, 2, 3)))
            if base in used or base in stopset or len(base) < 3:
                continue
            used.add(base)
            forms = [base + s for s in rng.sample(_SUFFIXES, 3)]
            out.append([f for f in forms if f not in stopset] or [base])
        return out

    vocab = {"shared": fresh(LARGE_SHARED), "topics": {}}
    for topic_id in LARGE_TOPICS:
        vocab["topics"][topic_id] = {
            "theme_a": fresh(5),
            "theme_b": fresh(5),
            "mid_a": fresh(8),
            "mid_b": fresh(8),
            "rare": fresh(LARGE_RARE_PER_TOPIC),
        }
    return vocab


def _zipf_pick(rng: random.Random, pool: list, cum: list[float]):
    return pool[bisect.bisect_left(cum, rng.random() * cum[-1])]


def _cumulative(n: int, decay: float) -> list[float]:
    acc, out = 0.0, []
    for i in range(n):
        acc += (i + 1) ** -decay
        out.append(acc)
    return out


def _scene_groups(rng: random.Random, spec: dict, shared: list, n_groups: int) -> list:
    """Plan n_groups scenes of 5 surface-form lists (the scene/theme recipe)."""
    pools = {
        "a": (spec["theme_a"], spec["mid_a"]),
        "b": (spec["theme_b"], spec["mid_b"]),
        "mixed": (spec["theme_a"] + spec["theme_b"], spec["mid_a"] + spec["mid_b"]),
    }
    cums = {key: (_cumulative(len(t), 0.35), _cumulative(len(m), 0.35))
            for key, (t, m) in pools.items()}
    rare, rare_cum = spec["rare"], _cumulative(len(spec["rare"]), 1.0)
    groups = []
    for _ in range(n_groups):
        scene = rng.choices(("a", "b", "mixed"), weights=(0.4, 0.4, 0.2))[0]
        theme, mid = pools[scene]
        t_cum, m_cum = cums[scene]
        group = [_zipf_pick(rng, theme, t_cum), _zipf_pick(rng, theme, t_cum),
                 _zipf_pick(rng, mid, m_cum)]
        for _ in range(2):
            r = rng.random()
            if r < 0.35:
                group.append(_zipf_pick(rng, theme, t_cum))
            elif r < 0.6:
                group.append(_zipf_pick(rng, mid, m_cum))
            elif r < 0.75:
                group.append(rng.choice(shared))
            else:
                group.append(_zipf_pick(rng, rare, rare_cum))
        groups.append(group)
    return groups


def _render(rng: random.Random, groups: list, fillers: list[str]) -> str:
    sentences = []
    for group in groups:
        words = []
        for forms in group:
            words.append(rng.choice(forms))
            if rng.random() < 0.8:
                words.append(rng.choice(fillers))
            if rng.random() < 0.05:
                words.append(rng.choice(_DIGITS))
        words[0] = words[0].capitalize()
        sentences.append(" ".join(words) + rng.choice(_PUNCT_END))
    lines = [" ".join(sentences[i : i + 4]) for i in range(0, len(sentences), 4)]
    return "\n".join(lines) + "\n"


def write_large(root: Path, dest: Path, seed: int) -> Path:
    """Generate the seeded large corpus and its manifest under dest."""
    stop = stoplist(root)
    vocab = large_vocabulary(stop)
    rng = random.Random(seed)
    dest.mkdir(parents=True, exist_ok=True)
    manifest = {"topics": []}
    for topic_id in LARGE_TOPICS:
        spec = vocab["topics"][topic_id]
        documents = []
        for d in range(LARGE_DOCS_PER_TOPIC):
            doc_id = f"{topic_id}-{d + 1:03d}"
            groups = _scene_groups(rng, spec, vocab["shared"], LARGE_GROUPS_PER_DOC)
            (dest / f"{doc_id}.txt").write_text(_render(rng, groups, stop), encoding="utf-8")
            documents.append({"doc_id": doc_id, "path": f"{doc_id}.txt"})
        manifest["topics"].append({"topic_id": topic_id, "documents": documents})
    path = dest / "manifest.json"
    path.write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    return path
