"""Generate the bundled synthetic corpus (run from the repo root).

Deterministic, seeded. Each topic's documents are sequences of 5-term
scene groups so that every group is exactly one window at width 5; scenes
draw from two term subsets per topic to create strong within-subset /
cross-subset co-occurrence contrast. Three facts are planted per topic and
recorded in tests/data/planted_facts.json:

  * a unique pair that co-occurs in exactly one known width-5 window,
  * a forbidden pair that never shares a width-5 window,
  * the full content of the planted window.

The script asserts, before freezing anything, that the package pipeline
reproduces the planned stem sequences, that the frequency top-10 equals
the intended theme set, that the tf-idf concepts contain the planted
terms, and that both stemmer implementations agree on every surface form.

Usage: PYTHONPATH=src:tests python3 scripts/make_synthetic_corpus.py
"""

import json
import random
import sys
from collections import Counter
from pathlib import Path

sys.path[:0] = ["src", "tests"]

from entangletext import corpus as corpus_mod
from entangletext import relevance
from entangletext.porter import stem as pkg_stem
from oracles import porter_reference

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "src" / "entangletext" / "data" / "corpus"
FACTS_PATH = ROOT / "tests" / "data" / "planted_facts.json"

SEED = 20240811

# per topic: two theme subsets (intended frequency top 10), two mid subsets
# (intended ranks 11-20 together with the shared words), rare words, and the
# surface forms that must stem to each vocabulary entry.
TOPICS = {
    "storm": {
        "theme_a": ["surg", "tide", "wave", "coast", "flood"],
        "theme_b": ["storm", "wind", "rain", "cloud", "thunder"],
        "mid_a": ["rescu", "shelter", "forecast", "pressur", "downpour"],
        "mid_b": ["gust", "hail", "radar", "warn", "damag"],
        "rare": ["anemomet", "cyclon", "isobar", "squall", "buoi", "gale"],
        "unique_pair": ("thunder", "rescu"),
        "forbidden_pair": ("tide", "hail"),
        "planted_doc": 2,  # storm-03
        "planted_group": 2,
        "planted_terms": ["thunder", "rescu", "storm", "wind", "cloud"],
        "surfaces": {
            "surg": ["surge", "surges", "surged"],
            "tide": ["tide", "tides"],
            "wave": ["wave", "waves"],
            "coast": ["coast", "coasts"],
            "flood": ["flood", "floods", "flooding"],
            "storm": ["storm", "storms", "Storm"],
            "wind": ["wind", "winds"],
            "rain": ["rain", "rains", "raining"],
            "cloud": ["cloud", "clouds"],
            "thunder": ["thunder", "thunders"],
            "rescu": ["rescue", "rescues"],
            "shelter": ["shelter", "shelters"],
            "forecast": ["forecast", "forecasts"],
            "pressur": ["pressure", "pressures"],
            "downpour": ["downpour", "downpours"],
            "gust": ["gust", "gusts", "gusting"],
            "hail": ["hail", "hailed"],
            "radar": ["radar"],
            "warn": ["warn", "warning", "warnings"],
            "damag": ["damage", "damaged", "damages"],
            "anemomet": ["anemometer"],
            "cyclon": ["cyclone", "cyclones"],
            "isobar": ["isobar", "isobars"],
            "squall": ["squall", "squalls"],
            "buoi": ["buoy", "buoys"],
            "gale": ["gale", "gales"],
        },
    },
    "harvest": {
        "theme_a": ["wheat", "grain", "seed", "crop", "soil"],
        "theme_b": ["harvest", "tractor", "barn", "field", "farmer"],
        "mid_a": ["silo", "orchard", "meadow", "fertil", "pastur"],
        "mid_b": ["plow", "sickl", "haystack", "scarecrow", "irrig"],
        "rare": ["thresher", "combin", "loam", "furrow", "granari", "scyth"],
        "unique_pair": ("wheat", "irrig"),
        "forbidden_pair": ("barn", "orchard"),
        "planted_doc": 4,  # harvest-05
        "planted_group": 6,
        "planted_terms": ["wheat", "irrig", "grain", "soil", "crop"],
        "surfaces": {
            "wheat": ["wheat"],
            "grain": ["grain", "grains"],
            "seed": ["seed", "seeds", "seeded"],
            "crop": ["crop", "crops"],
            "soil": ["soil", "soils"],
            "harvest": ["harvest", "harvests", "harvested", "harvesting"],
            "tractor": ["tractor", "tractors"],
            "barn": ["barn", "barns"],
            "field": ["field", "fields"],
            "farmer": ["farmer", "farmers"],
            "silo": ["silo", "silos"],
            "orchard": ["orchard", "orchards"],
            "meadow": ["meadow", "meadows"],
            "fertil": ["fertile", "fertilizer", "fertilized"],
            "pastur": ["pasture", "pastures"],
            "plow": ["plow", "plows", "plowed"],
            "sickl": ["sickle", "sickles"],
            "haystack": ["haystack", "haystacks"],
            "scarecrow": ["scarecrow", "scarecrows"],
            "irrig": ["irrigation", "irrigate", "irrigated"],
            "thresher": ["thresher", "threshers"],
            "combin": ["combine", "combines"],
            "loam": ["loam"],
            "furrow": ["furrow", "furrows"],
            "granari": ["granary", "granaries"],
            "scyth": ["scythe", "scythes"],
        },
    },
    "orchestra": {
        "theme_a": ["violin", "cello", "sonata", "melodi", "concert"],
        "theme_b": ["orchestra", "conductor", "rhythm", "tempo", "flute"],
        "mid_a": ["chord", "quartet", "harmoni", "maestro", "timpani"],
        "mid_b": ["obo", "bassoon", "podium", "baton", "soloist"],
        "rare": ["piccolo", "viola", "crescendo", "arpeggio", "cadenza", "lute"],
        "unique_pair": ("cello", "baton"),
        "forbidden_pair": ("sonata", "podium"),
        "planted_doc": 1,  # orchestra-02
        "planted_group": 1,
        "planted_terms": ["cello", "baton", "violin", "melodi", "concert"],
        "surfaces": {
            "violin": ["violin", "violins"],
            "cello": ["cello", "cellos"],
            "sonata": ["sonata", "sonatas"],
            "melodi": ["melody", "melodies"],
            "concert": ["concert", "concerts"],
            "orchestra": ["orchestra", "orchestras"],
            "conductor": ["conductor", "conductors"],
            "rhythm": ["rhythm", "rhythms"],
            "tempo": ["tempo", "tempos"],
            "flute": ["flute", "flutes"],
            "chord": ["chord", "chords"],
            "quartet": ["quartet", "quartets"],
            "harmoni": ["harmony", "harmonies"],
            "maestro": ["maestro"],
            "timpani": ["timpani"],
            "obo": ["oboe", "oboes"],
            "bassoon": ["bassoon", "bassoons"],
            "podium": ["podium"],
            "baton": ["baton", "batons"],
            "soloist": ["soloist", "soloists"],
            "piccolo": ["piccolo"],
            "viola": ["viola", "violas"],
            "crescendo": ["crescendo"],
            "arpeggio": ["arpeggio"],
            "cadenza": ["cadenza"],
            "lute": ["lute", "lutes"],
        },
    },
}

SHARED = {
    "report": ["report", "reports", "reported"],
    "region": ["region", "regions", "regional"],
    "season": ["season", "seasons", "seasonal"],
    "record": ["record", "records", "recorded"],
}

N_DOCS = 8
N_GROUPS = 8
GROUP_SIZE = 5

# decorations vanish entirely under normalization
FILLERS = [
    "the", "of", "and", "a", "to", "in", "that", "it", "with", "as",
    "for", "was", "on", "are", "this", "but", "not", "or", "by", "from",
]
DIGITS = ["1987", "12", "7", "1992", "3"]
PUNCT_END = [".", ".", ".", "!", "?"]


def weighted_choice(rng, items, decay=0.35):
    weights = [(i + 1) ** -decay for i in range(len(items))]
    total = sum(weights)
    x = rng.random() * total
    acc = 0.0
    for item, w in zip(items, weights):
        acc += w
        if x <= acc:
            return item
    return items[-1]


def build_groups(rng, spec):
    """Plan the stem content of every (doc, group), 5 stems per group."""
    theme = {"a": spec["theme_a"], "b": spec["theme_b"]}
    mid = {"a": spec["mid_a"], "b": spec["mid_b"]}
    shared = list(SHARED)
    rare = spec["rare"]
    all_theme = spec["theme_a"] + spec["theme_b"]
    all_mid = spec["mid_a"] + spec["mid_b"]

    round_robin = 0
    docs = []
    for d in range(N_DOCS):
        groups = []
        for g in range(N_GROUPS):
            scene = rng.choices(["a", "b", "mixed"], weights=[0.4, 0.4, 0.2])[0]
            t_pool = all_theme if scene == "mixed" else theme[scene]
            m_pool = all_mid if scene == "mixed" else mid[scene]
            group = []
            group.append(all_theme[round_robin % len(all_theme)])
            round_robin += 1
            group.append(weighted_choice(rng, t_pool))
            group.append(weighted_choice(rng, m_pool))
            r3 = rng.random()
            if r3 < 0.45:
                group.append(weighted_choice(rng, t_pool))
            elif r3 < 0.75:
                group.append(weighted_choice(rng, m_pool))
            elif r3 < 0.90:
                group.append(rng.choice(shared))
            else:
                group.append(rng.choice(rare))
            r4 = rng.random()
            if r4 < 0.35:
                group.append(rng.choice(shared))
            elif r4 < 0.60:
                group.append(rng.choice(rare))
            elif r4 < 0.80:
                group.append(weighted_choice(rng, m_pool))
            else:
                group.append(weighted_choice(rng, t_pool))
            groups.append(group)
        docs.append(groups)

    # planted window content
    docs[spec["planted_doc"]][spec["planted_group"]] = list(spec["planted_terms"])

    # enforce the unique pair: it co-occurs only in the planted group
    ua, ub = spec["unique_pair"]
    fa, fb = spec["forbidden_pair"]
    mid_replacement = [m for m in all_mid if m not in (ub, fb)]
    for d in range(N_DOCS):
        for g in range(N_GROUPS):
            group = docs[d][g]
            if (d, g) == (spec["planted_doc"], spec["planted_group"]):
                continue
            changed = True
            while changed:
                changed = False
                if ua in group and ub in group:
                    group[group.index(ub)] = rng.choice(mid_replacement)
                    changed = True
                if fa in group and fb in group:
                    group[group.index(fb)] = rng.choice(mid_replacement)
                    changed = True

    # trailing partial window: last doc gets a 3-term tail group
    docs[N_DOCS - 1].append([all_theme[0], all_mid[0], rng.choice(shared)])

    _rebalance(rng, docs, spec)
    return docs


def _violates_plants(group, spec):
    ua, ub = spec["unique_pair"]
    fa, fb = spec["forbidden_pair"]
    return (ua in group and ub in group) or (fa in group and fb in group)


def _rebalance(rng, docs, spec):
    """Swap occurrences until every theme word outranks every other term.

    The frequency top-10 must be exactly the theme set, with a margin of 2
    so document ordering can never flip it. Planted groups are untouched
    and swaps never create a forbidden/unique co-occurrence.
    """
    theme = spec["theme_a"] + spec["theme_b"]
    planted = (spec["planted_doc"], spec["planted_group"])
    positions = [
        (d, g)
        for d in range(len(docs))
        for g in range(len(docs[d]))
        if (d, g) != planted
    ]
    # a tuple, not a set: low[0] below must not depend on string hashing
    plant_mids = (spec["unique_pair"][1], spec["forbidden_pair"][1])

    def swap_one(donor, receiver):
        rng.shuffle(positions)
        for d, g in positions:
            group = docs[d][g]
            if donor not in group or receiver in group:
                continue
            candidate = list(group)
            candidate[group.index(donor)] = receiver
            if not _violates_plants(candidate, spec):
                docs[d][g][group.index(donor)] = receiver
                return
        raise AssertionError(f"cannot swap {donor} -> {receiver}")

    for _ in range(2000):
        tally = Counter(t for doc in docs for grp in doc for t in grp)
        nontheme = [t for t in tally if t not in theme]

        missing_rare = [r for r in spec["rare"] if tally[r] == 0]
        if missing_rare:
            d, g = rng.choice(positions)
            docs[d][g][-1] = missing_rare[0]
            continue

        weakest = min(theme, key=lambda t: (tally[t], t))
        offender = max(nontheme, key=lambda t: (tally[t], t))
        if tally[weakest] < tally[offender] + 2:
            swap_one(offender, weakest)
            continue

        # the planted mid terms must sit safely inside ranks 11-20
        rest = sorted(
            (tally[t] for t in nontheme if t not in plant_mids), reverse=True
        )
        cutoff = rest[8] if len(rest) > 8 else 0
        low = [pm for pm in plant_mids if tally[pm] < cutoff + 2]
        if low:
            donor = max(
                (t for t in nontheme if t not in plant_mids),
                key=lambda t: (tally[t], t),
            )
            swap_one(donor, low[0])
            continue
        return
    raise AssertionError("rebalance did not converge")


def render_text(rng, groups, surfaces):
    """Turn planned stems into decorated raw text (one sentence per group)."""
    sentences = []
    for group in groups:
        words = []
        for stem_name in group:
            words.append(rng.choice(surfaces[stem_name]))
            if rng.random() < 0.5:
                words.append(rng.choice(FILLERS))
            if rng.random() < 0.08:
                words.append(rng.choice(DIGITS))
        if rng.random() < 0.4:
            words.insert(0, rng.choice(FILLERS).capitalize())
        else:
            words[0] = words[0].capitalize()
        sentence = []
        for i, w in enumerate(words):
            sentence.append(w)
            if rng.random() < 0.1 and i < len(words) - 1:
                sentence[-1] = sentence[-1] + ","
        sentences.append(" ".join(sentence) + rng.choice(PUNCT_END))
    # paragraph breaks for texture
    text = ""
    for i, s in enumerate(sentences):
        text += s
        text += "\n\n" if (i + 1) % 3 == 0 else " "
    return text.strip() + "\n"


def main():
    rng = random.Random(SEED)
    OUT.mkdir(parents=True, exist_ok=True)
    FACTS_PATH.parent.mkdir(parents=True, exist_ok=True)

    config = corpus_mod.PipelineConfig()
    stoplist = config.stoplist

    # every vocabulary surface must survive the stoplist, stem identically
    # under both implementations, and hit its intended stem
    for spec in list(TOPICS.values()):
        vocab = dict(spec["surfaces"])
        vocab.update(SHARED)
        for target, forms in vocab.items():
            assert target not in stoplist, f"stem {target!r} is a stopword"
            for form in forms:
                low = form.lower()
                assert low not in stoplist, f"surface {form!r} is a stopword"
                got_pkg = pkg_stem(low)
                got_ref = porter_reference(low)
                assert got_pkg == got_ref == target, (
                    f"surface {form!r}: package={got_pkg!r} reference={got_ref!r} "
                    f"want {target!r}"
                )
    for filler in FILLERS:
        assert filler in stoplist, f"filler {filler!r} not in stoplist"

    manifest = {"topics": []}
    facts = {}
    for topic_id, spec in TOPICS.items():
        groups_by_doc = build_groups(rng, spec)
        surfaces = dict(spec["surfaces"])
        surfaces.update(SHARED)

        doc_entries = []
        planned: dict[str, list[str]] = {}
        for d, groups in enumerate(groups_by_doc):
            doc_id = f"{topic_id}-{d + 1:02d}"
            text = render_text(rng, groups, surfaces)
            path = f"{doc_id}.txt"
            (OUT / path).write_text(text, encoding="utf-8")
            doc_entries.append({"doc_id": doc_id, "path": path})
            planned[doc_id] = [t for g in groups for t in g]
        manifest["topics"].append({"topic_id": topic_id, "documents": doc_entries})

        # verify the pipeline reproduces the plan exactly
        for entry in doc_entries:
            raw = corpus_mod.RawDocument(
                doc_id=entry["doc_id"],
                topic_id=topic_id,
                text=(OUT / entry["path"]).read_text(encoding="utf-8"),
            )
            got = list(corpus_mod.tokenize_and_normalize(raw, config).terms)
            assert got == planned[entry["doc_id"]], (
                f"{entry['doc_id']}: pipeline diverges from plan\n"
                f"got:  {got[:12]}...\nplan: {planned[entry['doc_id']][:12]}..."
            )

        tally = Counter(t for terms in planned.values() for t in terms)
        theme = set(spec["theme_a"] + spec["theme_b"])
        top10 = {t for t, _ in sorted(tally.items(), key=lambda kv: (-kv[1], kv[0]))[:10]}
        assert top10 == theme, (
            f"{topic_id}: frequency top10 {sorted(top10)} != theme {sorted(theme)}; "
            f"tally {tally.most_common(24)}"
        )
        assert len(tally) >= 25, f"{topic_id}: only {len(tally)} distinct stems"

        pd, pg = spec["planted_doc"], spec["planted_group"]
        facts[topic_id] = {
            "unique_pair": list(spec["unique_pair"]),
            "forbidden_pair": list(spec["forbidden_pair"]),
            "planted_doc_id": f"{topic_id}-{pd + 1:02d}",
            "planted_window_index": pg,
            "planted_terms": list(spec["planted_terms"]),
            "n_documents": N_DOCS,
            "distinct_stems": len(tally),
        }

    manifest_path = OUT / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")

    # cross-method sanity on the frozen files: concepts exist for both methods
    # and planted terms land inside the scanned matrices
    topics = corpus_mod.load_topic_corpus(manifest_path, config)
    df = relevance.document_frequencies(topics)
    for topic in topics:
        spec = TOPICS[topic.topic_id]
        freq_pair = relevance.build_concept_pair(relevance.rank_by_frequency(topic))
        tfidf_pair = relevance.build_concept_pair(
            relevance.rank_by_tfidf(topic, topics, df=df)
        )
        theme = set(spec["theme_a"] + spec["theme_b"])
        assert set(freq_pair.c1) == theme
        for a, b in (spec["unique_pair"], spec["forbidden_pair"]):
            for cp in (freq_pair, tfidf_pair):
                assert a in cp.c1, (topic.topic_id, cp.method, a, cp.c1)
                assert b in cp.c2, (topic.topic_id, cp.method, b, cp.c2)

    FACTS_PATH.write_text(json.dumps(facts, indent=2) + "\n", encoding="utf-8")
    n_files = len(list(OUT.glob("*.txt")))
    print(f"wrote {n_files} documents, manifest, and {FACTS_PATH.name}")
    for topic_id, f in facts.items():
        print(f"  {topic_id}: {f['distinct_stems']} stems, planted window "
              f"{f['planted_doc_id']}[{f['planted_window_index']}]")


if __name__ == "__main__":
    main()
