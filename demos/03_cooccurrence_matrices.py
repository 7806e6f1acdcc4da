"""Windowed co-occurrence matrices and their value histograms.

A window contributes 1 to cell (i, j) when both terms appear in it at
least once. Shrinking the window sharpens contrast: at width 20 most
concept terms meet somewhere, while width 5 leaves many zero cells next
to a few large ones, the profile that favors CHSH violations.
"""

from entangletext import (
    PipelineConfig,
    build_concept_pair,
    bundled_corpus_path,
    cooccurrence_histogram,
    count_cooccurrences,
    load_topic_corpus,
    rank_by_frequency,
)


def main():
    topics = load_topic_corpus(bundled_corpus_path(), PipelineConfig())
    topic = topics[0]
    pair = build_concept_pair(rank_by_frequency(topic))
    print(f"topic {topic.topic_id}: c1={list(pair.c1)}")
    print(f"{'':14}c2={list(pair.c2)}")

    for width in (20, 10, 5):
        matrix = count_cooccurrences(pair, topic.windows(width))
        hist = cooccurrence_histogram(matrix)
        print(f"\nwindow size {width}: {matrix.n_windows} windows")
        header = " ".join(f"{t[:6]:>6}" for t in pair.c2)
        print(f"{'':10} {header}")
        for i, term in enumerate(pair.c1):
            row = " ".join(f"{v:>6}" for v in matrix.counts[i])
            print(f"{term[:10]:>10} {row}")
        print("value histogram:", hist)


if __name__ == "__main__":
    main()
