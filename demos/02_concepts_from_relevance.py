"""Building concept pairs from the bundled corpus.

For each topic, the top 10 terms of a relevance ranking form one concept
and ranks 11-20 form the other. Frequency ranking favors common terms
shared across topics; tf-idf demotes them in favor of topic-specific
vocabulary, so the two methods can produce different concept pairs.
"""

from entangletext import (
    PipelineConfig,
    build_concept_pair,
    bundled_corpus_path,
    document_frequencies,
    load_topic_corpus,
    rank_by_frequency,
    rank_by_tfidf,
)


def main():
    topics = load_topic_corpus(bundled_corpus_path(), PipelineConfig())
    df = document_frequencies(topics)

    for topic in topics:
        print(f"=== {topic.topic_id} ({len(topic.documents)} documents) ===")
        freq = rank_by_frequency(topic)
        tfidf = rank_by_tfidf(topic, topics, df=df)
        print("  top 5 by frequency:", [(t, int(s)) for t, s in freq.terms[:5]])
        print("  top 5 by tf-idf:   ", [(t, round(s, 1)) for t, s in tfidf.terms[:5]])

        for ranked in (freq, tfidf):
            pair = build_concept_pair(ranked)
            print(f"  {ranked.method:>9}: c1 = {list(pair.c1)}")
            print(f"             c2 = {list(pair.c2)}")
        print()


if __name__ == "__main__":
    main()
