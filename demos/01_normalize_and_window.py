"""Normalization and window segmentation, step by step.

Raw text goes through four moves: alphabetic tokens are extracted
(digits and punctuation act as separators), lowercased, filtered against
the stop-word list, and Porter-stemmed. Each term is kept as an int32 id
into a vocabulary. The resulting sequence is then tiled into fixed-size
windows: position i lies in window i // W, so window j is the slice of
the ids from j * W to (j + 1) * W. The trailing partial window is kept.

=== EXAMPLE OUTPUT ===
raw: The storms flooded 3 coastal towns; rescue crews recorded gusting winds!
terms: ['storm', 'flood', 'coastal', 'town', 'rescu', 'crew', 'record', 'gust', 'wind']
window 0: ['storm', 'flood', 'coastal', 'town']
window 1: ['rescu', 'crew', 'record', 'gust']
window 2: ['wind']
"""

from entangletext import PipelineConfig, RawDocument, TopicCorpus, tokenize_and_normalize


def main():
    raw = RawDocument(
        doc_id="demo",
        topic_id="storm",
        text="The storms flooded 3 coastal towns; rescue crews recorded gusting winds!",
    )
    config = PipelineConfig()
    sequence = tokenize_and_normalize(raw, config)
    print("raw:", raw.text)
    print("terms:", list(sequence.terms))

    windows = TopicCorpus(topic_id=raw.topic_id, documents=(sequence,)).windows(4)
    vocabulary = sequence.vocabulary.terms
    width = windows.window_size
    tiles = [sequence.ids[i : i + width] for i in range(0, len(sequence), width)]
    for index, tile in enumerate(tiles):
        print(f"window {index}: {[vocabulary[i] for i in tile.tolist()]}")

    flat = [vocabulary[i] for tile in tiles for i in tile.tolist()]
    assert len(tiles) == len(windows), "one tile per window"
    assert flat == list(sequence.terms), "windows must tile the sequence exactly"
    print("tiling check: windows reconstruct the sequence")


if __name__ == "__main__":
    main()
