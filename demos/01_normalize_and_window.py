"""Normalization and window segmentation, step by step.

Raw text goes through four moves: alphabetic tokens are extracted
(digits and punctuation act as separators), lowercased, filtered against
the stop-word list, and Porter-stemmed. Each term is kept as an int32 id
into a vocabulary. The resulting sequence is then tiled into fixed-size
windows, held as two index arrays: the term ids and, for each position,
the window it falls in. The trailing partial window is kept.

=== EXAMPLE OUTPUT ===
raw: The storms flooded 3 coastal towns; rescue crews recorded gusting winds!
terms: ['storm', 'flood', 'coastal', 'town', 'rescu', 'crew', 'record', 'gust', 'wind']
window 0: ['storm', 'flood', 'coastal', 'town']
window 1: ['rescu', 'crew', 'record', 'gust']
window 2: ['wind']
"""

import numpy as np

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
    # window_of is non-decreasing: split the ids where it steps
    tiles = np.split(windows.ids, np.flatnonzero(np.diff(windows.window_of)) + 1)
    for index, tile in enumerate(tiles):
        print(f"window {index}: {[vocabulary[i] for i in tile.tolist()]}")

    flat = [vocabulary[i] for tile in tiles for i in tile.tolist()]
    assert len(tiles) == len(windows), "one tile per window"
    assert flat == list(sequence.terms), "windows must tile the sequence exactly"
    print("tiling check: windows reconstruct the sequence")


if __name__ == "__main__":
    main()
