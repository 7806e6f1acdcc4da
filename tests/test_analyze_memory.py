"""scripts/analyze_memory.py runs and prints its documented line."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_unscaled_corpus_line(subprocess_env):
    proc = subprocess.run(
        [sys.executable, "scripts/analyze_memory.py", "--scales", "1"],
        cwd=ROOT,
        env=subprocess_env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    line = json.loads(lines[0])
    assert set(line) == {
        "scale", "seed", "documents", "kept_tokens", "held_corpus_mb", "traced_peak_mb",
        "load_peak_mb", "import_rss_mb", "max_rss_mb",
    }
    assert (line["scale"], line["seed"], line["documents"]) == (1, 7, 120)
    assert line["kept_tokens"] == 168_000
    assert line["held_corpus_mb"] == 168_000 * 4 / 1e6
    # about 3.0 MB at numpy 2.4; 3.6 MB while each (topic, W) built a window index
    assert line["traced_peak_mb"] < 4.0
    # about 1.5 MB: the loaded corpus, its vocabulary and token memo, and one
    # document being tokenized
    assert line["load_peak_mb"] < 2.0
    assert line["load_peak_mb"] <= line["traced_peak_mb"]
    assert 0 < line["import_rss_mb"] <= line["max_rss_mb"]
