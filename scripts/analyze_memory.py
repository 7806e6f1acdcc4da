"""Analyze memory as the corpus grows: one JSON line per corpus scale.

For each scale the script generates the corpus of perfbench's
`analyze_large` workload with the scene groups per document multiplied
by that scale. It imports perfbench/inputs.py for the recipe and changes
only its `LARGE_GROUPS_PER_DOC` in memory, never the file. It then runs
`run_analyze` on that corpus as the workload does (W in 5 and 40,
tfidf, k = 10), twice, each time in a fresh interpreter: once under
tracemalloc and once untraced. Each line holds:

- scale, documents, and the kept tokens of the loaded corpus
- held_corpus_mb: those tokens as the int32 term ids the corpus holds
- traced_peak_mb: the tracemalloc peak of the traced run
- load_peak_mb: the tracemalloc peak of loading the corpus alone, in the
  traced run's interpreter after the run; the largest document sets it
- import_rss_mb: the peak resident memory of the untraced run's
  interpreter right after `import entangletext`, before the run
- max_rss_mb: the peak resident memory of the untraced run

The package measured is the one the interpreter imports, so run it from
the repository root as

    PYTHONPATH=src python3 scripts/analyze_memory.py [--scales 1 4 16] [--seed 7] [--work DIR]

The generated corpora go to a temporary directory that is deleted at the
end, or to --work DIR, where they are kept and reused.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BASE_GROUPS = 280  # LARGE_GROUPS_PER_DOC of the unscaled recipe


def generate(scale: int, seed: int, dest: Path) -> Path:
    """The scaled analyze_large corpus under dest (reused when there)."""
    manifest = dest / "manifest.json"
    if manifest.is_file():
        return manifest
    sys.path.insert(0, str(ROOT / "perfbench"))
    import inputs

    inputs.LARGE_GROUPS_PER_DOC = BASE_GROUPS * scale
    return inputs.write_large(ROOT, dest, seed)


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def measure(manifest: Path, traced: bool) -> dict:
    """One run_analyze call on manifest; its memory figures."""
    from entangletext import report

    import_rss = _max_rss_mb()

    with tempfile.TemporaryDirectory() as out:
        config = report.RunConfig(
            manifest=manifest,
            out_dir=Path(out),
            window_sizes=(5, 40),
            methods=("tfidf",),
            concept_size=10,
        )
        if traced:
            tracemalloc.start()
            report.run_analyze(config)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        else:
            report.run_analyze(config)
    if not traced:
        return {"import_rss_mb": import_rss, "max_rss_mb": _max_rss_mb()}
    tracemalloc.start()
    topics = report.load_topic_corpus(manifest, report._pipeline_config(config))
    load_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    tokens = sum(len(doc) for topic in topics for doc in topic.documents)
    return {
        "documents": sum(len(topic.documents) for topic in topics),
        "kept_tokens": tokens,
        "held_corpus_mb": tokens * 4 / 1e6,
        "traced_peak_mb": peak / 1e6,
        "load_peak_mb": load_peak / 1e6,
    }


def run_child(manifest: Path, traced: bool) -> dict:
    command = [sys.executable, __file__, "--child", str(manifest), "--traced", str(int(traced))]
    done = subprocess.run(command, check=True, capture_output=True, text=True)
    return json.loads(done.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scales", type=int, nargs="+", default=[1, 4, 16])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--work", type=Path, help="keep the generated corpora here")
    parser.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--traced", type=int, choices=(0, 1), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child is not None:
        print(json.dumps(measure(args.child, bool(args.traced))))
        return 0
    if any(scale < 1 for scale in args.scales):
        parser.error("scales must be positive integers")

    with tempfile.TemporaryDirectory() as tmp:
        work = args.work or Path(tmp)
        for scale in args.scales:
            manifest = generate(scale, args.seed, work / f"large-{args.seed}-x{scale}")
            line = {"scale": scale, "seed": args.seed}
            line.update(run_child(manifest, traced=True))
            line.update(run_child(manifest, traced=False))
            print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
