"""In-memory spans around calls into entangletext's public functions.

The traced run swaps each wrapped public function, at the place its
caller looks it up, for a wrapper that records a span (name, start,
end, parent, attributes) and restores the originals afterwards. Nothing
in the package is edited: the spans come from this file alone. Spans are
kept in a list and written as one JSON file when the run ends.

`porter.stem` runs once per token, so it gets no span per call; its
wrapper adds up calls, distinct inputs and time into counters instead.
"""

from __future__ import annotations

import json
import statistics
import threading
import time
from pathlib import Path


class TraceError(Exception):
    """A function the trace wraps is not there."""


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counters = {"porter.stem_calls": 0, "porter.stem_s": 0.0}
        self.stem_inputs: set[str] = set()
        self._local = threading.local()
        self._open_root: int | None = None
        self._patched: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, attrs=None):
        def wrapper(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            on_main = threading.current_thread() is threading.main_thread()
            # a call on a pool thread belongs to the span that started the pool
            parent = stack[-1] if stack else (None if on_main else self._open_root)
            index = len(self.spans)
            record = {"name": name, "parent": parent}
            self.spans.append(record)
            if parent is None:
                self._open_root = index
            stack.append(index)
            record["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record["end"] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                record.update(attrs(args, kwargs, result))
            return result

        return wrapper

    def stem_counter(self, fn):
        counters, inputs, clock = self.counters, self.stem_inputs, time.perf_counter

        def wrapper(word):
            t0 = clock()
            result = fn(word)
            counters["porter.stem_s"] += clock() - t0
            counters["porter.stem_calls"] += 1
            inputs.add(word)
            return result

        return wrapper

    def patch(self, owner, attr: str, make_wrapper) -> None:
        """Replace owner.attr by make_wrapper(original).

        A missing function stops the run: its layer would read 0, which
        looks like a complete speed-up.
        """
        original = getattr(owner, attr, None)
        if original is None:
            raise TraceError(f"{getattr(owner, '__name__', owner)}.{attr} not found")
        self._patched.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        t0 = self.spans[0]["start"] if self.spans else 0.0
        spans = [
            {**s, "start": s["start"] - t0, "end": s["end"] - t0} for s in self.spans
        ]
        path.write_text(
            json.dumps({"spans": spans, "counters": self.counters,
                        "porter.distinct_inputs": len(self.stem_inputs)}, indent=0) + "\n",
            encoding="utf-8",
        )


def install_analyze(tracer: Tracer, scanned_matrices: list) -> None:
    """Wrap the calls run_analyze makes into corpus, porter, relevance,
    cooccurrence and chsh; keep every matrix handed to the scan."""
    from entangletext import corpus, report

    def n_windows(args, kwargs, result):
        return {"windows": len(result)}

    def ingested(args, kwargs, result):
        return {"terms": sum(len(doc) for topic in result for doc in topic.documents)}

    def counted(args, kwargs, result):
        return {"windows": result.n_windows}

    def scanned(args, kwargs, result):
        scanned_matrices.append(args[0])
        return {"W": result.window_size, "subset_pairs": result.n_pairs_total,
                "entangled": result.n_pairs_entangled}

    wrap = tracer.span
    tracer.patch(report, "run_analyze", lambda f: wrap("report.run_analyze", f))
    tracer.patch(report, "load_topic_corpus", lambda f: wrap("corpus.load_topic_corpus", f, ingested))
    tracer.patch(corpus, "tokenize_and_normalize",
                 lambda f: wrap("corpus.tokenize_and_normalize", f))
    tracer.patch(corpus, "stem", tracer.stem_counter)
    tracer.patch(corpus.TopicCorpus, "windows", lambda f: wrap("corpus.windows", f, n_windows))
    for name in ("document_frequencies", "rank_by_frequency", "rank_by_tfidf",
                 "build_concept_pair"):
        tracer.patch(report, name, lambda f, n=name: wrap(f"relevance.{n}", f))
    tracer.patch(report, "count_cooccurrences",
                 lambda f: wrap("cooccurrence.count_cooccurrences", f, counted))
    tracer.patch(report, "cooccurrence_histogram",
                 lambda f: wrap("cooccurrence.cooccurrence_histogram", f))
    tracer.patch(report, "entanglement_proportion",
                 lambda f: wrap("chsh.entanglement_proportion", f, scanned))


def install_simulate(tracer: Tracer) -> None:
    """Wrap the calls run_simulate makes into simulation and chsh."""
    from entangletext import report, simulation

    def sampled(args, kwargs, result):
        return {"samples": result.n_samples}

    def batched(args, kwargs, result):
        return {"matrices": len(result[0])}

    wrap = tracer.span
    tracer.patch(report, "run_simulate", lambda f: wrap("report.run_simulate", f))
    tracer.patch(report, "parameter_sweep", lambda f: wrap("simulation.parameter_sweep", f))
    tracer.patch(simulation, "estimate_violation_probability",
                 lambda f: wrap("simulation.estimate_violation_probability", f, sampled))
    tracer.patch(simulation, "chsh_max_abs_batch",
                 lambda f: wrap("chsh.chsh_max_abs_batch", f, batched))


# spans whose time is layer work inside run_analyze; the rest of the
# run_analyze span is orchestration and artifact writing
ANALYZE_LAYERS = (
    "corpus.load_topic_corpus",
    "corpus.windows",
    "relevance.document_frequencies",
    "relevance.rank_by_frequency",
    "relevance.rank_by_tfidf",
    "relevance.build_concept_pair",
    "cooccurrence.count_cooccurrences",
    "cooccurrence.cooccurrence_histogram",
    "chsh.entanglement_proportion",
)


def _total(spans, name, where=lambda s: True) -> float:
    return sum((s["end"] - s["start"] for s in spans if s["name"] == name and where(s)), 0.0)


def _sum(spans, name, key) -> int:
    return sum(s.get(key, 0) for s in spans if s["name"] == name)


def layer_metrics(tracer: Tracer, raw_tokens: int) -> dict:
    """Per-layer metrics from the spans of one traced run (0 for a layer
    the workload does not call)."""
    spans = tracer.spans
    ingest_s = _total(spans, "corpus.load_topic_corpus")
    count_s = _total(spans, "cooccurrence.count_cooccurrences")
    counted = _sum(spans, "cooccurrence.count_cooccurrences", "windows")
    scan_s = _total(spans, "chsh.entanglement_proportion")
    pairs = _sum(spans, "chsh.entanglement_proportion", "subset_pairs")
    widths = [s["W"] for s in spans if s["name"] == "chsh.entanglement_proportion"]
    smallest = min(widths) if widths else None
    points = [s["end"] - s["start"] for s in spans
              if s["name"] == "simulation.estimate_violation_probability"]
    samples = _sum(spans, "simulation.estimate_violation_probability", "samples")
    batch_s = _total(spans, "chsh.chsh_max_abs_batch")
    matrices = _sum(spans, "chsh.chsh_max_abs_batch", "matrices")
    return {
        "corpus.ingest_s": ingest_s,
        "corpus.tokens_per_s": raw_tokens / ingest_s if ingest_s else 0.0,
        "corpus.raw_tokens": raw_tokens if ingest_s else 0,
        "corpus.terms": _sum(spans, "corpus.load_topic_corpus", "terms"),
        "porter.stem_s": tracer.counters["porter.stem_s"],
        "porter.stem_calls": tracer.counters["porter.stem_calls"],
        "porter.distinct_inputs": len(tracer.stem_inputs),
        "corpus.windows_s": _total(spans, "corpus.windows"),
        "corpus.windows": _sum(spans, "corpus.windows", "windows"),
        "cooccurrence.count_s": count_s,
        "cooccurrence.windows_per_s": counted / count_s if count_s else 0.0,
        "relevance.rank_s": sum(_total(spans, n) for n in ANALYZE_LAYERS if n.startswith("relevance.")),
        "chsh.scan_s": scan_s,
        "chsh.subset_pairs": pairs,
        "chsh.pairs_per_s": pairs / scan_s if scan_s else 0.0,
        "chsh.entangled_pairs": _sum(spans, "chsh.entanglement_proportion", "entangled"),
        "chsh.scan_smallest_w_s": _total(spans, "chsh.entanglement_proportion",
                                         lambda s: s["W"] == smallest),
        "chsh.batch_us_per_matrix": batch_s / matrices * 1e6 if matrices else 0.0,
        "simulation.point_s": statistics.median(points) if points else 0.0,
        "simulation.samples_per_s": samples / sum(points) if points else 0.0,
    }


def unaccounted_s(tracer: Tracer) -> float:
    """run_analyze time outside the wrapped layers: orchestration and
    artifact writes (the root span minus its top-level layer spans)."""
    names = set(ANALYZE_LAYERS)
    spans = tracer.spans
    root = spans[0]
    inside = sum(
        s["end"] - s["start"]
        for s in spans
        if s["name"] in names and (s["parent"] is None or spans[s["parent"]]["name"] not in names)
    )
    return root["end"] - root["start"] - inside
