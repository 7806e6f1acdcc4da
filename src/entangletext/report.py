"""End-to-end orchestration: corpus analysis runs and simulation runs.

A run walks every (topic, window size, relevance method) cell: builds the
concept pair, counts the co-occurrence matrix, scans all 4-term subset
pairs for CHSH violations, and emits plot-ready CSV/JSON artifacts. The
cells run in order on the calling thread, and no stage copies a topic:
the counts read the loaded documents' own ids. All files are written in
a deterministic order and carry no timestamps, so identical
configurations produce bitwise-identical output.

This module is the only one that writes files, and ``_write_csv`` and
``_write_json`` hold the byte format of every artifact: UTF-8, "\n" line
ends, floats as ``repr()``, and JSON indented by 1 with a final newline.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from . import __version__
from .chsh import ProportionReport, entanglement_proportion
from .cooccurrence import CoocMatrix, cooccurrence_histogram, count_cooccurrences
from .corpus import (
    PipelineConfig,
    _integer,
    _window_size,
    default_stoplist,
    load_stoplist,
    load_topic_corpus,
)
from .relevance import (
    CONCEPT_SIZE,
    build_concept_pair,
    document_frequencies,
    rank_by_frequency,
    rank_by_tfidf,
)
from .simulation import CurveSet, parameter_sweep

__all__ = ["RunConfig", "TopicReport", "run_analyze", "run_simulate"]

DEFAULT_METHODS = ("frequency", "tfidf")


@dataclass(frozen=True)
class RunConfig:
    """Everything an analysis run depends on."""

    manifest: Path
    out_dir: Path
    window_sizes: tuple[int, ...] = (20, 10, 5)
    methods: tuple[str, ...] = DEFAULT_METHODS
    concept_size: int = CONCEPT_SIZE
    stoplist_path: Path | None = None
    stemming: bool = True
    top_violations: int = 10

    def __post_init__(self):
        object.__setattr__(self, "manifest", Path(self.manifest))
        object.__setattr__(self, "out_dir", Path(self.out_dir))
        object.__setattr__(self, "window_sizes", tuple(map(_window_size, self.window_sizes)))
        object.__setattr__(self, "methods", tuple(self.methods))
        for name in ("concept_size", "top_violations"):
            object.__setattr__(self, name, _integer(getattr(self, name), name.replace("_", " ")))
        if not self.window_sizes or len(set(self.window_sizes)) != len(self.window_sizes):
            raise ValueError("window sizes must be non-empty and distinct")
        unknown = [m for m in self.methods if m not in DEFAULT_METHODS]
        if unknown or not self.methods:
            raise ValueError(f"unknown relevance methods: {unknown}")
        if len(set(self.methods)) != len(self.methods):
            raise ValueError(f"relevance methods must be distinct, got {list(self.methods)}")
        # a CHSH subset pair takes 4 terms from each concept
        if self.concept_size < 4:
            raise ValueError(f"concept size must be >= 4, got {self.concept_size}")
        if self.top_violations < 0:
            raise ValueError(f"top violations must be >= 0, got {self.top_violations}")


@dataclass
class TopicReport:
    """Per-topic results over every configured (window size, method) cell."""

    topic_id: str
    cells: dict = field(default_factory=dict)  # (W, method) -> (report, histogram, matrix)

    def proportion(self, window_size: int, method: str) -> ProportionReport:
        return self.cells[(window_size, method)][0]

    def histogram(self, window_size: int, method: str) -> dict[int, int]:
        return self.cells[(window_size, method)][1]

    def matrix(self, window_size: int, method: str) -> CoocMatrix:
        return self.cells[(window_size, method)][2]

    def monotone_in_window(self, method: str, window_sizes: Sequence[int]) -> bool:
        """True when p strictly decreases as the window size grows."""
        ordered = sorted(window_sizes)
        ps = [self.proportion(w, method).p for w in ordered]
        return all(a > b for a, b in zip(ps, ps[1:]))


def _pipeline_config(config: RunConfig) -> PipelineConfig:
    stoplist = (
        load_stoplist(config.stoplist_path)
        if config.stoplist_path is not None
        else default_stoplist()
    )
    return PipelineConfig(stoplist=stoplist, stemming_enabled=config.stemming)


def _check_can_be_dir(path: Path) -> None:
    """Raise ValueError when path, or the nearest of its ancestors that
    exists, is not a directory, so a run fails before its work, not after."""
    for candidate in (path, *path.parents):
        if candidate.exists():
            if not candidate.is_dir():
                raise ValueError(f"output path {candidate} exists and is not a directory")
            return


def run_analyze(config: RunConfig) -> list[TopicReport]:
    """Execute the full analysis and write all artifacts under out_dir.

    Returns the per-topic reports in the emitted order (descending p at the
    smallest window size for the first configured method, ties by topic_id).
    """
    _check_can_be_dir(config.out_dir)
    pipeline = _pipeline_config(config)
    topics = load_topic_corpus(config.manifest, pipeline)
    df = document_frequencies(topics)

    # rankings and concept pairs are window-independent
    pairs = {}
    for topic in topics:
        for method in config.methods:
            ranked = (
                rank_by_frequency(topic)
                if method == "frequency"
                else rank_by_tfidf(topic, topics, df=df)
            )
            pairs[(topic.topic_id, method)] = (
                ranked,
                build_concept_pair(ranked, config.concept_size),
            )

    reports = []
    for topic in topics:
        report = TopicReport(topic_id=topic.topic_id)
        reports.append(report)
        for window_size in config.window_sizes:
            windows = topic.windows(window_size)
            for method in config.methods:
                matrix = count_cooccurrences(pairs[(topic.topic_id, method)][1], windows)
                proportion = entanglement_proportion(matrix, top_details=config.top_violations)
                report.cells[(window_size, method)] = (
                    proportion,
                    cooccurrence_histogram(matrix),
                    matrix,
                )

    ordered = _sorted_reports(reports, config.methods[0], config)
    _write_outputs(ordered, pairs, config)
    return ordered


def _sorted_reports(reports, method: str, config: RunConfig) -> list[TopicReport]:
    """Descending p of method at the smallest window size, ties by topic_id."""
    smallest = min(config.window_sizes)
    return sorted(reports, key=lambda r: (-r.proportion(smallest, method).p, r.topic_id))


def _write_csv(path: Path, header: Sequence, rows) -> None:
    """Write one CSV artifact. csv writes floats as repr() and None as an
    empty cell."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: Path, payload) -> None:
    """Write one JSON artifact, indented by 1, with a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def _partition_json(partition) -> dict:
    return {"unprimed": list(partition.unprimed), "primed": list(partition.primed)}


def _write_outputs(ordered, pairs, config: RunConfig) -> None:
    out = config.out_dir
    for sub in ("rankings", "matrices", "results"):
        (out / sub).mkdir(parents=True, exist_ok=True)

    for method in config.methods:
        rows = []
        for report in _sorted_reports(ordered, method, config):
            monotone = str(report.monotone_in_window(method, config.window_sizes)).lower()
            for w in config.window_sizes:
                prop = report.proportion(w, method)
                rows.append(
                    [
                        report.topic_id,
                        method,
                        w,
                        prop.p,
                        prop.n_pairs_entangled,
                        prop.n_pairs_total,
                        monotone,
                    ]
                )
        _write_csv(
            out / f"summary_{method}.csv",
            ["topic_id", "method", "W", "p", "n_entangled", "n_pairs", "monotone_in_W"],
            rows,
        )

    _write_csv(
        out / "histograms.csv",
        ["topic_id", "method", "W", "n", "count"],
        (
            [report.topic_id, method, w, value, count]
            for method in config.methods
            for report in ordered
            for w in config.window_sizes
            for value, count in report.histogram(w, method).items()
        ),
    )

    for report in ordered:
        for method in config.methods:
            ranked, pair = pairs[(report.topic_id, method)]
            _write_csv(
                out / "rankings" / f"{report.topic_id}__{method}.csv",
                ["term", "score", "rank"],
                ([term, score, rank] for rank, (term, score) in enumerate(ranked.terms, start=1)),
            )
            for w in config.window_sizes:
                cell_name = f"{report.topic_id}__{method}__W{w}"
                counts = report.matrix(w, method).counts
                _write_csv(
                    out / "matrices" / f"{cell_name}.csv",
                    ["", *pair.c2],
                    ([term, *counts[i].tolist()] for i, term in enumerate(pair.c1)),
                )
                prop = report.proportion(w, method)
                payload = {
                    "topic_id": report.topic_id,
                    "W": w,
                    "method": method,
                    "p": prop.p,
                    "n_entangled": prop.n_pairs_entangled,
                    "top_violations": [
                        {
                            "c1": list(d.row_terms),
                            "c2": list(d.col_terms),
                            "partition": {
                                "rows": _partition_json(d.row_partition),
                                "cols": _partition_json(d.col_partition),
                            },
                            "S": d.s,
                        }
                        for d in (prop.details or ())
                    ],
                }
                _write_json(out / "results" / f"{cell_name}.json", payload)

    metadata = {
        "tool": "entangletext",
        "version": __version__,
        "manifest": str(config.manifest),
        "window_sizes": list(config.window_sizes),
        "methods": list(config.methods),
        "concept_size": config.concept_size,
        "top_violations": config.top_violations,
        "stoplist": str(config.stoplist_path) if config.stoplist_path else "bundled",
        "stemming": config.stemming,
    }
    _write_json(out / "run_metadata.json", metadata)


def run_simulate(
    kind: str,
    parameters: Sequence[float] | None,
    bounds: Sequence[int],
    n_samples: int,
    seed: int,
    out_path: str | Path,
) -> CurveSet:
    """Run a parameter sweep and write the curve CSV plus a metadata sidecar.

    The CSV has one row per grid point; a parameter the kind does not use
    (mu for zipf, lambda for poisson) is an empty cell.
    """
    out_path = Path(out_path)
    if out_path.is_dir():
        raise ValueError(f"output path {out_path} is a directory")
    _check_can_be_dir(out_path.parent)
    curves = parameter_sweep(kind, parameters, bounds, n_samples=n_samples, seed=seed)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out_path,
        ["kind", "lambda", "mu", "B", "n_samples", "p_hat", "std_err", "seed"],
        (
            [
                est.spec.kind,
                est.spec.exponent,
                est.spec.poisson_mean,
                est.spec.support_bound,
                est.n_samples,
                est.p_hat,
                est.std_err,
                est.seed,
            ]
            for est in curves.estimates
        ),
    )
    sidecar = {
        "tool": "entangletext",
        "version": __version__,
        "kind": kind,
        "grid": [[p, b] for p, b in curves.grid],
        "n_samples": n_samples,
        "seed": seed,
    }
    _write_json(out_path.with_suffix(out_path.suffix + ".meta.json"), sidecar)
    return curves
