"""One workload in a fresh interpreter: python3 child.py SPEC.json RESULT.json

SPEC describes one workload call (an `analyze` configuration or the
simulate sweep) and a mode:

- "measure": repeat the call, each into its own output directory, until
  the next repeat would end after `seconds`; record each call's wall
  time and the process's peak resident memory. Nothing is traced.
- "trace": make the call once with spans around every layer (one
  analysis thread, so layer times add up), then untraced with one thread
  and with the default pool, then one scan call under tracemalloc.

A call that raises is counted as failed and the loop goes on.
"""

from __future__ import annotations

import json
import os
import re
import resource
import sys
import time
import traceback
from pathlib import Path

import spans


def call(spec: dict, out: Path) -> None:
    """The workload's public entry point(s), writing artifacts under out."""
    from entangletext import report

    if spec["kind"] == "analyze":
        report.run_analyze(report.RunConfig(
            manifest=Path(spec["manifest"]),
            out_dir=out,
            window_sizes=tuple(spec["window_sizes"]),
            methods=tuple(spec["methods"]),
            concept_size=spec["k"],
        ))
    else:
        seed, n = spec["seed"], spec["samples"]
        report.run_simulate("zipf", spec["lambdas"], spec["bounds"], n, seed, out / "zipf.csv")
        for kind in ("homogeneous", "poisson"):
            report.run_simulate(kind, None, [spec["baseline_bound"]], n, seed, out / f"{kind}.csv")


def timed_call(spec: dict, out: Path, result: dict) -> float | None:
    """Wall time of one call, or None (and an error entry) if it raised."""
    result["attempted"] += 1
    t0 = time.perf_counter()
    try:
        call(spec, out)
    except Exception:
        result["failed"] += 1
        result["errors"].append(traceback.format_exc(limit=4))
        return None
    elapsed = time.perf_counter() - t0
    result["outputs"].append(str(out))
    return elapsed


def measure(spec: dict, out_root: Path, result: dict) -> None:
    start = time.perf_counter()
    last = 0.0
    while result["attempted"] == 0 or time.perf_counter() - start + last <= spec["seconds"]:
        t0 = time.perf_counter()
        elapsed = timed_call(spec, out_root / f"iter-{result['attempted']}", result)
        last = time.perf_counter() - t0
        if elapsed is not None:
            result["run_s"].append(elapsed)


def raw_token_count(manifest: Path) -> int:
    data = json.loads(manifest.read_text(encoding="utf-8"))
    pattern = re.compile(r"[A-Za-z]+")
    return sum(
        len(pattern.findall((manifest.parent / doc["path"]).read_text(encoding="utf-8")))
        for topic in data["topics"]
        for doc in topic["documents"]
    )


def scan_peak_mb(matrices: list) -> float:
    """tracemalloc peak of one scan call on the first smallest-W matrix."""
    import tracemalloc

    from entangletext import chsh

    if not matrices:
        return 0.0
    matrix = min(matrices, key=lambda m: m.window_size)
    tracemalloc.start()
    try:
        chsh.entanglement_proportion(matrix, top_details=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 1e6


def trace(spec: dict, out_root: Path, result: dict) -> None:
    tracer = spans.Tracer()
    matrices: list = []
    analyze = spec["kind"] == "analyze"
    if analyze:
        spans.install_analyze(tracer, matrices)
    else:
        spans.install_simulate(tracer)
    os.environ["ENTANGLE_THREADS"] = "1"
    try:
        traced_s = timed_call(spec, out_root / "traced", result)
    finally:
        tracer.restore()
    untraced_1 = timed_call(spec, out_root / "untraced-1thread", result)
    os.environ["ENTANGLE_THREADS"] = spec["threads"]
    untraced = timed_call(spec, out_root / "untraced", result) if analyze else untraced_1
    if None in (traced_s, untraced_1, untraced):
        return
    tracer.write(out_root / "trace.json")

    metrics = spans.layer_metrics(tracer, raw_token_count(Path(spec["manifest"])) if analyze else 0)
    metrics["chsh.scan_peak_mb"] = scan_peak_mb(matrices)
    metrics["report.analyze_s"] = untraced if analyze else 0.0
    metrics["report.analyze_1thread_s"] = untraced_1 if analyze else 0.0
    metrics["report.unaccounted_s"] = spans.unaccounted_s(tracer) if analyze else 0.0
    metrics["trace.overhead_s"] = traced_s - untraced_1
    result["layers"] = metrics


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    result_path = Path(sys.argv[2])
    out_root = Path(spec["out"])
    result = {"attempted": 0, "failed": 0, "errors": [], "outputs": [], "run_s": []}
    import entangletext  # noqa: F401  (import cost is measured separately)

    if spec["mode"] == "measure":
        measure(spec, out_root, result)
    else:
        trace(spec, out_root, result)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    result_path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
