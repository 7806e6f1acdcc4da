"""Benchmark of entangletext's `analyze` and `simulate` entry points.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Inputs are made from --seed and cached
under .perfbench/ before anything is timed. Then:

1. set-up probes: fresh interpreters that import entangletext (after one
   untimed warm-up that fills the bytecode and file caches), some before
   and some after step 2;
2. one fresh interpreter (child.py) runs the workload: with --trace 0 it
   repeats the call for S seconds, with --trace 1 it makes one traced
   call plus the untraced calls the layer metrics compare against;
3. every call's artifacts are checked (checks.py); the first call's in
   full against independent references, the others byte for byte
   against the first.

The last line of standard output is one JSON object: correct, attempted,
failed and the metrics (end-to-end with --trace 0, per-layer with
--trace 1). Exits 2 without a result when the repository is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
DEADLINE_S = 170.0
SETUP_PROBES = 7  # 4 before the workload process, 3 after it

WORKLOADS = {
    # default analyze: 3 topics x W (20, 10, 5) x 2 methods at k = 10
    "analyze_bundled": {"kind": "analyze", "inputs": "bundled", "window_sizes": [20, 10, 5],
                        "methods": ["frequency", "tfidf"], "k": 10, "planted": True},
    # generated corpus where ingest and counting dominate: 6 cells only
    "analyze_large": {"kind": "analyze", "inputs": "large", "window_sizes": [5, 40],
                      "methods": ["tfidf"], "k": 10, "scan": True},
    # one topic at k = 13: 511,225 subset pairs, scan memory dominates
    "analyze_wide": {"kind": "analyze", "inputs": "storm", "window_sizes": [10],
                     "methods": ["frequency"], "k": 13, "scan": True},
    # 80-point zipf figure sweep plus homogeneous and poisson points at B = 100
    "simulate_sweep": {"kind": "simulate", "lambdas": [round(0.1 * i, 10) for i in range(1, 21)],
                       "bounds": [10, 50, 100, 500], "baseline_bound": 100, "samples": 10_000},
}

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "setup.import_numpy_s": "s",
    "setup.import_scipy_stats_s": "s",
    "setup.import_entangletext_s": "s",
    "corpus.ingest_s": "s",
    "corpus.tokens_per_s": "1/s",
    "corpus.raw_tokens": "count",
    "corpus.terms": "count",
    "porter.stem_s": "s",
    "porter.stem_calls": "count",
    "porter.distinct_inputs": "count",
    "corpus.windows_s": "s",
    "corpus.windows": "count",
    "cooccurrence.count_s": "s",
    "cooccurrence.windows_per_s": "1/s",
    "relevance.rank_s": "s",
    "chsh.scan_s": "s",
    "chsh.subset_pairs": "count",
    "chsh.pairs_per_s": "1/s",
    "chsh.entangled_pairs": "count",
    "chsh.scan_smallest_w_s": "s",
    "chsh.scan_peak_mb": "MB",
    "chsh.batch_us_per_matrix": "us",
    "simulation.point_s": "s",
    "simulation.samples_per_s": "1/s",
    "report.analyze_s": "s",
    "report.analyze_1thread_s": "s",
    "report.unaccounted_s": "s",
    "trace.overhead_s": "s",
}

READY_PROBE = "import entangletext\nprint('ready', flush=True)\n"
IMPORT_PROBE = """\
import json, time
t0 = time.perf_counter()
import numpy
t1 = time.perf_counter()
import scipy.stats
t2 = time.perf_counter()
import entangletext
t3 = time.perf_counter()
print(json.dumps([t1 - t0, t2 - t1, t3 - t2]), flush=True)
"""


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict:
    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["ENTANGLE_THREADS"] = threads
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = threads
    return env


def require_repository() -> None:
    for rel in ("src/entangletext/__init__.py", "tests/oracles.py",
                "tests/data/planted_expected.json"):
        if not (ROOT / rel).is_file():
            raise BenchError(f"{rel} not found under {ROOT}; run from a repository checkout")


def prepare_inputs(name: str, seed: int) -> Path | None:
    """Manifest of the workload's seeded inputs (built once, then cached)."""
    kind = WORKLOADS[name].get("inputs")
    if kind is None:
        return None
    dest = WORK / "inputs" / f"{kind}-{seed}"
    if not (dest / "manifest.json").is_file():
        partial = dest.with_name(dest.name + ".partial")
        shutil.rmtree(partial, ignore_errors=True)
        if kind == "large":
            inputs.write_large(ROOT, partial, seed)
        else:
            inputs.write_bundled(ROOT, partial, seed, None if kind == "bundled" else {kind})
        shutil.rmtree(dest, ignore_errors=True)
        partial.rename(dest)
    return dest / "manifest.json"


def probe(code: str, env: dict) -> tuple[float, str]:
    """Seconds from spawning a fresh interpreter to its first output line."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code], env=env, cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        if proc.wait(timeout=60) != 0:
            raise BenchError(f"set-up probe exited with {proc.returncode}")
    return elapsed, line


def setup_probes(env: dict, traced: bool, n: int) -> list[tuple[float, str]]:
    return [probe(IMPORT_PROBE if traced else READY_PROBE, env) for _ in range(n)]


def setup_metrics(probes: list[tuple[float, str]], traced: bool) -> dict:
    if not traced:
        return {"setup_s": statistics.median(elapsed for elapsed, _ in probes)}
    parts = [json.loads(line) for _, line in probes]
    names = ("setup.import_numpy_s", "setup.import_scipy_stats_s", "setup.import_entangletext_s")
    return {name: statistics.median(p[i] for p in parts) for i, name in enumerate(names)}


def run_child(spec: dict, work: Path, env: dict, deadline: float) -> dict:
    spec_path = work / "spec.json"
    result_path = work / "result.json"
    spec_path.write_text(json.dumps(spec, indent=1) + "\n", encoding="utf-8")
    result_path.unlink(missing_ok=True)
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(spec_path),
                             str(result_path)], env=env, cwd=ROOT)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("workload process ran past the deadline")
    if code != 0 or not result_path.is_file():
        raise BenchError(f"workload process exited with {code}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def check(spec: dict, outputs: list[Path]) -> list[str]:
    sys.path.insert(0, str(ROOT / "tests"))
    import checks

    if not outputs:
        return []
    first, rest = outputs[0], outputs[1:]
    if spec["kind"] == "simulate":
        problems = checks.check_simulate(first, spec)
    else:
        reference = checks.reference_analysis(
            Path(spec["manifest"]), frozenset(inputs.stoplist(ROOT)),
            spec["window_sizes"], spec["methods"], spec["k"])
        planted = None
        if spec.get("planted"):
            planted = json.loads((ROOT / "tests" / "data" / "planted_expected.json")
                                 .read_text(encoding="utf-8"))
        problems = checks.check_analyze(first, reference, spec["window_sizes"], spec["methods"],
                                        spec["k"], planted=planted,
                                        scan=spec.get("scan", False))
    return problems + checks.same_outputs(first, rest)


def run(name: str, seed: int, seconds: int, traced: bool) -> dict:
    deadline = time.perf_counter() + DEADLINE_S
    require_repository()
    workload = WORKLOADS[name]
    work = WORK / name / f"seed-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    manifest = prepare_inputs(name, seed)
    env = child_env()

    # set-up is probed before and after the workload process, so that its
    # median covers the same stretch of time as the workload calls
    probe(READY_PROBE, env)  # warm-up: bytecode compile and file cache, untimed
    probes = setup_probes(env, traced, SETUP_PROBES - SETUP_PROBES // 2)
    spec = {**workload, "mode": "trace" if traced else "measure", "seconds": seconds,
            "out": str(work / "out"), "threads": env["ENTANGLE_THREADS"], "seed": seed}
    if manifest is not None:
        spec["manifest"] = str(manifest)
    result = run_child(spec, work, env, deadline)
    probes += setup_probes(env, traced, SETUP_PROBES // 2)
    metrics = setup_metrics(probes, traced)
    for error in result["errors"]:
        print(error, file=sys.stderr)

    problems = check(spec, [Path(p) for p in result["outputs"]])
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    if traced:
        metrics.update(result.get("layers", {}))
        units = LAYER_UNITS
    else:
        if result["run_s"]:
            metrics["run_s"] = statistics.median(result["run_s"])
        metrics["peak_rss_mb"] = result["peak_rss_mb"]
        units = END_TO_END_UNITS
    missing = [m for m in units if m not in metrics]
    if missing:
        raise BenchError(f"no value for {missing}")
    return {
        "correct": not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m: {"value": metrics[m], "unit": unit} for m, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
