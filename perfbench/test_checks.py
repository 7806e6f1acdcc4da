"""Self-test of the benchmark's correctness checks: real outputs pass,
corrupted outputs fail.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "tests")]

import checks  # noqa: E402
import child  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from entangletext import report  # noqa: E402

STOPLIST = frozenset(inputs.stoplist(ROOT))
PLANTED = json.loads((ROOT / "tests" / "data" / "planted_expected.json").read_text(encoding="utf-8"))
SEED = 3
SWEEP = {**run.WORKLOADS["simulate_sweep"], "seed": SEED}


def _analyze(tmp: Path, manifest: Path, window_sizes, methods, k: int) -> Path:
    out = tmp / "out"
    report.run_analyze(report.RunConfig(manifest=manifest, out_dir=out, window_sizes=window_sizes,
                                        methods=methods, concept_size=k))
    return out


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _write_csv(path: Path, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _edit_csv(path: Path, row: int, col: int, change) -> None:
    rows = _read_csv(path)
    rows[row][col] = change(rows[row][col])
    _write_csv(path, rows)


def _edit_json(path: Path, change) -> None:
    data = json.loads(path.read_text(encoding="utf-8"))
    change(data)
    path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def bundled(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bundled")
    manifest = inputs.write_bundled(ROOT, tmp / "inputs", SEED)
    widths, methods = (20, 10, 5), ("frequency", "tfidf")
    out = _analyze(tmp, manifest, widths, methods, 10)
    reference = checks.reference_analysis(manifest, STOPLIST, widths, methods, 10)
    return out, reference, widths, methods


@pytest.fixture
def bundled_copy(bundled, tmp_path):
    out, reference, widths, methods = bundled
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    return lambda: checks.check_analyze(copy, reference, widths, methods, 10, planted=PLANTED), copy


def test_bundled_outputs_pass(bundled_copy):
    run_check, _ = bundled_copy
    assert run_check() == []


def test_changed_matrix_cell_fails(bundled_copy):
    run_check, out = bundled_copy
    _edit_csv(out / "matrices" / "storm__frequency__W5.csv", 3, 4, lambda v: str(int(v) + 1))
    assert any("matrix differs" in p for p in run_check())


def test_changed_n_entangled_fails(bundled_copy):
    run_check, out = bundled_copy

    def bump(data):
        data["n_entangled"] += 1
        data["p"] = data["n_entangled"] / 44100

    _edit_json(out / "results" / "harvest__tfidf__W5.json", bump)
    _edit_csv(out / "summary_tfidf.csv", 1, 4, lambda v: str(int(v) + 1))
    assert any("planted" in p for p in run_check())


def test_swapped_ranking_fails(bundled_copy):
    run_check, out = bundled_copy
    path = out / "rankings" / "orchestra__frequency.csv"
    rows = _read_csv(path)
    rows[1][0], rows[2][0] = rows[2][0], rows[1][0]
    _write_csv(path, rows)
    assert any("ranking order" in p for p in run_check())


@pytest.fixture(scope="module")
def scanned(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("scanned")
    manifest = inputs.write_bundled(ROOT, tmp / "inputs", SEED, {"storm"})
    out = _analyze(tmp, manifest, (5,), ("frequency",), 10)
    reference = checks.reference_analysis(manifest, STOPLIST, (5,), ("frequency",), 10)
    return out, reference


@pytest.fixture
def scanned_copy(scanned, tmp_path):
    out, reference = scanned
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    return (lambda: checks.check_analyze(copy, reference, (5,), ("frequency",), 10, scan=True),
            copy / "results" / "storm__frequency__W5.json")


def test_scan_check_passes(scanned_copy):
    run_check, _ = scanned_copy
    assert run_check() == []


def test_scan_catches_changed_n_entangled(scanned_copy):
    run_check, result = scanned_copy

    def bump(data):
        data["n_entangled"] -= 1
        data["p"] = data["n_entangled"] / 44100

    _edit_json(result, bump)
    problems = run_check()
    assert any("!= scan" in p for p in problems)


def test_scan_catches_wrong_top_violation(scanned_copy):
    run_check, result = scanned_copy

    def shrink(data):
        data["top_violations"][0]["S"] *= 0.99

    _edit_json(result, shrink)
    assert any("exact violation" in p for p in run_check())


def test_scan_catches_missing_top_violation(scanned_copy):
    run_check, result = scanned_copy
    _edit_json(result, lambda data: data["top_violations"].pop(0))
    assert run_check() != []


def test_exact_audit_decides_the_boundary():
    # block-perfect correlation: every ordering has |S| <= 2 and one reaches 2 exactly
    block = [[3, 0, 3, 0], [0, 3, 0, 3], [3, 0, 3, 0], [0, 3, 0, 3]]
    max_abs, violated, audits = checks.subset_scan(block)
    assert max_abs[0, 0] == pytest.approx(2.0) and audits == 1 and not violated[0, 0]


def test_trace_refuses_a_missing_function():
    # a layer whose function is gone must stop the run, not read 0
    with pytest.raises(spans.TraceError):
        spans.Tracer().patch(report, "no_such_function", lambda f: f)


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    child.call(SWEEP, out)
    return out


@pytest.fixture
def sweep_copy(sweep, tmp_path):
    copy = tmp_path / "copy"
    shutil.copytree(sweep, copy)
    return (lambda: checks.check_simulate(copy, SWEEP)), copy


def test_sweep_passes(sweep_copy):
    run_check, _ = sweep_copy
    assert run_check() == []


def _perturb_p(path: Path, row: int, delta: float) -> None:
    """Shift one p_hat, keeping its std_err consistent with it."""
    rows = _read_csv(path)
    p = min(1.0, max(0.0, float(rows[row][5]) + delta))
    rows[row][5] = repr(p)
    rows[row][6] = repr(math.sqrt(p * (1.0 - p) / SWEEP["samples"]))
    _write_csv(path, rows)


def test_perturbed_zipf_p_hat_fails(sweep_copy):
    run_check, out = sweep_copy
    rows = checks.read_curves(out / "zipf.csv")
    index = checks.checked_points(SEED, rows)[0]
    _perturb_p(out / "zipf.csv", index + 1, 0.06 if rows[index]["p_hat"] < 0.5 else -0.06)
    assert any("disagrees" in p for p in run_check())


def test_perturbed_poisson_p_hat_fails(sweep_copy):
    run_check, out = sweep_copy
    _perturb_p(out / "poisson.csv", 1, 0.05)
    assert any("disagrees" in p for p in run_check())


def test_inconsistent_std_err_fails(sweep_copy):
    run_check, out = sweep_copy
    _edit_csv(out / "zipf.csv", 7, 6, lambda v: repr(float(v) * 1.01))
    assert any("std_err" in p for p in run_check())


def test_byte_comparison_of_repeats(bundled, tmp_path):
    out = bundled[0]
    again = tmp_path / "again"
    shutil.copytree(out, again)
    assert checks.same_outputs(out, [again]) == []
    _edit_csv(again / "histograms.csv", 2, 4, lambda v: str(int(v) + 1))
    assert checks.same_outputs(out, [again]) != []


def test_exits_nonzero_without_the_repository(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "analyze_bundled", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""
