"""End-to-end runs, artifact formats, CLI behavior, and exit codes."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import threading
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entangletext import (
    RunConfig,
    bundled_corpus_path,
    report,
    run_analyze,
    run_simulate,
    simulation,
)
from entangletext import cli
from entangletext.cli import main
from entangletext.simulation import max_workers

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def analyze_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("analyze")
    config = RunConfig(manifest=bundled_corpus_path(), out_dir=out, top_violations=3)
    reports = run_analyze(config)
    return out, reports, config


class TestRunAnalyze:
    def test_summary_csv_shape_and_sorting(self, analyze_out):
        out, reports, config = analyze_out
        for method in ("frequency", "tfidf"):
            with open(out / f"summary_{method}.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert len(rows) == 3 * 3  # topics x window sizes
            assert set(r["method"] for r in rows) == {method}
            # sorted by descending p at the smallest window size
            p_at_5 = [float(r["p"]) for r in rows if r["W"] == "5"]
            assert p_at_5 == sorted(p_at_5, reverse=True)
            for row in rows:
                p = float(row["p"])
                assert 0.0 <= p <= 1.0
                assert row["n_pairs"] == "44100"
                assert row["monotone_in_W"] in ("true", "false")
                assert int(row["n_entangled"]) == round(p * 44100)

    def test_values_match_frozen_oracle(self, analyze_out, planted_expected):
        _, reports, _ = analyze_out
        for report in reports:
            exp = planted_expected["topics"][report.topic_id]["methods"]
            for method in ("frequency", "tfidf"):
                for w in (20, 10, 5):
                    cell = exp[method]["cells"][str(w)]
                    prop = report.proportion(w, method)
                    assert prop.p == cell["p"]
                    assert prop.n_pairs_entangled == cell["n_entangled"]

    def test_histogram_csv(self, analyze_out):
        out, _, _ = analyze_out
        with open(out / "histograms.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert set(rows[0]) == {"topic_id", "method", "W", "n", "count"}
        by_cell = {}
        for row in rows:
            key = (row["topic_id"], row["method"], row["W"])
            by_cell[key] = by_cell.get(key, 0) + int(row["count"])
        assert set(by_cell.values()) == {100}
        assert len(by_cell) == 18

    def test_results_json_schema(self, analyze_out):
        out, reports, _ = analyze_out
        payload = json.loads(
            (out / "results" / "storm__tfidf__W5.json").read_text(encoding="utf-8")
        )
        assert payload["topic_id"] == "storm"
        assert payload["W"] == 5
        assert payload["method"] == "tfidf"
        assert 0.0 <= payload["p"] <= 1.0
        assert len(payload["top_violations"]) <= 3
        for violation in payload["top_violations"]:
            assert len(violation["c1"]) == 4
            assert len(violation["c2"]) == 4
            assert abs(violation["S"]) > 2.0
            partition = violation["partition"]
            assert sorted(partition["rows"]["unprimed"] + partition["rows"]["primed"]) == [0, 1, 2, 3]

    def test_matrix_csv_labels(self, analyze_out, planted_expected):
        out, _, _ = analyze_out
        with open(out / "matrices" / "storm__frequency__W5.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        exp = planted_expected["topics"]["storm"]["methods"]["frequency"]
        assert rows[0][1:] == exp["c2"]
        assert [r[0] for r in rows[1:]] == exp["c1"]
        values = [[int(x) for x in r[1:]] for r in rows[1:]]
        assert values == exp["cells"]["5"]["matrix"]

    def test_rankings_csv(self, analyze_out):
        out, _, _ = analyze_out
        with open(out / "rankings" / "storm__frequency.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["rank"] == "1"
        scores = [float(r["score"]) for r in rows]
        assert scores == sorted(scores, reverse=True)
        assert len(rows) >= 20

    def test_no_timestamps_in_metadata(self, analyze_out):
        out, _, _ = analyze_out
        meta = json.loads((out / "run_metadata.json").read_text(encoding="utf-8"))
        # the one artifact outside tests/data/bundled_artifacts.sha256
        assert list(meta) == [
            "tool", "version", "manifest", "window_sizes", "methods",
            "concept_size", "top_violations", "stoplist", "stemming",
        ]
        assert meta["tool"] == "entangletext"
        assert meta["stoplist"] == "bundled"
        assert meta["top_violations"] == 3
        assert "time" not in json.dumps(meta).lower()

    def test_single_window_single_method(self, tmp_path):
        config = RunConfig(
            manifest=bundled_corpus_path(),
            out_dir=tmp_path,
            window_sizes=(5,),
            methods=("tfidf",),
        )
        reports = run_analyze(config)
        assert (tmp_path / "summary_tfidf.csv").exists()
        assert not (tmp_path / "summary_frequency.csv").exists()
        assert all((5, "tfidf") in r.cells for r in reports)

    def test_cells_run_on_the_calling_thread(self, tmp_path, monkeypatch):
        calls = []

        def on_caller(name, function):
            def wrapper(*args, **kwargs):
                calls.append((name, threading.get_ident()))
                return function(*args, **kwargs)

            monkeypatch.setattr(report, name, wrapper)

        on_caller("count_cooccurrences", report.count_cooccurrences)
        on_caller("entanglement_proportion", report.entanglement_proportion)
        run_analyze(RunConfig(manifest=bundled_corpus_path(), out_dir=tmp_path))
        caller = threading.get_ident()
        assert calls == [("count_cooccurrences", caller), ("entanglement_proportion", caller)] * 18

    def test_invalid_config_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            RunConfig(manifest="m", out_dir=tmp_path, window_sizes=(5, 5))
        with pytest.raises(ValueError):
            RunConfig(manifest="m", out_dir=tmp_path, methods=("pagerank",))
        with pytest.raises(ValueError, match="distinct"):
            RunConfig(manifest="m", out_dir=tmp_path, methods=("tfidf", "tfidf"))
        for field, value in [
            ("concept_size", 4.5),
            ("window_sizes", (5.5,)),
            ("window_sizes", (2**63,)),
            ("top_violations", 2.0),
        ]:
            with pytest.raises(ValueError, match=field.split("_")[0]):
                RunConfig(manifest="m", out_dir=tmp_path, **{field: value})
        config = RunConfig(
            manifest="m", out_dir=tmp_path, window_sizes=(np.int64(5),), concept_size=np.int32(6)
        )
        assert config.window_sizes == (5,) and config.concept_size == 6


class TestRunSimulate:
    def test_csv_and_sidecar(self, tmp_path):
        out = tmp_path / "curves.csv"
        curves = run_simulate("zipf", [0.5, 1.5], [10, 50], 300, 42, out)
        assert len(curves.estimates) == 4
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["lambda"] for r in rows] == ["0.5", "1.5", "0.5", "1.5"]
        assert all(r["mu"] == "" for r in rows)
        assert all(r["kind"] == "zipf" for r in rows)
        for row in rows:
            se = float(row["std_err"])
            p = float(row["p_hat"])
            assert se == pytest.approx((p * (1 - p) / 300) ** 0.5, abs=1e-12)
        meta = json.loads((out.parent / "curves.csv.meta.json").read_text())
        assert meta["seed"] == 42 and meta["n_samples"] == 300
        assert len(meta["grid"]) == 4

    @pytest.mark.parametrize("kind", ["zipf", "poisson"])
    def test_numpy_parameters_write_the_same_files(self, kind, tmp_path):
        plain, numpy = tmp_path / "plain.csv", tmp_path / "numpy.csv"
        run_simulate(kind, [0.5, 1.5], [10], 100, 3, plain)
        run_simulate(kind, np.array([0.5, 1.5]), [10], 100, 3, numpy)
        assert numpy.read_bytes() == plain.read_bytes()
        meta = numpy.with_suffix(".csv.meta.json")
        assert meta.read_bytes() == plain.with_suffix(".csv.meta.json").read_bytes()

    def test_thread_count_and_chunk_size_do_not_change_the_files(self, tmp_path, monkeypatch):
        def files(name, threads):
            monkeypatch.setenv("ENTANGLE_THREADS", threads)
            out = tmp_path / name / "curves.csv"
            curves = run_simulate("zipf", [0.5, 1.0, 1.5], [10, 100], 3000, 8, out)
            meta = out.with_suffix(".csv.meta.json")
            return curves, out.read_bytes(), meta.read_bytes()

        serial = files("serial", "1")
        assert files("pool", "2") == serial
        monkeypatch.setattr(simulation, "_SAMPLE_CHUNK", 700)
        assert files("chunked", "2") == serial


class TestMaxWorkers:
    def test_env_cap(self, monkeypatch):
        monkeypatch.setenv("ENTANGLE_THREADS", "1")
        assert max_workers(8) == 1

    def test_invalid_env(self, monkeypatch):
        monkeypatch.setenv("ENTANGLE_THREADS", "many")
        with pytest.raises(ValueError):
            max_workers(8)

    def test_bounded_by_jobs(self, monkeypatch):
        monkeypatch.delenv("ENTANGLE_THREADS", raising=False)
        assert max_workers(1) == 1

    def test_bounded_by_cpu_affinity(self, monkeypatch):
        # a cpuset or taskset can leave the process fewer CPUs than the host has
        monkeypatch.delenv("ENTANGLE_THREADS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert max_workers(8) == 1


class TestCli:
    def test_analyze_roundtrip(self, tmp_path, capsys):
        code = main(
            [
                "analyze",
                str(bundled_corpus_path()),
                "--out",
                str(tmp_path / "out"),
                "--window",
                "5",
                "--relevance",
                "frequency",
            ]
        )
        assert code == 0
        assert (tmp_path / "out" / "summary_frequency.csv").exists()
        assert "3 topics" in capsys.readouterr().out

    def test_corpus_error_exit_2(self, tmp_path, capsys):
        code = main(
            ["analyze", str(tmp_path / "missing.json"), "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_empty_topic_list_exit_2(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text('{"topics": []}', encoding="utf-8")
        code = main(["analyze", str(manifest), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "no topics" in capsys.readouterr().err

    def _assert_one_line_corpus_error(self, manifest, tmp_path, capsys):
        code = main(["analyze", str(manifest), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("corpus error: ")
        assert err.count("\n") == 1

    def test_non_utf8_manifest_exit_2(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_bytes(b"\xff\xfe" + '{"topics": []}'.encode("utf-16-le"))
        self._assert_one_line_corpus_error(manifest, tmp_path, capsys)

    def test_non_utf8_document_exit_2(self, tmp_path, capsys):
        (tmp_path / "d.txt").write_bytes(b"\xff\xfestorm winds")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(
            json.dumps(
                {"topics": [{"topic_id": "t", "documents": [{"doc_id": "d", "path": "d.txt"}]}]}
            ),
            encoding="utf-8",
        )
        self._assert_one_line_corpus_error(manifest, tmp_path, capsys)

    @pytest.mark.parametrize("field", ["doc_id", "path"])
    @pytest.mark.parametrize("value", [["d.txt"], 7, ""], ids=["list", "int", "empty"])
    def test_non_string_document_field_exit_2(self, field, value, tmp_path, capsys):
        (tmp_path / "d.txt").write_text("storm winds", encoding="utf-8")
        entry = {"doc_id": "d", "path": "d.txt", field: value}
        manifest = tmp_path / "manifest.json"
        manifest.write_text(
            json.dumps({"topics": [{"topic_id": "t", "documents": [entry]}]}), encoding="utf-8"
        )
        self._assert_one_line_corpus_error(manifest, tmp_path, capsys)

    @pytest.mark.parametrize(
        "content",
        [None, b"the\nAnd\n", b"\xff\xfethe\nand\n"],
        ids=["missing", "uppercase", "not-utf8"],
    )
    def test_bad_stoplist_exit_2_names_the_file(self, content, tmp_path, capsys):
        stoplist = tmp_path / "stop.txt"
        if content is not None:
            stoplist.write_bytes(content)
        argv = ["analyze", str(bundled_corpus_path()), "--out", str(tmp_path / "o"),
                "--stoplist", str(stoplist)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("corpus error: ") and err.count("\n") == 1
        assert str(stoplist) in err
        assert not (tmp_path / "o").exists()

    @staticmethod
    def _assert_one_line_error(code, capsys):
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        return err

    @pytest.mark.parametrize("command", ["analyze", "simulate"])
    def test_out_under_a_file_rejected_before_work(self, command, tmp_path, capsys, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("work started before --out was checked")

        monkeypatch.setattr(report, "load_topic_corpus", must_not_run)
        monkeypatch.setattr(report, "parameter_sweep", must_not_run)
        blocker = tmp_path / "file"
        blocker.touch()
        if command == "analyze":
            argv = ["analyze", str(bundled_corpus_path()), "--out", str(blocker)]
        else:
            argv = ["simulate", "--kind", "homogeneous", "--out", str(blocker / "x.csv")]
        self._assert_one_line_error(main(argv), capsys)
        assert blocker.is_file() and blocker.stat().st_size == 0

    @pytest.mark.parametrize(
        "flags",
        [
            ["--k", "1"],
            ["--k", "3"],
            ["--top-violations", "-1"],
            ["--window", "0"],
            ["--window", "100000000000000000000000"],
            ["--relevance", "frequency", "--relevance", "frequency"],
        ],
        ids=["k1", "k3", "top-violations-negative", "window0", "window-above-intp",
             "relevance-repeated"],
    )
    def test_bad_analyze_value_rejected_before_work(self, flags, tmp_path, capsys, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("the corpus was loaded before the configuration was checked")

        monkeypatch.setattr(report, "load_topic_corpus", must_not_run)
        argv = ["analyze", str(bundled_corpus_path()), "--out", str(tmp_path / "o"), *flags]
        self._assert_one_line_error(main(argv), capsys)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--B", "10,50,0"], "bound"),
            (["--kind", "poisson", "--mu-grid", "0:2:1", "--B", "10"], "mean"),
            (["--seed", "-1"], "seed"),
        ],
        ids=["bound-late", "mu-nonpositive", "seed-negative"],
    )
    def test_bad_sweep_point_rejected_before_sampling(
        self, flags, named, tmp_path, capsys, monkeypatch
    ):
        def must_not_run(*args, **kwargs):
            raise AssertionError("a point was sampled before the grid was checked")

        monkeypatch.setattr(simulation, "estimate_violation_probability", must_not_run)
        out = tmp_path / "c.csv"
        argv = ["simulate", *flags, "--samples", "10000", "--out", str(out)]
        assert named in self._assert_one_line_error(main(argv), capsys)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["analyze", "simulate"])
    def test_out_of_memory_exit_1(self, command, tmp_path, capsys, monkeypatch):
        # numpy's MemoryError names the allocation; Python's own is blank
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 22.4 GiB" if command == "simulate" else "")

        monkeypatch.setattr(simulation, "distribution_pmf", no_memory)
        monkeypatch.setattr(report, "entanglement_proportion", no_memory)
        out = tmp_path / "o"
        if command == "analyze":
            argv = ["analyze", str(bundled_corpus_path()), "--out", str(out), "--window", "20"]
        else:
            argv = ["simulate", "--kind", "homogeneous", "--B", "3000000000", "--samples", "10",
                    "--out", str(out / "c.csv")]
        err = self._assert_one_line_error(main(argv), capsys)
        assert "out of memory" in err
        assert not (out / "c.csv").exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--kind", "zipf", "--mu-grid", "1:2:1"],
            ["--kind", "poisson", "--lambda-grid", "0.5:1:0.5"],
            ["--kind", "homogeneous", "--lambda-grid", "0.5:1:0.5"],
            ["--kind", "homogeneous", "--lambda-grid", "0.5:1:0.5", "--mu-grid", "1:2:1"],
        ],
        ids=["zipf-mu", "poisson-lambda", "homogeneous-lambda", "homogeneous-both"],
    )
    def test_grid_flag_of_another_kind_rejected(self, flags, tmp_path, capsys, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("a sweep ran with a grid flag of another kind")

        monkeypatch.setattr(report, "parameter_sweep", must_not_run)
        out = tmp_path / "c.csv"
        self._assert_one_line_error(main(["simulate", *flags, "--out", str(out)]), capsys)
        assert not out.exists()

    def test_non_integer_thread_cap_exit_1(self, tmp_path, subprocess_env):
        out = tmp_path / "c.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "entangletext", "simulate", "--kind", "homogeneous",
             "--B", "5", "--samples", "20", "--out", str(out)],
            env={**subprocess_env, "ENTANGLE_THREADS": "many"},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    def test_token_with_a_long_y_run_is_analyzed(self, tmp_path, subprocess_env):
        # the stemmer classifies each y by the letter before it; a run of
        # 1,200 y's must not exhaust the interpreter's recursion limit
        words = " ".join(_WORDS[:12])
        (tmp_path / "a.txt").write_text(f"{words} {'y' * 1200}ing {words}", encoding="utf-8")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(
            json.dumps({"topics": [{"topic_id": "t", "documents": [{"doc_id": "a", "path": "a.txt"}]}]}),
            encoding="utf-8",
        )
        proc = subprocess.run(
            [sys.executable, "-m", "entangletext", "analyze", str(manifest),
             "--out", str(tmp_path / "out"), "--window", "5", "--k", "4"],
            env=subprocess_env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert (tmp_path / "out" / "summary_frequency.csv").exists()

    def test_analyze_ignores_the_thread_cap(self, tmp_path, capsys, monkeypatch):
        # ENTANGLE_THREADS caps only the simulate sweep; analyze runs serially
        def files(name):
            out = tmp_path / name
            assert main(["analyze", str(bundled_corpus_path()), "--out", str(out)]) == 0
            return {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*.*"))}

        monkeypatch.delenv("ENTANGLE_THREADS", raising=False)
        unset = files("unset")
        monkeypatch.setenv("ENTANGLE_THREADS", "many")
        assert files("many") == unset
        assert capsys.readouterr().err == ""

    @staticmethod
    def _two_topic_manifest(tmp_path, topic_id):
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "d.txt").write_text(" ".join(_WORDS), encoding="utf-8")
        manifest = docs / "manifest.json"
        manifest.write_text(json.dumps({"topics": [
            {"topic_id": "ok", "documents": [{"doc_id": "d", "path": "d.txt"}]},
            {"topic_id": topic_id, "documents": [{"doc_id": "d", "path": "d.txt"}]},
        ]}), encoding="utf-8")
        return manifest

    @staticmethod
    def _analyze_small(manifest, out):
        return main(["analyze", str(manifest), "--out", str(out),
                     "--window", "5", "--k", "4", "--relevance", "frequency"])

    @pytest.mark.parametrize(
        "topic_id",
        ["../../../escaped", "sub/escaped", "..\\escaped", "nul\0escaped", ".", ".."],
        ids=["dotdot", "slash", "backslash", "nul", "dot", "dotdot-alone"],
    )
    def test_topic_id_outside_out_rejected(self, topic_id, tmp_path, capsys):
        manifest = self._two_topic_manifest(tmp_path, topic_id)
        out = tmp_path / "a" / "b" / "c" / "out"  # ../../../ from out/rankings stays in tmp_path
        before = sorted(tmp_path.rglob("*"))
        code = self._analyze_small(manifest, out)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("corpus error: ") and err.count("\n") == 1
        assert sorted(tmp_path.rglob("*")) == before  # nothing written, in out or outside it

    def test_topic_id_with_dots_accepted(self, tmp_path):
        manifest = self._two_topic_manifest(tmp_path, "a..b")
        assert self._analyze_small(manifest, tmp_path / "out") == 0
        assert (tmp_path / "out" / "rankings" / "a..b__frequency.csv").is_file()

    def test_top_violations_zero_keeps_no_details(self, tmp_path):
        argv = ["analyze", str(bundled_corpus_path()), "--out", str(tmp_path),
                "--window", "5", "--relevance", "frequency", "--top-violations", "0"]
        assert main(argv) == 0
        results = list((tmp_path / "results").glob("*.json"))
        assert len(results) == 3
        for path in results:
            assert json.loads(path.read_text(encoding="utf-8"))["top_violations"] == []

    def test_simulate_out_is_directory_rejected(self, tmp_path, capsys):
        code = main(["simulate", "--kind", "homogeneous", "--out", str(tmp_path)])
        self._assert_one_line_error(code, capsys)

    @pytest.mark.parametrize("command", ["analyze", "simulate"])
    def test_write_error_exit_1(self, command, tmp_path, capsys):
        # the output location passes the up-front check; a file the run
        # must create is already taken by a directory or a file
        if command == "analyze":
            (tmp_path / "out").mkdir()
            (tmp_path / "out" / "rankings").touch()
            argv = ["analyze", str(bundled_corpus_path()), "--out", str(tmp_path / "out"),
                    "--window", "5", "--relevance", "frequency"]
        else:
            (tmp_path / "c.csv.meta.json").mkdir()
            argv = ["simulate", "--kind", "homogeneous", "--B", "5", "--samples", "20",
                    "--out", str(tmp_path / "c.csv")]
        self._assert_one_line_error(main(argv), capsys)

    def test_usage_error_exit_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze"])  # missing manifest and --out
        assert exc.value.code == 1

    def test_unknown_command_exit_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 1

    def test_simulate_cli(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        code = main(
            [
                "simulate",
                "--kind",
                "homogeneous",
                "--B",
                "5,10",
                "--samples",
                "50",
                "--seed",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert all(r["lambda"] == "" and r["mu"] == "" for r in rows)

    def test_analyze_defaults_are_run_config_defaults(self, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "run_analyze", lambda config: seen.append(config) or [])
        manifest, out = bundled_corpus_path(), tmp_path / "o"
        assert main(["analyze", str(manifest), "--out", str(out)]) == 0
        assert seen == [RunConfig(manifest, out)]

    def test_simulate_defaults_write_the_figure_sweep(self, tmp_path, capsys):
        digest, _ = (DATA / "figure_sweep.sha256").read_text(encoding="utf-8").split()
        out = tmp_path / "c.csv"
        assert main(["simulate", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
        exponents = "0.1 0.2 0.3 0.4 0.5 0.6 0.7 0.8 0.9 1.0 1.1 1.2 1.3 1.4 1.5 1.6 1.7 1.8 1.9 2.0"
        points = [(p, b) for b in (10, 50, 100, 500) for p in exponents.split()]
        sidecar = (
            '{\n "tool": "entangletext",\n "version": "0.1.0",\n "kind": "zipf",\n "grid": [\n'
            + ",\n".join(f"  [\n   {p},\n   {b}\n  ]" for p, b in points)
            + '\n ],\n "n_samples": 10000,\n "seed": 42\n}\n'
        )
        assert (tmp_path / "c.csv.meta.json").read_bytes() == sidecar.encode("utf-8")

    def test_selftest_cli(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 6

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "entangletext", "selftest"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.count("PASS") == 6

    def test_bad_grid_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--lambda-grid", "oops", "--out", "x.csv"])
        assert exc.value.code == 1

    @pytest.mark.parametrize(
        "kind, flag, grid",
        [
            ("zipf", "--lambda-grid", "0:inf:0.1"),
            ("zipf", "--lambda-grid", "nan:1:0.1"),
            ("zipf", "--lambda-grid", "-inf:1:0.1"),
            ("zipf", "--lambda-grid", "0:1:inf"),
            ("poisson", "--mu-grid", "0:1:inf"),
            ("poisson", "--mu-grid", "0.5:nan:0.5"),
        ],
    )
    def test_non_finite_grid_usage_error(self, kind, flag, grid, tmp_path, capsys, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("a sweep ran on a non-finite grid")

        monkeypatch.setattr(report, "parameter_sweep", must_not_run)
        out = tmp_path / "c.csv"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--kind", kind, f"{flag}={grid}", "--B", "10", "--out", str(out)])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.splitlines()[-1].endswith(f"must be finite, got {grid!r}")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind, flag, grid, problem",
        [
            ("zipf", "--lambda-grid", "0:1e-12:1e-13",
             "repeats points when rounded to 10 decimals"),
            ("zipf", "--lambda-grid", "0.5:0.5000000000001:0.00000000000001",
             "repeats points when rounded to 10 decimals"),
            ("zipf", "--lambda-grid", "0:0.00000000006:0.00000000006",
             "passes its stop when rounded to 10 decimals"),
            ("zipf", "--lambda-grid", "0:1e12:1", "has more than 10000 points"),
            # rounded to 0, the exponent would run the homogeneous model and
            # the mean would be rejected as a 0.0 the user never gave
            ("zipf", "--lambda-grid", "1e-11:1e-11:1",
             "rounds its point 1e-11 to 0 at 10 decimals"),
            ("poisson", "--mu-grid", "1e-300:1e-300:1",
             "rounds its point 1e-300 to 0 at 10 decimals"),
        ],
        ids=["repeats-below-step", "repeats-at-half", "passes-stop", "too-many-points",
             "exponent-rounds-to-zero", "mean-rounds-to-zero"],
    )
    def test_degenerate_grid_usage_error(
        self, kind, flag, grid, problem, tmp_path, capsys, monkeypatch
    ):
        def must_not_run(*args, **kwargs):
            raise AssertionError("a sweep ran on a degenerate grid")

        monkeypatch.setattr(report, "parameter_sweep", must_not_run)
        out = tmp_path / "c.csv"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--kind", kind, f"{flag}={grid}", "--B", "10", "--samples", "10",
                  "--out", str(out)])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if "error:" in line] == [
            f"entangletext simulate: error: argument {flag}: grid {grid!r} {problem}"
        ]
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "bounds, problem",
        [
            # two rows of one grid point, each with its own seed
            ("5,5", "'5,5' repeats a value"),
            ("5,05", "'5,05' repeats a value"),
            ("5,,6", "expected comma-separated integers, got '5,,6'"),
            ("5,6,", "expected comma-separated integers, got '5,6,'"),
        ],
        ids=["repeated", "repeated-as-written-apart", "empty-item", "trailing-comma"],
    )
    def test_bad_bound_list_usage_error(self, bounds, problem, tmp_path, capsys, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("a sweep ran on a bad bound list")

        monkeypatch.setattr(report, "parameter_sweep", must_not_run)
        out = tmp_path / "c.csv"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", f"--B={bounds}", "--samples", "10", "--lambda-grid", "0.5:0.5:1",
                  "--out", str(out)])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if "error:" in line] == [
            f"entangletext simulate: error: argument --B: {problem}"
        ]
        assert "Traceback" not in err
        assert not out.exists()


# Manifest fuzzing: any JSON shape, with fields missing, of the wrong type,
# repeated or empty, naming tiny, empty, non-UTF-8 or absent documents.
# Well-formed parts are drawn more often than broken ones, so examples get
# past the first manifest check; the explicit examples run a full analysis.
_FILES = ("a.txt", "b.txt", "c.txt")
_WORDS = ("storm", "rain", "winds", "clouds", "tides", "coast", "wheat", "grain",
          "barn", "silo", "violin", "cello", "the", "and")
_json_scalar = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(allow_nan=False), st.text(max_size=6)
)
_junk = st.recursive(
    _json_scalar,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=6), inner, max_size=3)
    ),
    max_leaves=6,
)


def _mostly(valid, broken=_junk):
    """valid in most draws, else broken."""
    return st.integers(0, 9).flatmap(lambda r: broken if r == 0 else valid)


def _entry(fields):
    """A dict with every field, else one with some of them missing, or junk."""
    partial = st.one_of(st.fixed_dictionaries({}, optional=fields), _junk)
    return _mostly(st.fixed_dictionaries(fields), partial)


_doc_entry = _entry({
    "doc_id": _mostly(st.sampled_from(["d1", "d2", "d3"])),
    "path": _mostly(st.sampled_from(_FILES), st.one_of(st.sampled_from(["missing.txt", "."]), _junk)),
})
_topic_entry = _entry({
    "topic_id": _mostly(st.sampled_from(["t1", "t2"])),
    "documents": _mostly(st.lists(_doc_entry, min_size=1, max_size=4)),
})
_manifest = _entry({"topics": _mostly(st.lists(_topic_entry, min_size=1, max_size=3))})
_text = st.lists(st.sampled_from(_WORDS), min_size=1, max_size=40).map(" ".join)
_document = _mostly(_text, st.one_of(st.none(), st.binary(max_size=6)))  # None: no file


_VALID = {"topics": [
    {"topic_id": "t1", "documents": [{"doc_id": "d1", "path": "a.txt"},
                                     {"doc_id": "d2", "path": "b.txt"}]},
    {"topic_id": "t2", "documents": [{"doc_id": "d1", "path": "c.txt"}]},
]}


@settings(max_examples=80, deadline=None)
@given(manifest=_manifest, documents=st.tuples(*[_document] * len(_FILES)))
@example(manifest=_VALID, documents=(" ".join(_WORDS),) * 3)  # a full analysis, exit 0
@example(manifest=_VALID, documents=(" ".join(_WORDS), "storm", "the rain"))  # too few terms
def test_any_manifest_gives_a_documented_exit(manifest, documents):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, content in zip(_FILES, documents):
            if isinstance(content, str):
                (tmp / name).write_text(content, encoding="utf-8")
            elif content is not None:
                (tmp / name).write_bytes(content)
        (tmp / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(["analyze", str(tmp / "manifest.json"), "--out", str(tmp / "out"),
                         "--window", "5", "--k", "4"])
    err = err.getvalue()
    assert code in (0, 1, 2)
    assert err.count("\n") <= 1 and "Traceback" not in err
    assert (code == 0) == (err == "")
