"""Every exported name resolves, in the package and in each submodule."""

import importlib
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import entangletext

MODULES = [
    info.name
    for info in pkgutil.iter_modules(entangletext.__path__)
    if info.name != "__main__"  # importing it runs the CLI
]


def test_package_exports_resolve():
    assert [n for n in entangletext.__all__ if not hasattr(entangletext, n)] == []


@pytest.mark.parametrize("name", MODULES)
def test_submodule_exports_resolve(name):
    module = importlib.import_module(f"entangletext.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_perfbench_hooks_resolve(monkeypatch):
    """Every package function the benchmark's traced run wraps is there to wrap.

    perfbench/spans.py patches module globals that the package looks up at
    call time; a name that goes missing raises its TraceError.
    """
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    spans = importlib.import_module("spans")
    from entangletext import report, simulation

    originals = (report.load_topic_corpus, simulation.chsh_max_abs_batch)
    tracer = spans.Tracer()
    try:
        spans.install_analyze(tracer, [])
        spans.install_simulate(tracer)
    finally:
        tracer.restore()
    assert (report.load_topic_corpus, simulation.chsh_max_abs_batch) == originals


# loaded by `selftest` and by a sweep; neither a plain import nor `analyze` needs them
LAZY_MODULES = ["entangletext.selftest", "fractions", "decimal", "concurrent.futures", "logging"]


def _run_after_numpy(subprocess_env, body):
    """The JSON value ``body`` prints last, run in a fresh interpreter after
    numpy, with ``before`` the set of modules loaded by then, so that a
    module numpy loads counts as loaded before."""
    code = "import json, sys, numpy\nbefore = set(sys.modules)\n" + body
    proc = subprocess.run(
        [sys.executable, "-c", code], env=subprocess_env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_the_selftest_suite_on_first_use(subprocess_env):
    loaded, callable_, suite_loaded = _run_after_numpy(
        subprocess_env,
        "import entangletext\n"
        "loaded = sorted(set(sys.modules) - before)\n"
        "print(json.dumps([loaded, callable(entangletext.run_selftest),"
        " 'entangletext.selftest' in sys.modules]))",
    )
    assert "entangletext.report" in loaded
    assert [name for name in LAZY_MODULES if name in loaded] == []
    assert callable_ and suite_loaded


def test_analyze_leaves_the_selftest_suite_and_pool_unloaded(subprocess_env, tmp_path):
    manifest = str(entangletext.bundled_corpus_path())
    argv = ["analyze", manifest, "--out", str(tmp_path), "--window", "20"]
    loaded = _run_after_numpy(
        subprocess_env,
        "from entangletext.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))",
    )
    assert "entangletext.report" in loaded
    assert [name for name in LAZY_MODULES if name in loaded] == []
