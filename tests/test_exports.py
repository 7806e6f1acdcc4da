"""Every exported name resolves, in the package and in each submodule."""

import importlib
import pkgutil
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
