"""Every exported name resolves, in the package and in each submodule."""

import importlib
import pkgutil

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
