"""Every name the package and its modules export resolves, and none is
exported twice."""

import importlib
import pkgutil

import pytest

import microtherm

MODULES = ["microtherm"] + sorted(
    f"microtherm.{info.name}" for info in pkgutil.iter_modules(microtherm.__path__))
EXPORTING = [name for name in MODULES if hasattr(importlib.import_module(name), "__all__")]


def test_the_package_and_its_layers_export():
    assert {"microtherm", "microtherm.evolve", "microtherm.diagnostics"} <= set(EXPORTING)


@pytest.mark.parametrize("name", EXPORTING)
def test_all_resolves_without_duplicates(name):
    module = importlib.import_module(name)
    exported = list(module.__all__)
    duplicated = sorted({n for n in exported if exported.count(n) > 1})
    assert not duplicated, duplicated
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, missing
