"""Run the docstring examples shipped with the public API, and check that
every module exports only names it defines."""

import doctest
import importlib
import pkgutil

import pytest

import repro
import repro.core.manifest.builder
import repro.sim.kernel


@pytest.mark.parametrize("module", [
    repro,
    repro.core.manifest.builder,
    repro.sim.kernel,
])
def test_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0
    assert results.attempted > 0


def test_every_exported_name_resolves():
    """A name left in ``__all__`` after its definition is deleted fails here,
    not at some later star import."""
    modules = [repro] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
    ]
    stale = [f"{module.__name__}.{name}" for module in modules
             for name in getattr(module, "__all__", ())
             if not hasattr(module, name)]
    assert len(modules) > 50
    assert stale == []
