"""Run the docstring examples shipped with the public API, and check that
every name has one import path: each module exports only names it
defines, and each package ``__init__`` is only its docstring."""

import ast
import doctest
import importlib
import pkgutil
from pathlib import Path

import pytest

import repro
import repro.core.manifest.builder
import repro.sim.kernel

SRC = Path(repro.__file__).parent.parent

#: The only package ``__init__`` bindings besides the docstring, and why.
INIT_BINDINGS = {
    # The distribution's version string.
    "repro/__init__.py": {"__version__"},
    # perfbench/workload.py imports these two from their packages.
    "repro/grid/__init__.py": {"PolymorphSearchConfig"},
    "repro/sim/__init__.py": {"read_peak_rss_kb"},
}


@pytest.mark.parametrize("module", [
    repro,
    repro.core.manifest.builder,
    repro.sim.kernel,
])
def test_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0
    assert results.attempted > 0


def _top_level(body):
    """Top-level statements, looking inside ``if`` and ``try`` blocks."""
    for node in body:
        yield node
        if isinstance(node, (ast.If, ast.Try)):
            yield from _top_level(node.body)
            yield from _top_level(node.orelse)
            for handler in getattr(node, "handlers", ()):
                yield from _top_level(handler.body)


def _imported_names(tree):
    return {alias.asname or alias.name.split(".")[0]
            for node in _top_level(tree.body)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names}


def test_every_exported_name_resolves():
    """A name left in ``__all__`` after its definition is deleted fails here,
    not at some later star import; so does a name the module only imports,
    which would give it a second import path."""
    modules = [repro] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
    ]
    stale = [f"{module.__name__}.{name}" for module in modules
             for name in getattr(module, "__all__", ())
             if not hasattr(module, name)]
    borrowed = [f"{module.__name__}.{name}" for module in modules
                for name in sorted(
                    set(getattr(module, "__all__", ()))
                    & _imported_names(ast.parse(
                        Path(module.__file__).read_text())))]
    assert len(modules) > 50
    assert stale == []
    assert borrowed == []


def test_package_inits_are_their_docstrings():
    """Callers import each name from the module that defines it, so a
    package ``__init__`` re-exports nothing and importing one submodule
    runs no other."""
    bindings = {}
    for init in sorted((SRC / "repro").rglob("__init__.py")):
        body = ast.parse(init.read_text()).body
        assert body and isinstance(body[0], ast.Expr) \
            and isinstance(body[0].value, ast.Constant), init
        names = set()
        for node in body[1:]:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names |= {alias.asname or alias.name for alias in node.names}
            elif isinstance(node, ast.Assign):
                names |= {target.id for target in node.targets
                          if isinstance(target, ast.Name)}
            else:
                names.add(type(node).__name__)
        if names:
            bindings[init.relative_to(SRC).as_posix()] = names
    assert bindings == INIT_BINDINGS
