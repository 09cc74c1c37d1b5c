"""API-surface contract tests.

Every name a package advertises in ``__all__`` must resolve, and every
public class/function must carry a docstring — the deliverable is a
library, and an advertised-but-broken or undocumented symbol is a bug
like any other.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.core",
    "repro.grid",
    "repro.baselines",
    "repro.sim",
    "repro.obs",
    "repro.lint",
    "repro.chaos",
]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_names_resolve(package_name):
    package = importlib.import_module(package_name)
    assert hasattr(package, "__all__"), f"{package_name} must declare __all__"
    for name in package.__all__:
        assert hasattr(package, name), f"{package_name}.__all__ lists missing {name!r}"


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_is_complete(package_name):
    """Every public name an ``__init__`` exposes is advertised in ``__all__``.

    A name imported into the package namespace but missing from
    ``__all__`` is a half-public API: reachable, unadvertised, and
    invisible to ``from package import *`` and to mypy's re-export
    check under py.typed.  Submodules reachable as attributes (e.g.
    ``repro.core.alp``) are exempt — they are namespaces, not symbols.
    """
    package = importlib.import_module(package_name)
    advertised = set(package.__all__)
    stray = [
        name
        for name, obj in vars(package).items()
        if not name.startswith("_")
        and not inspect.ismodule(obj)
        and name not in advertised
    ]
    assert not stray, f"{package_name} exposes names missing from __all__: {sorted(stray)}"


def test_py_typed_marker_ships_with_the_package():
    marker = Path(repro.__file__).parent / "py.typed"
    assert marker.is_file(), "py.typed marker missing — typed API is unadvertised"


@pytest.mark.parametrize("package_name", PACKAGES)
def test_no_duplicate_all_entries(package_name):
    package = importlib.import_module(package_name)
    names = list(package.__all__)
    assert len(names) == len(set(names)), f"duplicates in {package_name}.__all__"


def _walk_modules():
    for module_info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield importlib.import_module(module_info.name)


def test_every_module_has_docstring():
    for module in _walk_modules():
        assert module.__doc__, f"module {module.__name__} lacks a docstring"


def test_public_classes_and_functions_documented():
    undocumented = []
    for module in _walk_modules():
        for name in getattr(module, "__all__", []):
            obj = getattr(module, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if obj.__doc__ is None:
                    undocumented.append(f"{module.__name__}.{name}")
    assert not undocumented, f"undocumented public symbols: {undocumented}"


def test_public_methods_documented():
    missing = []
    for module in _walk_modules():
        for name in getattr(module, "__all__", []):
            obj = getattr(module, name)
            if not inspect.isclass(obj):
                continue
            for method_name, method in inspect.getmembers(obj, inspect.isfunction):
                if method_name.startswith("_"):
                    continue
                if method.__qualname__.split(".")[0] != obj.__name__:
                    continue  # inherited from elsewhere
                if method.__doc__ is None:
                    missing.append(f"{module.__name__}.{name}.{method_name}")
    assert not missing, f"undocumented public methods: {missing}"


def test_version_string():
    assert repro.__version__.count(".") == 2


def _third_party_import_roots() -> set[str]:
    """Root names of every absolute import under ``src/repro`` that is
    neither stdlib nor the package itself."""
    roots: set[str] = set()
    for path in Path(repro.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level and node.module:
                names = [node.module]
            else:
                continue
            roots.update(name.partition(".")[0] for name in names)
    return roots - set(sys.stdlib_module_names) - {"repro"}


def test_declared_dependencies_cover_imports():
    """Every third-party package the program imports is a declared
    runtime dependency, so an install from ``pyproject.toml`` alone can
    import it."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
    declared = {
        re.split(r"[\s<>=!~;\[]", requirement, maxsplit=1)[0].lower()
        for requirement in project.get("dependencies", [])
    }
    missing = sorted(_third_party_import_roots() - declared)
    assert not missing, f"imported but not in [project].dependencies: {missing}"
