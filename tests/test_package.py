"""The package surface: a light import, resolvable __all__ lists, no
unused imports and no imports beyond the runtime dependencies."""
import ast
import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import sparsebeam

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(m.name for m in pkgutil.iter_modules(sparsebeam.__path__))


def test_package_import_leaves_sympy_unloaded():
    # sympy is a test dependency only, for the manufactured solutions
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import sparsebeam; "
            "print('sympy' in sys.modules, sorted(n for n in vars(sparsebeam) "
            "if not n.startswith('_')))")
    out = subprocess.run([sys.executable, "-c", code, str(SRC)],
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["False", "[]"]


def test_public_surface_does_not_grow():
    # ROADMAP item 9: every public name a change adds is paid for by one it
    # removes; lower the bound when the surface shrinks
    total = sum(len(importlib.import_module(f"sparsebeam.{name}").__all__) for name in MODULES)
    assert total <= 58


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"sparsebeam.{name}")
    assert module.__all__
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing


def unused_imports(source: str) -> list:
    """Names a module imports but never references: a stdlib stand-in for a
    linter's unused-import rule.  A name counts as used where it appears as
    an identifier, including as the base of an attribute access."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_import_check_flags_a_planted_import():
    source = "import os\nimport numpy as np\nfrom .meshes import P0Field, eval_p1\nnp.zeros(P0Field)\n"
    assert unused_imports(source) == ["eval_p1", "os"]


@pytest.mark.parametrize("path", sorted((SRC / "sparsebeam").glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


# what a module of the package may import: the standard library, the two
# runtime dependencies of pyproject.toml and the package itself
RUNTIME = set(sys.stdlib_module_names) | {"numpy", "scipy", "sparsebeam"}


def imported_packages(source: str) -> set:
    """Top-level packages a module imports; a relative import counts as
    sparsebeam."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.add("sparsebeam" if node.level else node.module.split(".")[0])
    return found


def test_import_check_flags_test_only_packages():
    source = ("import scipy.sparse as sp\nfrom . import meshes\nimport pytest\n"
              "from reference import residual\nfrom sympy import symbols\n")
    assert sorted(imported_packages(source) - RUNTIME) == ["pytest", "reference", "sympy"]


@pytest.mark.parametrize("path", sorted((SRC / "sparsebeam").glob("*.py")), ids=lambda p: p.name)
def test_imports_only_runtime_dependencies(path):
    assert sorted(imported_packages(path.read_text()) - RUNTIME) == []
