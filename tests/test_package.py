"""The package surface: a light import and resolvable __all__ lists."""
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
    # sympy serves only the manufactured solutions, which are imported apart
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import sparsebeam; "
            "print('sympy' in sys.modules, sorted(n for n in vars(sparsebeam) "
            "if not n.startswith('_')))")
    out = subprocess.run([sys.executable, "-c", code, str(SRC)],
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["False", "[]"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"sparsebeam.{name}")
    assert module.__all__
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing
