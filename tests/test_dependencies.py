"""numpy is the only runtime dependency: every module of the package imports
from the standard library, numpy or the package itself, and the CSV writer
process (run as ``python -I -S _csvwriter.py``) from the standard library
alone.  Every module but ``__init__.py`` (whose imports are the package's
re-exports) also reads every name it imports."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pipewave"
STDLIB = frozenset(sys.stdlib_module_names)


def imported_roots(path):
    """Top-level names of every module ``path`` imports; "." for a relative
    import (the package itself)."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            roots.add("." if node.level else node.module.split(".")[0])
    return roots


def unused_imports(path):
    """Names bound by an import in ``path`` and never read there; ``from
    __future__`` imports bind no name to read and are skipped."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    return bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


MODULES = sorted(PACKAGE.glob("*.py"))


def test_every_module_is_found():
    assert {p.name for p in MODULES} >= {"__init__.py", "_csvwriter.py", "core.py",
                                         "kinetic.py", "moc.py", "runner.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_only_stdlib_numpy_and_the_package(path):
    allowed = STDLIB if path.name == "_csvwriter.py" else STDLIB | {"numpy", "pipewave", "."}
    assert imported_roots(path) - allowed == set()


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path) == set()


def test_guard_sees_unused_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from __future__ import annotations\nimport os.path\n"
                     "import sys as system\nfrom numpy import ndarray, zeros\n"
                     "from .core import State\n\n"
                     "def f(x: State):\n    return zeros(3), os.sep\n")
    assert unused_imports(probe) == {"system", "ndarray"}


def test_guard_sees_third_party_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import os\nimport scipy.linalg\nfrom numpy import ndarray\n"
                     "from . import core\n")
    assert imported_roots(probe) == {"os", "scipy", "numpy", "."}
