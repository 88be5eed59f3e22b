"""numpy is the only runtime dependency: every module of the package imports
from the standard library, numpy or the package itself, and the CSV writer
process (run as ``python -I -S _csvwriter.py``) from the standard library
alone."""

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


MODULES = sorted(PACKAGE.glob("*.py"))


def test_every_module_is_found():
    assert {p.name for p in MODULES} >= {"__init__.py", "_csvwriter.py", "core.py",
                                         "kinetic.py", "moc.py", "runner.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_only_stdlib_numpy_and_the_package(path):
    allowed = STDLIB if path.name == "_csvwriter.py" else STDLIB | {"numpy", "pipewave", "."}
    assert imported_roots(path) - allowed == set()


def test_guard_sees_third_party_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import os\nimport scipy.linalg\nfrom numpy import ndarray\n"
                     "from . import core\n")
    assert imported_roots(probe) == {"os", "scipy", "numpy", "."}
