"""The dependency rule: at run time the package needs only the standard
library and numpy."""

import ast
import sys
from pathlib import Path

import gradmarket

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "gradmarket"}


def _imported_roots(source: str):
    """Top-level names of every absolute import in one module, nested
    imports included; relative imports stay inside the package."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_imports_are_stdlib_numpy_or_own():
    modules = sorted(Path(gradmarket.__file__).parent.rglob("*.py"))
    assert len(modules) > 1
    found = {}
    for path in modules:
        for root in _imported_roots(path.read_text()):
            found.setdefault(root, set()).add(path.name)
    assert "numpy" in found
    foreign = {root: sorted(names) for root, names in found.items() if root not in ALLOWED}
    assert not foreign, foreign


def test_import_scan_sees_foreign_and_nested_imports():
    source = "import os.path\nfrom . import field\ndef f():\n    from scipy import linalg\n"
    assert list(_imported_roots(source)) == ["os", "scipy"]
