"""The library imports nothing outside the standard library except numpy."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "deltadesc").glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def absolute_imports(path: Path) -> set[str]:
    """Top-level package of every absolute import in ``path``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_sources_found():
    assert SOURCES, "no library sources found"


def test_library_depends_on_numpy_only():
    foreign = {
        f"{path.name}: {name}"
        for path in SOURCES
        for name in absolute_imports(path) - ALLOWED
    }
    assert not foreign, f"imports outside the standard library and numpy: {sorted(foreign)}"
