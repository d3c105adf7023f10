"""Source hygiene: every name a cohsh module imports is used in that module."""

import ast
from pathlib import Path

import cohsh

PACKAGE = Path(cohsh.__file__).parent


def _imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _used_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _unused_imports(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return _imported_names(tree) - _used_names(tree)


def test_modules_use_every_name_they_import():
    # __init__.py imports names to re-export them
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {p.name: sorted(names) for p in modules if (names := _unused_imports(p))}
    assert unused == {}
