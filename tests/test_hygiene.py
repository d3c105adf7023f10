"""Source hygiene: cohsh modules hold no unused imports and no dead private names."""

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


def _private_module_names(tree: ast.Module) -> set[str]:
    """Module-level ``_``-prefixed defs, classes and assigned names (no dunders)."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def _loaded_names(tree: ast.Module) -> set[str]:
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def test_modules_use_every_private_name_they_define():
    unused = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if names := _private_module_names(tree) - _loaded_names(tree):
            unused[path.name] = sorted(names)
    assert unused == {}


def _blocked_arm_members_named(tree: ast.Module) -> set[str]:
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "BlockedArm"
        and node.attr in ("BLOCK_A", "BLOCK_B")
    }


def test_only_the_source_and_the_protocol_name_the_blocked_configurations():
    # the configurations are listed once, in measurement.protocol
    named = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name not in ("source.py", "measurement.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            if members := _blocked_arm_members_named(tree):
                named[path.name] = sorted(members)
    assert named == {}


def test_only_the_source_the_protocol_and_the_package_name_the_blocked_arm_type():
    # no config key or flag sets a shutter; measurement.protocol sets them all
    naming = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name not in ("source.py", "measurement.py", "__init__.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            if "BlockedArm" in _imported_names(tree) | _used_names(tree):
                naming.append(path.name)
    assert naming == []
