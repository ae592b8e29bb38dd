"""Every name a module imports is used in it, and every private top-level
name is used in the package.

``__init__.py`` re-exports what it imports, and an import line marked
``# noqa: F401`` is kept on purpose (a re-export that other code looks up
through the importing module), so both are exempt from the first check.
A private name (``_name``, not ``__name__``) is used when some top-level
statement of the package, other than its own definition, names it.
"""

import ast
from pathlib import Path

import spectral_tetris

MODULES = sorted(Path(spectral_tetris.__file__).parent.glob("*.py"))


def _unused_imports(path: Path):
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    imported = {}  # bound name -> line number
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    assert len(MODULES) >= 10
    unused = [
        finding
        for path in MODULES
        if path.name != "__init__.py"
        for finding in _unused_imports(path)
    ]
    assert not unused, unused


def _defined(node) -> list[str]:
    """The names a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [target.id for target in targets if isinstance(target, ast.Name)]


def _named(node) -> set[str]:
    """Every name a statement mentions: names, attributes and imports."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.asname or sub.name)
    return names


def test_every_private_top_level_name_is_used():
    statements = [
        (path.name, node)
        for path in MODULES
        for node in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body
    ]
    mentions = [_named(node) for _, node in statements]
    unused = [
        f"{module}:{node.lineno}: {name}"
        for k, (module, node) in enumerate(statements)
        for name in _defined(node)
        if name.startswith("_") and not name.startswith("__")
        and not any(name in named for m, named in enumerate(mentions) if m != k)
    ]
    assert not unused, unused
