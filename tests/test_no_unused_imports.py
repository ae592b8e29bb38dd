"""Every name a module imports is used in it.

``__init__.py`` re-exports what it imports, and an import line marked
``# noqa: F401`` is kept on purpose (a re-export that other code looks up
through the importing module), so both are exempt.
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
