"""The package imports only the standard library (``dependencies = []``)."""

import ast
import sys
from pathlib import Path

import spectral_tetris

MODULES = sorted(Path(spectral_tetris.__file__).parent.glob("*.py"))


def _absolute_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_every_module_imports_only_the_standard_library():
    assert len(MODULES) >= 10
    outside = {
        f"{path.name}: {name}"
        for path in MODULES
        for name in _absolute_imports(path)
        if name.partition(".")[0] not in sys.stdlib_module_names
    }
    assert not outside, sorted(outside)
