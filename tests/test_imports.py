"""Every imported name is read: an ast scan of the library, tests and demos.

The package's ``__init__`` is left out, since its imports are its exports.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _unread_imports(path: Path) -> list[str]:
    """The names path's imports bind that no expression in it reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{path.relative_to(ROOT)}:{line}: {name}" for name, line in bound.items() if name not in read]


def test_no_module_imports_a_name_it_never_reads() -> None:
    paths = [
        *(p for p in sorted((ROOT / "src" / "kuzlab").glob("*.py")) if p.name != "__init__.py"),
        *sorted((ROOT / "tests").glob("*.py")),
        *sorted((ROOT / "demos").glob("*.py")),
    ]
    assert len(paths) > 20
    assert [entry for path in paths for entry in _unread_imports(path)] == []
