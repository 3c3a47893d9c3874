"""Two ast scans: every imported name is read, and every public function is used.

The import scan covers the library, tests and demos, leaving out the
package's ``__init__``, since its imports are its exports. The use scan asks
that each public function and method of the library be reached from outside
the tests: from the library itself, the demos or the benchmark.
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


def _public_functions(path: Path) -> list[tuple[str, str]]:
    """(qualified name, name) of each public top-level function and public method in path."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            found.append((f"{path.stem}.{node.name}", node.name))
        elif isinstance(node, ast.ClassDef):
            found += [
                (f"{path.stem}.{node.name}.{item.name}", item.name)
                for item in node.body
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
            ]
    return found


def _referenced_names(path: Path) -> set[str]:
    """Names path calls, reads as an attribute or passes by name."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_public_function_is_used_outside_the_tests() -> None:
    """A public function or method that only tests reach is dead code: delete it,
    or give its test the kernel it wraps. Exports in __init__ are imports, not uses."""
    users = [path for part in ("src", "demos", "perfbench") for path in sorted((ROOT / part).rglob("*.py"))]
    assert len(users) > 20
    used = set().union(*(_referenced_names(path) for path in users))
    library = sorted((ROOT / "src" / "kuzlab").glob("*.py"))
    defined = [entry for path in library for entry in _public_functions(path)]
    assert len(defined) > 50
    assert [qualified for qualified, name in defined if name not in used] == []
