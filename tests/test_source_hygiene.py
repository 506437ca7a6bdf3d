"""Source hygiene: every module of the package, and every test module, uses
each name it imports.

`__init__.py` is left out, as it imports names to re-export them.  A name
counts as used where the module's code reads it, including inside a quoted
annotation.
"""

import ast

import pytest

from conftest import REPO_ROOT

SOURCES = sorted(p for p in (REPO_ROOT / "src" / "macsecsim").glob("*.py") if p.name != "__init__.py")
TESTS = sorted((REPO_ROOT / "tests").glob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of its import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.AST) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            used |= used_names(ast.parse(annotation.value, mode="eval"))
    return used


@pytest.mark.parametrize(
    "path", SOURCES + TESTS, ids=[p.name for p in SOURCES] + [f"tests/{p.name}" for p in TESTS]
)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    unused = {name: line for name, line in imported_names(tree).items() if name not in used_names(tree)}
    assert unused == {}, f"{path.name} imports names it never uses (name: line)"


def test_an_unused_import_is_found():
    tree = ast.parse(
        "from dataclasses import FrozenInstanceError, dataclass\nimport os.path\n"
        "def f() -> 'Frame':\n    return dataclass\n"
    )
    assert imported_names(tree) == {"FrozenInstanceError": 1, "dataclass": 1, "os": 2}
    assert used_names(tree) == {"dataclass", "Frame"}
