"""Source hygiene: every module of the package, and every test module, uses
each name it imports, and the package sends every message class it defines
but the ones it says it never sends.

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


# Message classes kept only because the benchmark's tracer names them.
NEVER_SENT = {"Register", "SetPortFlag", "StartDiscovery"}


def constructed_names(tree: ast.AST) -> set[str]:
    """The names a call reads as its callee, bare or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name):
                names.add(node.func.id)
            elif isinstance(node.func, ast.Attribute):
                names.add(node.func.attr)
    return names


def test_every_message_class_is_sent_but_the_never_sent_ones():
    messages = next(p for p in SOURCES if p.name == "messages.py")
    tree = ast.parse(messages.read_text(encoding="utf-8"))
    classes = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    assert NEVER_SENT <= classes
    built = set().union(*(constructed_names(ast.parse(p.read_text(encoding="utf-8"))) for p in SOURCES))
    assert sorted(classes - NEVER_SENT - built) == [], "message classes no module constructs"
    assert sorted(NEVER_SENT & built) == [], "never-sent message classes a module constructs"
    docstring = ast.get_docstring(tree)
    assert all(f"`{name}`" in docstring for name in NEVER_SENT)


def test_a_constructed_message_class_is_found():
    tree = ast.parse("KeyInstall(key=k)\nmessages.StartDiscovery()\nisinstance(m, ScAck)\n")
    assert constructed_names(tree) == {"KeyInstall", "StartDiscovery", "isinstance"}
