"""Every name a library module, a script under ``tools/`` or a file under
``tests/`` imports is used in that file.

The project runs no linter, and deleting a code path easily leaves its
imports behind.  A name counts as used when it is read anywhere in the
module or listed in its ``__all__``.
"""

import ast
from pathlib import Path

import pytest

import lcpbounds

TESTS = Path(__file__).resolve().parent
SOURCES = [*sorted(Path(lcpbounds.__file__).parent.glob("*.py")),
           *sorted((TESTS.parent / "tools").glob("*.py")), *sorted(TESTS.glob("*.py"))]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_an_unused_import():
    source = "from .errors import NoSolution, SingularMatrix\n\nraise NoSolution\n"
    assert unused_imports(source) == ["SingularMatrix (line 1)"]
