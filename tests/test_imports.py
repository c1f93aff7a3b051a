"""Every name a library module, a script under ``tools/`` or a file under
``tests/`` imports is used in that file, and every private name a library
module defines is read elsewhere in the library.

The project runs no linter, and deleting a code path easily leaves its
imports, or a private helper, behind.  An imported name counts as used when
it is read anywhere in the module or listed in its ``__all__``.  A private
name (a module-level function, class or constant whose name starts with
``_``; dunders are exempt) counts as read when a line of the library outside
its own definition reads it, as a name, an attribute or an import.
"""

import ast
from pathlib import Path

import pytest

import lcpbounds

TESTS = Path(__file__).resolve().parent
LIBRARY = sorted(Path(lcpbounds.__file__).parent.glob("*.py"))
SOURCES = [*LIBRARY, *sorted((TESTS.parent / "tools").glob("*.py")), *sorted(TESTS.glob("*.py"))]


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


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """The module-level private names of ``sources`` (file name -> text) that
    no line outside their own definition reads."""
    definitions, reads = [], []
    for file, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            definitions += [(file, name, node.lineno, node.end_lineno) for name in names
                            if name.startswith("_") and not name.endswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.append((file, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                reads.append((file, node.attr, node.lineno))
            elif isinstance(node, ast.alias):
                reads.append((file, node.name, node.lineno))

    def read_elsewhere(file, name, first, last):
        return any(read == name and not (where == file and first <= line <= last)
                   for where, read, line in reads)

    return [f"{file}: {name} (line {first})" for file, name, first, last in definitions
            if not read_elsewhere(file, name, first, last)]


def test_every_private_name_is_read():
    assert unread_private_names({path.name: path.read_text() for path in LIBRARY}) == []


def test_detects_an_unread_private_name():
    sources = {
        "a.py": "_USED = 1\n_SPARE = 2\n\n\ndef _loop(k):\n    return _loop(k - 1) + _USED\n",
        "b.py": "from a import _USED\n__version__ = '1'\n",
    }
    assert unread_private_names(sources) == ["a.py: _SPARE (line 2)", "a.py: _loop (line 5)"]
