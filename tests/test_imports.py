"""Each library module reads every name it imports, and every name it
defines is read somewhere.

No linter ships with the project, so this parses the sources with ``ast``:
a name bound by ``import`` or ``from ... import`` at any level of a module
must be read somewhere in it.  The package's ``__init__.py`` is left out,
since it imports names to re-export them.  A module-level function, class
or constant must be read in its own module outside its own definition,
imported by name, or read as an attribute somewhere in ``src/``,
``perfbench/`` or ``tests/``.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "avcodes"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
READERS = ("src", "perfbench", "tests")


def unused_imports(source):
    """(line, name) of each imported name the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_the_check_finds_an_unused_import():
    source = "import os\nimport numpy as np\nfrom a.b import c, d\nprint(np.pi, d)\n"
    assert unused_imports(source) == [(1, "os"), (3, "c")]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []


def definitions(tree):
    """(line, name, node) of each module-level function, class and
    constant (a name bound by a module-level assignment)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.lineno, node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        yield node.lineno, n.id, node


def used_elsewhere(sources):
    """The names imported by name or read as an attribute in ``sources``."""
    names = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def unread_definitions(source, elsewhere):
    """(line, name) of each module-level definition of ``source`` that it
    reads nowhere outside the definition itself and that is not in
    ``elsewhere``."""
    tree = ast.parse(source)
    loads = [n for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)]
    out = []
    for line, name, node in definitions(tree):
        inside = {id(n) for n in ast.walk(node)}
        if name.startswith("__") or name in elsewhere:
            continue
        if not any(n.id == name and id(n) not in inside for n in loads):
            out.append((line, name))
    return sorted(set(out))


def test_the_check_finds_an_unread_definition():
    source = ("import os\nLIMIT = 3\nSIZE, _pad = 4, 0\n"
              "def f(n):\n    return f(n - 1) if n else LIMIT\n"
              "def g():\n    return SIZE\nclass C:\n    pass\nclass D:\n    pass\n")
    assert unread_definitions(source, used_elsewhere(["from m import C\nx.g()\n"])) == [
        (3, "_pad"), (4, "f"), (10, "D")]


@pytest.fixture(scope="module")
def elsewhere():
    return used_elsewhere(p.read_text() for d in READERS for p in sorted((ROOT / d).rglob("*.py")))


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_every_definition_is_read(module, elsewhere):
    assert unread_definitions((SRC / module).read_text(), elsewhere) == []
