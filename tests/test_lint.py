"""Static checks on the package source, with the standard library's ``ast``.

An import that no code of its module uses, and a module-level ``_private``
function or class that nothing in the package refers to, are dead code.  A
name that appears only in a docstring or a comment is not a use; a name
listed in a module's ``__all__`` is.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qglrtt"
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _exported(tree):
    """The names listed in a module-level ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _loaded(tree):
    """Every name the code reads, as a bare name or an attribute."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def _imported(tree):
    """``(bound name, line)`` of every import, ``__future__`` ones aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                yield name, node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_package_has_modules():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = _tree(path)
    used = _loaded(tree) | _exported(tree)
    unused = [
        "%s:%d %s" % (path.name, line, name)
        for name, line in _imported(tree)
        if name not in used
    ]
    assert not unused


def test_no_unreferenced_private_definitions():
    trees = {path: _tree(path) for path in MODULES}
    referenced = set()
    for tree in trees.values():
        referenced |= _loaded(tree) | _exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    unreferenced = [
        "%s:%d %s" % (path.name, node.lineno, node.name)
        for path, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in referenced
    ]
    assert not unreferenced
