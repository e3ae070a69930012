import ast
from pathlib import Path

import zflab


def test_no_assert_statements():
    # python -O strips assert statements, so runtime checks must raise
    found = []
    for path in sorted(Path(zflab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


def _definitions(tree):
    """Public module-level functions, classes and assigned names, and the
    public methods of module-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            yield from (t.id for t in node.targets if isinstance(t, ast.Name))
        if isinstance(node, ast.ClassDef):
            yield from (
                item.name for item in node.body if isinstance(item, ast.FunctionDef)
            )


def _references(tree):
    """Names the code reads: loaded names and attributes, and imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]


def test_every_public_name_is_referenced():
    # a public name that no code in the package or the benchmark reads is
    # surface only tests reach; docstrings, comments, the package's own
    # re-exports and the tests do not count as callers
    package = Path(zflab.__file__).parent
    root = Path(__file__).resolve().parent.parent
    sources = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    callers = sources + sorted((root / "bench").glob("*.py"))
    used = set()
    for path in callers:
        used.update(_references(ast.parse(path.read_text())))
    defined = {
        name
        for path in sources
        for name in _definitions(ast.parse(path.read_text()))
        if not name.startswith("_")
    }
    assert sorted(defined - used) == []
