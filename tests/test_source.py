import ast
import re
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


def test_every_public_name_is_referenced():
    # a public name that nothing mentions outside its own definition is
    # surface no caller sets or reads
    package = Path(zflab.__file__).parent
    root = Path(__file__).resolve().parent.parent
    sources = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    text = "\n".join(
        p.read_text()
        for p in sources + sorted((root / "tests").glob("*.py"))
        + sorted((root / "bench").glob("*.py"))
    )
    defined = {}
    for path in sources:
        for name in _definitions(ast.parse(path.read_text())):
            if not name.startswith("_"):
                defined[name] = defined.get(name, 0) + 1
    unused = sorted(
        name for name, count in defined.items()
        if len(re.findall(rf"\b{name}\b", text)) <= count
    )
    assert unused == []
