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
