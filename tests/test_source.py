import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
    """Module-level functions, classes and assigned names, and the methods
    of module-level classes, each with whether it is a method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, False
        elif isinstance(node, ast.Assign):
            yield from (
                (t.id, False) for t in node.targets if isinstance(t, ast.Name)
            )
        if isinstance(node, ast.ClassDef):
            yield from (
                (item.name, True)
                for item in node.body
                if isinstance(item, ast.FunctionDef)
            )


def _references(tree):
    """Names the code reads, each with whether it is read as an attribute:
    loaded names and attributes, and imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, False
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, True
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], False


def _unread(sources, callers, keep):
    """Names defined in sources that keep selects and no caller reads. A
    method counts as read only when some code reads it as an attribute: a
    local variable of the same name is not a caller."""
    used, attributes = set(), set()
    for path in callers:
        for name, is_attribute in _references(ast.parse(path.read_text())):
            used.add(name)
            if is_attribute:
                attributes.add(name)
    return sorted(
        name
        for path in sources
        for name, is_method in _definitions(ast.parse(path.read_text()))
        if keep(name) and name not in (attributes if is_method else used)
    )


def test_every_public_name_is_referenced():
    # a public name that no code in the package or the benchmark reads is
    # surface only tests reach; docstrings, comments, the package's own
    # re-exports and the tests do not count as callers
    package = Path(zflab.__file__).parent
    root = Path(__file__).resolve().parent.parent
    sources = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    callers = sources + sorted((root / "bench").glob("*.py"))
    assert _unread(sources, callers, lambda name: not name.startswith("_")) == []


def test_every_private_name_is_referenced():
    # a private function, class, method or module constant that nothing in
    # the package reads is an orphaned helper; dunders are exempt
    sources = sorted(Path(zflab.__file__).parent.glob("*.py"))
    private = lambda name: name.startswith("_") and not name.endswith("__")
    assert _unread(sources, sources, private) == []


def test_command_line_import_leaves_dataclasses_and_inspect_unloaded():
    # the records are named tuples, so a fresh command-line process never
    # pays for dataclasses and the inspect module it loads; typing is
    # left out because site loads it
    code = (
        "import sys, zflab.cli; zflab.cli.build_parser(); "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(zflab.__file__).resolve().parent.parent)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    ).stdout
    assert out == "[]\n"


def test_records_are_immutable():
    # each record type, built by the function that returns it, with one of
    # its fields; the cycle C6 rotated by two has QuadRational entries
    g = zflab.cycle_graph(4)
    dec = zflab.equitable_decomposition(zflab.cycle_graph(6), [2, 3, 4, 5, 0, 1])
    records = [
        (zflab.zf_closure(g, [0, 1]), "colored"),
        (zflab.zero_forcing_number(g), "zf_number"),
        (zflab.vertex_connectivity(g), "kappa"),
        (zflab.has_sap(g.adjacency_rows(), g), "has_sap"),
        (zflab.coarsest_equitable(g), "blocks"),
        (dec, "blocks"),
        (dec.blocks[1][0][1], "b"),
        (zflab.certify_universal_optimality(g), "claims"),
        (zflab.min_rank_gf2_exhaustive(g), "min_rank"),
        (zflab.parameter_report(g), "kappa"),
        (zflab.conjecture_harness("circ_l", l_values=(3,), k_values=(1,))[0], "status"),
        (zflab.RedMove.make(0, 1, {2: 1}), "k"),
    ]
    assert isinstance(records[6][0], zflab.QuadRational)
    for record, field in records:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
