"""The benchmark's tracer against the library it hooks.

`bench/tracer.py` wraps `ExactMatrix.rank_nullity` and
`ExactMatrix.nullspace_basis` and reads each matrix's `.domain.kind`,
`.rows` and `.cols`. A linalg change that breaks those hooks breaks every
`bench/run.py --trace 1` run; this test catches it without running the
benchmark. It only reads `bench/`.
"""

import importlib.util
from pathlib import Path

import zflab.cli as cli

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_the_linalg_calls(capsys):
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        # Circ[9,{1,2}]: 2 divides its pivot minor, so GF(2) is ranked again
        assert cli.main(["certify", "--graph", "circulant:9:1,2"]) == 1
        assert cli.main(["sap", "--graph", "aztec:3"]) == 0
        stats, counts = tracer.take()
        # report ranks A - lambda*I over Q once at each of its 5 shifts
        assert cli.main(["report", "--graph", "circulant:9:1,2"]) == 0
        report_stats, report_counts = tracer.take()
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert stats["linalg.rank_nullity.gf"][0] > 0
    assert stats["linalg.nullspace_basis"][0] > 0
    assert counts["linalg.rank_nullity.gf.cells"] > 0
    assert counts["linalg.rank_nullity.gf.pivots"] > 0
    assert report_stats["linalg.rank_nullity.q"][0] == 5
    assert report_counts["linalg.rank_nullity.q.cells"] > 0
    assert report_counts["linalg.rank_nullity.q.pivots"] > 0
