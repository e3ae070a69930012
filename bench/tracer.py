"""Spans and counters around the public functions of the zflab modules.

The tracer wraps, from outside the package, every public function each
module defines, plus `ExactMatrix.rank_nullity` and
`ExactMatrix.nullspace_basis`.  Every name that binds a wrapped function is
rebound, so `certify`'s own `zero_forcing_number` and `cli`'s own
`adjacency_matrix` are traced as well.  A span records its name, start,
end, parent span and job id; spans stay in memory until the benchmark
writes them out.  Self time is a span's duration minus the time of the
wrapped spans nested directly inside it.

Machine-independent counters are taken at the same boundaries from the
arguments and results: search nodes, matrix cells and pivots, GF(2)
diagonals, red moves and SAP unknowns.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("graphs", "linalg", "forcing", "redrule", "structure", "equitable",
          "certify", "cli")

# the family constructors parse_graph_spec reaches, traced as one span name
GENERATORS = ("path_graph", "cycle_graph", "complete_graph",
              "complete_bipartite_graph", "circulant", "aztec_diamond",
              "extended_cube", "generalized_petersen", "cartesian_product")


def _count_zf(args, result):
    return {"forcing.search_nodes": result.subsets_examined}


def _count_rank(args, result):
    m = args[0]
    key = _rank_span(m)
    return {f"{key}.cells": m.rows * m.cols, f"{key}.pivots": result[0]}


def _count_moves(args, result):
    return {"redrule.derive_red_certificates.moves": len(result)}


def _count_sap(args, result):
    g = args[1]
    return {"structure.has_sap.unknowns": g.n * (g.n - 1) // 2 - g.num_edges}


def _count_gf2(args, result):
    return {"certify.min_rank_gf2_exhaustive.diagonals": 1 << args[0].n}


COUNTERS = {
    "forcing.zero_forcing_number": _count_zf,
    "linalg.rank_nullity": _count_rank,
    "redrule.derive_red_certificates": _count_moves,
    "structure.has_sap": _count_sap,
    "certify.min_rank_gf2_exhaustive": _count_gf2,
}


def _rank_span(matrix):
    return "linalg.rank_nullity." + matrix.domain.kind.lower()


class Tracer:
    """Installs the wrappers on `install()` and removes them on `uninstall()`."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock  # the runner's clock stops while a host probe runs
        self.job = None  # id stamped on every span
        self.spans = []  # (span id, name, start, end, parent id, job id)
        self.stats = {}  # span name -> [calls, self seconds]
        self.counts = {}  # counter name -> total
        self._stack = []  # [span id, child seconds] of the open spans
        self._next_id = 0
        self._undo = []

    # -- recording ----------------------------------------------------------

    def call(self, name, fn, args, kwargs):
        if name == "linalg.rank_nullity":
            span = _rank_span(args[0])
        else:
            span = name
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [sid, 0.0]
        self._stack.append(frame)
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = self.clock()
            self._stack.pop()
            dur = end - start
            if self._stack:
                self._stack[-1][1] += dur
            st = self.stats.get(span)
            if st is None:
                st = self.stats[span] = [0, 0.0]
            st[0] += 1
            st[1] += dur - frame[1]
            self.spans.append((sid, span, start, end, parent, self.job))
        counter = COUNTERS.get(name)
        if counter is not None:
            for key, value in counter(args, result).items():
                self.counts[key] = self.counts.get(key, 0) + value
        return result

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def take(self):
        """Return and reset the per-span stats and the counters."""
        stats, counts = self.stats, self.counts
        self.stats, self.counts = {}, {}
        return stats, counts

    # -- wrapping -----------------------------------------------------------

    def _wrapper(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)

        return traced

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [sys.modules["zflab"]] + [
            sys.modules[f"zflab.{layer}"] for layer in LAYERS
        ]
        wrapped = {}  # id(original) -> wrapper
        for layer in LAYERS:
            mod = sys.modules[f"zflab.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                if layer == "graphs" and attr in GENERATORS:
                    name = "graphs.generators"
                else:
                    name = f"{layer}.{attr}"
                wrapped[id(obj)] = (obj, self._wrapper(name, obj))
        # rebind every module-level name that refers to a wrapped function
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        matrix = sys.modules["zflab.linalg"].ExactMatrix
        for attr in ("rank_nullity", "nullspace_basis"):
            original = matrix.__dict__[attr]
            self._undo.append((matrix, attr, original))
            setattr(matrix, attr, self._wrapper(f"linalg.{attr}", original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def self_time_by_layer(stats):
    """Sum of self seconds per module (the first part of each span name)."""
    out = {layer: 0.0 for layer in LAYERS}
    for name, (_, self_s) in stats.items():
        out[name.split(".", 1)[0]] += self_s
    return out
