"""Command line front end.

Graphs are given either as a file path (edge-list text or the JSON form) or
as a family spec:

    path:N cycle:N complete:N kbip:A,B circulant:N:S1,S2,...
    aztec:R ecg:T,K petersen:N,K cart:SPEC+SPEC

Examples: "circulant:8:1,3", "ecg:1,2", "cart:cycle:8+path:3".
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import certify as _certify
from . import equitable as _equitable
from . import forcing as _forcing
from . import graphs as _graphs
from . import redrule as _redrule
from . import structure as _structure
from .linalg import parse_matrix


def parse_graph_spec(spec):
    if os.path.exists(spec):
        with open(spec) as fh:
            return _graphs.read_edge_list(fh.read())
    if spec.startswith("cart:"):
        left, sep, right = spec[5:].partition("+")
        if not sep:
            raise ValueError("cart needs two specs joined by '+'")
        return _graphs.cartesian_product(parse_graph_spec(left), parse_graph_spec(right))
    name, _, rest = spec.partition(":")
    args = [a for a in rest.split(":") if a] if rest else []

    def ints(i, count):
        """The i-th argument as a comma-separated list of integers; count
        None takes any number of them."""
        if i >= len(args):
            raise ValueError(f"graph spec {spec!r} is missing arguments")
        try:
            vals = [int(x) for x in args[i].split(",")]
        except ValueError:
            raise ValueError(f"graph spec {spec!r} has a non-integer argument") from None
        if count is not None and len(vals) != count:
            raise ValueError(
                f"graph spec {spec!r} needs {count} comma-separated integers "
                f"in argument {i + 1}, got {len(vals)}"
            )
        return vals

    families = {
        "path": lambda: _graphs.path_graph(*ints(0, 1)),
        "cycle": lambda: _graphs.cycle_graph(*ints(0, 1)),
        "complete": lambda: _graphs.complete_graph(*ints(0, 1)),
        "kbip": lambda: _graphs.complete_bipartite_graph(*ints(0, 2)),
        "circulant": lambda: _graphs.circulant(*ints(0, 1), set(ints(1, None))),
        "aztec": lambda: _graphs.aztec_diamond(*ints(0, 1)),
        "ecg": lambda: _graphs.extended_cube(*ints(0, 2)),
        "petersen": lambda: _graphs.generalized_petersen(*ints(0, 2)),
    }
    if name not in families:
        raise ValueError(f"cannot parse graph spec {spec!r}")
    if len(args) > (2 if name == "circulant" else 1):
        raise ValueError(f"graph spec {spec!r} has too many arguments")
    return families[name]()


def _parse_vertex_list(text, option):
    try:
        return [int(tok) for tok in text.replace(",", " ").replace(":", " ").split()]
    except ValueError:
        raise ValueError(f"{option} must list integer vertices, got {text!r}") from None


def _load_json_arg(arg):
    if os.path.exists(arg):
        with open(arg) as fh:
            return json.load(fh, object_pairs_hook=_graphs._unique_keys)
    return json.loads(arg, object_pairs_hook=_graphs._unique_keys)


def _load_moves(arg):
    """--cert: a JSON list of move objects whose X and Y are objects."""
    obj = _load_json_arg(arg)
    if not isinstance(obj, list) or not all(
        isinstance(o, dict)
        and isinstance(o.get("X", {}), dict)
        and isinstance(o.get("Y", {}), dict)
        for o in obj
    ):
        raise ValueError("--cert must be a JSON list of move objects")
    try:
        return [_redrule.RedMove.from_json_obj(o) for o in obj]
    except KeyError as exc:
        raise ValueError(f"--cert has a malformed move: missing {exc}") from None
    except TypeError as exc:
        raise ValueError(f"--cert has a malformed move: {exc}") from None


def _load_blocks(arg):
    """--partition: a JSON object whose "blocks" is a list of vertex lists."""
    obj = _load_json_arg(arg)
    blocks = obj.get("blocks") if isinstance(obj, dict) else None
    if not isinstance(blocks, list) or not all(
        isinstance(b, list)
        and all(isinstance(v, int) and not isinstance(v, bool) for v in b)
        for b in blocks
    ):
        raise ValueError('--partition must be JSON {"blocks": [[vertex, ...], ...]}')
    return blocks


def _emit(obj, args):
    print(json.dumps(obj, indent=2 if getattr(args, "pretty", False) else None))


def _emit_table(rows, args):
    """Aligned-column rendering of a list of flat dicts (all same keys)."""
    if not getattr(args, "table", False) or not rows:
        return
    keys = list(rows[0])
    cells = [[str(r[k]) for k in keys] for r in rows]
    widths = [max(len(k), *(len(c[i]) for c in cells)) for i, k in enumerate(keys)]
    print("  ".join(k.ljust(w) for k, w in zip(keys, widths)))
    for c in cells:
        print("  ".join(v.ljust(w) for v, w in zip(c, widths)))


def _cmd_zf_closure(g, args):
    col = _forcing.zf_closure(g, _parse_vertex_list(args.set, "--set"))
    _emit(
        {
            "colored": sorted(col.colored),
            "all_colored": col.all_colored,
            "forces": [list(f) for f in col.log],
        },
        args,
    )
    return 0


def _cmd_zf_number(g, args):
    res = _forcing.zero_forcing_number(g)
    out = {
        "zf_number": res.zf_number,
        "witness": list(res.witness),
        "forces": [list(f) for f in res.forces],
        "exact": res.is_exact,
    }
    if not res.is_exact:
        out["lower_bound"] = res.lower_bound
        out["upper_bound"] = res.zf_number
    _emit(out, args)
    return 0


def _cmd_red_derive(g, args):
    cert = _redrule.derive_red_certificates(g)
    _emit([m.to_json_obj() for m in cert], args)
    return 0


def _cmd_red_verify(g, args):
    moves = _load_moves(args.cert)
    try:
        red = _redrule.apply_red_sequence(g, moves)
    except _redrule.RedCertificateError as exc:
        _emit({"ok": False, "failing_move": exc.index, "error": str(exc)}, args)
        return 1
    _emit({"ok": True, "red_set": red}, args)
    return 0


def _cmd_kappa(g, args):
    kw = _structure.vertex_connectivity(g)
    _emit({"kappa": kw.kappa, "separator": list(kw.separator)}, args)
    return 0


def _cmd_sap(g, args):
    if args.matrix:
        with open(args.matrix) as fh:
            a = parse_matrix(fh.read())
    else:
        a = g.adjacency_rows()
    rep = _structure.has_sap(a, g)
    out = {"has_sap": rep.has_sap, "violation_dim": rep.violation_dim}
    if rep.sample_violation is not None:
        out["sample_violation"] = [list(map(str, row)) for row in rep.sample_violation]
    _emit(out, args)
    return 0


def _cmd_equitable_refine(g, args):
    initial = _load_blocks(args.partition) if args.partition else None
    part = _equitable.coarsest_equitable(g, initial)
    _emit({"blocks": [list(b) for b in part.blocks],
           "divisor": [list(r) for r in part.b]}, args)
    return 0


def _cmd_equitable_divisor(g, args):
    _emit({"divisor": _equitable.divisor_matrix(g, _load_blocks(args.partition))}, args)
    return 0


def _cmd_decompose(g, args):
    perm = _parse_vertex_list(args.perm, "--perm")
    tv = args.transversal
    t0 = _parse_vertex_list(tv, "--transversal") if tv else None
    dec = _equitable.equitable_decomposition(g, perm, t0)
    out = {
        "orbit_size": dec.k,
        "exact": dec.exact,
        "transversals": [list(t) for t in dec.transversals],
    }
    out["blocks"] = [[[str(x) for x in row] for row in b] for b in dec.blocks]
    out["block_spectra"] = [list(s) for s in dec.block_spectra()]
    _emit(out, args)
    return 0


def _cmd_certify(g, args):
    try:
        primes = tuple(int(p) for p in args.primes.split(","))
    except ValueError:
        raise ValueError(
            f"--primes must be comma-separated primes, got {args.primes!r}"
        ) from None
    verdict = _certify.certify_universal_optimality(
        g, args.lam, primes, graph_id=args.graph
    )
    obj = verdict.to_json_obj()
    _emit(obj, args)
    row = {k: obj[k] for k in ("graph", "lambda")}
    row.update(Z=obj["zero_forcing_number"], nullity_Q=obj["nullity_Q"])
    row.update((f"nullity_{p}", v) for p, v in obj["nullities_mod_p"].items())
    row["verdict"] = obj["verdict"].partition("(")[0]
    _emit_table([row], args)
    return 0 if verdict.claims else 1


def _cmd_mr2(g, args):
    res = _certify.min_rank_gf2_exhaustive(g)
    out = {"min_rank_gf2": res.min_rank, "witness_diagonal": list(res.witness_diagonal)}
    attained = True
    if args.target_rank is not None:
        # the attained ranks form the interval [min, n]
        attained = res.min_rank <= args.target_rank <= g.n
        out.update(target_rank=args.target_rank, target_attained=attained)
    _emit(out, args)
    return 0 if attained else 1


def _cmd_report(g, args):
    rep = _certify.parameter_report(g, graph_id=args.graph)
    obj = rep.to_json_obj()
    _emit(obj, args)
    _emit_table(
        [{k: v for k, v in obj.items() if k not in ("nullities_Q", "sandwich")}],
        args,
    )
    return 0 if rep.chain_consistent() else 1


def _cmd_conjecture(g, args):
    ranges = {}
    if args.family == "circ_l":
        ranges["l_values"] = tuple(range(3, args.lmax + 1, 2))
        ranges["k_values"] = tuple(range(1, args.kmax + 1))
    else:
        ranges["t_values"] = tuple(range(0, args.tmax + 1))
        ranges["r_values"] = tuple(range(1, args.rmax + 1))
    rows = _certify.conjecture_harness(args.family, **ranges)
    objs = [r.to_json_obj() for r in rows]
    _emit(objs, args)
    _emit_table([{k: v for k, v in o.items() if k != "nullities_mod_p"} for o in objs], args)
    return 0 if all(r.status != "fail" for r in rows) else 1


def build_parser():
    ap = argparse.ArgumentParser(prog="zflab", description=__doc__)
    ap.add_argument("--pretty", action="store_true", help="indent JSON output")
    ap.add_argument(
        "--table",
        action="store_true",
        help="also print an aligned text table (certify / report / conjecture)",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def verb(subparsers, name, func, **kwargs):
        """The parser of a command on one graph: --graph first, then its
        own options; main parses the graph and calls func(g, args)."""
        p = subparsers.add_parser(name, **kwargs)
        p.add_argument("--graph", required=True)
        p.set_defaults(func=func)
        return p

    zf = sub.add_parser("zf", help="zero forcing")
    zf_sub = zf.add_subparsers(dest="zf_command", required=True)
    verb(zf_sub, "closure", _cmd_zf_closure).add_argument("--set", required=True)
    verb(zf_sub, "number", _cmd_zf_number)

    red = sub.add_parser("red", help="red color-change certificates")
    red_sub = red.add_subparsers(dest="red_command", required=True)
    rv = verb(red_sub, "verify", _cmd_red_verify)
    rv.add_argument("--cert", required=True, help="JSON list of moves (inline or file)")
    verb(red_sub, "derive", _cmd_red_derive)

    verb(sub, "kappa", _cmd_kappa, help="vertex connectivity")

    sp = verb(sub, "sap", _cmd_sap, help="Strong Arnold Property of a matrix in S(G)")
    sp.add_argument(
        "--matrix", default=None,
        help='rational matrix text file, header "rows cols Q"; default A(G)',
    )

    eq = sub.add_parser("equitable", help="equitable partitions")
    eq_sub = eq.add_subparsers(dest="eq_command", required=True)
    er = verb(eq_sub, "refine", _cmd_equitable_refine)
    er.add_argument("--partition", default=None, help='JSON {"blocks": [[...], ...]}')
    ed = verb(eq_sub, "divisor", _cmd_equitable_divisor)
    ed.add_argument("--partition", required=True)

    de = verb(sub, "decompose", _cmd_decompose, help="root-of-unity block decomposition")
    de.add_argument("--perm", required=True, help="image list, e.g. '3,4,...,2'")
    de.add_argument("--transversal", default=None)

    ce = verb(sub, "certify", _cmd_certify, help="field-independence certification")
    ce.add_argument("--lambda", dest="lam", type=int, default=0)
    ce.add_argument("--primes", default=",".join(map(str, _certify.PRIMES)))

    mr = verb(sub, "mr2", _cmd_mr2,
              help="GF(2) minimum rank by branch and bound to the greedy floor")
    mr.add_argument("--target-rank", type=int, default=None)

    verb(sub, "report", _cmd_report, help="assembled parameter report")

    co = sub.add_parser("conjecture", help="conjecture instance tables")
    co.add_argument("--family", choices=("circ_l", "ecg_tr"), required=True)
    co.add_argument("--lmax", type=int, default=5)
    co.add_argument("--kmax", type=int, default=2)
    co.add_argument("--tmax", type=int, default=2)
    co.add_argument("--rmax", type=int, default=2)
    co.set_defaults(func=_cmd_conjecture)

    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        g = parse_graph_spec(args.graph) if "graph" in args else None
        return args.func(g, args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
