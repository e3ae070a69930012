import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import zflab.cli as cli
from conftest import doubling_chain
from oracles import write_edge_list
from zflab import KappaWitness, certify, forcing
from zflab.redrule import RedMove, apply_red_sequence

BENCH = Path(__file__).resolve().parent.parent / "bench"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


class TestGraphSpecs:
    def test_families(self):
        assert cli.parse_graph_spec("cycle:5").n == 5
        assert cli.parse_graph_spec("kbip:4,4").num_edges == 16
        assert cli.parse_graph_spec("circulant:8:1,3").degree(0) == 4
        assert cli.parse_graph_spec("aztec:2").n == 12
        assert cli.parse_graph_spec("ecg:1,2").n == 14
        assert cli.parse_graph_spec("petersen:15,2").n == 30
        assert cli.parse_graph_spec("cart:cycle:8+path:3").n == 24

    def test_file(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("3 2\n0 1\n1 2\n")
        assert cli.parse_graph_spec(str(p)).edges == ((0, 1), (1, 2))

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            cli.parse_graph_spec("dodecahedron:1")


class TestCommands:
    def test_zf_closure(self, capsys):
        code, obj = run(capsys, "zf", "closure", "--graph", "path:4", "--set", "0")
        assert code == 0
        assert obj["all_colored"] and obj["forces"] == [[0, 1], [1, 2], [2, 3]]

    def test_zf_number(self, capsys):
        code, obj = run(capsys, "zf", "number", "--graph", "circulant:8:1,3")
        assert code == 0 and obj["zf_number"] == 6
        assert set(obj) == {"zf_number", "witness", "forces", "exact"}

    def test_zf_number_inexact_prints_bounds(self, capsys, monkeypatch):
        # GF(2) floor 1, below Z = 7: the search runs into its budget
        monkeypatch.setattr(forcing, "STATE_BUDGET", 5)
        code, obj = run(capsys, "zf", "number", "--graph", "petersen:11,4")
        assert code == 0 and obj["exact"] is False
        assert obj["lower_bound"] <= 7 <= obj["upper_bound"] == obj["zf_number"]

    @pytest.mark.parametrize("argv", [
        ("zf", "number", "--graph", "ecg:3,5"),
        ("certify", "--graph", "ecg:3,5"),
        ("report", "--graph", "ecg:3,5"),
        ("conjecture", "--family", "ecg_tr", "--tmax", "3", "--rmax", "2"),
    ], ids=["zf-number", "certify", "report", "conjecture"])
    def test_gf2_floor_above_z_is_a_fault(self, monkeypatch, argv):
        # every verb's search consults its own floor; one above Z is never
        # bad input (exit 2) nor a skipped row
        monkeypatch.setattr(forcing, "_gf2_floor", lambda g: g.n + 1)
        with pytest.raises(ArithmeticError, match="GF\\(2\\) floor"):
            cli.main(list(argv))

    def test_zf_number_without_vertices(self, capsys, tmp_path):
        (tmp_path / "no-vertices.txt").write_text("0 0\n")
        code, obj = run(capsys, "zf", "number", "--graph", str(tmp_path / "no-vertices.txt"))
        assert code == 0
        assert obj == {"zf_number": 0, "witness": [], "forces": [], "exact": True}

    def test_red_derive_then_verify(self, capsys, tmp_path):
        code, cert = run(capsys, "red", "derive", "--graph", "circulant:8:1,3")
        assert code == 0 and len(cert) == 6
        cert_file = tmp_path / "cert.json"
        cert_file.write_text(json.dumps(cert))
        code, obj = run(
            capsys, "red", "verify", "--graph", "circulant:8:1,3",
            "--cert", str(cert_file),
        )
        assert code == 0 and obj["ok"] and len(obj["red_set"]) == 6

    def test_red_verify_failure_exit(self, capsys):
        bad = json.dumps([{"u": 0, "v": 1, "X": {}, "Y": {}, "k": 0}])
        code, obj = run(capsys, "red", "verify", "--graph", "path:4", "--cert", bad)
        assert code == 1 and obj["failing_move"] == 0

    def test_red_verify_large_count(self, capsys):
        # a count of 10^7 is checked like any other: the equation fails
        bad = '[{"u": 0, "v": 1, "X": {"2": 10000000}}]'
        code, obj = run(capsys, "red", "verify", "--graph", "path:3", "--cert", bad)
        assert code == 1 and obj["failing_move"] == 0
        assert obj["error"] == "move 0: row equation does not hold"

    def test_red_derive_doubling_chain(self, capsys, tmp_path):
        # a kernel entry of 2^21 gives a move with k = 2^21 - 1
        graph = tmp_path / "chain.txt"
        graph.write_text(write_edge_list(doubling_chain()))
        code, cert = run(capsys, "red", "derive", "--graph", str(graph))
        assert code == 0 and cert[0]["k"] == 2**21 - 1
        code, obj = run(
            capsys, "red", "verify", "--graph", str(graph), "--cert", json.dumps(cert)
        )
        assert code == 0 and obj == {"ok": True, "red_set": [126]}

    def test_red_derive_edgeless_stops_one_short(self, capsys, tmp_path):
        # no basis vertex to lean on: two moves for the nullity 3, replayed
        graph = tmp_path / "edgeless.txt"
        graph.write_text("3 0\n")
        code, cert = run(capsys, "red", "derive", "--graph", str(graph))
        assert code == 0 and len(cert) == 2
        moves = [RedMove.from_json_obj(m) for m in cert]
        assert len(apply_red_sequence(cli.parse_graph_spec(str(graph)), moves)) == 2

    def test_kappa(self, capsys):
        code, obj = run(capsys, "kappa", "--graph", "circulant:9:1,2")
        assert code == 0 and obj["kappa"] == 4

    def test_sap(self, capsys):
        code, obj = run(capsys, "sap", "--graph", "cart:cycle:8+path:3")
        assert code == 0 and obj["has_sap"]

    def test_sap_sample_pinned(self, capsys):
        # the violation whose last nonzero non-edge coordinate comes first
        assert cli.main(["sap", "--graph", "aztec:2"]) == 0
        assert capsys.readouterr().out == (
            '{"has_sap": false, "violation_dim": 2, "sample_violation": ['
            '["0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0"], '
            '["0", "0", "0", "0", "0", "1", "0", "0", "-1", "0", "1", "0"], '
            '["0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0"], '
            '["0", "0", "0", "0", "0", "-1", "0", "0", "1", "0", "-1", "0"], '
            '["0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0"], '
            '["0", "1", "0", "-1", "0", "0", "1", "0", "0", "0", "0", "0"], '
            '["0", "0", "0", "0", "0", "1", "0", "0", "-1", "0", "1", "0"], '
            '["0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0"], '
            '["0", "-1", "0", "1", "0", "0", "-1", "0", "0", "0", "0", "0"], '
            '["0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0"], '
            '["0", "1", "0", "-1", "0", "0", "1", "0", "0", "0", "0", "0"], '
            '["0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0"]'
            ']}\n'
        )

    def test_red_derive_pinned(self, capsys):
        # integer nullspace vectors read off as moves, byte for byte
        assert cli.main(["red", "derive", "--graph", "aztec:4"]) == 0
        assert capsys.readouterr().out == (
            '[{"u": 20, "v": 3, "X": {"13": 1}, "Y": {"1": 1, "7": 1}, "k": 0}, '
            '{"u": 27, "v": 4, "X": {"18": 1}, "Y": {"0": 1, "10": 1}, "k": 0}, '
            '{"u": 28, "v": 9, "X": {"22": 1}, "Y": {"5": 1, "15": 1}, "k": 0}, '
            '{"u": 33, "v": 8, "X": {"25": 1}, "Y": {"2": 1, "16": 1}, "k": 0}, '
            '{"u": 34, "v": 17, "X": {"30": 1}, "Y": {"11": 1, "24": 1}, "k": 0}, '
            '{"u": 37, "v": 14, "X": {"31": 1}, "Y": {"6": 1, "23": 1}, "k": 0}, '
            '{"u": 38, "v": 26, "X": {"36": 1}, "Y": {"19": 1, "32": 1}, "k": 0}, '
            '{"u": 39, "v": 21, "X": {"35": 1}, "Y": {"12": 1, "29": 1}, "k": 0}]\n'
        )

    def test_equitable_refine(self, capsys):
        code, obj = run(capsys, "equitable", "refine", "--graph", "path:3")
        assert code == 0 and obj["blocks"] == [[0, 2], [1]]

    def test_equitable_divisor(self, capsys):
        part = json.dumps({"blocks": [[0, 2], [1]]})
        code, obj = run(
            capsys, "equitable", "divisor", "--graph", "path:3", "--partition", part
        )
        assert code == 0 and obj["divisor"] == [[0, 1], [2, 0]]

    def test_equitable_divisor_no_vertices(self, capsys, tmp_path):
        # the empty partition of the empty graph has the empty divisor
        # matrix, as `equitable refine` prints it
        graph = tmp_path / "no-vertices.txt"
        graph.write_text("0 0\n")
        code, obj = run(
            capsys, "equitable", "divisor", "--graph", str(graph),
            "--partition", '{"blocks": []}',
        )
        assert code == 0 and obj == {"divisor": []}

    def test_certify_no_vertices(self, capsys, tmp_path):
        # the empty graph: Z = 0 and every nullity of the 0 x 0 matrix is 0
        graph = tmp_path / "no-vertices.txt"
        graph.write_text("0 0\n")
        code, obj = run(capsys, "certify", "--graph", str(graph))
        assert code == 0 and obj["verdict"] == "Certified"
        assert obj["zero_forcing_number"] == obj["nullity_Q"] == 0
        assert obj["nullities_mod_p"] == {"2": 0, "3": 0, "5": 0}

    def test_sap_no_vertices(self, capsys, tmp_path):
        graph = tmp_path / "no-vertices.txt"
        graph.write_text("0 0\n")
        matrix = tmp_path / "square-0.txt"
        matrix.write_text("0 0 Q\n")
        for extra in ((), ("--matrix", str(matrix))):
            code, obj = run(capsys, "sap", "--graph", str(graph), *extra)
            assert code == 0 and obj == {"has_sap": True, "violation_dim": 0}

    def test_decompose(self, capsys):
        perm = ",".join(str((x + 3) % 12) for x in range(12))
        code, obj = run(capsys, "decompose", "--graph", "ecg:1,1", "--perm", perm)
        assert code == 0 and obj["orbit_size"] == 4 and obj["exact"]
        assert len(obj["blocks"]) == 4

    def test_decompose_exact_blocks_pinned(self, capsys):
        # Q(w) blocks of C6 at shift 1 (k = 6) and shift 2 (k = 3), byte for
        # byte up to the floating-point spectra; an entry in Q prints as a
        # rational in every block
        pinned = {
            "1,2,3,4,5,0": (
                '{"orbit_size": 6, "exact": true, "transversals": '
                '[[0], [1], [2], [3], [4], [5]], "blocks": [[["2"]], [["1"]], '
                '[["-1"]], [["-2"]], [["-1"]], [["1"]]], "block_spectra": '
            ),
            "2,3,4,5,0,1": (
                '{"orbit_size": 3, "exact": true, "transversals": '
                '[[0, 1], [2, 3], [4, 5]], "blocks": '
                '[[["0", "2"], ["2", "0"]], '
                '[["0", "(0-1w)"], ["(1+1w)", "0"]], '
                '[["0", "(1+1w)"], ["(0-1w)", "0"]]], "block_spectra": '
            ),
        }
        for perm, head in pinned.items():
            assert cli.main(["decompose", "--graph", "cycle:6", "--perm", perm]) == 0
            assert capsys.readouterr().out.startswith(head)
        # the Q(i) block 1 of the order-12 cube
        perm = ",".join(str((x + 3) % 12) for x in range(12))
        assert cli.main(["decompose", "--graph", "ecg:1,1", "--perm", perm]) == 0
        assert (
            '[[["0", "1", "2"], ["1", "1", "1"], ["2", "1", "0"]], '
            '[["0", "1", "(-1-1i)"], ["1", "-1", "1"], ["(-1+1i)", "1", "0"]], '
        ) in capsys.readouterr().out

    def test_decompose_colon_perm(self, capsys):
        code, obj = run(
            capsys, "decompose", "--graph", "circulant:8:1,3",
            "--perm", ":".join(str((x + 4) % 8) for x in range(8)),
        )
        assert code == 0 and obj["orbit_size"] == 2

    def test_certify(self, capsys):
        code, obj = run(
            capsys, "certify", "--graph", "aztec:2", "--lambda", "0",
            "--primes", "2,3,5",
        )
        assert code == 0 and obj["verdict"] == "Certified"

    def test_certify_failure_exit(self, capsys):
        code, obj = run(
            capsys, "certify", "--graph", "cart:cycle:7+path:2", "--primes", "2"
        )
        assert code == 1 and obj["verdict"].startswith("NotCertified")

    def test_certify_budget_exit(self, capsys, monkeypatch):
        # a spent budget gives bounds and exit 1, not the bad-input exit 2;
        # the root expands one move per vertex orbit (two on P(11,4)), so the
        # five states reach cost 4 (Z = 7)
        monkeypatch.setattr(forcing, "STATE_BUDGET", 5)
        code, obj = run(capsys, "certify", "--graph", "petersen:11,4")
        assert code == 1 and obj["zero_forcing_number"] is None
        assert obj["verdict"] == (
            "NotCertified(the Z search used its budget of 5 states: 4 <= Z <= 7)"
        )

    def test_report_budget_bounds(self, capsys, monkeypatch):
        monkeypatch.setattr(forcing, "STATE_BUDGET", 5)
        code, obj = run(capsys, "report", "--graph", "cart:cycle:6+path:4")
        assert code == 0 and obj["Z_exact"] is False
        assert obj["sandwich"] == "3 <= M(G) <= Z(G) <= 6"

    def test_certify_table_header(self, capsys):
        code = cli.main(["--table", "certify", "--graph", "aztec:2", "--primes", "2,3"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert lines[1].split() == [
            "graph", "lambda", "Z", "nullity_Q", "nullity_2", "nullity_3", "verdict"
        ]

    def test_mr2(self, capsys):
        code, obj = run(
            capsys, "mr2", "--graph", "cart:cycle:7+path:2", "--target-rank", "10"
        )
        assert code == 1  # the target rank is not attained
        assert obj["min_rank_gf2"] == 11 and obj["target_attained"] is False

    def test_report(self, capsys):
        code, obj = run(capsys, "report", "--graph", "circulant:9:1,2")
        assert code == 0
        assert obj["kappa"] == obj["min_degree"] == 4 and obj["Z"] == 4

    def test_report_chain_violation_exit(self, capsys, monkeypatch):
        # kappa = n > Z contradicts the chain: printed and exit 1, no traceback
        monkeypatch.setattr(
            certify, "vertex_connectivity", lambda g: KappaWitness(g.n, ())
        )
        code, obj = run(capsys, "report", "--graph", "circulant:9:1,2")
        assert code == 1
        assert obj["kappa"] == 9 and obj["Z"] == 4
        assert obj["sandwich"] == "9 <= M(G) <= Z(G) = 4"

    def test_report_floored_at_nullity(self, capsys):
        # the GF(2) floor 14 = Z ends the search at the greedy set
        t0 = time.perf_counter()
        assert cli.main(["report", "--graph", "circulant:48:1,7"]) == 0
        assert time.perf_counter() - t0 < 2.0
        assert capsys.readouterr().out == (
            '{"graph": "circulant:48:1,7", "n": 48, "min_degree": 4, "kappa": 4, '
            '"nullities_Q": {"-2": 2, "-1": 0, "0": 14, "1": 0, "2": 2}, "Z": 14, '
            '"Z_exact": true, "sap_of_adjacency": false, "M_lower_bound": 14, '
            '"M_lower_source": "nullity of A - (0)I", '
            '"sandwich": "14 <= M(G) <= Z(G) = 14"}\n'
        )

    @pytest.mark.parametrize(
        "argv, out",
        [
            (["certify", "--graph", "aztec:3"],
             '{"graph": "aztec:3", "lambda": 0, "zero_forcing_number": 6, '
             '"nullity_Q": 6, "nullities_mod_p": {"2": 6, "3": 6, "5": 6}, '
             '"verdict": "Certified", "claims": ["M(F,G) = Z(G) = 6 for all fields F", '
             '"A(G) - 0*I is universally optimal; minimum rank is field independent"]}\n'),
            (["--table", "certify", "--graph", "aztec:2", "--primes", "2,3"],
             '{"graph": "aztec:2", "lambda": 0, "zero_forcing_number": 4, '
             '"nullity_Q": 4, "nullities_mod_p": {"2": 4, "3": 4}, '
             '"verdict": "Certified", "claims": ["M(F,G) = Z(G) = 4 for all fields F", '
             '"A(G) - 0*I is universally optimal; minimum rank is field independent"]}\n'
             'graph    lambda  Z  nullity_Q  nullity_2  nullity_3  verdict  \n'
             'aztec:2  0       4  4          4          4          Certified\n'),
            (["conjecture", "--family", "circ_l", "--lmax", "3", "--kmax", "1"],
             '[{"instance": "Circ[8,{1,3}]", "n": 8, "nullity_Q": 6, "Z": 6, '
             '"nullities_mod_p": {"2": 6, "3": 6, "5": 6}, "conjectured": 6, '
             '"status": "pass"}]\n'),
        ],
        ids=["certify", "certify-table", "conjecture"],
    )
    def test_sandwich_output_pinned(self, capsys, argv, out):
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == out

    def test_conjecture(self, capsys):
        code, rows = run(
            capsys, "conjecture", "--family", "circ_l", "--lmax", "3", "--kmax", "2"
        )
        assert code == 0
        assert all(r["status"] == "pass" for r in rows)

    def test_conjecture_ecg_tr(self, capsys):
        code, rows = run(
            capsys, "conjecture", "--family", "ecg_tr", "--tmax", "0", "--rmax", "1"
        )
        assert code == 0 and rows
        assert all(r["status"] == "pass" for r in rows)

    def test_error_exit_code(self, capsys):
        code = cli.main(["kappa", "--graph", "nonsense:9"])
        assert code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["kappa", "--graph", "circulant:8"], "'circulant:8' is missing arguments"),
            (["kappa", "--graph", "path"], "'path' is missing arguments"),
            (["sap", "--graph", "path:3", "--matrix", "{tmp}/missing.txt"],
             "missing.txt"),
            (["sap", "--graph", "path:3", "--matrix", "{tmp}/empty.txt"],
             "empty matrix text"),
            (["sap", "--graph", "path:3", "--matrix", "{tmp}/short.txt"],
             "malformed header '3 3'"),
            (["sap", "--graph", "path:2", "--matrix", "{tmp}/float-header.txt"],
             "malformed header '2.5 2 Q'; expected \"rows cols domain\""),
            (["sap", "--graph", "path:2", "--matrix", "{tmp}/long.txt"],
             "entry count mismatch"),
            (["sap", "--graph", "path:2", "--matrix", "{tmp}/gf.txt"],
             'the matrix must be rational ("Q")'),
            (["sap", "--graph", "path:2", "--matrix", "{tmp}/qi.txt"],
             'the matrix must be rational ("Q")'),
            (["sap", "--graph", "path:2", "--matrix", "{tmp}/zero-denominator.txt"],
             "a matrix entry has denominator 0"),
            (["decompose", "--graph", "circulant:8:1,3", "--perm", "4,5,6,7,0,1,2,3",
              "--transversal", "0,9"], "t0 vertex 9 is out of range 0..7"),
            (["red", "verify", "--graph", "path:3", "--cert", "{{}}"],
             "--cert must be a JSON list of move objects"),
            (["red", "verify", "--graph", "path:3", "--cert", "[1]"],
             "--cert must be a JSON list of move objects"),
            (["red", "verify", "--graph", "path:3", "--cert",
              '[{{"u": 0, "v": 1, "X": [2]}}]'], "--cert must be a JSON list"),
            (["red", "verify", "--graph", "path:3", "--cert",
              '[{{"u": 0, "v": 1, "k": "a"}}]'], "--cert has a malformed move"),
            (["red", "verify", "--graph", "path:3", "--cert",
              '[{{"u": 2.7, "v": 0.2}}]'], "u must be an integer, got 2.7"),
            (["red", "verify", "--graph", "path:3", "--cert",
              '[{{"u": 2, "v": 0, "X": {{"1": 1.0}}}}]'],
             "a multiset count must be an integer"),
            (["red", "verify", "--graph", "path:3", "--cert",
              '[{{"u": 2, "v": 0, "k": true}}]'], "k must be an integer, got True"),
            (["red", "verify", "--graph", "path:3", "--cert", '[{{"u": 0}}]'],
             "--cert has a malformed move: missing 'v'"),
            (["red", "verify", "--graph", "path:3", "--cert",
              '[{{"u": 0, "v": 2, "X": {{"1": 5, "01": 0}}, "Y": {{"1": 5}}}}]'],
             "multiset key '01' is not a canonical integer"),
            (["red", "verify", "--graph", "path:3", "--cert",
              '[{{"u": 0, "v": 2, "X": {{" 1": 5}}, "Y": {{"1": 5}}}}]'],
             "multiset key ' 1' is not a canonical integer"),
            (["red", "verify", "--graph", "path:3", "--cert",
              '[{{"u": 0, "v": 2, "X": {{"1": 5, "1": 0}}, "Y": {{"1": 5}}}}]'],
             "duplicate JSON object key '1'"),
            (["equitable", "refine", "--graph", "path:3", "--partition",
              '{{"blocks": [[0, 1, 2]], "blocks": [[0], [1, 2]]}}'],
             "duplicate JSON object key 'blocks'"),
            (["equitable", "refine", "--graph", "path:3", "--partition", "[1]"],
             '--partition must be JSON {"blocks"'),
            (["equitable", "divisor", "--graph", "path:3", "--partition",
              '{{"blocks": [0, 1, 2]}}'], '--partition must be JSON {"blocks"'),
            (["equitable", "refine", "--graph", "path:3", "--partition",
              '{{"blocks": [[true], [0, 2]]}}'], '--partition must be JSON {"blocks"'),
            (["kappa", "--graph", "kbip:4"], "'kbip:4' needs 2 comma-separated"),
            (["kappa", "--graph", "ecg:1"], "'ecg:1' needs 2 comma-separated"),
            (["kappa", "--graph", "petersen:10"], "'petersen:10' needs 2 comma-separated"),
            (["kappa", "--graph", "cycle:x"], "'cycle:x' has a non-integer argument"),
            (["kappa", "--graph", "{tmp}/edges-not-pairs.json"], "malformed JSON graph"),
            (["kappa", "--graph", "{tmp}/n-string.json"], "malformed JSON graph"),
            (["kappa", "--graph", "{tmp}/n-float.json"], "malformed JSON graph"),
            (["kappa", "--graph", "{tmp}/n-bool.json"], "malformed JSON graph"),
            (["kappa", "--graph", "{tmp}/edge-triple.json"], "malformed JSON graph"),
            (["zf", "closure", "--graph", "{tmp}/edges-twice.json", "--set", "0"],
             "duplicate JSON object key 'edges'"),
            (["certify", "--graph", "path:3", "--primes", "2,x"],
             "--primes must be comma-separated primes, got '2,x'"),
            (["certify", "--graph", "path:3", "--primes", ""],
             "--primes must be comma-separated primes, got ''"),
            (["certify", "--graph", "kbip:1,1", "--primes", "2,2"],
             "need one or more distinct primes, got (2, 2)"),
            (["certify", "--graph", "path:3", "--primes", "4"],
             "GF modulus must be a prime < 2^31, got 4"),
            (["certify", "--graph", "path:3", "--primes", "1"],
             "GF modulus must be a prime < 2^31, got 1"),
            (["certify", "--graph", "path:3", "--primes", "2147483659"],
             "GF modulus must be a prime < 2^31, got 2147483659"),
            (["report", "--graph", "{tmp}/no-vertices.txt"], "empty graph"),
            (["decompose", "--graph", "{tmp}/no-vertices.txt", "--perm", ""],
             "empty graph"),
            (["kappa", "--graph", "path:5:junk"],
             "graph spec 'path:5:junk' has too many arguments"),
            (["kappa", "--graph", "circulant:8:1,3:9"],
             "graph spec 'circulant:8:1,3:9' has too many arguments"),
            (["zf", "closure", "--graph", "path:4", "--set", "a"],
             "--set must list integer vertices, got 'a'"),
            (["decompose", "--graph", "cycle:4", "--perm", "1,2,x,0"],
             "--perm must list integer vertices, got '1,2,x,0'"),
            (["decompose", "--graph", "cycle:4", "--perm", "1,2,3,0",
              "--transversal", "q"], "--transversal must list integer vertices"),
            (["sap", "--graph", "path:3", "--matrix", "{tmp}/square-2.txt"],
             "matrix size does not match the graph"),
            (["sap", "--graph", "path:2", "--matrix", "{tmp}/square-0.txt"],
             "matrix size does not match the graph"),
            (["equitable", "refine", "--graph", "path:3", "--partition",
              '{{"blocks": [[0, 1], [2, 3]]}}'], "vertex 3 out of range"),
            (["equitable", "refine", "--graph", "path:3", "--partition",
              '{{"blocks": [[0, 1], [], [2]]}}'], "empty block"),
            (["kappa", "--graph", "cart:cycle:4"], "cart needs two specs joined by '+'"),
            (["kappa", "--graph", "{tmp}/empty-edges.txt"], "empty input"),
            (["kappa", "--graph", "{tmp}/header-x.txt"], "malformed header '3 x'"),
            (["kappa", "--graph", "{tmp}/edge-triple.txt"],
             "malformed edge line '0 1 2'"),
            (["conjecture", "--family", "circ_l", "--lmax", "2"],
             "the ranges select no instance of family 'circ_l'"),
            (["conjecture", "--family", "circ_l", "--kmax", "0"],
             "the ranges select no instance of family 'circ_l'"),
            (["conjecture", "--family", "ecg_tr", "--tmax", "-1"],
             "the ranges select no instance of family 'ecg_tr'"),
            (["conjecture", "--family", "ecg_tr", "--rmax", "0"],
             "the ranges select no instance of family 'ecg_tr'"),
        ],
        ids=["missing-step", "missing-order", "missing-file", "empty-matrix",
             "short-header", "matrix-float-header", "extra-rows", "matrix-gf",
             "matrix-qi", "matrix-zero-den", "transversal-range", "cert-object",
             "cert-number", "cert-move-shape", "cert-move-value",
             "cert-float-vertex", "cert-float-count", "cert-bool-k",
             "cert-missing-v", "cert-key-leading-zero", "cert-key-space",
             "cert-duplicate-key", "partition-duplicate-key", "partition-list",
             "partition-blocks", "partition-bool", "kbip-pair", "ecg-pair",
             "petersen-pair", "non-integer", "json-edges", "json-n-string",
             "json-n-float", "json-n-bool", "json-edge-triple",
             "json-duplicate-key", "primes-not-int",
             "primes-empty", "primes-repeated", "primes-composite", "primes-one",
             "primes-too-large", "report-no-vertices", "decompose-no-vertices",
             "path-extra-arg", "circulant-extra-arg",
             "set-not-int", "perm-not-int", "transversal-not-int",
             "matrix-size", "matrix-no-rows", "partition-range",
             "partition-empty-block",
             "cart-no-plus", "edges-empty", "edges-header", "edges-triple",
             "conjecture-lmax", "conjecture-kmax", "conjecture-tmax",
             "conjecture-rmax"],
    )
    def test_bad_input_exit_code(self, capsys, tmp_path, argv, message):
        (tmp_path / "empty.txt").write_text("\n")
        (tmp_path / "short.txt").write_text("3 3\n0 1 0\n1 0 1\n0 1 0\n")
        (tmp_path / "float-header.txt").write_text("2.5 2 Q\n0 1\n1 0\n")
        (tmp_path / "long.txt").write_text("2 2 Q\n0 1\n1 0\n1 1\n")
        (tmp_path / "gf.txt").write_text("2 2 GF(7)\n0 1\n1 0\n")
        (tmp_path / "qi.txt").write_text("2 2 QI\n0 1\n1 0\n")
        (tmp_path / "zero-denominator.txt").write_text("2 2 Q\n0 1/0\n1 0\n")
        (tmp_path / "square-2.txt").write_text("2 2 Q\n0 1\n1 0\n")
        (tmp_path / "square-0.txt").write_text("0 0 Q\n")
        (tmp_path / "empty-edges.txt").write_text("")
        (tmp_path / "header-x.txt").write_text("3 x\n")
        (tmp_path / "edge-triple.txt").write_text("3 1\n0 1 2\n")
        (tmp_path / "no-vertices.txt").write_text("0 0\n")
        for name, text in (
            ("edges-not-pairs", '{"n": 3, "edges": [1]}'),
            ("n-string", '{"n": "3", "edges": []}'),
            ("n-float", '{"n": 2.5, "edges": []}'),
            ("n-bool", '{"n": true, "edges": []}'),
            ("edge-triple", '{"n": 3, "edges": [[0, 1, 2]]}'),
            ("edges-twice", '{"n": 4, "edges": [[0, 1]], "edges": [[2, 3]]}'),
        ):
            (tmp_path / f"{name}.json").write_text(text)
        code = cli.main([a.format(tmp=tmp_path) for a in argv])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert message in captured.err

    def test_program_fault_is_not_bad_input(self, capsys, monkeypatch):
        # a KeyError from the library is a fault, not an exit-2 input error;
        # a move missing a field is still bad input
        def fault(g):
            raise KeyError("internal")

        monkeypatch.setattr(cli._structure, "vertex_connectivity", fault)
        with pytest.raises(KeyError):
            cli.main(["kappa", "--graph", "path:3"])
        code = cli.main(["red", "verify", "--graph", "path:3", "--cert", '[{"v": 0}]'])
        assert code == 2
        assert "--cert has a malformed move: missing 'u'" in capsys.readouterr().err

    def test_import_leaves_numpy_unloaded(self):
        # numpy loads at the first spectrum, not with the command line
        code = "import zflab.cli, sys; print('numpy' in sys.modules)"
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            check=True,
        ).stdout
        assert out == "False\n"

    def test_half_step_circulant_same_as_edge_list(self, capsys, tmp_path):
        spec = "circulant:8:1,4"
        path = tmp_path / "g.txt"
        path.write_text(write_edge_list(cli.parse_graph_spec(spec)))
        for command in (
            ["equitable", "refine"],
            ["decompose", "--perm", "2,3,4,5,6,7,0,1"],
        ):
            outputs = []
            for graph in (spec, str(path)):
                code = cli.main(command + ["--graph", graph])
                outputs.append(capsys.readouterr().out)
                assert code == 0, command
            assert outputs[0] == outputs[1], command

    def test_conjecture_table(self, capsys):
        code = cli.main(
            ["--table", "conjecture", "--family", "circ_l", "--lmax", "3",
             "--kmax", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln.strip()]
        assert lines[0].startswith("[")  # the JSON payload
        # the table header: the JSON keys but nullities_mod_p
        assert any(ln.split() == ["instance", "n", "nullity_Q", "Z", "conjectured", "status"]
                   for ln in lines)
        assert any("pass" in ln for ln in lines[1:])


def test_benchmark_command_lines(capsys, monkeypatch, tmp_path):
    # every job of the benchmark's workloads, certify_sweep's random graphs
    # drawn at seed 0, exits as bench/expected.json records and writes
    # nothing to stderr
    spec = importlib.util.spec_from_file_location("workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
    spec.loader.exec_module(workloads)
    expected = json.loads((BENCH / "expected.json").read_text())
    for name in workloads.WORKLOADS:
        for job in workloads.jobs_for(name, 0, tmp_path):
            code = cli.main(list(job.argv))
            assert capsys.readouterr().err == "", job.id
            if job.id.startswith("certify --graph random-"):
                assert code in (0, 1), job.id
            else:
                assert code == expected[job.id]["exit"], job.id
