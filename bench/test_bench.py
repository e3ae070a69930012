"""Self-test of the benchmark.

    python3 -m pytest -q bench

Runs one short job per workload, with and without tracing, and checks that
every metric BENCHMARK.json names is printed with its unit, that a wrong
expected answer counts as a failed job, that the certificate re-checks
catch a bad certificate, and that the command fails, printing no result,
in a directory that holds only the benchmark.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SHORT = {
    "zf_search": "zf number --graph ecg:1,3",
    "certify_sweep": "certify --graph aztec:2",
    "structure_sweep": "decompose --graph ecg:1,1 --shift 3",
}


def benchmark_spec():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def short_run(workload, trace=0, expected=None):
    return run.run_workload(workload, 1, 1, trace, only={SHORT[workload]},
                            expected=expected, setup_repeats=1, out=io.StringIO())


def test_benchmark_json_matches_the_runner():
    spec = benchmark_spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert {m["name"] for m in spec["end_to_end"]} >= {"setup_s"}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(SHORT))
def test_short_job_prints_every_metric_with_its_unit(workload, trace):
    result, _ = short_run(workload, trace)
    assert result["correct"], result
    assert result["attempted"] >= 1 and result["failed"] == 0
    listed = benchmark_spec()["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_wrong_expected_answer_counts_as_failed():
    expected = json.loads((HERE / "expected.json").read_text())
    expected[SHORT["zf_search"]]["answer"]["zf_number"] += 1
    result, record = short_run("zf_search", expected=expected)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert record["failed_ratio"] == 1.0


def test_recheck_rejects_a_witness_that_does_not_force():
    cli, oracles = run.load_program()
    from zflab.redrule import RedMove, apply_red_sequence

    expected = json.loads((HERE / "expected.json").read_text())
    checker = checks.Checker(expected, cli.parse_graph_spec, apply_red_sequence,
                             RedMove.from_json_obj, oracles)
    job = next(j for j in workloads.WORKLOADS["zf_search"].jobs
               if j.id == SHORT["zf_search"])
    rc, out, _, _ = run.run_job(cli, job)
    assert checker.check(job, rc, out) == []
    answer = json.loads(out)
    answer["witness"] = list(range(answer["zf_number"]))[::-1]
    answer["witness"][0] = answer["witness"][1]  # a repeated vertex: one short
    assert checker.check(job, rc, json.dumps(answer))


def test_counters_that_differ_between_runs_fail(tmp_path):
    store = tmp_path / "counters.json"
    assert run.check_counters(store, "k", {"forcing.search_nodes": 5}) == []
    assert run.check_counters(store, "k", {"forcing.search_nodes": 5}) == []
    assert run.check_counters(store, "k", {"forcing.search_nodes": 6})


def test_command_prints_the_result_as_its_last_line():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "certify_sweep",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "zf_search",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_scaling_takes_out_probes_and_their_spikes():
    ref = run.hostspeed.REFERENCE_S
    # probes at twice the reference time around and inside a 1 s job, and
    # one spike that an interrupt would cause
    samples = [(t, t + 2 * ref) for t in (-0.05, 0.3, 0.6, 1.02)]
    samples.append((0.9, 0.9 + 20 * ref))
    job = {"start": 0.0, "end": 1.0}
    run.scale_jobs([job], samples)
    inside = 2 * ref * 2 + 20 * ref
    assert job["time"] == pytest.approx(1.0 - inside)
    assert job["scale"] == pytest.approx(0.5)
    assert job["scaled"] == pytest.approx((1.0 - inside) / 2)
