#!/usr/bin/env python3
"""Benchmark of the zflab command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the `zflab` verbs of one workload (see workloads.py) in-process through
`zflab.cli.main(argv)` with stdout captured: one client, one process, one
thread, BLAS pools held to one thread.  Passes over the job list repeat
until `--seconds` have been measured; the seed fixes each pass's job order
and certify_sweep's random graphs.  Every answer is checked outside the
timed region (checks.py).

On a shared host the speed a process gets changes by up to two times from
second to second, so every reported time is scaled to a fixed reference
speed: while the passes run, a timer runs a fixed pure-Python probe every
0.1 s (hostspeed.py), and each job's time, without the probes, is
multiplied by the reference probe time over the probe times near the job.
The record and the summary keep the raw times as well.

With `--trace 0` the last line of stdout is a JSON object with the
end-to-end metrics:

    wall_s       median time of one pass over the job list, scaled
    job_ms_gmean geometric mean, over the jobs, of each job's median
                 scaled time; every job weighs the same, so a per-call
                 overhead that wall_s hides still shows
    setup_s      median time, in a fresh interpreter, to import zflab.cli
                 and build its parser, scaled by probes run between them
    peak_rss_mb  peak resident set size of this process

With `--trace 1`, untraced and traced passes alternate and the metrics are
the per-layer ones: calls, self time and counters of the wrapped public
functions (tracer.py), each module's self time and its share of the traced
pass, and the tracing overhead (traced minus untraced pass time), all
times scaled as above.

Run records (machine, versions, seed, sample counts, per-job times, spans)
go to .bench_runs/ at the repository root.  A traced run keeps its counters
there too, and fails when its traced passes disagree on a counter or when
an earlier traced run of the same code and seed recorded different ones.
Untraced runs take no counters, so no wrapper sits on their timed path.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import importlib.util
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# Fixed for every run: one BLAS thread, and a fixed string hash so dict and
# set layouts, and with them the counters, repeat from run to run.
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

SETUP_REPEATS = 7
SETUP_PROBES = 5  # host-speed probes after each set-up interpreter
SETUP_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import zflab.cli\n"
    "zflab.cli.build_parser()\n"
    "print(time.perf_counter() - t)\n"
)

END_TO_END = (
    ("wall_s", "s"),
    ("job_ms_gmean", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# (span name, extra counters) of the functions the per-layer metrics name
TRACED = (
    ("forcing.zero_forcing_number", ()),
    ("forcing.zf_closure", ()),
    ("forcing.is_zfs", ()),
    ("linalg.rank_nullity.q", ("cells", "pivots")),
    ("linalg.rank_nullity.gf", ("cells", "pivots")),
    ("linalg.nullspace_basis", ()),
    ("linalg.adjacency_matrix", ()),
    ("linalg.spectrum", ()),
    ("redrule.derive_red_certificates", ("moves",)),
    ("redrule.apply_red_sequence", ()),
    ("structure.has_sap", ("unknowns",)),
    ("structure.vertex_connectivity", ()),
    ("certify.min_rank_gf2_exhaustive", ("diagonals",)),
    ("certify.certify_universal_optimality", ()),
    ("certify.parameter_report", ()),
    ("certify.conjecture_harness", ()),
    ("equitable.equitable_decomposition", ()),
    ("equitable.coarsest_equitable", ()),
    ("graphs.generators", ()),
    ("cli.main", ()),
)


def per_layer_metrics():
    out = []
    for name, extra in TRACED:
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
        out += [(f"{name}.{c}", "count") for c in extra]
    out += [("forcing.search_nodes", "count"), ("cli.output_bytes", "bytes")]
    for layer in tracing.LAYERS:
        out += [(f"layer.{layer}.self_s", "s"), (f"layer.{layer}.share", "ratio")]
    out += [
        ("trace.wall_s", "s"),
        ("trace.untraced_wall_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.unattributed_s", "s"),
        ("trace.spans", "count"),
    ]
    return out


PER_LAYER = per_layer_metrics()
COUNTER_NAMES = [n for n, unit in PER_LAYER if unit in ("count", "bytes")
                 and not n.startswith("trace.")]


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


def load_program():
    """Import zflab from src/ and the test oracles from tests/."""
    if not (SRC / "zflab" / "cli.py").is_file():
        raise SetupError(f"no zflab sources under {SRC}")
    oracle_file = ROOT / "tests" / "oracles.py"
    if not oracle_file.is_file():
        raise SetupError(f"no test oracles at {oracle_file}")
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("zflab.cli")
    spec = importlib.util.spec_from_file_location("zflab_bench_oracles", oracle_file)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    return cli, oracles


def code_hash():
    h = hashlib.sha256()
    for base in (SRC / "zflab", HERE):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def scale_jobs(executions, samples):
    """Each job's time, without the probes that ran inside it, scaled to the
    reference host speed by the mean probe time within one sampling
    interval of the job (hostspeed.py).  Probes slower than twice the
    median of those are left out of the mean: such a spike is an interrupt
    that hit the probe, not a phase of the host, whose speed changes by at
    most about two times."""
    mids = [((a + b) / 2, b - a) for a, b in samples]
    reach = hostspeed.INTERVAL_S
    for e in executions:
        t0, t1 = e["start"], e["end"]
        inside = sum(d for m, d in mids if t0 <= m <= t1)
        near = [d for m, d in mids if t0 - reach <= m <= t1 + reach]
        if not near:  # a long C call held the timer back: take the nearest
            near = [min(mids, key=lambda md: min(abs(md[0] - t0), abs(md[0] - t1)))[1]]
        e["time"] = t1 - t0 - inside
        typical = statistics.median(near)
        e["scale"] = hostspeed.REFERENCE_S / statistics.fmean(
            d for d in near if d <= 2 * typical)
        e["scaled"] = e["time"] * e["scale"]


def measure_setup(repeats):
    """Median time to import zflab.cli and build the parser in a fresh
    interpreter, scaled to the reference host speed; one unmeasured run
    first so bytecode is compiled.  Returns (scaled median, raw samples,
    probes)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    probes = []
    for i in range(repeats + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                              capture_output=True, text=True, timeout=120,
                              check=True, cwd=ROOT)
        probes += [b - a for a, b in (hostspeed.probe() for _ in range(SETUP_PROBES))]
        if i:
            times.append(float(proc.stdout))
    scale = hostspeed.REFERENCE_S / statistics.median(probes)
    return statistics.median(times) * scale, times, probes


def summarize(values):
    """Median plus the highest percentile with at least ten samples above it."""
    n = len(values)
    out = {"median": statistics.median(values), "n": n}
    ordered = sorted(values)
    for q in (99.9, 99, 95, 90, 75):
        if n * (1 - q / 100) >= 10:
            out[f"p{q:g}"] = ordered[math.ceil(q / 100 * n) - 1]
            break
    return out


def run_job(cli, job):
    """Run one job; returns (exit code or "raised", stdout, start, end)."""
    out = io.StringIO()
    err = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(job.argv))
    except SystemExit as exc:  # argparse rejects the command line
        rc = exc.code
    except Exception:  # a job that raises is a failed job, not a failed run
        rc = "raised"
    t1 = time.perf_counter()
    if rc == "raised":
        return rc, traceback.format_exc(), t0, t1
    return rc, out.getvalue(), t0, t1


def run_pass(cli, jobs, seed, index, tracer=None):
    order = workloads.pass_order(jobs, seed, index)
    gc.collect()
    executions = []
    for job in order:
        if tracer is not None:
            tracer.job = f"{index}:{job.id}"
        rc, out, t0, t1 = run_job(cli, job)
        executions.append({"job": job, "rc": rc, "out": out, "start": t0, "end": t1})
    if tracer is not None:
        tracer.job = None
        tracer.add("cli.output_bytes", sum(len(e["out"].encode()) for e in executions))
    return {"index": index, "traced": tracer is not None, "executions": executions,
            "elapsed": executions[-1]["end"] - executions[0]["start"]}


def measure(cli, jobs, seed, seconds, tracer=None):
    """Passes until `seconds` are used; with a tracer, untraced and traced
    passes alternate and there is at least one of each."""
    passes = []
    traced_stats = []
    with hostspeed.Sampler() as sampler:
        if tracer is not None:
            tracer.clock = sampler.clock
        _measure_passes(cli, jobs, seed, seconds, tracer, passes, traced_stats)
    for p in passes:
        scale_jobs(p["executions"], sampler.samples)
        p["wall"] = sum(e["time"] for e in p["executions"])
        p["scaled"] = sum(e["scaled"] for e in p["executions"])
    return passes, traced_stats, sampler.samples


def _measure_passes(cli, jobs, seed, seconds, tracer, passes, traced_stats):
    start = time.perf_counter()
    while True:
        index = len(passes)
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.install()
            try:
                passes.append(run_pass(cli, jobs, seed, index, tracer))
            finally:
                tracer.uninstall()
            traced_stats.append(tracer.take())
        else:
            passes.append(run_pass(cli, jobs, seed, index))
        elapsed = time.perf_counter() - start
        if tracer is not None and not traced_stats:
            continue
        typical = statistics.median(p["elapsed"] for p in passes)
        if elapsed + typical > seconds:
            return


def layer_metrics(passes, traced_stats):
    """Per-layer metrics of the traced passes, times scaled to the
    reference host speed; counters must repeat."""
    scales = [p["scaled"] / p["wall"] for p in passes if p["traced"]]
    traced_stats = [({k: (c, t * f) for k, (c, t) in stats.items()}, counts)
                    for (stats, counts), f in zip(traced_stats, scales)]
    problems = []
    first = traced_stats[0][1]
    first_calls = {k: c for k, (c, _) in traced_stats[0][0].items()}
    for i, (stats, counts) in enumerate(traced_stats[1:], 1):
        calls = {k: c for k, (c, _) in stats.items()}
        if counts != first or calls != first_calls:
            problems.append(f"counters of traced pass {i} differ from the first")
    untraced = statistics.median(p["scaled"] for p in passes if not p["traced"])
    traced = statistics.median(p["scaled"] for p in passes if p["traced"])
    m = {}
    for name, extra in TRACED:
        calls = [s.get(name, (0, 0.0)) for s, _ in traced_stats]
        m[f"{name}.calls"] = calls[0][0]
        m[f"{name}.self_s"] = statistics.median(c[1] for c in calls)
        for c in extra:
            m[f"{name}.{c}"] = first.get(f"{name}.{c}", 0)
    m["forcing.search_nodes"] = first.get("forcing.search_nodes", 0)
    m["cli.output_bytes"] = first.get("cli.output_bytes", 0)
    by_layer = [tracing.self_time_by_layer(s) for s, _ in traced_stats]
    spanned = statistics.median(sum(b.values()) for b in by_layer)
    for layer in tracing.LAYERS:
        self_s = statistics.median(b[layer] for b in by_layer)
        m[f"layer.{layer}.self_s"] = self_s
        m[f"layer.{layer}.share"] = self_s / traced
    m["trace.wall_s"] = traced
    m["trace.untraced_wall_s"] = untraced
    m["trace.overhead_s"] = traced - untraced
    m["trace.unattributed_s"] = traced - spanned
    m["trace.spans"] = sum(sum(c for c, _ in s.values()) for s, _ in traced_stats) // len(
        traced_stats)
    counters = {k: v for k, v in m.items() if k in COUNTER_NAMES or k.endswith(".calls")}
    return m, counters, problems


def check_counters(store, key, counters):
    """Compare with the counters an earlier run of the same code and seed
    recorded; record them when there are none."""
    recorded = {}
    if store.is_file():
        recorded = json.loads(store.read_text())
    if key in recorded:
        diff = sorted(k for k in counters if recorded[key].get(k) != counters[k])
        return [f"counters differ from an earlier run of the same code: {diff}"] if diff else []
    recorded[key] = counters
    tmp = store.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(recorded, indent=1, sort_keys=True))
    os.replace(tmp, store)
    return []


def run_workload(name, seed, seconds, trace, only=None, expected=None,
                 setup_repeats=SETUP_REPEATS, out=None):
    """One benchmark run; returns (result object, run record)."""
    cli, oracles = load_program()
    from zflab.redrule import RedMove, apply_red_sequence

    RUNS.mkdir(exist_ok=True)
    stamp = f"{name}-seed{seed}-trace{int(trace)}-{time.strftime('%Y%m%dT%H%M%S')}-"
    run_dir = Path(tempfile.mkdtemp(prefix=stamp, dir=RUNS))
    jobs = workloads.jobs_for(name, seed, run_dir)
    if only is not None:
        jobs = tuple(j for j in jobs if j.id in only)
    if expected is None:
        expected = json.loads((HERE / "expected.json").read_text())
    checker = checks.Checker(expected, cli.parse_graph_spec, apply_red_sequence,
                             RedMove.from_json_obj, oracles)

    setup_s, setup_samples, setup_probes = measure_setup(setup_repeats)
    tracer = tracing.Tracer() if trace else None
    passes, traced_stats, samples = measure(cli, jobs, seed, seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # answer checks, outside the timed region
    attempted = failed = 0
    problems = []
    for p in passes:
        for ex in p["executions"]:
            attempted += 1
            errs = checker.check(ex["job"], ex["rc"], ex["out"])
            if errs:
                failed += 1
                problems += [e for e in errs if e not in problems]

    untraced = [p for p in passes if not p["traced"]]
    wall = summarize([p["scaled"] for p in untraced])
    job = summarize([e["scaled"] * 1000 for p in untraced for e in p["executions"]])
    raw_wall = summarize([p["wall"] for p in untraced])
    raw_job = summarize([e["time"] * 1000 for p in untraced for e in p["executions"]])
    per_job = {}
    for p in untraced:
        for e in p["executions"]:
            per_job.setdefault(e["job"].id, []).append(e["scaled"])

    if trace:
        metrics, counters, counter_problems = layer_metrics(passes, traced_stats)
        key = f"{code_hash()}:{name}:{seed}:{sorted(only) if only else 'all'}"
        counter_problems += check_counters(RUNS / "counters.json", key, counters)
        problems += counter_problems
        units = dict(PER_LAYER)
    else:
        metrics = {
            "wall_s": wall["median"],
            "job_ms_gmean": statistics.geometric_mean(
                statistics.median(v) * 1000 for v in per_job.values()),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        counters = None
        units = dict(END_TO_END)

    correct = failed == 0 and not problems
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    record = {
        "workload": name,
        "why": workloads.WORKLOADS[name].why,
        "seed": seed,
        "seconds": seconds,
        "trace": bool(trace),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.import_module("numpy").__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "code_hash": code_hash(),
        "env": {k: os.environ.get(k) for k in PINNED_ENV},
        "passes": len(passes),
        "traced_passes": len(traced_stats),
        "jobs_per_pass": len(jobs),
        "probe_reference_s": hostspeed.REFERENCE_S,
        "probe_s": summarize([b - a for a, b in samples]),
        "wall_s": wall,
        "job_ms": job,
        "raw_wall_s": raw_wall,
        "raw_job_ms": raw_job,
        "setup_s": {"median": setup_s, "raw_samples": setup_samples,
                    "probes": setup_probes},
        "pass_times": [
            {"traced": p["traced"], "raw": p["wall"], "scaled": p["scaled"],
             "jobs": [(e["job"].id, e["start"], e["time"], e["scale"])
                      for e in p["executions"]]}
            for p in passes
        ],
        "probe_samples": samples,
        "per_job_s": {k: summarize(v) for k, v in per_job.items()},
        "failed_ratio": failed / attempted if attempted else None,
        "problems": problems,
        "counters": counters,
        "result": result,
    }
    (run_dir / "record.json").write_text(json.dumps(record, indent=1, default=str))
    if tracer is not None:
        with open(run_dir / "spans.jsonl", "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    _print_summary(record, metrics, out or sys.stdout)
    return result, record


def _print_summary(rec, metrics, out):
    def timing(label, s, unit):
        tail = [f"{k} {v:.4g}" for k, v in s.items() if k.startswith("p")]
        print(f"  {label}: median {s['median']:.4g} {unit}"
              f"{', ' + ', '.join(tail) if tail else ''} (n={s['n']})", file=out)

    print(f"workload {rec['workload']} seed {rec['seed']} trace {int(rec['trace'])}: "
          f"{rec['passes']} passes of {rec['jobs_per_pass']} jobs", file=out)
    res = rec["result"]
    print(f"  jobs attempted {res['attempted']}, failed {res['failed']}, "
          f"failed_ratio {rec['failed_ratio']:.4g}", file=out)
    timing("pass time, scaled", rec["wall_s"], "s")
    timing("job time, scaled", rec["job_ms"], "ms")
    timing("pass time, raw", rec["raw_wall_s"], "s")
    timing("job time, raw", rec["raw_job_ms"], "ms")
    print(f"  setup_s median {rec['setup_s']['median']:.4g} s, scaled "
          f"(n={len(rec['setup_s']['raw_samples'])})", file=out)
    if rec["trace"]:
        base = metrics["trace.wall_s"]
        print(f"  traced pass {base:.4g} s, untraced {metrics['trace.untraced_wall_s']:.4g} s,"
              f" overhead {metrics['trace.overhead_s']:.4g} s", file=out)
        shares = ", ".join(
            f"{layer} {metrics[f'layer.{layer}.share']:.3f}" for layer in tracing.LAYERS)
        print(f"  self-time share of the traced pass ({base:.4g} s): {shares}", file=out)
        gf2 = metrics["certify.min_rank_gf2_exhaustive.self_s"] / base
        print(f"  linalg + certify GF(2) share: "
              f"{metrics['layer.linalg.share'] + gf2:.3f}", file=out)
    for problem in rec["problems"][:20]:
        print(f"  FAILED {problem}", file=out)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be positive")
    if argv is None and any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        env = dict(os.environ, **PINNED_ENV)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    try:
        result, _ = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
