#!/usr/bin/env python3
"""Self-test of the benchmark harness (not part of the tier-1 suite).

    python3 bench/selftest.py

Checks, on small inputs and in under a minute:

* the queries of each workload ``BENCHMARK.json`` names run and pass their
  reference checks (planted at d=32), and the planted check rejects a
  report with the McMillan degree altered;
* (printed, not checked) whether two known wrong answers that
  ``oracle_corpus`` leaves out still occur;
* tracing cannot change answers: traced and untraced report digests match;
* a query past the time limit is stopped, even through ``except Exception``;
* work counts repeat exactly between two traced passes;
* ``run.py`` prints a result line whose metrics and units are those
  ``BENCHMARK.json`` names, and exits non-zero without one in a directory
  holding only ``BENCHMARK.json`` and ``bench/``.
"""
from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH)]

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SMALL = {
    "planted_d96": {"d": 32},
    "oracle_corpus": {"count": 6},
    "sensitive_chain": {"count": 2},
}
COUNTED = ("numpy.linalg.svd", "scipy.linalg.eig", "staircase.kronecker_structure",
           "staircase.separate_regular_right", "minreal.strongly_minimal_reduce")


def expect(cond, message):
    if not cond:
        raise AssertionError(message)


def run_pass(queries, tracer=None):
    digests = []
    for i, q in enumerate(queries):
        if tracer is not None:
            tracer.query = i
        rc, text = q.run()
        reason = q.check(rc, text)
        expect(reason is None, f"{q.qid}: {reason}")
        digests.append(hashlib.sha256(text.encode()).hexdigest())
    return digests


def traced_pass(queries):
    tracer = Tracer()
    tracer.install()
    try:
        digests = run_pass(queries, tracer)
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    calls = {name: totals.get(name, {}).get("calls", 0) for name in COUNTED}
    return digests, calls, dict(tracer.counters)


def check_workload(name, workdir):
    queries, warm, _ = workloads.WORKLOADS[name](7, str(workdir), **SMALL[name])
    run_pass([warm])
    plain = run_pass(queries)
    expect(run_pass(queries) == plain, f"{name}: report bytes not repeatable")
    digests1, calls1, counters1 = traced_pass(queries)
    digests2, calls2, counters2 = traced_pass(queries)
    expect(digests1 == plain and digests2 == plain, f"{name}: tracing changed a report")
    expect(calls1 == calls2 and counters1 == counters2,
           f"{name}: counts differ between traced passes: {calls1} {calls2}")
    expect(any(calls1.values()), f"{name}: tracer saw no calls")
    print(f"ok  {name}: {len(queries)} queries, digests stable, counts {calls1}")
    return queries


def check_planted_rejects(queries):
    q = queries[0]
    rc, text = q.run()
    doc = json.loads(text)
    doc["structure"]["mcmillan_degree"] += 1
    expect(q.check(rc, json.dumps(doc)) is not None, "planted check accepted a wrong degree")
    expect(q.check(1, text) is not None, "planted check accepted a non-zero exit")
    print("ok  planted check rejects a wrong report")


def report_known_failures(workdir):
    """Run two of the known wrong (corpus seed, pipeline seed) pairs that
    oracle_corpus leaves out and print whether they still fail; a pair
    that now passes means CORPUS_FAILING and README.md are out of date."""
    for corpus_seed, pipeline_seed in ((43, 58), (38, 278)):
        q = workloads._oracle_query(str(workdir), corpus_seed, pipeline_seed, {})
        reason = q.check(*q.run())
        print(f"info {q.qid}: {reason or 'now answered right'}")


def check_time_limit():
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    run.QUERY_LIMIT_S = 0.2

    def spin():
        try:
            while True:
                sum(range(1000))
        except Exception:
            return 0, "swallowed"

    previous = signal.signal(signal.SIGALRM, run._stop_query)
    try:
        harness = run.Harness([workloads.Query("spin", spin, lambda rc, text: None)])
        harness.attempt(0, 0)
    finally:
        signal.signal(signal.SIGALRM, previous)
    _, _, dt, reason = harness.samples[0]
    expect(reason == "stopped after 0.2 s" and dt < 5, f"time limit: {harness.samples}")
    print(f"ok  a query past the time limit is stopped after {dt:.2f} s")


def check_command(scratch):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", "sensitive_chain",
             "--seed", "3", "--seconds", "1", "--trace", str(trace)],
            capture_output=True, text=True, timeout=180, cwd=ROOT)
        expect(proc.returncode == 0, f"run.py failed: {proc.stderr[-2000:]}")
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        expect(set(last) == {"correct", "attempted", "failed", "metrics"}, f"keys {set(last)}")
        wanted = {m["name"]: m["unit"] for m in spec[section]}
        got = {name: m["unit"] for name, m in last["metrics"].items()}
        expect(got == wanted, f"--trace {trace} metrics {got} != {section} {wanted}")
        print(f"ok  run.py --trace {trace} result line: {last['attempted']} attempted,"
              f" {last['failed']} failed, metrics match {section}")

    bare = scratch / "bare"
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "oracle_corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "run.py without the program must fail without a result")
    print("ok  run.py fails cleanly without the program")


def main() -> int:
    scratch = BENCH / "out" / f"selftest_{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        planted = None
        for name in SMALL:
            queries = check_workload(name, scratch)
            if name == "planted_d96":
                planted = queries
        check_planted_rejects(planted)
        report_known_failures(scratch)
        check_time_limit()
        check_command(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("selftest ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
