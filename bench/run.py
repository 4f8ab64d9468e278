#!/usr/bin/env python3
"""strongmin benchmark: one closed-loop client in one process.

    python3 bench/run.py --workload planted_d96 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Workloads are ``planted_d96``, ``oracle_corpus`` and ``sensitive_chain``,
the ones ``BENCHMARK.json`` names, and ``planted_d128`` and
``oracle_corpus_all``, which also hold inputs that strongmin answers
wrongly today and so report ``correct: false`` (see ``bench/README.md``).
Each query starts after the previous one returns.  Queries run in
rounds: every round runs each of the workload's queries once, in a fixed
order, so every run measures the same mix however many rounds fit in
``--seconds``.  Another round starts while it is expected
to end no more than half a round past ``--seconds``; a run has at least two
rounds, so every query is repeated and its report bytes can be compared.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every
query untraced and then traced (``bench/tracing.py``) and prints the
per-layer metrics, per traced query, and the tracing overhead; a traced
report that differs from the untraced one counts as failed.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
full results, with every query's report sha256 and the environment, go to
``bench/out/``.  ``--workload all`` runs each of the five workloads in a
child process and prints one table.
"""
from __future__ import annotations

import os
import sys
import time

T_START = time.perf_counter()

# Pin BLAS and OpenMP to one thread before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import resource
import shutil
import signal
import statistics
import subprocess
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOAD_NAMES = ("planted_d96", "oracle_corpus", "sensitive_chain",
                  "planted_d128", "oracle_corpus_all")
SETUP_PASSES = 3
MIN_ROUNDS = 2
MAX_TRACED_ROUNDS = 5
# A query running longer than this is stopped and counts as failed, so a
# run ends within its time limit even when the program does not.
QUERY_LIMIT_S = 45

# (metric, unit, kind, source).  Kinds: "calls", "incl" (outermost
# inclusive seconds) and "self" (self seconds) of the named spans, a span
# name ending in "." standing for every span of that module; "counter" a
# work counter; "frac" a ratio of two counters.  All but the last two rows
# are per traced query.
PER_LAYER = (
    ("linalg.svd_calls", "calls/query", "calls", "numpy.linalg.svd"),
    ("linalg.svd_s", "s/query", "incl", "numpy.linalg.svd"),
    ("linalg.svd_gflop_computed", "GFLOP/query", "counter", "svd_flop"),
    ("linalg.qz_calls", "calls/query", "calls", "scipy.linalg.eig"),
    ("linalg.qz_s", "s/query", "incl", "scipy.linalg.eig"),
    ("staircase.kronecker_structure_calls", "calls/query", "calls", "staircase.kronecker_structure"),
    ("staircase.kronecker_structure_self_s", "s/query", "self", "staircase.kronecker_structure"),
    ("staircase.separate_regular_right_calls", "calls/query", "calls", "staircase.separate_regular_right"),
    ("staircase.separate_regular_right_s", "s/query", "incl", "staircase.separate_regular_right"),
    ("staircase.split_infinite_calls", "calls/query", "calls", "staircase.split_infinite"),
    ("pencil.validate_regular_calls", "calls/query", "calls", "pencil.validate_regular"),
    ("pencil.choose_rotation_calls", "calls/query", "calls", "pencil.choose_rotation"),
    ("pencil.choose_rotation_s", "s/query", "incl", "pencil.choose_rotation"),
    ("minreal.is_strongly_minimal_calls", "calls/query", "calls", "minreal.is_strongly_minimal"),
    ("minreal.reduce_s", "s/query", "incl", "minreal.strongly_minimal_reduce"),
    ("minreal.reduce_passes", "passes/query", "counter", "reduce_passes"),
    ("minreal.states_deflated", "states/query", "counter", "states_deflated"),
    ("minreal.useful_pass_frac", "ratio", "frac", ("useful_passes", "reduce_passes")),
    ("scaling.balance_s", "s/query", "incl", "scaling.balance_pencil"),
    ("scaling.sinkhorn_calls", "calls/query", "calls", "scaling.sinkhorn_knopp"),
    ("scaling.sinkhorn_sweeps", "sweeps/query", "counter", "sinkhorn_sweeps"),
    ("scaling.sinkhorn_converged_frac", "ratio", "frac", ("sinkhorn_converged", "sinkhorn_calls")),
    ("mcmillan.rational_structure_self_s", "s/query", "self", "mcmillan.rational_structure"),
    ("fileio.parse_s", "s/query", "incl", "fileio.parse_quadruple"),
    ("fileio.bytes_read", "B/query", "counter", "bytes_read"),
    ("cli.self_s", "s/query", "self", "cli."),
    ("exact.oracle_s", "s", None, None),
    ("trace.overhead_frac", "ratio", None, None),
)


# Printed and kept in the results file, but left out of the result line.
# failed_frac reads 0 on every workload BENCHMARK.json names; the times
# read exactly 0 on every run of a workload that never enters the layer
# (no scaling outside sensitive_chain; no CLI, files, Kronecker or
# McMillan structure in it; no exact oracle outside oracle_corpus), and a
# time that never changes cannot be told from one that is not measured.
# Their layers' call counts and work counters stay in.
OFF_RESULT_LINE = frozenset((
    "failed_frac", "staircase.kronecker_structure_self_s", "scaling.balance_s",
    "mcmillan.rational_structure_self_s", "fileio.parse_s", "cli.self_s",
    "exact.oracle_s"))


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten samples beyond it.  Below
    twenty samples that percentile would not exceed the median, so the
    maximum (100) is reported instead."""
    if n < 20:
        return 100
    return int(math.floor(100.0 * (1.0 - 10.0 / n)))


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def environment() -> dict:
    import numpy
    import scipy
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass

    def blas(module):
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
        except (AttributeError, KeyError, TypeError):  # layout differs by release
            return None

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas(numpy),
        "scipy_openblas": blas(scipy),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "load": "closed loop, 1 client, 1 process",
    }


class QueryTimeout(BaseException):
    """Raised in a query that outlives QUERY_LIMIT_S.  Not an Exception, so
    that no ``except Exception`` inside strongmin swallows it."""


def _stop_query(signum, frame):
    raise QueryTimeout


class Harness:
    def __init__(self, queries):
        self.queries = queries
        self.samples = []          # (round, query index, seconds, reason)
        self.digests = {}          # query index -> sha256 of its first report
        self.rounds = 0

    def attempt(self, i, rnd):
        q = self.queries[i]
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, QUERY_LIMIT_S)
        try:
            rc, text = q.run()
        except QueryTimeout:
            self.samples.append((rnd, i, time.perf_counter() - t0,
                                 f"stopped after {QUERY_LIMIT_S} s"))
            return
        except Exception as exc:  # a raising query is a failed query
            self.samples.append((rnd, i, time.perf_counter() - t0,
                                 f"raised {type(exc).__name__}: {exc}"))
            return
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        dt = time.perf_counter() - t0
        try:
            reason = q.check(rc, text)
        except Exception as exc:  # an unreadable report fails its check
            reason = f"check raised {type(exc).__name__}: {exc}"
        digest = hashlib.sha256(text.encode()).hexdigest()
        first = self.digests.setdefault(i, digest)
        if reason is None and digest != first:
            reason = "report bytes differ from this query's first report"
        self.samples.append((rnd, i, dt, reason))

    def run_rounds(self, seconds, min_rounds) -> None:
        t0 = time.perf_counter()
        while True:
            r0 = time.perf_counter()
            for i in range(len(self.queries)):
                self.attempt(i, self.rounds)
            self.rounds += 1
            now = time.perf_counter()
            if self.rounds >= min_rounds and now - t0 + 0.5 * (now - r0) > seconds:
                return


def setup(setup_fn, seed, workdir):
    """Run the workload's set-up SETUP_PASSES times; keep the last pass."""
    passes = []
    for _ in range(SETUP_PASSES):
        t0 = time.perf_counter()
        queries, warm, timing = setup_fn(seed, workdir)
        warm.run()
        passes.append({"seconds": time.perf_counter() - t0, **timing})
    return queries, passes


def layer_metrics(tracer, queries: int, overhead: float, oracle_s: float) -> dict:
    totals = tracer.totals()
    counters = tracer.counters

    def spans(source, field):
        if source.endswith("."):
            return sum(row[field] for name, row in totals.items() if name.startswith(source))
        return totals.get(source, {}).get(field, 0)

    out = {}
    for name, unit, kind, source in PER_LAYER:
        if kind == "calls":
            value = spans(source, "calls") / queries
        elif kind in ("incl", "self"):
            value = spans(source, kind + "_s") / queries
        elif kind == "counter":
            value = counters[source] / queries
            if source == "svd_flop":
                value /= 1e9
        elif kind == "frac":
            num, den = counters[source[0]], counters[source[1]]
            value = num / den if den else 0.0
        elif name == "exact.oracle_s":
            value = oracle_s
        else:
            value = overhead
        out[name] = {"value": value, "unit": unit}
    return out


def run_workload(args) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH)]
    import workloads
    t_imported = time.perf_counter()

    signal.signal(signal.SIGALRM, _stop_query)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    workdir = OUT / f"inputs_{tag}_{os.getpid()}"
    workdir.mkdir()
    try:
        queries, passes = setup(workloads.WORKLOADS[args.workload], args.seed, str(workdir))
        setup_s = (t_imported - T_START) + statistics.median(p["seconds"] for p in passes)
        oracle_s = statistics.median(p.get("oracle_s", 0.0) for p in passes)
        harness = Harness(queries)
        result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "environment": environment(),
                  "import_s": t_imported - T_START, "setup_passes": passes,
                  "queries": [q.qid for q in queries]}
        if args.trace:
            metrics = traced_run(harness, args, oracle_s, result, tag)
        else:
            harness.run_rounds(args.seconds, MIN_ROUNDS)
            metrics = end_to_end(harness, setup_s, result)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [s for s in harness.samples if s[3] is not None]
    result["digests"] = {queries[i].qid: d for i, d in sorted(harness.digests.items())}
    result["samples"] = [
        {"round": r, "query": queries[i].qid, "seconds": dt, "failure": why}
        for r, i, dt, why in harness.samples]
    result["metrics"] = metrics
    with open(OUT / f"BENCH_{tag}.json", "w") as fh:
        json.dump(result, fh, indent=1)

    for name, m in metrics.items():
        print(f"{args.workload:16s} {name:40s} {m['value']:.6g} {m['unit']}")
    if "tail" in result:
        tail = result["tail"]
        print(f"{args.workload:16s} query_s_tail is p{tail['percentile']} of"
              f" {tail['samples']} samples, {tail['beyond']} beyond it, each at its"
              f" query's median; of the raw samples {tail['raw_samples_s']:.6g} s")
    for why in sorted({f"{queries[i].qid}: {w}" for _, i, _, w in failures}):
        print(f"FAILED {why}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(harness.samples),
        "failed": len(failures),
        "metrics": {k: v for k, v in metrics.items() if k not in OFF_RESULT_LINE},
    }))
    return 0


def end_to_end(harness, setup_s, result) -> dict:
    """The tail is taken over inputs, not moments: each sample counts with
    its query's median over the run's rounds.  strongmin is deterministic,
    so a query's repeats differ only by the host; on a shared virtual
    machine bursts of a second or two slow every query in them several
    times over, and a tail of raw samples follows those bursts rather than
    the program.  The raw-sample tail is kept in the results file."""
    times = [dt for _, _, dt, _ in harness.samples]
    failed = sum(1 for s in harness.samples if s[3] is not None)
    by_query = {}
    for _, i, dt, _ in harness.samples:
        by_query.setdefault(i, []).append(dt)
    typical = {i: statistics.median(v) for i, v in by_query.items()}
    p_tail = tail_percentile(len(times))
    result["tail"] = {"percentile": p_tail, "samples": len(times),
                      "beyond": len(times) - math.ceil(p_tail / 100 * len(times)),
                      "raw_samples_s": percentile(times, p_tail)}
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "query_s_p50": {"value": statistics.median(times), "unit": "s"},
        "query_s_tail": {"value": percentile([typical[i] for _, i, _, _ in harness.samples],
                                             p_tail), "unit": "s"},
        "queries_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
        "failed_frac": {"value": failed / len(times), "unit": "ratio"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
    }


def traced_run(harness, args, oracle_s, result, tag) -> dict:
    """Run each query untraced and then traced, back to back, so that drift
    in the machine's speed falls on both sides of the overhead estimate."""
    from tracing import Tracer

    tracer = Tracer()
    n = len(harness.queries)
    ratios = []
    pairs = 0
    t0 = time.perf_counter()
    while True:
        p0 = time.perf_counter()
        plain, traced = harness.rounds, harness.rounds + 1
        for i in range(n):
            harness.attempt(i, plain)
            tracer.query = pairs * n + i
            tracer.install()
            try:
                harness.attempt(i, traced)
            finally:
                tracer.uninstall()
            ratios.append(harness.samples[-1][2] / harness.samples[-2][2])
        harness.rounds += 2
        pairs += 1
        now = time.perf_counter()
        if pairs >= MAX_TRACED_ROUNDS or now - t0 + 0.5 * (now - p0) > args.seconds:
            break
    tracer.dump(OUT / f"SPANS_{tag}.json")
    result["traced_rounds"] = pairs
    return layer_metrics(tracer, pairs * n, statistics.median(ratios) - 1.0, oracle_s)


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    rows = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"error: workload {name} exited with code {proc.returncode}",
                  file=sys.stderr)
            return 1
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        rows[name] = json.loads(lines[-1])
    print(json.dumps(rows))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for needed in (ROOT / "src" / "strongmin" / "__init__.py", ROOT / "tests" / "corpus.py"):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} not found; run from a "
                  "strongmin checkout", file=sys.stderr)
            return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
