"""The benchmark's workloads: inputs, references and checks.

Each ``setup_*`` function builds one workload's inputs from the workload
seed, writes the files its queries read, computes the reference answers
and warms the code path up.  It returns a list of :class:`Query`.  A query
runs one request against strongmin (``run``) and judges the output against
its reference (``check``); the harness times ``run`` only.

strongmin is always reached through a module attribute at call time
(``cli.main``, ``scaling.scaled_quadruple``), never through a name bound
here at import, so the tracer's wrappers see every call.
"""
from __future__ import annotations

import contextlib
import functools
import io
import json
import os
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional

import numpy as np
from scipy.optimize import linear_sum_assignment

import strongmin.cli as cli
import strongmin.minreal as minreal
import strongmin.pencil as pencil
import strongmin.scaling as scaling
from strongmin.exact import full_structure_exact
from strongmin.fileio import dumps_deterministic, write_quadruple
from strongmin.gallery import example_polynomial_system

from corpus import exact_instance, match_points


@dataclass
class Query:
    """One request.  ``run`` returns ``(exit code, report text)``;
    ``check`` returns ``None`` when the output is right, else the reason."""

    qid: str
    run: Callable[[], tuple]
    check: Callable[[int, str], Optional[str]]


def cli_query(qid, argv, check) -> Query:
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        return rc, out.getvalue()
    return Query(qid, run, check)


def check_cli_report(rc, text) -> tuple:
    """Common CLI checks; returns ``(doc, reason)``."""
    if rc != 0:
        return None, f"exit code {rc}"
    doc = json.loads(text)
    if not doc["degree_sum_ok"]:
        return doc, "degree-sum check failed"
    return doc, None


# ------------------------------------------------------ planted_d96, planted_d128

# Instances 100 and 101 are the first two of the range 100-109 on which the
# d=128 defect was first measured.  At d=128 instance 100 is answered
# wrongly and 101 rightly; at d=96 both are answered rightly (see
# README.md).  The seed varies the basis, the pipeline seed and the order,
# never which systems are planted.
PLANTED_BASE = (100, 101)
PLANTED_MATCH_TOL = 1e-6


def planted_system(inst_seed: int, d: int, m: int = 2, n: int = 2):
    """Random real state-space model whose first d/4 states are
    uncontrollable: ``F[:k, k:] = 0`` and ``G[:k] = 0``."""
    rng = np.random.default_rng(inst_seed)
    k = d // 4
    F = rng.standard_normal((d, d))
    F[:k, k:] = 0.0
    G = rng.standard_normal((d, n))
    G[:k] = 0.0
    H = rng.standard_normal((m, d))
    D = rng.standard_normal((m, n))
    return F, G, H, D


def _orthogonal(rng, size):
    Q, R = np.linalg.qr(rng.standard_normal((size, size)))
    return Q * np.sign(np.diag(R))


def planted_reference(F, G, H, D):
    """Poles eig(F22) and zeros eig(F22 - G2 D^-1 H2) of the controllable
    part; each has McMillan index -1 or +1."""
    k = F.shape[0] // 4
    F22, G2, H2 = F[k:, k:], G[k:], H[:, k:]
    poles = np.linalg.eigvals(F22)
    zeros = np.linalg.eigvals(F22 - G2 @ np.linalg.solve(D, H2))
    return poles, zeros


def _matched(found, expected, tol) -> bool:
    if len(found) != len(expected):
        return False
    if not len(expected):
        return True
    found, expected = np.asarray(found), np.asarray(expected)
    cost = np.abs(found[:, None] - expected[None, :]) / np.maximum(1.0, np.abs(expected))[None, :]
    rows, cols = linear_sum_assignment(cost)
    return bool(np.max(cost[rows, cols]) <= tol)


def planted_check(d, poles, zeros):
    k = d // 4

    def check(rc, text):
        doc, reason = check_cli_report(rc, text)
        if reason:
            return reason
        st = doc["structure"]
        if st["mcmillan_degree"] != d - k:
            return f"McMillan degree {st['mcmillan_degree']}, expected {d - k}"
        if st["infinity_indices"] or st["right_minimal"] or st["left_minimal"]:
            return "unexpected structure at infinity or minimal indices"
        found = {-1: [], 1: []}
        for item in st["finite_points"]:
            if item["indices"] not in ([-1], [1]):
                return f"point indexed {item['indices']}, expected [-1] or [1]"
            found[item["indices"][0]].append(complex(*item["point"]))
        if not _matched(found[-1], poles, PLANTED_MATCH_TOL):
            return "poles differ from eig(F22)"
        if not _matched(found[1], zeros, PLANTED_MATCH_TOL):
            return "zeros differ from eig(F22 - G2 D^-1 H2)"
        return None

    return check


def _planted_query(workdir, label, F, G, H, D, pipeline_seed) -> Query:
    path = os.path.join(workdir, f"planted_{label}.json")
    write_quadruple(path, pencil.state_space_quadruple(F, G, H, D))
    poles, zeros = planted_reference(F, G, H, D)
    return cli_query(
        f"planted{label}/s{pipeline_seed}",
        ["structure", path, "--seed", str(pipeline_seed)],
        planted_check(F.shape[0], poles, zeros),
    )


def setup_planted(seed, workdir, d):
    rng = np.random.default_rng([seed, 1])
    k = d // 4
    queries = []
    for inst in PLANTED_BASE:
        F, G, H, D = planted_system(inst, d)
        # Block-diagonal orthogonal change of basis: a new realization of
        # the same transfer function that keeps F[:k, k:] = 0, G[:k] = 0.
        Q = np.zeros((d, d))
        Q[:k, :k] = _orthogonal(rng, k)
        Q[k:, k:] = _orthogonal(rng, d - k)
        queries.append(_planted_query(
            workdir, str(inst), Q @ F @ Q.T, Q @ G, H @ Q.T, D,
            int(rng.integers(0, 10_000))))
    order = rng.permutation(len(queries))
    queries = [queries[i] for i in order]
    warm = _planted_query(workdir, "warmup", *planted_system(1, 16), 0)
    return queries, warm, {}


# ----------------------------------------------- oracle_corpus, oracle_corpus_all

# Corpus seeds 24-123: fresh instances above the 0-23 that tier-1 tests
# use, about 80% of them non-minimal.  The workload seed varies the
# pipeline seed (0-999) of each query and the order, not the instances.
CORPUS_SEEDS = tuple(range(24, 124))
# The corpus seeds among those on which at least one pipeline seed in
# 0-999 gives a wrong report at the seed commit (all 100,000 pairs were
# run; see README.md).  oracle_corpus leaves them out, oracle_corpus_all
# keeps them.
CORPUS_FAILING = (38, 43, 48, 74, 79, 84, 90, 96, 119)


def oracle_check(exact):
    def check(rc, text):
        doc, reason = check_cli_report(rc, text)
        if reason:
            return reason
        st = doc["structure"]
        same = (
            st["normal_rank"] == exact.normal_rank
            and tuple(st["infinity_indices"]) == tuple(exact.infinity_indices)
            and tuple(st["right_minimal"]) == tuple(exact.right_minimal)
            and tuple(st["left_minimal"]) == tuple(exact.left_minimal)
            and st["polar_degree"] == exact.polar_degree
            and st["zero_degree"] == exact.zero_degree
        )
        points = {complex(*p["point"]): tuple(p["indices"]) for p in st["finite_points"]}
        if not (same and match_points(points, exact.finite_points)):
            return "differs from full_structure_exact"
        return None

    return check


def _oracle_query(workdir, corpus_seed, pipeline_seed, timing) -> Query:
    quad, R, cands = exact_instance(corpus_seed)
    t0 = perf_counter()
    exact = full_structure_exact(R, candidates=cands)
    timing["oracle_s"] = timing.get("oracle_s", 0.0) + perf_counter() - t0
    path = os.path.join(workdir, f"corpus_{corpus_seed}.json")
    write_quadruple(path, quad.to_numeric())
    return cli_query(
        f"corpus{corpus_seed}/s{pipeline_seed}",
        ["structure", path, "--seed", str(pipeline_seed)],
        oracle_check(exact),
    )


def setup_oracle(seed, workdir, corpus_seeds, count=None):
    rng = np.random.default_rng([seed, 2])
    timing = {}
    queries = [
        _oracle_query(workdir, int(cs), int(rng.integers(0, 1000)), timing)
        for cs in rng.permutation(corpus_seeds[:count])
    ]
    warm = _oracle_query(workdir, 0, 0, {})
    return queries, warm, timing


# ------------------------------------------------------------- sensitive_chain

BIG_ROOT = 1e5
ROOT_REL_TOL = 1e-8


def chain_instance(inst_seed):
    """Criterion-9 data: degree-5 polynomial with one root of magnitude
    about 1e5 (coefficients normalized to unit maximum) and a degree-1 one."""
    rng = np.random.default_rng(inst_seed)
    roots5 = [complex(r) for r in rng.standard_normal(5) + 1j * rng.standard_normal(5)]
    roots5[0] = BIG_ROOT * (1.0 + 0.1 * rng.uniform())
    e5 = np.poly(roots5)[::-1]
    e5 = e5 / np.max(np.abs(e5))
    root1 = complex(rng.standard_normal() + 1j * rng.standard_normal())
    e1 = np.poly([root1])[::-1]
    return list(e5), list(e1), roots5 + [root1]


def _chain_query(inst_seed, pipeline_seed, max_iter=20000) -> Query:
    e5, e1, roots = chain_instance(inst_seed)
    q = example_polynomial_system(e5, e1)

    def run():
        q_s, d_lam, _, _ = scaling.scaled_quadruple(
            q, approach=2, alpha=1e-2, pow2=True, max_iter=max_iter)
        q_min, _, _, records = minreal.strongly_minimal_reduce(q_s, seed=pipeline_seed)
        vals = list(pencil.generalized_eigenvalues(
            pencil.system_pencil(q_min), seed=pipeline_seed))
        for rec in records:
            vals.extend(rec.deflated_eigenvalues)
        vals = [complex(v) / d_lam for v in vals if np.isfinite(v)]
        return 0, dumps_deterministic({
            "d_min": q_min.d,
            "eigenvalues": [[v.real, v.imag] for v in vals],
        })

    def check(rc, text):
        vals = [complex(*p) for p in json.loads(text)["eigenvalues"]]
        if not vals:
            return "no finite eigenvalues"
        worst = max(min(abs(v - t) / abs(t) for v in vals) for t in roots)
        if worst > ROOT_REL_TOL:
            return f"worst root relative error {worst:.2e} > {ROOT_REL_TOL:g}"
        return None

    return Query(f"chain{inst_seed}/s{pipeline_seed}", run, check)


def setup_sensitive(seed, workdir, count=8):
    rng = np.random.default_rng([seed, 3])
    queries = [
        _chain_query(int(rng.integers(0, 2**32)), int(rng.integers(0, 1000)))
        for _ in range(count)
    ]
    # The warm-up goes through every layer a query uses, with few sweeps:
    # a full 20000-sweep query would make set-up time follow the machine's
    # speed of the moment, which sways Python loops most.
    warm = _chain_query(9000, 0, max_iter=200)
    return queries, warm, {}


WORKLOADS = {
    "planted_d96": functools.partial(setup_planted, d=96),
    "oracle_corpus": functools.partial(
        setup_oracle, corpus_seeds=tuple(s for s in CORPUS_SEEDS if s not in CORPUS_FAILING)),
    "sensitive_chain": setup_sensitive,
    "planted_d128": functools.partial(setup_planted, d=128),
    "oracle_corpus_all": functools.partial(setup_oracle, corpus_seeds=CORPUS_SEEDS),
}
