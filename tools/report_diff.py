#!/usr/bin/env python3
"""Structural-equivalence gate for CLI reports across two source trees.

    python3 tools/report_diff.py dump --src TREE OUT.json [--inputs gallery,corpus,planted,descriptor,scale,verify]
    python3 tools/report_diff.py compare A.json B.json [--rel 1e-8]

``dump`` runs ``strongmin structure`` (with and without ``--no-reduce``)
and ``strongmin reduce`` from the source tree ``TREE`` (its ``src``
directory goes first on the import path) on a fixed set of inputs, each
under pipeline seeds 0-2, and writes every run's exit code, standard
output and standard error to ``OUT.json``.  The inputs are the gallery
examples below, corpus seeds 0-123 (``tests/corpus.exact_instance``),
planted systems (``bench/workloads.planted_system``) at d = 16, 32, 64 and
96, instances 100 and 101, unrotated, and descriptor systems with
``E != I`` (``tests/descriptor.descriptor_system``), seeds 0-29.  The
``scale`` set instead runs ``strongmin scale --approach 2 --alpha 0.01
--pow2`` on the gallery examples and on the chain systems of
``bench/workloads.chain_instance``, seeds 0-9, and the ``verify`` set runs
``strongmin verify`` on the gallery examples and corpus seeds 0-123.  The
input generators come from this checkout, and each input file is written
by this tool's own serializer (:func:`write_input`), not by ``TREE``: the
schema-1 quadruple format with every ``-0.0`` imaginary part written as
``+0.0``, so both trees read byte-identical files however their builders
signed a zero.  Only the code under test comes from ``TREE``.

``compare`` holds two dumps to the same structure.  For every run both
dumps hold, the exit codes, standard error and every integer, boolean and
string field must be equal: ranks, degrees, indices, minimal indices,
deflation counts, flags, and the input digest.  Finite points and
offending eigenvalues must match one to one, each with equal indices (or
side), within ``--rel`` relative to ``max(1, |point|)``.  Reduced
quadruples are compared by their integer fields and matrix shapes only;
their entries depend on the basis.  Balancing reports must agree in
``converged``, the scaled pencil's shape and exactly in ``d_left``,
``d_right`` and ``d_lambda``; ``iterations`` and ``residual`` may differ.
Invariant batteries must give each check the same verdict, PASS or FAIL;
the measured details may differ.
Prints each difference and the largest point drift; exits 1 when any run
differs.  ``--rel 0`` asserts that no point moved at all.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 1, 2)
CORPUS_SEEDS = tuple(range(124))
PLANTED = tuple((d, inst) for d in (16, 32, 64, 96) for inst in (100, 101))
DESCRIPTOR_SEEDS = tuple(range(30))
CHAIN_SEEDS = tuple(range(10))
COMMANDS = {
    "structure": ["structure"],
    "structure-no-reduce": ["structure", "--no-reduce"],
    "reduce": ["reduce"],
}
SCALE_COMMANDS = {"scale": ["scale", "--approach", "2", "--alpha", "0.01", "--pow2"]}
VERIFY_COMMANDS = {"verify": ["verify"]}
INPUT_SETS = ("gallery", "corpus", "planted", "descriptor", "scale", "verify")


# --------------------------------------------------------------------- dump


def _e5_e1(seed):
    rng = np.random.default_rng(seed)
    e5 = list(rng.standard_normal(6))
    e5[5] += np.sign(e5[5]) + 0.5
    e1 = list(rng.standard_normal(2))
    e1[1] += np.sign(e1[1]) + 0.5
    return e5, e1


def gallery_inputs():
    """Named quadruples built by ``strongmin.gallery``."""
    from strongmin import gallery

    rng = np.random.default_rng(5)
    cubic = [rng.standard_normal((2, 2)) for _ in range(4)]
    out = {
        "gallery/polynomial_e5_e1": gallery.example_polynomial_system(*_e5_e1(3)),
        "gallery/rational_e5_e1": gallery.example_rational_system(*_e5_e1(1)),
        "gallery/lambda_and_inverse": gallery.lambda_and_inverse_system(),
        "gallery/polynomial_chain_cubic": gallery.polynomial_chain_system(cubic),
    }
    for seed in range(3):
        out[f"gallery/state_space_{seed}"] = gallery.random_state_space(seed)
    return out


def corpus_inputs():
    from corpus import exact_instance

    return {f"corpus/{s}": exact_instance(s)[0].to_numeric() for s in CORPUS_SEEDS}


def planted_inputs():
    from strongmin.pencil import state_space_quadruple
    from workloads import planted_system

    return {
        f"planted/d{d}_{inst}": state_space_quadruple(*planted_system(inst, d))
        for d, inst in PLANTED
    }


def descriptor_inputs():
    from descriptor import descriptor_system

    return {f"descriptor/{s}": descriptor_system(s)[0] for s in DESCRIPTOR_SEEDS}


def scale_inputs():
    """The gallery examples and the benchmark's chain systems."""
    from strongmin.gallery import example_polynomial_system
    from workloads import chain_instance

    out = {label.replace("gallery/", "scale/"): q for label, q in gallery_inputs().items()}
    for s in CHAIN_SEEDS:
        e5, e1, _ = chain_instance(s)
        out[f"scale/chain_{s}"] = example_polynomial_system(e5, e1)
    return out


def verify_inputs():
    """The gallery examples and the exact corpus."""
    return {
        "verify/" + label.split("/", 1)[1]: q
        for label, q in {**gallery_inputs(), **corpus_inputs()}.items()
    }


_BLOCKS = (("A0", "A", "L0"), ("A1", "A", "L1"), ("B0", "B", "L0"), ("B1", "B", "L1"),
           ("C0", "C", "L0"), ("C1", "C", "L1"), ("D0", "D", "L0"), ("D1", "D", "L1"))


def write_input(path, q) -> None:
    """Write the quadruple ``q`` as a schema-1 quadruple file: sorted keys,
    shortest round-trip floats, each block a row-major list of ``[re, im]``
    pairs, and ``-0.0`` imaginary parts written as ``+0.0``."""
    doc = {"schema": 1, "d": q.d, "m": q.m, "n": q.n}
    for name, block, coeff in _BLOCKS:
        M = np.asarray(getattr(getattr(q, block), coeff), dtype=complex).reshape(-1)
        doc[name] = [[float(z.real), float(z.imag) + 0.0] for z in M]
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)
    Path(path).write_text(text + "\n")


def _run_cli(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except Exception as exc:  # recorded, so that compare sees it
            rc = f"raised {type(exc).__name__}: {exc}"
    return {"exit": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def dump(src, out_path, input_sets) -> int:
    sys.path[:0] = [str(Path(src).resolve() / "src"), str(ROOT / "tests"), str(ROOT / "bench")]
    from strongmin.cli import main

    builders = {
        "gallery": (gallery_inputs, COMMANDS),
        "corpus": (corpus_inputs, COMMANDS),
        "planted": (planted_inputs, COMMANDS),
        "descriptor": (descriptor_inputs, COMMANDS),
        "scale": (scale_inputs, SCALE_COMMANDS),
        "verify": (verify_inputs, VERIFY_COMMANDS),
    }
    reports = {}
    with tempfile.TemporaryDirectory(prefix="report_diff_") as workdir:
        for name in input_sets:
            inputs, commands = builders[name]
            for label, quad in inputs().items():
                path = Path(workdir) / (label.replace("/", "_") + ".json")
                write_input(path, quad)
                for cmd, argv in commands.items():
                    for seed in SEEDS:
                        run = _run_cli(main, [*argv, str(path), "--seed", str(seed)])
                        reports[f"{label}|{cmd}|s{seed}"] = run
    with open(out_path, "w") as fh:
        json.dump({"reports": reports}, fh, sort_keys=True, indent=0)
        fh.write("\n")
    print(f"{len(reports)} reports written to {out_path}")
    return 0


# ------------------------------------------------------------------ compare


class Mismatch(Exception):
    """Two reports differ in structure."""


def _match(a_items, b_items, rel, what):
    """Match ``(key, point)`` pairs one to one within equal keys.

    ``point`` is a complex number or None (a point at infinity); returns the
    largest relative drift.  Raises :class:`Mismatch` when counts per key
    differ or no matching stays within ``rel``.
    """

    def grouped(items):
        out = {}
        for key, z in items:
            out.setdefault(json.dumps(key), []).append(z)
        return out

    ga, gb = grouped(a_items), grouped(b_items)
    if {k: len(v) for k, v in ga.items()} != {k: len(v) for k, v in gb.items()}:
        raise Mismatch(f"{what}: counts per index differ")
    worst = 0.0
    for key, pa in ga.items():
        pb = gb[key]
        finite_a = [z for z in pa if z is not None]
        finite_b = [z for z in pb if z is not None]
        if len(finite_a) != len(finite_b):
            raise Mismatch(f"{what} {key}: infinite points differ")
        if not finite_a:
            continue
        a, b = np.array(finite_a), np.array(finite_b)
        cost = np.abs(a[:, None] - b[None, :]) / np.maximum(1.0, np.abs(b))[None, :]
        rows, cols = linear_sum_assignment(cost)
        drift = float(cost[rows, cols].max())
        if not drift <= rel:
            raise Mismatch(f"{what} {key}: drift {drift:.3g} > {rel:g}")
        worst = max(worst, drift)
    return worst


def _point(pair):
    return None if pair == "inf" else complex(*pair)


def _same(a, b, keys, what):
    for key in keys:
        if a.get(key) != b.get(key):
            raise Mismatch(f"{what}{key}: {a.get(key)!r} != {b.get(key)!r}")


def _compare_structure(a, b, rel):
    if set(a) != set(b):
        raise Mismatch("report keys differ")
    _same(a, b, ("version", "input_digest", "tol", "seed", "reduction", "degree_sum_ok"), "")
    ma, mb = a["minimality"], b["minimality"]
    _same(ma, mb, ("e_controllable", "e_observable", "strongly_minimal"), "minimality.")
    drift = _match(
        [(e["side"], _point(e["value"])) for e in ma["offending_eigenvalues"]],
        [(e["side"], _point(e["value"])) for e in mb["offending_eigenvalues"]],
        rel, "offending_eigenvalues")
    sa, sb = a["structure"], b["structure"]
    if set(sa) != set(sb):
        raise Mismatch("structure keys differ")
    _same(sa, sb, sorted(set(sa) - {"finite_points"}), "structure.")
    return max(drift, _match(
        [(p["indices"], _point(p["point"])) for p in sa["finite_points"]],
        [(p["indices"], _point(p["point"])) for p in sb["finite_points"]],
        rel, "finite_points"))


def _shape(value):
    if isinstance(value, list):
        return [len(value)] + (_shape(value[0]) if value else [])
    return []


def _compare_reduced(a, b):
    if set(a) != set(b):
        raise Mismatch("reduced quadruple keys differ")
    for key in sorted(a):
        if isinstance(a[key], list) and key != "deflated":
            if _shape(a[key]) != _shape(b[key]):
                raise Mismatch(f"{key}: shape {_shape(a[key])} != {_shape(b[key])}")
        elif a[key] != b[key]:
            raise Mismatch(f"{key}: {a[key]!r} != {b[key]!r}")
    return 0.0


def _compare_scaled(a, b):
    _same(a, b, ("converged", "d_left", "d_right", "d_lambda"), "")
    _same(a["pencil"], b["pencil"], ("rows", "cols"), "pencil.")
    return 0.0


def _verdicts(text):
    """``PASS`` or ``FAIL`` and the name of each check of a ``strongmin
    verify`` run, without its measured details."""
    return [line.split("  (", 1)[0] for line in text.splitlines()]


def compare_runs(a, b, rel):
    """Largest point drift between two runs of one query; raises
    :class:`Mismatch` when they differ in structure."""
    if a["exit"] != b["exit"]:
        raise Mismatch(f"exit code {a['exit']!r} != {b['exit']!r}")
    if a["stderr"] != b["stderr"]:
        raise Mismatch(f"stderr {a['stderr'].strip()!r} != {b['stderr'].strip()!r}")
    if not a["stdout"] or not b["stdout"]:
        if a["stdout"] or b["stdout"]:
            raise Mismatch("only one run wrote a report")
        return 0.0
    if a["stdout"].startswith(("PASS", "FAIL")):
        if _verdicts(a["stdout"]) != _verdicts(b["stdout"]):
            raise Mismatch(f"verdicts {_verdicts(a['stdout'])} != {_verdicts(b['stdout'])}")
        return 0.0
    da, db = json.loads(a["stdout"]), json.loads(b["stdout"])
    if "structure" in da or "structure" in db:
        return _compare_structure(da, db, rel)
    if "d_left" in da or "d_left" in db:
        return _compare_scaled(da, db)
    return _compare_reduced(da, db)


def compare_dumps(a, b, rel):
    """``(problems, drift, worst)``: each differing run as ``(key, reason)``,
    the largest point drift and the run it occurred in."""
    ra, rb = a["reports"], b["reports"]
    problems = [(k, "only in the first dump") for k in sorted(set(ra) - set(rb))]
    problems += [(k, "only in the second dump") for k in sorted(set(rb) - set(ra))]
    drift, worst = 0.0, None
    for key in sorted(set(ra) & set(rb)):
        try:
            d = compare_runs(ra[key], rb[key], rel)
        except Mismatch as exc:
            problems.append((key, str(exc)))
            continue
        if worst is None or d > drift:
            drift, worst = d, key
    return problems, drift, worst


def compare(path_a, path_b, rel) -> int:
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa), json.load(fb)
    problems, drift, worst = compare_dumps(a, b, rel)
    for key, reason in problems:
        print(f"DIFFERS {key}: {reason}")
    total = len(set(a["reports"]) | set(b["reports"]))
    print(f"{total} runs compared, {len(problems)} differ; "
          f"largest point drift {drift:.3g} ({worst})")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("dump", help="run the CLI from a source tree and keep its reports")
    p.add_argument("--src", required=True, help="source tree whose src/ is run")
    p.add_argument("--inputs", default=",".join(INPUT_SETS),
                   help="comma-separated input sets: " + ", ".join(INPUT_SETS))
    p.add_argument("out", help="JSON file to write")
    p = sub.add_parser("compare", help="compare two dumps structurally")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--rel", type=float, default=1e-8,
                   help="relative bound on point drift (default 1e-8)")
    args = parser.parse_args(argv)
    if args.command == "dump":
        sets = [s for s in args.inputs.split(",") if s]
        unknown = sorted(set(sets) - set(INPUT_SETS))
        if unknown:
            parser.error(f"unknown input sets: {', '.join(unknown)}")
        return dump(args.src, args.out, sets)
    return compare(args.a, args.b, args.rel)


if __name__ == "__main__":
    raise SystemExit(main())
