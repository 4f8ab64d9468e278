"""Command-line interface.

Subcommands:

* ``structure`` -- minimality check, optional reduction, and the complete
  pole/zero/minimal-index report of the transfer function;
* ``reduce``    -- write the strongly minimal quadruple and the constant
  left/right transfer factors;
* ``scale``     -- balance the system pencil by one of the two diagonal
  scaling schemes and write the scaled pencil;
* ``verify``    -- run the invariant battery on an input quadruple.

Exit codes: 0 success, 1 input/usage error (an unreadable or malformed
input file, an unwritable output file, a bad command line or an
out-of-range numeric argument included), 2 structural inconsistency
(degree-sum failure), 3 scaling divergence.  JSON reports are byte
deterministic for fixed (input, flags, seed); timing is printed only in
text mode to keep them so.  The environment variable ``STRONGMIN_TOL``
overrides the default rank tolerance.
"""
from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .fileio import (
    QuadrupleFormatError,
    dumps_deterministic,
    matrix_to_pairs,
    parse_quadruple,
    pencil_to_dict,
    quadruple_to_dict,
    read_quadruple,
)
from .linalg import DEFAULT_TOL, matrix_rank
from .mcmillan import degree_sum_check, rational_structure
from .minreal import is_strongly_irreducible, strongly_minimal_reduce
from .mcmillan import NotStronglyMinimal
from .minreal import ReductionError
from .pencil import (
    RotationError,
    SingularPencilError,
    system_pencil,
    transfer_eval,
)
from .staircase import StaircaseError

# Computational failures map to exit code 1 with a one-line message.
_COMPUTE_ERRORS = (
    SingularPencilError,
    RotationError,
    StaircaseError,
    ReductionError,
    NotStronglyMinimal,
)
from .scaling import ScalingDivergence, balance_pencil

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_STRUCTURE = 2
EXIT_DIVERGENCE = 3


def _checked(convert, ok, expected):
    """Argument type: ``convert`` the text, then require ``ok`` of the value."""

    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value

    return parse


# Below unit roundoff the rank rule's threshold sits under the SVD's own
# backward error, so every rank decision would be noise.
_TOL_MIN = float(np.finfo(float).eps)
_tolerance = _checked(float, lambda t: _TOL_MIN <= t < 1,
                      f"a tolerance with eps = {_TOL_MIN!r} <= tol < 1")
_positive = _checked(float, lambda x: 0 < x < math.inf, "a finite number > 0")
_nonnegative_int = _checked(int, lambda k: k >= 0, "an integer >= 0")
_positive_int = _checked(int, lambda k: k >= 1, "an integer >= 1")


def _default_tol() -> float:
    env = os.environ.get("STRONGMIN_TOL")
    if env:
        try:
            return _tolerance(env)
        except argparse.ArgumentTypeError as exc:
            print(f"strongmin: error: STRONGMIN_TOL: {exc}", file=sys.stderr)
            raise SystemExit(EXIT_ERROR)
    return DEFAULT_TOL


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with ``EXIT_ERROR``.

    argparse's own code for them, 2, is the degree-sum failure code here.
    """

    def error(self, message):
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _read_quadruple(path, read=parse_quadruple):
    """``read(path)``, by default the quadruple in ``path``, or None after
    printing an ``error:`` line."""
    try:
        return read(path)
    except (OSError, QuadrupleFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _write(text: str, path) -> bool:
    """Write ``text`` and a newline to the file ``path``, or to standard
    output when ``path`` is empty.  False after printing an ``error:`` line
    when the file cannot be written."""
    if not path:
        print(text)
        return True
    try:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return False
    return True


def _complex_pair(z: complex) -> list:
    return [float(z.real), float(z.imag)]


def _structure_to_dict(s) -> dict:
    pts = sorted(s.finite_points.items(), key=lambda kv: (kv[0].real, kv[0].imag))
    return {
        "normal_rank": s.normal_rank,
        "finite_points": [
            {"point": _complex_pair(pt), "indices": list(idx)} for pt, idx in pts
        ],
        "infinity_indices": list(s.infinity_indices),
        "right_minimal": list(s.right_minimal),
        "left_minimal": list(s.left_minimal),
        "polar_degree": s.polar_degree,
        "zero_degree": s.zero_degree,
        "mcmillan_degree": s.mcmillan_degree,
    }


def _minimality_to_dict(rep) -> dict:
    return {
        "e_controllable": rep.e_controllable,
        "e_observable": rep.e_observable,
        "strongly_minimal": rep.strongly_minimal,
        "offending_eigenvalues": [
            {"value": _complex_pair(v) if np.isfinite(v) else "inf", "side": side}
            for v, side in rep.offending_eigenvalues
        ],
    }


def _report_text(doc: dict, args, elapsed: float) -> str:
    if args.format == "json":
        return dumps_deterministic(doc)
    # Human-readable summary.
    out = []
    out.append(f"strongmin {doc['version']}  input sha256 {doc['input_digest'][:12]}")
    out.append(f"tol={doc['tol']}  seed={doc['seed']}")
    mini = doc["minimality"]
    out.append(
        "strongly minimal: "
        + ("yes" if mini["strongly_minimal"] else "no")
        + f" (E-controllable {mini['e_controllable']},"
        + f" E-observable {mini['e_observable']})"
    )
    if doc.get("reduction"):
        red = doc["reduction"]
        out.append(
            f"reduction: deflated {red['total_deflated']} state(s) "
            f"{red['passes']}"
        )
    st = doc["structure"]
    out.append(f"normal rank {st['normal_rank']}")
    for item in st["finite_points"]:
        pt = complex(*item["point"])
        out.append(f"  at {pt:.6g}: indices {item['indices']}")
    if st["infinity_indices"]:
        out.append(f"  at infinity: indices {st['infinity_indices']}")
    if st["right_minimal"]:
        out.append(f"  right minimal indices {st['right_minimal']}")
    if st["left_minimal"]:
        out.append(f"  left minimal indices {st['left_minimal']}")
    out.append(
        f"degrees: polar {st['polar_degree']}, zero {st['zero_degree']}, "
        f"McMillan {st['mcmillan_degree']}"
    )
    out.append("degree-sum identity: " + ("ok" if doc["degree_sum_ok"] else "VIOLATED"))
    out.append(f"elapsed {elapsed:.3f}s")
    return "\n".join(out)


def cmd_structure(args) -> int:
    t0 = time.perf_counter()
    read = _read_quadruple(args.input, read_quadruple)
    if read is None:
        return EXIT_ERROR
    q, digest = read
    tol, seed = args.tol, args.seed
    try:
        structure = rational_structure(
            q, tol, seed, reduce_first=not args.no_reduce
        )
    except _COMPUTE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if structure.ambiguous:
        print(
            "warning: a rank or eigenvalue clustering decision was a close "
            "call; the structure may be wrong at this tolerance",
            file=sys.stderr,
        )
    records = structure.reduction
    reduction = None
    if records is not None:
        reduction = {
            "total_deflated": int(sum(r.d_deflated for r in records)),
            "passes": [
                {"side": r.side, "deflated": int(r.d_deflated)} for r in records
            ],
        }
    ok = degree_sum_check(structure)
    doc = {
        "version": __version__,
        "input_digest": digest,
        "tol": tol,
        "seed": seed,
        "minimality": _minimality_to_dict(structure.minimality),
        "reduction": reduction,
        "structure": _structure_to_dict(structure),
        "degree_sum_ok": ok,
    }
    if not _write(_report_text(doc, args, time.perf_counter() - t0), args.report):
        return EXIT_ERROR
    return EXIT_OK if ok else EXIT_STRUCTURE


def cmd_reduce(args) -> int:
    q = _read_quadruple(args.input)
    if q is None:
        return EXIT_ERROR
    try:
        q_min, Wl, Wr, records = strongly_minimal_reduce(
            q, args.tol, args.seed, order=args.order
        )
    except _COMPUTE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    doc = quadruple_to_dict(q_min)
    doc["Wl"] = matrix_to_pairs(Wl)
    doc["Wr"] = matrix_to_pairs(Wr)
    doc["deflated"] = [
        {"side": r.side, "count": int(r.d_deflated)} for r in records
    ]
    if not _write(dumps_deterministic(doc), args.output):
        return EXIT_ERROR
    print(
        f"reduced state dimension {q.d} -> {q_min.d}"
        f" (deflated {q.d - q_min.d})",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_scale(args) -> int:
    q = _read_quadruple(args.input)
    if q is None:
        return EXIT_ERROR
    S = system_pencil(q)
    try:
        scaled, result = balance_pencil(
            S,
            approach=args.approach,
            alpha=args.alpha,
            c=args.c,
            c_left=args.c_left,
            c_right=args.c_right,
            tol=args.tol,
            max_iter=args.max_iter,
            pow2=args.pow2,
        )
    except ScalingDivergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("suggestion: rerun with --approach 2", file=sys.stderr)
        return EXIT_DIVERGENCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    M2 = np.abs(scaled.L0) ** 2 + np.abs(scaled.L1) ** 2
    doc = {
        "pencil": pencil_to_dict(scaled),
        "d_left": [float(v) for v in result.d_left],
        "d_right": [float(v) for v in result.d_right],
        "d_lambda": result.d_lambda,
        "iterations": result.iterations,
        "residual": result.residual,
        "converged": result.converged,
        "row_norms": [float(v) for v in np.sqrt(M2.sum(axis=1))],
        "col_norms": [float(v) for v in np.sqrt(M2.sum(axis=0))],
    }
    if result.gamma is not None:
        doc["gamma"] = result.gamma
    if result.gamma_left is not None:
        doc["gamma_left"] = result.gamma_left
        doc["gamma_right"] = result.gamma_right
    if not _write(dumps_deterministic(doc), args.output):
        return EXIT_ERROR
    print(
        "row norms: min {:.3e} max {:.3e}; col norms: min {:.3e} max {:.3e}".format(
            min(doc["row_norms"]), max(doc["row_norms"]),
            min(doc["col_norms"]), max(doc["col_norms"]),
        ),
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    q = _read_quadruple(args.input)
    if q is None:
        return EXIT_ERROR
    tol, seed = args.tol, args.seed
    checks = []

    def check(name, fn, fatal=()):
        try:
            ok, detail = fn()
        except fatal:
            raise
        except Exception as exc:  # pragma: no cover - defensive reporting
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        checks.append(ok)
        print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  ({detail})" if detail else ""))
        return ok

    state = {}

    def do_reduce():
        # The reduction validates its input, and returns only once its own
        # strong-minimality check passes (ReductionError otherwise).
        q_min, Wl, Wr, _ = strongly_minimal_reduce(q, tol, seed)
        state.update(q_min=q_min, Wl=Wl, Wr=Wr)
        return True, f"d {q.d} -> {q_min.d}"

    try:
        check("reduction reaches a strongly minimal quadruple", do_reduce,
              fatal=SingularPencilError)
    except SingularPencilError:
        print("error: A not regular", file=sys.stderr)
        return EXIT_ERROR

    def do_transfer():
        q_min, Wl, Wr = state["q_min"], state["Wl"], state["Wr"]
        rng = np.random.default_rng(seed)
        worst = 0.0
        tested = 0
        while tested < args.samples:
            z = 1.9 * np.exp(2j * np.pi * rng.uniform()) + 0.05j
            try:
                R = transfer_eval(q, z, tol)
                Rm = transfer_eval(q_min, z, tol)
            except SingularPencilError:
                continue
            tested += 1
            denom = max(np.linalg.norm(R), 1e-300)
            worst = max(worst, np.linalg.norm(Rm - Wl @ R @ Wr) / denom)
        return worst <= 1e-10, f"max rel deviation {worst:.2e}"

    check("transfer function preserved up to constant factors", do_transfer)

    def do_irreducible():
        return is_strongly_irreducible(state["q_min"], tol, seed), ""

    check("strongly minimal implies strongly irreducible", do_irreducible)

    def do_structure():
        s = rational_structure(state["q_min"], tol, seed, assume_strongly_minimal=True)
        state["structure"] = s
        ok = degree_sum_check(s)
        return ok, (
            f"polar {s.polar_degree} = zero {s.zero_degree}"
            f" + eps {sum(s.right_minimal)} + eta {sum(s.left_minimal)}"
        )

    check("degree-sum identity", do_structure)

    def do_rank():
        s = state["structure"]
        r = matrix_rank(system_pencil(state["q_min"]).L1, tol)
        return r == s.mcmillan_degree, f"rank L1 = {r}, degree = {s.mcmillan_degree}"

    check("rank of leading coefficient equals McMillan degree", do_rank)

    return EXIT_OK if all(checks) else EXIT_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="strongmin",
        description="Strongly minimal linear system matrices: reduction, "
        "balancing, and McMillan structure of rational transfer functions.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("input", help="quadruple JSON file")
        # The default is resolved in main, on each call: STRONGMIN_TOL is
        # read then, not when the parser is built.
        p.add_argument("--tol", type=_tolerance, default=None,
                       help="relative rank tolerance, machine epsilon "
                            "(2.22e-16) <= tol < 1; default STRONGMIN_TOL "
                            "or 1e-12")
        p.add_argument("--seed", type=_nonnegative_int, default=0,
                       help="seed for rotations and sample points")

    p = sub.add_parser("structure", help="pole/zero/minimal-index report")
    common(p)
    p.add_argument("--no-reduce", action="store_true",
                   help="fail instead of reducing a non-minimal input")
    p.add_argument("--report", help="write the report to a file")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_structure)

    p = sub.add_parser("reduce", help="reduce to a strongly minimal quadruple")
    common(p)
    p.add_argument("--order", choices=("co", "oc"), default="co",
                   help="controllable-first or observable-first")
    p.add_argument("--output", help="write the reduced quadruple to a file")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("scale", help="balance the system pencil")
    common(p)
    p.add_argument("--approach", type=int, choices=(1, 2), default=2)
    p.add_argument("--alpha", type=_positive, default=1.0)
    p.add_argument("--c-left", dest="c_left", type=_positive, default=1.0)
    p.add_argument("--c-right", dest="c_right", type=_positive, default=1.0)
    p.add_argument("--c", type=_positive, default=1.0)
    p.add_argument("--pow2", action="store_true",
                   help="quantize the scalings to powers of 2")
    p.add_argument("--max-iter", dest="max_iter", type=_positive_int, default=None)
    p.add_argument("--output", help="write the scaled pencil to a file")
    p.set_defaults(func=cmd_scale)

    p = sub.add_parser("verify", help="run the invariant battery")
    common(p)
    p.add_argument("--samples", type=_positive_int, default=10,
                   help="number of transfer sample points")
    p.set_defaults(func=cmd_verify)

    return parser


# One parser per process: building it costs about a millisecond, a
# quarter of a small structure query.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.tol is None:
        args.tol = _default_tol()
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
