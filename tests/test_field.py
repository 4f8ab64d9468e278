"""Real data are factored in real arithmetic, with the answers of complex.

The field of a pencil is fixed where its data enter (``Pencil``, the file
reader, the quadruple builders) and every LAPACK call follows it.  A real
pencil takes the orthogonal staircases and the real QZ, whose 2 x 2 blocks
are made triangular before the eigenvalue clustering; the same data cast to
complex take the complex path, and both give the same structure.
"""
import contextlib
import importlib.util
import io
import json
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import lapack

import strongmin.linalg as linalg
import strongmin.staircase as staircase
from corpus import exact_instance
from descriptor import descriptor_system
from strongmin.cli import main
from strongmin.fileio import (
    dumps_deterministic,
    parse_quadruple,
    quadruple_to_dict,
    write_quadruple,
)
from strongmin.gallery import (
    example_polynomial_system,
    example_rational_system,
    lambda_and_inverse_system,
    polynomial_chain_system,
)
from strongmin.minreal import is_strongly_minimal
from strongmin.mcmillan import rational_structure
from strongmin.pencil import Pencil, quadruple_from_constants, state_space_quadruple
from strongmin.staircase import _triangular_pair, _triangularizing_blocks
from test_staircase import planted_quadruple

_ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("report_diff", _ROOT / "tools" / "report_diff.py")
report_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_diff)

EPS = float(np.finfo(float).eps)
COEFFS = [(name, coeff) for name in "ABCD" for coeff in ("L0", "L1")]


def coefficients(q):
    return [getattr(getattr(q, name), coeff) for name, coeff in COEFFS]


def cast(q, dtype):
    """``q`` with every coefficient cast to ``dtype``; a cast to real
    requires zero imaginary parts."""
    blocks = coefficients(q)
    if dtype is float:
        assert not any(np.any(M.imag) for M in blocks)
        blocks = [M.real for M in blocks]
    return quadruple_from_constants(*(np.asarray(M, dtype=dtype) for M in blocks))


class TestPencilField:
    @pytest.mark.parametrize(
        "L0, L1, dtype",
        [
            (np.ones((2, 2)), np.eye(2), np.float64),
            (np.ones((2, 2), dtype=int), np.eye(2, dtype=bool), np.float64),
            (np.ones((2, 2), dtype=np.float32), np.eye(2), np.float64),
            (np.ones((2, 2)), np.eye(2, dtype=complex), np.complex128),
            (np.ones((2, 2), dtype=np.complex64), np.eye(2), np.complex128),
            ([[1j]], [[1]], np.complex128),
        ],
    )
    def test_real_and_real_gives_float64_any_complex_complex128(self, L0, L1, dtype):
        P = Pencil(L0, L1)
        assert P.L0.dtype == P.L1.dtype == dtype

    def test_builders_keep_a_real_input_real(self):
        rng = np.random.default_rng(0)
        F, G, H = rng.standard_normal((3, 3)), rng.standard_normal((3, 2)), rng.standard_normal((1, 3))
        q = state_space_quadruple(F, G, H)
        assert all(M.dtype == np.float64 for M in coefficients(q))
        assert q.dtype == np.float64
        assert state_space_quadruple(F, G, H + 0j).dtype == np.complex128

    def test_file_field(self, tmp_path):
        # A block is real when every imaginary part is +0.0; a -0.0 keeps it
        # complex, and a pencil with one complex coefficient is complex.
        rng = np.random.default_rng(1)
        q = state_space_quadruple(rng.standard_normal((3, 3)), rng.standard_normal((3, 2)),
                                  rng.standard_normal((2, 3)))
        doc = quadruple_to_dict(q)
        doc["B1"][0][1] = -0.0
        path = tmp_path / "q.json"
        path.write_text(dumps_deterministic(doc))
        got = parse_quadruple(path)
        assert got.A.L0.dtype == got.C.L1.dtype == got.D.L0.dtype == np.float64
        assert got.B.L0.dtype == got.B.L1.dtype == np.complex128
        assert np.signbit(got.B.L1[0, 0].imag)


def random_pair(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)), rng.standard_normal((n, n))


def no_block_pair(n=6, seed=0):
    """A real pair with only real eigenvalues: its real QZ has no 2 x 2
    block."""
    rng = np.random.default_rng(seed)
    Q1, Q2 = (np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(2))
    S = np.triu(rng.standard_normal((n, n)), 1) + np.diag(np.arange(1.0, n + 1))
    T = np.triu(rng.standard_normal((n, n)), 1) + np.eye(n)
    return Q1 @ S @ Q2, Q1 @ T @ Q2


class TestTriangularPair:
    """The real QZ pair made triangular: upper triangular, with the
    eigenvalues dgges reports, and unitarily equivalent to dgges's pair."""

    CASES = [random_pair(2, 0), random_pair(6, 1), random_pair(72, 2), no_block_pair()]

    @pytest.mark.parametrize("L0, L1", CASES, ids=["n2", "n6", "n72", "no-block"])
    def test_triangular_eigenvalues_and_unitary_equivalence(self, monkeypatch, L0, L1):
        # Every size takes the real QZ here, small ones included.
        monkeypatch.setattr(staircase, "_REAL_QZ_MIN_ROWS", 0)
        n = L0.shape[0]
        S0, T0, _, alphar, alphai, beta, *_, info = lapack.dgges(
            lambda *args: None, L0, L1, jobvsl=0, jobvsr=0)
        assert info == 0
        S, T = _triangular_pair(Pencil(L0, L1))
        assert S.dtype == T.dtype == np.complex128
        assert not np.any(np.tril(S, -1)) and not np.any(np.tril(T, -1))

        expected = (alphar + 1j * alphai) / beta
        got = np.diagonal(S) / np.diagonal(T)
        assert np.all(np.abs(got - expected) <= 1e-13 * np.abs(expected))

        j, q, z = _triangularizing_blocks(S0.astype(complex), T0.astype(complex),
                                          alphar + 1j * alphai, beta)
        Qn, Zn = np.eye(n, dtype=complex), np.eye(n, dtype=complex)
        for U, (v0, v1) in ((Qn, q), (Zn, z)):
            for i, k in enumerate(j):
                U[k:k + 2, k:k + 2] = [[v0[i], -v1[i].conj()], [v1[i], v0[i].conj()]]
        for U in (Qn, Zn):
            np.testing.assert_allclose(U.conj().T @ U, np.eye(n), atol=10 * n * EPS)
        scale = np.hypot(np.linalg.norm(S0), np.linalg.norm(T0))
        residual = np.hypot(np.linalg.norm(Qn.conj().T @ S0 @ Zn - S),
                            np.linalg.norm(Qn.conj().T @ T0 @ Zn - T))
        assert residual <= 100 * n * EPS * scale
        if n == 72:
            assert len(j) > 10
        if L0 is self.CASES[-1][0]:
            assert len(j) == 0


class _Counted:
    """Counts the calls of the complex LAPACK routines reached through the
    dtype dispatch, outside the cluster readings (which work on the complex
    triangular pair by design), and the real ones."""

    def __init__(self, monkeypatch):
        self.complex, self.real, self.paused = [], [], []
        for char, calls in (("D", self.complex), ("d", self.real)):
            for name in ("geqrf", "ormqr", "potrf", "potrs", "gges"):
                fn = linalg._LAPACK[char][name]
                monkeypatch.setitem(linalg._LAPACK[char], name, self._counting(name, fn, calls))
        reading = staircase._cluster_reading

        def paused(*args, **kwargs):
            self.paused.append(True)
            try:
                return reading(*args, **kwargs)
            finally:
                self.paused.pop()

        monkeypatch.setattr(staircase, "_cluster_reading", paused)

    def _counting(self, name, fn, calls):
        def counted(*args, **kwargs):
            if not self.paused:
                calls.append(name)
            return fn(*args, **kwargs)

        return counted


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return {"exit": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_planted_structure_makes_no_complex_factorization(monkeypatch, tmp_path):
    # The field is fixed at the input: a real planted d=96 query takes no
    # complex QR, reflector, Cholesky or QZ call outside the cluster readings.
    path = tmp_path / "planted.json"
    write_quadruple(path, planted_quadruple(100, 96))
    counted = _Counted(monkeypatch)
    assert run_cli(["structure", str(path)])["exit"] == 0
    assert counted.complex == []
    assert {"geqrf", "ormqr", "gges"} <= set(counted.real)


def write_both_fields(tmp_path, label, q):
    """Two files of the real-valued ``q``: one read as real (every
    imaginary part +0.0) and one read as complex (one -0.0 per block)."""
    doc = quadruple_to_dict(q)
    for name in doc:
        if isinstance(doc[name], list):
            for pair in doc[name]:
                assert pair[1] == 0
                pair[1] = 0.0
    real = tmp_path / f"{label}_real.json"
    real.write_text(dumps_deterministic(doc))
    for name in doc:
        if isinstance(doc[name], list) and doc[name]:
            doc[name][0][1] = -0.0
    cplx = tmp_path / f"{label}_complex.json"
    cplx.write_text(dumps_deterministic(doc))
    return str(real), str(cplx)


def equivalence_inputs():
    rng = np.random.default_rng(5)
    inputs = {f"corpus/{s}": exact_instance(s)[0].to_numeric() for s in range(124)}
    e5 = [1.0, -0.5, 0.25, 2.0, 1.0, 1.5]
    inputs.update({
        "gallery/polynomial": example_polynomial_system(e5, [0.5, 1.0]),
        "gallery/rational": example_rational_system(e5, [0.5, 1.0]),
        "gallery/lambda_and_inverse": lambda_and_inverse_system(),
        "gallery/cubic": polynomial_chain_system([rng.standard_normal((2, 2)) for _ in range(4)]),
    })
    for d in (16, 32):
        for inst in (100, 101):
            inputs[f"planted/d{d}_{inst}"] = planted_quadruple(inst, d)
    inputs.update({f"descriptor/{s}": descriptor_system(s)[0] for s in range(10)})
    return inputs


def test_real_and_complex_inputs_give_the_same_structure(tmp_path):
    # report_diff's rules: equal exit codes, warnings and integer fields,
    # points within 1e-8.  The two files differ only in the sign of zeros,
    # so their digests are set equal first.
    problems = []
    for label, q in equivalence_inputs().items():
        q = cast(q, float)
        real, cplx = write_both_fields(tmp_path, label.replace("/", "_"), q)
        assert parse_quadruple(real).dtype == np.float64
        assert parse_quadruple(cplx).dtype == np.complex128
        runs = [run_cli(["structure", path]) for path in (real, cplx)]
        for run in runs:
            if run["stdout"]:
                doc = json.loads(run["stdout"])
                doc["input_digest"] = ""
                run["stdout"] = json.dumps(doc)
        try:
            report_diff.compare_runs(*runs, 1e-8)
        except report_diff.Mismatch as exc:
            problems.append((label, str(exc)))
    assert problems == []


@pytest.mark.parametrize("corpus_seed", [14, 119])
@pytest.mark.parametrize("dtype", [float, complex])
def test_split_double_eigenvalue_reported_by_its_mean(corpus_seed, dtype):
    # Corpus 14 and 119 have double offending eigenvalues that rounding
    # splits by about 1e-8; their mean moves with the rounding only.
    q = cast(exact_instance(corpus_seed)[0].to_numeric(), dtype)
    for seed in range(3):
        offending = [v for v, _ in is_strongly_minimal(q, seed=seed).offending_eigenvalues]
        deflated = [v for rec in rational_structure(q, seed=seed).reduction
                    for v in rec.deflated_eigenvalues]
        for values in (offending, deflated):
            finite = [v for v in values if np.isfinite(v)]
            assert finite
            assert max(min(abs(v - 1), abs(v + 1)) for v in finite) <= 1e-12
