import numpy as np
import pytest

from helpers import row_compress
from strongmin.linalg import (
    DEFAULT_TOL,
    _rank_rule,
    _svd_decision,
    as_matrix,
    col_compress,
    matrix_rank,
)
from strongmin.pencil import Pencil
from strongmin.staircase import _pair_eigenvalues, _triangular_pair

EPS = np.finfo(float).eps


def rank_revealing(M, tol=DEFAULT_TOL):
    """The rank-revealing SVD of the staircases, unfloored: ``(U, s, V,
    rank, threshold)``, without the close call."""
    return _svd_decision(M, tol, 0.0)[:5]


def test_rank_revealing_identity():
    U, s, V, rank, _ = rank_revealing(np.eye(3), tol=1e-12)
    assert rank == 3
    assert np.allclose(s, [1, 1, 1])
    M = U @ np.diag(s) @ V.conj().T
    assert np.allclose(M, np.eye(3), atol=50 * EPS)


def test_rank_revealing_zero():
    _, _, _, rank, _ = rank_revealing(np.zeros((2, 2)))
    assert rank == 0


def test_rank_revealing_threshold_arithmetic():
    # diag(1, 1e-16) at tol 1e-12: threshold is 1e-12 * 2 * 1 > 1e-16.
    _, s, _, rank, threshold = rank_revealing(np.diag([1.0, 1e-16]), tol=1e-12)
    assert rank == 1
    assert threshold == pytest.approx(2e-12)


@pytest.mark.parametrize(
    "sv, rank, close", [(1e-6 / 10, 1, False), (1e-6, 1, True), (10 * 1e-6, 2, True)]
)
def test_rank_rule_close_call_band(sv, rank, close):
    # At the floor 1e-6 as threshold, a singular value at thr/10 is clear
    # of it, one at thr or 10 thr a close call; the rank counts the values
    # above thr either way.
    assert _rank_rule(np.array([1.0, sv]), (2, 2), 1e-12, 1e-6) == (rank, 1e-6, close)


def test_rank_revealing_empty_matrix_errors():
    with pytest.raises(ValueError, match="empty matrix"):
        rank_revealing(np.zeros((0, 3)))


def test_rank_revealing_rejects_nan():
    with pytest.raises(ValueError):
        rank_revealing(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_row_compress_column_vector():
    M = np.array([[0.0], [5.0]])
    U, r = row_compress(M)
    assert r == 1
    UM = U @ M
    assert abs(UM[0, 0]) == pytest.approx(5.0)
    assert abs(UM[1, 0]) < 50 * EPS


def test_row_compress_zero_matrix():
    U, r = row_compress(np.zeros((2, 2)))
    assert r == 0
    assert np.allclose(U.conj().T @ U, np.eye(2), atol=50 * EPS)


def test_row_compress_rank_one():
    M = np.array([[1.0, 0.0], [1.0, 0.0]])
    U, r = row_compress(M)
    assert r == 1
    UM = U @ M
    assert np.linalg.norm(UM[1, :]) < 100 * EPS * np.linalg.norm(M)


def test_col_compress_row_vector():
    M = np.array([[1.0, 1.0]])
    V, r = col_compress(M)
    assert r == 1
    MV = M @ V
    assert abs(MV[0, 0]) == pytest.approx(np.sqrt(2.0))
    assert abs(MV[0, 1]) < 50 * EPS


@pytest.mark.parametrize("compress", [row_compress, col_compress])
def test_compress_floor(compress):
    # Every entry sits below the floor: the block counts as rank 0 however
    # well conditioned it is relative to its own largest singular value.
    M = 1e-10 * np.array([[2.0, 1.0], [1.0, 3.0], [0.5, 1.0]])
    _, r = compress(M, floor=1e-8)
    assert r == 0
    _, r = compress(M, floor=0.0)
    assert r == 2


def test_col_compress_identity_and_zero():
    V, r = col_compress(np.eye(3))
    assert r == 3
    V, r = col_compress(np.zeros((2, 3)))
    assert r == 0


@pytest.mark.parametrize("seed", range(5))
def test_compress_reconstruction_and_unitarity(seed):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    U, r = row_compress(M)
    assert np.linalg.norm(U.conj().T @ U - np.eye(4)) < 100 * EPS
    V, rc = col_compress(M)
    assert np.linalg.norm(V.conj().T @ V - np.eye(6)) < 100 * EPS
    assert r == rc == 4
    # Residual of the compression against the original matrix.
    assert np.linalg.norm(U.conj().T @ (U @ M) - M) < 100 * EPS * np.linalg.norm(M)


def test_eig_pair_diagonal():
    # The eigenvalues of a matrix pair by one QZ, with no regularity check.
    S, T = _triangular_pair(Pencil(np.diag([1.0, 2.0]), np.eye(2)))
    vals = _pair_eigenvalues(S, T, DEFAULT_TOL)
    assert sorted(v.real for v in vals) == pytest.approx([1.0, 2.0])


def test_matrix_rank_empty():
    assert matrix_rank(np.zeros((0, 4))) == 0


def test_as_matrix_copy_false_reads_in_place():
    for dtype in (float, complex):
        M = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=dtype)
        assert as_matrix(M, copy=False) is M
        assert as_matrix(M) is not M
        with pytest.raises(ValueError, match="ndim"):
            as_matrix(np.ones(3, dtype=dtype), copy=False)


@pytest.mark.parametrize(
    "entries, dtype",
    [([[1, 2]], np.float64), ([[True, False]], np.float64),
     (np.ones((1, 2), dtype=np.float32), np.float64), ([[1.0, 2.0]], np.float64),
     ([[1.0, 0j]], np.complex128), (np.ones((1, 2), dtype=np.complex64), np.complex128)],
)
def test_as_matrix_keeps_the_field(entries, dtype):
    # Real data stay real and complex data complex, whatever their values.
    assert as_matrix(entries).dtype == dtype


@pytest.mark.parametrize("rank_fn", [matrix_rank, rank_revealing])
def test_rank_helpers_reject_non_finite(rank_fn):
    with pytest.raises(ValueError, match="non-finite"):
        rank_fn(np.array([[np.inf, 0.0], [0.0, 1.0]], dtype=complex))
