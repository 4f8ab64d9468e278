import numpy as np
import pytest

from strongmin.linalg import (
    col_compress,
    eig_pair,
    matrix_rank,
    rank_revealing,
    row_compress,
)

EPS = np.finfo(float).eps


def test_rank_revealing_identity():
    U, s, V, dec = rank_revealing(np.eye(3), tol=1e-12)
    assert dec.rank == 3
    assert np.allclose(s, [1, 1, 1])
    M = U @ np.diag(s) @ V.conj().T
    assert np.allclose(M, np.eye(3), atol=50 * EPS)


def test_rank_revealing_zero():
    _, _, _, dec = rank_revealing(np.zeros((2, 2)))
    assert dec.rank == 0


def test_rank_revealing_threshold_arithmetic():
    # diag(1, 1e-16) at tol 1e-12: threshold is 1e-12 * 2 * 1 > 1e-16.
    _, s, _, dec = rank_revealing(np.diag([1.0, 1e-16]), tol=1e-12)
    assert dec.rank == 1
    assert dec.tolerance_used == pytest.approx(2e-12)


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
    vals = eig_pair(np.diag([1.0, 2.0]), np.eye(2))
    assert sorted(v.real for v in vals) == pytest.approx([1.0, 2.0])


def test_eig_pair_one_infinite():
    vals = eig_pair(np.eye(2), np.diag([1.0, 0.0]))
    finite = [v for v in vals if np.isfinite(v)]
    infinite = [v for v in vals if np.isinf(v)]
    assert len(finite) == 1 and len(infinite) == 1
    assert finite[0] == pytest.approx(1.0)


def test_eig_pair_nilpotent_leading():
    # lambda*[[0,1],[0,0]] - I is regular with both eigenvalues infinite.
    vals = eig_pair(np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert all(np.isinf(v) for v in vals)


def test_matrix_rank_empty():
    assert matrix_rank(np.zeros((0, 4))) == 0
