"""Matrix helpers of the tests: seeded random unitaries and the row
compression of the reference staircase.

``random_unitary`` draws its Gaussians in a fixed order, so every test that
hides a structure by a random unitary change of basis keeps its random
stream.
"""
import numpy as np

from strongmin.linalg import DEFAULT_TOL, col_compress


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-ish random unitary from the QR factor of a complex Gaussian."""
    if n == 0:
        return np.zeros((0, 0), dtype=complex)
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(Z)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def row_compress(M, tol: float = DEFAULT_TOL, floor: float = 0.0):
    """Unitary U with ``U @ M`` having its first r rows of full row rank,
    ``r`` the numerical rank of ``M``: the adjoint of the column
    compression of ``M^H`` (:func:`~strongmin.linalg.col_compress`)."""
    V, rank = col_compress(np.asarray(M).conj().T, tol, floor)
    return V.conj().T, rank
