"""Dense complex-matrix primitives with explicit rank tolerances.

Every rank decision made by this package flows through the helpers in this
module, and all of them apply the one rule in ``_rank_rule``: a singular
value counts toward the rank when it exceeds

    max(tol * max(m, n) * sigma_max, floor).

The default relative tolerance is ``DEFAULT_TOL = 1e-12`` and every public
operation accepts an override; ``floor`` (default 0) lets the staircases
floor sub-block thresholds at the scale of the whole pencil.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DEFAULT_TOL = 1e-12


def as_complex_matrix(M) -> np.ndarray:
    """Coerce ``M`` to a 2-D complex ndarray, rejecting non-finite entries."""
    A = np.array(M, dtype=complex)
    if A.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={A.ndim}")
    if A.size and not np.all(np.isfinite(A)):
        raise ValueError("matrix contains non-finite entries")
    return A


@dataclass(eq=False)
class RankDecision:
    """Outcome of a numerical rank determination.

    ``rank`` is the number of singular values strictly greater than
    ``tolerance_used`` (the absolute threshold actually applied).
    """

    rank: int
    tolerance_used: float
    singular_values: np.ndarray = field(repr=False)


def _rank_rule(s: np.ndarray, shape, tol: float, floor: float = 0.0):
    """The package rank rule: ``(rank, threshold)`` from the singular
    values ``s`` (largest first) of a nonempty matrix of the given shape."""
    thr = max(tol * max(shape) * float(s[0]), floor)
    return int(np.count_nonzero(s > thr)), thr


def _svd_decision(M, tol: float, floor: float):
    """Full SVD of a nonempty matrix with its rank decision."""
    A = as_complex_matrix(M)
    if A.size == 0:
        raise ValueError("empty matrix")
    U, s, Vh = np.linalg.svd(A)
    rank, thr = _rank_rule(s, A.shape, tol, floor)
    return U, s, Vh.conj().T, RankDecision(rank, thr, s)


def rank_revealing(M, tol: float = DEFAULT_TOL):
    """Rank-revealing SVD of a nonempty complex matrix.

    Returns ``(left_unitary, singular_values, right_unitary, decision)``
    with ``M = left_unitary @ diag(s) @ right_unitary.conj().T`` and the
    rank decided by the ``tol * max(m, n) * sigma_max`` threshold.
    """
    return _svd_decision(M, tol, 0.0)


def matrix_rank(M, tol: float = DEFAULT_TOL, floor: float = 0.0) -> int:
    """Numerical rank with the package-wide threshold; 0 for empty input.

    ``floor`` is an absolute lower bound on the threshold for sub-blocks of
    a larger problem whose scale must prevail.
    """
    A = as_complex_matrix(M)
    if A.size == 0:
        return 0
    s = np.linalg.svd(A, compute_uv=False)
    return _rank_rule(s, A.shape, tol, floor)[0]


def rank_with_gap(M, tol: float = DEFAULT_TOL, floor: float = 0.0):
    """Rank plus a flag marking an ambiguous decision.

    ``floor`` is an absolute lower bound on the threshold, used when the
    matrix is a sub-block of a larger problem whose scale must prevail.
    The decision is flagged when the singular values straddling the
    threshold are within a factor 10 of each other, i.e. the rank would
    flip under a modest change of ``tol``.
    """
    A = as_complex_matrix(M)
    if A.size == 0:
        return 0, False
    s = np.linalg.svd(A, compute_uv=False)
    rank, _ = _rank_rule(s, A.shape, tol, floor)
    ambiguous = False
    if 0 < rank < s.size:
        above, below = float(s[rank - 1]), float(s[rank])
        if below > 0 and above / below < 10.0:
            ambiguous = True
    return rank, ambiguous


def row_compress(M, tol: float = DEFAULT_TOL, floor: float = 0.0):
    """Unitary U with ``U @ M`` having its first r rows of full row rank.

    The remaining rows have norm below the rank threshold; ``r`` is the
    numerical rank of ``M``, with the threshold floored at ``floor`` as in
    :func:`matrix_rank`.
    """
    U, _, _, dec = _svd_decision(M, tol, floor)
    return U.conj().T, dec.rank


def col_compress(M, tol: float = DEFAULT_TOL, floor: float = 0.0):
    """Unitary V with ``M @ V = [M' | 0]``, ``M'`` of full column rank r.

    ``r`` is the numerical rank of ``M``, with the threshold floored at
    ``floor`` as in :func:`matrix_rank`.
    """
    _, _, V, dec = _svd_decision(M, tol, floor)
    return V, dec.rank


def eig_pair(L0, L1, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Eigenvalues of the regular pencil ``lambda*L1 - L0``.

    Delegates to the QZ-based solver; pairs with ``|beta| <= tol*(|alpha| +
    |beta|)`` are classified as infinite and reported as ``inf + 0j``.
    Regularity is the caller's responsibility.
    """
    import scipy.linalg

    A0 = as_complex_matrix(L0)
    A1 = as_complex_matrix(L1)
    n = A0.shape[0]
    if n == 0:
        return np.zeros(0, dtype=complex)
    alpha, beta = scipy.linalg.eig(A0, A1, right=False, homogeneous_eigvals=True)
    out = np.empty(n, dtype=complex)
    for i, (a, b) in enumerate(zip(alpha, beta)):
        if abs(b) <= tol * (abs(a) + abs(b)):
            out[i] = complex(np.inf, 0.0)
        else:
            out[i] = a / b
    return out


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-ish random unitary from the QR factor of a complex Gaussian."""
    if n == 0:
        return np.zeros((0, 0), dtype=complex)
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(Z)
    return Q * (np.diag(R) / np.abs(np.diag(R)))
