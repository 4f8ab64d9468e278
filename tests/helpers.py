"""Matrix helpers of the tests: seeded random unitaries, the row
compression of the reference staircase and the perturbation discs of
triangular pairs by back substitution, one eigenvalue at a time.

``random_unitary`` draws its Gaussians in a fixed order, so every test that
hides a structure by a random unitary change of basis keeps its random
stream.
"""
import numpy as np
from scipy.linalg import lapack

from strongmin.linalg import DEFAULT_TOL, col_compress
from strongmin.staircase import _CLUSTER_SPREAD

_EPS = float(np.finfo(float).eps)


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


def eigen_discs_by_back_substitution(S, T, floor):
    """Reference for :func:`~strongmin.staircase._eigen_discs`: the same
    eigenvalues and capped radii, each eigenvalue's eigenvectors solved
    on its own.

    ``w_i = S_ii / T_ii``.  The right and left eigenvectors ``x``, ``y`` of
    the triangular pencil at ``w_i`` (``x_i = y_i = 1``) come from back
    substitution on ``S - w_i T``, and the first-order radius is
    ``floor (1 + |w_i|) |x| |y| / |y^H T x|``, with ``y^H T x = T_ii``.
    Pivots below ``eps (|S| + |w_i| |T|)`` are raised to it, as LAPACK's
    ``ztgevc`` does.  An eigenvalue with partners (others whose disc and
    its own each hold the other's centre) has its radius cut to
    ``_CLUSTER_SPREAD`` times the distance to its farthest partner, but
    never below ``floor (1 + |w_i|) / |T_ii|``, the radius of an eigenvalue
    with orthogonal neighbours.  A radius that overflowed is infinite
    before the cut.
    """
    k = S.shape[0]
    d = np.diagonal(T)
    w = np.diagonal(S) / d
    nS, nT = np.linalg.norm(S), np.linalg.norm(T)
    base = floor * (1 + np.abs(w)) / np.abs(d)
    radii = base.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(k):
            M = S - w[i] * T
            pivots = np.diagonal(M).copy()
            smin = _EPS * (nS + abs(w[i]) * nT)
            np.fill_diagonal(M, np.where(np.abs(pivots) < smin, smin, pivots))
            xx = yy = 1.0
            if i:
                x = lapack.ztrtrs(M[:i, :i], -M[:i, i : i + 1])[0]
                xx += np.vdot(x, x).real
            if i + 1 < k:
                y = lapack.ztrtrs(
                    M[i + 1 :, i + 1 :], -M[i : i + 1, i + 1 :].conj().T, trans=2
                )[0]
                yy += np.vdot(y, y).real
            radii[i] *= np.sqrt(xx * yy)
    radii[np.isnan(radii)] = np.inf
    dist = np.abs(w[:, None] - w[None, :])
    partners = dist <= np.minimum.outer(radii, radii)
    np.fill_diagonal(partners, False)
    reach = np.where(partners, dist, 0.0).max(axis=1)
    cap = np.where(partners.any(axis=1), np.maximum(_CLUSTER_SPREAD * reach, base), np.inf)
    return w, np.minimum(radii, cap)
