"""Dense real and complex matrix primitives with explicit rank tolerances.

Every matrix keeps the field of its data: float64 when its entries are
real (boolean, integer or float), complex128 otherwise, decided from the
dtype alone (:func:`_field`), never by scanning values.  LAPACK routines
are picked by that dtype (:func:`_lapack`), so real data are factored by
the real, orthogonal routines and complex data by the complex, unitary
ones.

Every rank decision made by this package flows through the helpers in this
module, and all of them apply the one rule in ``_rank_rule``: a singular
value counts toward the rank when it exceeds

    max(tol * max(m, n) * sigma_max, floor),

and the decision is a close call when a singular value lies within a
factor 10 of that threshold.

The default relative tolerance is ``DEFAULT_TOL = 1e-12`` and every public
operation accepts an override; ``floor`` (default 0) lets the staircases
floor sub-block thresholds at the scale of the whole pencil.
"""
from __future__ import annotations

import numpy as np
from scipy.linalg import lapack

DEFAULT_TOL = 1e-12

_REAL, _COMPLEX = np.dtype(np.float64), np.dtype(np.complex128)

# The field of each dtype kind: boolean, integer and float data are real;
# complex data, and anything else numpy can hold, are complex.
_FIELDS = {"b": _REAL, "i": _REAL, "u": _REAL, "f": _REAL, "c": _COMPLEX}


def _field(*arrays) -> np.dtype:
    """float64 when every argument is real, else complex128, from
    ``np.result_type`` of the arguments: no entry is read."""
    return _FIELDS.get(np.result_type(*arrays).kind, _COMPLEX)


# LAPACK routines by the dtype char of their operands, under their real
# names.  ``adjoint`` is the ``trans`` letter of ``ormqr`` that applies the
# transposed (real) or conjugate transposed (complex) factor.
_LAPACK = {
    "d": {
        "geqrf": lapack.dgeqrf, "ormqr": lapack.dormqr, "adjoint": "T",
        "potrf": lapack.dpotrf, "potrs": lapack.dpotrs, "gges": lapack.dgges,
    },
    "D": {
        "geqrf": lapack.zgeqrf, "ormqr": lapack.zunmqr, "adjoint": "C",
        "potrf": lapack.zpotrf, "potrs": lapack.zpotrs, "gges": lapack.zgges,
    },
}


def _lapack(name: str, A: np.ndarray):
    """The LAPACK routine ``name`` (its real spelling) for the field of the
    float64 or complex128 array ``A``."""
    return _LAPACK[A.dtype.char][name]


def as_matrix(M, copy: bool = True, dtype=None) -> np.ndarray:
    """Coerce ``M`` to a 2-D ndarray of its field (:func:`_field`), or of
    ``dtype`` when given, rejecting non-finite entries.

    With ``copy=False`` an input already of that dtype is returned as is,
    for callers that only read it.
    """
    A = np.asarray(M)
    A = A.astype(dtype or _field(A), copy=copy)
    if A.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={A.ndim}")
    if A.size and not np.all(np.isfinite(A)):
        raise ValueError("matrix contains non-finite entries")
    return A


def _rank_rule(s: np.ndarray, shape, tol: float, floor: float = 0.0):
    """The package rank rule: ``(rank, threshold, close)`` from the
    singular values ``s`` (largest first) of a nonempty matrix of the given
    shape.  ``close`` is whether a singular value lies within a factor 10
    of the threshold, above or below: a tenfold change of tolerance would
    then change the rank decision, a close call."""
    thr = max(tol * max(shape) * float(s[0]), floor)
    close = bool(np.any((s > thr / 10.0) & (s <= 10.0 * thr)))
    return int(np.count_nonzero(s > thr)), thr, close


def _svd_decision(M, tol: float, floor: float):
    """Rank-revealing full SVD of a nonempty matrix: ``(U, s, V, rank,
    threshold, close)`` with ``M = U diag(s) V^H`` and the rank, threshold
    and close call of :func:`_rank_rule`."""
    A = as_matrix(M, copy=False)
    if A.size == 0:
        raise ValueError("empty matrix")
    U, s, Vh = np.linalg.svd(A)
    return U, s, Vh.conj().T, *_rank_rule(s, A.shape, tol, floor)


def matrix_rank(M, tol: float = DEFAULT_TOL, floor: float = 0.0) -> int:
    """Numerical rank with the package-wide threshold; 0 for empty input.

    ``floor`` is an absolute lower bound on the threshold for sub-blocks of
    a larger problem whose scale must prevail.
    """
    A = as_matrix(M, copy=False)
    if A.size == 0:
        return 0
    s = np.linalg.svd(A, compute_uv=False)
    return _rank_rule(s, A.shape, tol, floor)[0]


def col_compress(M, tol: float = DEFAULT_TOL, floor: float = 0.0):
    """Unitary V with ``M @ V = [M' | 0]``, ``M'`` of full column rank r.

    ``r`` is the numerical rank of ``M``, with the threshold floored at
    ``floor`` as in :func:`matrix_rank`.
    """
    _, _, V, rank, *_ = _svd_decision(M, tol, floor)
    return V, rank
