"""Diagonal two-sided scaling of rectangular pencils.

Approach 1 balances the row and column sums of ``M = |A|^2 + |B|^2``
(entrywise) by alternating scalings under separate determinant constraints
on the left and right diagonals; it is cheap but may diverge when ``M`` has
zero entries in an unfortunate pattern.  Approach 2 embeds ``M`` in a
bordered symmetric matrix with strictly positive diagonal blocks and
balances it to a doubly stochastic matrix; the bordered matrix is fully
indecomposable whenever ``M != 0``, so the scaling exists, is unique, and is
bounded.  The balancing is the symmetric Newton iteration of Knight & Ruiz
("A fast algorithm for matrix balancing", IMA J. Numer. Anal. 33, 2013),
kept under the name :func:`sinkhorn_knopp`.  The bordered matrices are
small and dense, so each Newton step is exact: one Cholesky solve of the
Newton system (a minimum-norm least-squares solve when that system is
singular), cut back so that every update factor stays in ``[0.1, 3]``.
The iteration count is the number of Newton steps, and a matrix without
total support, which has no doubly stochastic scaling, stops unconverged.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .linalg import _LAPACK
from .pencil import (
    Pencil,
    default_lambda_scale,
    lambda_scale,
    split_system_pencil,
    system_pencil,
)


class ScalingDivergence(RuntimeError):
    """Approach-1 scalings left the admissible band; use approach 2."""


@dataclass
class _Balanced:
    """The nonnegative matrix a balancing was computed for: ``M`` itself
    (approach 1), or the bordered matrix of :func:`build_M_alpha` when
    ``bordered`` (approach 2)."""

    matrix: np.ndarray
    bordered: bool

    def evaluate(self, dl2, dr2) -> dict:
        """The achieved constants and the residual of the squared scalings
        ``dl2``, ``dr2``, as :class:`ScalingResult` fields.

        The scaled matrix is ``D_left^2 M D_right^2``, or ``D^2 M_alpha
        D^2`` with ``D^2 = diag(dl2, dr2)`` when bordered.  Its mean row
        and column sums are ``gamma_left`` and ``gamma_right``; a bordered
        matrix has one constant, ``gamma``, the mean row sum.  The residual
        is the largest deviation of a row or column sum from its constant,
        relative to that constant.
        """
        if self.bordered:
            d_sq = np.concatenate([dl2, dr2])
            scaled = (d_sq[:, None] * self.matrix) * d_sq[None, :]
            gamma = float(np.mean(scaled.sum(axis=1)))
            residual = _row_col_deviation(scaled, gamma, gamma)
            return dict(gamma_left=None, gamma_right=None, gamma=gamma, residual=residual)
        scaled = (dl2[:, None] * self.matrix) * dr2[None, :]
        gl = float(np.mean(scaled.sum(axis=1)))
        gr = float(np.mean(scaled.sum(axis=0)))
        residual = _row_col_deviation(scaled, gl, gr)
        return dict(gamma_left=gl, gamma_right=gr, gamma=None, residual=residual)


@dataclass
class ScalingResult:
    """Positive diagonal scalings and their convergence record.

    ``d_left`` and ``d_right`` scale the pencil coefficients directly
    (``A~ = D_left A D_right``); the row/column constants refer to the
    squared scalings acting on the nonnegative matrix ``M``.  ``problem``
    records the matrix that was balanced, on which :func:`quantize_pow2`
    evaluates its rounded scalings.
    """

    d_left: np.ndarray
    d_right: np.ndarray
    d_lambda: float
    gamma_left: Optional[float]
    gamma_right: Optional[float]
    gamma: Optional[float]
    iterations: int
    residual: float
    converged: bool
    problem: _Balanced = field(repr=False, default=None)
    objective_history: list = field(repr=False, default_factory=list)


def default_max_iter(m: int, n: int, tol: float) -> int:
    return 10 * (m + n) * math.ceil(-math.log10(tol))


def build_M(A, B) -> np.ndarray:
    """Entrywise squared-magnitude sum ``M_ij = |A_ij|^2 + |B_ij|^2``."""
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    if A.shape != B.shape:
        raise ValueError(f"dimension mismatch: {A.shape} vs {B.shape}")
    return np.abs(A) ** 2 + np.abs(B) ** 2


def build_M_alpha(M, alpha: float, m: int, n: int) -> np.ndarray:
    """Bordered symmetric matrix [[(a/m)^2 ones, M], [M^T, (a/n)^2 ones]]."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    M = np.asarray(M, dtype=float)
    if M.shape != (m, n):
        raise ValueError(f"M has shape {M.shape}, expected {(m, n)}")
    top = np.hstack([np.full((m, m), alpha**2 / m**2), M])
    bot = np.hstack([M.T, np.full((n, n), alpha**2 / n**2)])
    return np.vstack([top, bot])


# Bounds on each Newton update factor: they keep the scaling positive.
_KR_DELTA_LO = 0.1
_KR_DELTA_HI = 3.0
_EPS = float(np.finfo(float).eps)


def sinkhorn_knopp(S, tol: float = 1e-10, max_iter: int = 10000, x0=None):
    """Symmetric balancing toward a doubly stochastic matrix.

    Finds a positive ``x`` such that ``diag(x) S diag(x)`` has all row and
    column sums equal to 1, by the Newton iteration of Knight & Ruiz ("A
    fast algorithm for matrix balancing", IMA J. Numer. Anal. 33, 2013),
    with each Newton system solved exactly.  A step updates ``x <- x * y``,
    the correction ``y - 1`` solving ``(diag(v) + X S X)(y - 1) = 1 - v``
    with ``v = x * (S x)`` and ``X = diag(x)`` by one Cholesky
    factorization; the step is then cut back along the correction so that
    every update factor stays in ``[0.1, 3]``, which keeps ``x`` positive.

    The Newton matrix is symmetric positive semidefinite.  It is singular
    when a connected part of the pattern of ``S`` is bipartite, as in
    ``[[0, 2], [2, 0]]``, where the scaling is not unique; the step then
    takes the minimum-norm least-squares correction.  When part of ``1 - v``
    lies outside the range of that singular matrix, no step can remove it:
    ``S`` lacks total support and has no doubly stochastic scaling.  The
    iteration then stops unconverged with ``x`` finite, as it does once a
    diverging ``x`` makes the Newton matrix singular to rounding.  (A
    pattern with support but not total support, such as
    ``[[1, 1], [1, 0]]``, may still meet ``tol`` with entries of ``x``
    far apart.)

    Returns ``(d_row, d_col, iterations, converged)``: both scalings are
    ``x``, ``iterations`` counts Newton steps, and ``converged`` is True
    when every row and column sum is within ``tol`` of 1.  ``x0`` is the
    positive starting vector (all ones by default); a start that meets
    ``tol`` takes no step.  Raises on a matrix that is not square,
    nonnegative and symmetric, or has a zero row or column.
    """
    S = np.asarray(S, dtype=float)
    k = S.shape[0]
    if S.ndim != 2 or S.shape[1] != k:
        raise ValueError("matrix must be square")
    if np.any(S < 0):
        raise ValueError("matrix must be nonnegative")
    if np.any(S.sum(axis=1) == 0) or np.any(S.sum(axis=0) == 0):
        raise ValueError("zero row/column")
    if not np.array_equal(S, S.T):
        raise ValueError("matrix must be symmetric")
    potrf, potrs = _LAPACK["d"]["potrf"], _LAPACK["d"]["potrs"]
    x = np.ones(k) if x0 is None else np.asarray(x0, float).copy()
    v = x * (S @ x)
    dev = float(np.max(np.abs(1.0 - v)))
    it = 0
    while dev > tol and it < max_iter:
        K = (x[:, None] * S) * x[None, :]
        K.flat[:: k + 1] += v
        r = 1.0 - v
        # K is symmetric: its transpose is the same matrix in the Fortran
        # order LAPACK reads without a reordering copy.
        R, info = potrf(K.T, lower=1, clean=0)
        # A failed factorization, or a pivot at the rounding level of its
        # diagonal entry, means K is singular: take the minimum-norm
        # least-squares correction instead.
        if info == 0 and np.min(R.diagonal() ** 2 / K.diagonal()) > k * _EPS:
            step = potrs(R, r, lower=1)[0]
        else:
            step = np.linalg.lstsq(K, r, rcond=None)[0]
            # Part of r outside the range of K, which no step removes,
            # means S lacks total support.
            if np.linalg.norm(K @ step - r) > _EPS**0.5 * np.linalg.norm(r):
                break
        it += 1
        low, high = float(step.min()), float(step.max())
        t = min(
            1.0,
            (_KR_DELTA_LO - 1.0) / low if low < 0 else 1.0,
            (_KR_DELTA_HI - 1.0) / high if high > 0 else 1.0,
        )
        x = x * (1.0 + t * step)
        v = x * (S @ x)
        dev = float(np.max(np.abs(1.0 - v)))
    return x, x.copy(), it, dev <= tol


def _row_col_deviation(M2, gl, gr):
    """Max relative deviation of the row/column sums from the constants."""
    rows = M2.sum(axis=1)
    cols = M2.sum(axis=0)
    dr = np.max(np.abs(rows - gl)) / max(gl, 1e-300)
    dc = np.max(np.abs(cols - gr)) / max(gr, 1e-300)
    return max(float(dr), float(dc))


def scale_approach1(
    A,
    B,
    c_left: float = 1.0,
    c_right: float = 1.0,
    tol: float = 1e-10,
    max_iter: Optional[int] = None,
) -> ScalingResult:
    """Alternating balancing of ``M = |A|^2 + |B|^2`` under determinant
    constraints ``det(D_left^2) = c_left`` and ``det(D_right^2) = c_right``.

    On convergence the row sums of ``D_left^2 M D_right^2`` all equal
    ``gamma_left`` and the column sums ``gamma_right``, so the scaled pencil
    pair satisfies ``norm([A~ B~], 'fro')^2 = m*gamma_left = n*gamma_right``.
    Each sweep equalizes one side exactly and renormalizes the determinant
    constraint by a scalar, which is coordinate descent on the convex
    log-domain objective; the objective is therefore non-increasing.
    Raises :class:`ScalingDivergence` when a diagonal entry leaves the
    ``1e+-16`` band relative to its starting scale (a sparsity pattern
    without total support).
    """
    if c_left <= 0 or c_right <= 0:
        raise ValueError("determinant constraints must be positive")
    M = build_M(A, B)
    m, n = M.shape
    if np.any(M.sum(axis=1) == 0) or np.any(M.sum(axis=0) == 0):
        raise ValueError("zero row/column in M")
    if max_iter is None:
        max_iter = default_max_iter(m, n, tol)

    # Work with the squared diagonals; project onto the determinant
    # constraints after every sweep.
    dl2 = np.full(m, c_left ** (1.0 / m))
    dr2 = np.full(n, c_right ** (1.0 / n))
    history = [float(dl2 @ M @ dr2)]
    band_lo, band_hi = 1e-16, 1e16
    lo_l, hi_l = band_lo * dl2.min(), band_hi * dl2.max()
    lo_r, hi_r = band_lo * dr2.min(), band_hi * dr2.max()
    converged = False
    it = 0
    gl = gr = float("nan")
    checkpoint = max(1, max_iter // 10)
    spread_checkpoint = 0.0

    def spread():
        return max(
            float(np.log(dl2.max() / dl2.min())),
            float(np.log(dr2.max() / dr2.min())),
        )

    for it in range(1, max_iter + 1):
        rows = (M @ dr2) * dl2
        target = float(np.exp(np.mean(np.log(rows))))
        dl2 *= target / rows
        dl2 *= (c_left / np.prod(dl2)) ** (1.0 / m)

        cols = (M.T @ dl2) * dr2
        target = float(np.exp(np.mean(np.log(cols))))
        dr2 *= target / cols
        dr2 *= (c_right / np.prod(dr2)) ** (1.0 / n)

        if (
            dl2.min() < lo_l
            or dl2.max() > hi_l
            or dr2.min() < lo_r
            or dr2.max() > hi_r
            or not np.all(np.isfinite(dl2))
            or not np.all(np.isfinite(dr2))
        ):
            raise ScalingDivergence(
                "diverging scalings: M lacks total support; use approach 2"
            )
        if it == checkpoint:
            spread_checkpoint = spread()
        M2 = (dl2[:, None] * M) * dr2[None, :]
        history.append(float(M2.sum()))
        gl = float(M2.sum()) / m
        gr = float(M2.sum()) / n
        dev = _row_col_deviation(M2, gl, gr)
        if dev <= tol:
            converged = True
            break
    if not converged and max_iter >= 50 and spread() - spread_checkpoint > 1.0:
        # Sublinear stall with steadily spreading diagonals: the infimum is
        # not attained (M lacks total support) and the scalings drift to
        # 0/infinity at a rate too slow to ever hit the hard band above.
        raise ScalingDivergence(
            "diverging scalings: M lacks total support; use approach 2"
        )

    problem = _Balanced(M, bordered=False)
    return ScalingResult(
        d_left=np.sqrt(dl2),
        d_right=np.sqrt(dr2),
        d_lambda=1.0,
        iterations=it,
        converged=converged,
        problem=problem,
        objective_history=history,
        **problem.evaluate(dl2, dr2),
    )


def scale_approach2(
    A,
    B,
    alpha: float = 1.0,
    c: float = 1.0,
    tol: float = 1e-10,
    max_iter: Optional[int] = None,
    init=None,
) -> ScalingResult:
    """Regularized scaling through symmetric balancing of the bordered matrix.

    The bordered matrix built by :func:`build_M_alpha` is symmetric and
    fully indecomposable whenever ``M != 0``, so the doubly stochastic
    scaling exists, is unique, and is symmetric; :func:`sinkhorn_knopp`
    computes it by Newton steps.  The left/right squared
    diagonals are its first m and last n entries, rescaled so that
    ``det(D_left^2) det(D_right^2) = c``.  The solution minimizes
    ``2(|D_l A D_r|_F^2 + |D_l B D_r|_F^2)
    + alpha^2 (|D_l^2|_F^4 / m^2 + |D_r^2|_F^4 / n^2)`` under that
    constraint.  ``init`` optionally seeds the iteration with a pair of
    positive vectors (squared-diagonal variables) for uniqueness tests.
    ``iterations`` in the result counts Newton steps.
    """
    if alpha <= 0 or c <= 0:
        raise ValueError("alpha and c must be positive")
    M = build_M(A, B)
    m, n = M.shape
    if max_iter is None:
        max_iter = default_max_iter(m, n, tol)
    S = build_M_alpha(M, alpha, m, n)
    x0 = None
    if init is not None:
        left0, right0 = init
        x0 = np.concatenate([np.asarray(left0, float), np.asarray(right0, float)])
        if np.any(x0 <= 0):
            raise ValueError("initial scalings must be positive")
    d_sq, _, it, converged = sinkhorn_knopp(S, tol=tol, max_iter=max_iter, x0=x0)
    k_det = float(np.prod(d_sq))
    d_sq = d_sq * (c / k_det) ** (1.0 / (m + n))
    problem = _Balanced(S, bordered=True)
    return ScalingResult(
        d_left=np.sqrt(d_sq[:m]),
        d_right=np.sqrt(d_sq[m:]),
        d_lambda=1.0,
        iterations=it,
        converged=converged,
        problem=problem,
        **problem.evaluate(d_sq[:m], d_sq[m:]),
    )


def _pow2(x):
    """The power of 2 nearest to each entry of ``x`` (positive) on a log
    scale, ties to the even exponent; a scalar for a scalar."""
    return np.ldexp(1.0, np.rint(np.log2(x)).astype(int))


def quantize_pow2(result: ScalingResult) -> ScalingResult:
    """Round every scaling entry (and d_lambda) to the nearest power of 2.

    Powers of 2 rescale floating-point data without rounding error; each
    entry moves by a factor in [1/sqrt(2), sqrt(2)].  The residual and the
    achieved constants are re-evaluated on the quantized scalings.
    """
    d_left, d_right = _pow2(result.d_left), _pow2(result.d_right)
    if result.problem is None:
        fields = dict(gamma_left=None, gamma_right=None, gamma=None, residual=math.nan)
    else:
        fields = result.problem.evaluate(d_left**2, d_right**2)
    return replace(
        result,
        d_left=d_left,
        d_right=d_right,
        d_lambda=float(_pow2(result.d_lambda)),
        objective_history=list(result.objective_history),
        **fields,
    )


def apply_scaling(P: Pencil, result: ScalingResult) -> Pencil:
    """Scale both pencil coefficients two-sidedly by the result's diagonals."""
    m, n = P.shape
    dl = np.asarray(result.d_left, dtype=float)
    dr = np.asarray(result.d_right, dtype=float)
    if dl.shape != (m,) or dr.shape != (n,):
        raise ValueError("dimension mismatch between pencil and scalings")
    return Pencil(
        (dl[:, None] * P.L0) * dr[None, :],
        (dl[:, None] * P.L1) * dr[None, :],
    )


def scaled_quadruple(
    q,
    approach: int = 2,
    alpha: float = 1e-2,
    pow2: bool = True,
    use_lambda_scale: bool = False,
    max_iter: Optional[int] = 20000,
):
    """Balance a system quadruple through its system pencil.

    The system pencil is balanced two-sidedly (by default with power-of-2
    diagonals, which perturbs nothing in floating point) and sliced back
    into a quadruple.  Returns ``(q_scaled, d_lambda, Dm, Dn)``: the scaled
    transfer function satisfies ``R_s(lambda) = Dm R(d_lambda*lambda) Dn``
    with positive diagonal ``Dm`` (m x m) and ``Dn`` (n x n), so pencil
    eigenvalue locations are divided by ``d_lambda`` and structure is
    otherwise unchanged.

    The defaults differ from :func:`balance_pencil`: a small ``alpha`` puts
    the weight on equalization, and the variable scaling is off because its
    norm-ratio heuristic is easily hijacked by a few huge polynomial
    coefficients, crushing the structural identity entries of a system
    pencil below the noise floor of the rest.  A balancing that stops
    unconverged issues the ``RuntimeWarning`` of :func:`balance_pencil`.
    """
    S = system_pencil(q)
    scaled, result = balance_pencil(
        S, approach=approach, alpha=alpha, pow2=pow2,
        use_lambda_scale=use_lambda_scale, max_iter=max_iter,
    )
    d = q.d
    Dm = np.diag(result.d_left[d:])
    Dn = np.diag(result.d_right[d:])
    return split_system_pencil(scaled, d), result.d_lambda, Dm, Dn


def balance_pencil(
    P: Pencil,
    approach: int = 2,
    alpha: float = 1.0,
    c: float = 1.0,
    c_left: float = 1.0,
    c_right: float = 1.0,
    tol: float = 1e-10,
    max_iter: Optional[int] = None,
    use_lambda_scale: bool = True,
    pow2: bool = False,
):
    """Full balancing pipeline for a pencil.

    First applies the power-of-2 variable scaling equalizing the coefficient
    norms, then the requested diagonal scaling of the coefficient pair, and
    finally the row/column post-normalization.  Returns
    ``(scaled_pencil, result)``.  Issues a ``RuntimeWarning`` with the
    iteration count and the residual when the balancing stops unconverged.
    """
    d_lam = default_lambda_scale(P) if use_lambda_scale else 1.0
    P1 = lambda_scale(P, d_lam)
    if approach == 1:
        result = scale_approach1(P1.L1, P1.L0, c_left, c_right, tol, max_iter)
    elif approach == 2:
        result = scale_approach2(P1.L1, P1.L0, alpha, c, tol, max_iter)
    else:
        raise ValueError("approach must be 1 or 2")
    if not result.converged:
        warnings.warn(
            f"approach-{approach} balancing stopped unconverged after "
            f"{result.iterations} iterations, residual {result.residual:.2e}",
            RuntimeWarning,
            stacklevel=2,
        )
    result.d_lambda = d_lam
    if pow2:
        result = quantize_pow2(result)
        return apply_scaling(P1, result), result
    # Post-normalization: both diagonals are divided by the fourth root of
    # the largest row or column sum of D_left^2 M D_right^2, M the matrix the
    # balancing built, so that every row and column norm is at most 1.
    m = P.rows
    M = result.problem.matrix[:m, m:] if result.problem.bordered else result.problem.matrix
    dl, dr = result.d_left, result.d_right
    M2 = ((dl**2)[:, None] * M) * (dr**2)[None, :]
    t = max(float(M2.sum(axis=1).max()), float(M2.sum(axis=0).max())) ** 0.25
    if t > 0:
        dl, dr = dl / t, dr / t
    return apply_scaling(P1, replace(result, d_left=dl, d_right=dr)), result
