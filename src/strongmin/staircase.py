"""Staircase decompositions and Kronecker structure of matrix pencils.

Two services are provided.

``separate_regular_right`` splits a pencil of full row normal rank into a
regular part carrying every (finite and infinite) eigenvalue and a trailing
part that has full row rank for all lambda including infinity.  The split is
computed with unitary transformations only: the pencil is first rotated so
that its leading coefficient has full row rank (no eigenvalues at infinity
in the rotated variable), after which a single staircase loop of alternating
column/row compressions deflates the regular part.  The rotation's margin
certifies, once, that every window of the leading coefficient keeps full
row rank (Cauchy interlacing, with a rounding pad), so each window's kernel
comes from a Householder QR rather than an SVD.  ``split_infinite`` runs
the same loop, unrotated and with SVD rank decisions, to deflate the
infinite part of a regular pencil; its kernel widths are the Weyr
characteristic at infinity, from which it also reads the block sizes at
infinity.  Either way each step's column and row transforms are applied as
the few Householder reflectors of a kernel-width basis, never as dense
unitaries.

``kronecker_structure`` reports the complete Kronecker data of an arbitrary
pencil: finite eigenvalues with partial multiplicities, infinite block
sizes, and left/right minimal indices.  Partial multiplicities at a point
are read off from the nullity increments of the staircase chain matrices at
that point: the first two from the singular values and kernels of the pencil
at the point (its kernels, and the kernel-width matrix that block
elimination of the second chain matrix leaves), deeper ones from the chain
matrices themselves.  A simple point, square with at least
``_SIMPLE_POINT_MIN_ROWS`` rows and a kernel of width one, takes its
singular values from an SVD without vectors and its kernel pair from one LU
and a step of inverse iteration, kept only when a residual bound certifies
it as accurate as LAPACK's own singular vectors; every other point takes
one full SVD.
Minimal indices are read off the block sizes of the same staircase loop,
run on the pencil for the right ones and on its transpose for the left
ones.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack

from .linalg import (
    DEFAULT_TOL,
    _gap_rule,
    _rank_rule,
    col_compress,
    matrix_rank,
    rank_with_gap,
    random_unitary,
)
from .pencil import Pencil, mobius_rotate, choose_rotation, normal_rank

_EPS = float(np.finfo(float).eps)


class StaircaseError(RuntimeError):
    """Rank decisions inside a staircase reduction were inconsistent."""


@dataclass
class StaircaseForm:
    """Unitary block decomposition U P(lambda) W^H = [[X, 0], [Y, S]].

    ``X`` is ``d_reg x d_reg`` regular and carries the eigenvalue multiset of
    the input; ``S`` has full row rank for every lambda including infinity.
    ``block_sizes`` records the staircase steps as (columns, rows) peeled.
    """

    U: np.ndarray
    W: np.ndarray
    transformed: Pencil
    d_reg: int
    block_sizes: list = field(default_factory=list)

    @property
    def regular_part(self) -> Pencil:
        r = self.d_reg
        return Pencil(self.transformed.L0[:r, :r], self.transformed.L1[:r, :r])

    def right_minimal_indices(self) -> tuple:
        """Right minimal indices of the input, from the staircase block data."""
        return _right_minimal_indices(self.block_sizes)


def _right_minimal_indices(blocks) -> tuple:
    """Step k of a staircase ends ``nu - s_rank`` blocks ``L_{k-1}``."""
    eps = []
    for k, (nu, s) in enumerate(blocks, start=1):
        eps.extend([k - 1] * (nu - s))
    return tuple(sorted(eps))


def _svd_kernel(M, tol, floor):
    """Kernel basis of ``M`` and its rank, from a full SVD at the package rule."""
    V, rank = col_compress(M, tol, floor)
    return V[:, rank:], rank


def _qr_kernel(M, tol, floor):
    """Kernel basis of ``M``, certified to have full row rank, and that rank.

    The trailing ``n - m`` columns of the unitary factor of a Householder QR
    of ``M^H`` (n x m) span the kernel of ``M``; they are formed by applying
    the QR's reflectors to ``[0; I]``.  No rank is decided here.
    """
    m, n = M.shape
    qr, tau, _, info = lapack.zgeqrf(M.conj().T)
    E = np.zeros((n, n - m), dtype=complex)
    E[m:] = np.eye(n - m)
    K, _, info2 = lapack.zunmqr("L", "N", qr, tau, E, max(1, n - m))
    if info or info2:
        raise StaircaseError(f"LAPACK QR failed (info {info}, {info2})")
    return K, m


def _trailing_reflectors(K):
    """Householder reflectors of a unitary ``V`` whose trailing columns span
    the orthonormal columns of ``K`` (n x k).

    ``V = J Q J``, ``J`` the exchange matrix and ``Q`` the unitary factor of
    a QR of the row-reversed ``K``: its k reflectors are returned in LAPACK
    form for :func:`_right_apply` and :func:`_left_apply_adjoint`.
    """
    qr, tau, _, info = lapack.zgeqrf(K[::-1])
    if info:
        raise StaircaseError(f"LAPACK QR failed (info {info})")
    return qr, tau


def _right_apply(X, reflectors):
    """``X <- X V`` in place, ``V`` from :func:`_trailing_reflectors`."""
    qr, tau = reflectors
    XV, _, info = lapack.zunmqr("R", "N", qr, tau, X[:, ::-1], max(1, X.shape[0]))
    if info:
        raise StaircaseError(f"LAPACK reflector update failed (info {info})")
    X[:, ::-1] = XV


def _left_apply_adjoint(X, reflectors):
    """``X <- V^H X`` in place, ``V`` from :func:`_trailing_reflectors`."""
    qr, tau = reflectors
    VX, _, info = lapack.zunmqr("L", "C", qr, tau, X[::-1], max(1, X.shape[1]))
    if info:
        raise StaircaseError(f"LAPACK reflector update failed (info {info})")
    X[::-1] = VX


def _staircase_floor(P: Pencil, tol: float) -> float:
    """Threshold floor of every rank decision in a staircase of ``P``."""
    return tol * max(P.shape) * P.coefficient_scale()


def _staircase(P: Pencil, tol: float, check, kernel=_svd_kernel):
    """The staircase loop shared by both deflations.

    Each step compresses the columns of the window's ``L1``, then the rows
    of ``L0`` on the kernel columns, moving those rows to the bottom; the
    window shrinks to what is left.  Columns left without rows form a last
    step ``(nw, 0)`` of ``L_0`` blocks.  Thresholds are floored at the scale
    of the whole pencil.  ``check(mw, rB, nu, s_rank)`` (window rows, rank
    of ``L1``, kernel width, rank of ``L0`` on the kernel) raises
    :class:`StaircaseError` on a step the caller's problem rules out.

    ``kernel(L1 window, tol, floor)`` returns a kernel basis of the window
    and its rank: :func:`_svd_kernel` decides the rank by the package rule;
    :func:`_qr_kernel` takes full row rank as given, for windows certified
    by :func:`separate_regular_right`.  The row decision on the kernel
    columns is a thin SVD of that ``mw x nu`` block at the package rule.
    Both transforms are applied as the Householder reflectors of a
    kernel-width (or range-width) basis (:func:`_trailing_reflectors`), so
    a step forms no ``nw x nw`` or ``mw x mw`` unitary and costs
    ``O(N^2)`` beyond its kernel.
    Returns ``(U, W, U P W^H, blocks, mw, nw)``, ``blocks`` holding the
    ``(nu, s_rank)`` of each step and ``(mw, nw)`` the final window.
    """
    m, n = P.shape
    A = P.L0.copy()
    B = P.L1.copy()
    floor = _staircase_floor(P, tol)
    U_acc = np.eye(m, dtype=complex)
    Wh_acc = np.eye(n, dtype=complex)
    blocks = []
    mw, nw = m, n
    while nw > 0:
        if mw == 0:  # columns left without rows
            blocks.append((nw, 0))
            nw = 0
            break
        K, rB = kernel(B[:mw, :nw], tol, floor)
        nu = nw - rB
        if nu == 0:
            break
        cols = _trailing_reflectors(K)
        for X in (A, B, Wh_acc):
            _right_apply(X[:, :nw], cols)
        Ak = A[:mw, rB:nw]
        Us, sv, _ = np.linalg.svd(Ak, full_matrices=False)
        s_rank = _rank_rule(sv, Ak.shape, tol, floor)[0]
        check(mw, rB, nu, s_rank)
        if s_rank:
            rows = _trailing_reflectors(Us[:, :s_rank])
            for X in (A, B, U_acc):
                _left_apply_adjoint(X[:mw], rows)
        blocks.append((nu, s_rank))
        mw -= s_rank
        nw = rB
    return U_acc, Wh_acc.conj().T, Pencil(A, B), blocks, mw, nw


# Multiple of ``m * max(m, n) * eps * |L1r|_F`` by which the rounding of a
# staircase can lower a window's smallest singular value below the margin.
_CERTIFICATE_PAD = 100.0


def separate_regular_right(
    P: Pencil, tol: float = DEFAULT_TOL, seed: int = 0
) -> StaircaseForm:
    """Deflate the regular part of a pencil with full row normal rank.

    Returns a :class:`StaircaseForm`; the transformed pencil is expressed in
    the original variable (the internal rotation is undone).  Raises
    :class:`StaircaseError` when the row normal rank test fails and
    propagates a rotation failure.

    The rotated leading coefficient ``L1r`` (m x n) has full row rank, and
    every staircase window must keep it.  That is decided once, not per
    window: each window of ``L1`` is, up to rounding, a row subset of the
    unitarily transformed ``L1r`` with kernel columns removed, so by Cauchy
    interlacing and Weyl its smallest singular value is at least
    ``margin - pad``.  ``margin`` is ``sigma_m(L1r)`` as measured by
    :func:`choose_rotation`; ``pad`` is ``_CERTIFICATE_PAD * m * max(m, n)
    * eps * |L1r|_F``, covering the backward error of up to m steps of
    Householder updates and the kernel residual each leaves.  Every
    window's threshold is the floor ``tol * max(m, n) * scale``: its
    relative term ``tol * max(mw, nw) * sigma_1`` cannot exceed it, since
    ``scale >= |L1r|_F``.  So ``margin - pad > floor`` certifies full row
    rank in every window, whose kernel then comes from a QR
    (:func:`_qr_kernel`).  When the certificate fails, each window takes
    the SVD rank decision, and a window that lost full row rank raises.
    """
    if normal_rank(P, tol, seed) < P.rows:
        raise StaircaseError("normal rank deficient rows")

    def full_row_rank(mw, rB, nu, s_rank):
        # The rotation gave the leading coefficient full row rank, and every
        # window must keep it.
        if rB < mw:
            raise StaircaseError(
                "rank decisions inconsistent: window leading coefficient "
                f"lost full row rank ({rB} < {mw})"
            )

    rot = choose_rotation(P, seed=seed, tol=tol)
    R = mobius_rotate(P, rot)
    m, n = R.shape
    pad = _CERTIFICATE_PAD * m * max(m, n) * _EPS * np.linalg.norm(R.L1)
    certified = rot.margin - pad > _staircase_floor(R, tol)
    kernel = _qr_kernel if certified else _svd_kernel
    U, W, T, blocks, mw, nw = _staircase(R, tol, full_row_rank, kernel)
    if mw != nw:
        raise StaircaseError("inconsistent deflation count")
    return StaircaseForm(U, W, mobius_rotate(T, rot.inverse()), mw, blocks)


def split_infinite(P: Pencil, tol: float = DEFAULT_TOL):
    """Unitary deflation of the infinite part of a square regular pencil.

    Returns ``(U, W, transformed, n_inf, inf_blocks)`` with
    ``U P(lambda) W^H`` block lower triangular: the leading block (size
    ``n - n_inf``) has an invertible leading coefficient and carries the
    finite eigenvalues; the trailing block carries the structure at
    infinity.  Deflating first and applying QZ to the finite block only
    avoids the noise cloud that a defective block at infinity spreads over
    the whole spectrum.  The kernel widths of the staircase steps are the
    Weyr characteristic at infinity; ``inf_blocks`` is its conjugate
    partition, the Kronecker block sizes at infinity (descending, summing
    to ``n_inf``).  A step that is not square, or widths that increase,
    raise :class:`StaircaseError`.
    """
    n = P.rows
    if P.cols != n:
        raise StaircaseError("split_infinite expects a square pencil")

    def regular(mw, rB, nu, s_rank):
        # A regular pencil keeps every step square: the constant term has
        # full column rank on the leading-coefficient kernel.
        if s_rank != nu:
            raise StaircaseError(
                "pencil is singular: constant term rank-deficient on the "
                "leading-coefficient kernel"
            )

    U, W, transformed, blocks, _, nw = _staircase(P, tol, regular)
    weyr = [nu for nu, _ in blocks]
    if any(a < b for a, b in zip(weyr, weyr[1:])):
        raise StaircaseError(f"Weyr characteristic at infinity increases: {weyr}")
    return U, W, transformed, n - nw, _conjugate_partition(weyr)


# ---------------------------------------------------------------------------
# Kronecker structure
# ---------------------------------------------------------------------------


@dataclass
class KroneckerReport:
    """Complete Kronecker data of a pencil.

    ``finite_eigen`` maps each finite eigenvalue to its partition of partial
    multiplicities (sorted descending); ``infinite_blocks`` is the multiset
    of Kronecker block sizes at infinity (k >= 1); the minimal index tuples
    are sorted ascending.  ``ambiguous`` is set when some rank decision sat
    within a factor 10 of its threshold or the eigenvalue count could not be
    reconciled at the default clustering radius.
    """

    normal_rank: int
    finite_eigen: dict
    infinite_blocks: tuple
    right_minimal: tuple
    left_minimal: tuple
    ambiguous: bool = False

    def finite_count(self) -> int:
        return sum(sum(p) for p in self.finite_eigen.values())

    def eigenvalue_total(self) -> int:
        """Finite multiplicities plus infinite block sizes."""
        return self.finite_count() + sum(self.infinite_blocks)

    def dimension_identity(self, rows: int, cols: int) -> bool:
        return (
            rows == self.normal_rank + len(self.left_minimal)
            and cols == self.normal_rank + len(self.right_minimal)
            and self.eigenvalue_total()
            == self.normal_rank - sum(self.right_minimal) - sum(self.left_minimal)
        )


def infinity_mcmillan_indices(report: KroneckerReport) -> tuple:
    """Strictly positive zero indices at infinity, in the McMillan sense.

    A Kronecker block of size k at infinity contributes a zero of order
    k - 1; blocks of size 1 contribute nothing.
    """
    return tuple(sorted(k - 1 for k in report.infinite_blocks if k >= 2))


def _chain_floor(Ac, k, tol, norms):
    """Rank-threshold floor of the k-stage chain matrix at a point.

    The floor is the joint coefficient scale, from ``norms``, the Frobenius
    norms of ``Ac`` and ``Bc``: at an eigenvalue of full multiplicity
    ``Ac`` vanishes entirely and a purely relative threshold would see a
    full-rank noise matrix.  ``Bc`` is the same at every point, so callers
    take its norm once, and ``Ac``'s once per point.
    """
    scale = float(np.hypot(*norms))
    return tol * k * max(Ac.shape) * scale


def _chain_nullity(Ac, Bc, k, tol):
    """Nullity of the k-stage staircase chain matrix at a point.

    The chain matrix stacks ``Ac`` on the block diagonal and ``Bc`` on the
    first block subdiagonal; its kernel holds the length-k Jordan chains at
    the point together with k degrees of freedom per right singular block.
    Factored for k >= 3, and for k = 2 where :func:`_second_chain_nullity`
    cannot decide from the kernels alone.
    """
    m, n = Ac.shape
    T = np.zeros((k * m, k * n), dtype=complex)
    for j in range(k):
        T[j * m : (j + 1) * m, j * n : (j + 1) * n] = Ac
        if j + 1 < k:
            T[(j + 1) * m : (j + 2) * m, j * n : (j + 1) * n] = Bc
    norms = (np.linalg.norm(Ac), np.linalg.norm(Bc))
    rank, amb = rank_with_gap(T, tol, floor=_chain_floor(Ac, k, tol, norms))
    return k * n - rank, amb


# Rows from which a square point of kernel width at most one takes its
# kernel pair from an LU of the pencil at the point and only the singular
# values from an SVD.  Below it the LU route's fixed cost loses to the full
# SVD.  Measured per point at simple eigenvalues of random pencils (2-vCPU
# Xeon, one BLAS thread): 88 against 51 us at N = 8, 174 against 143 us at
# N = 20, 191 against 200 us at N = 24, 247 against 330 us at N = 32 and
# 1.16 against 2.05 ms at N = 74.
_SIMPLE_POINT_MIN_ROWS = 24


def _point_kernels(Ac, tol, floor):
    """Singular values of ``Ac`` and the kernels it can have up to ``tol``.

    Returns ``(s, Y, X)``: every singular value of ``Ac``, and orthonormal
    bases of the left and right kernels at the k = 1 chain rank, whose
    threshold is floored at ``floor`` (:func:`_chain_floor` at ``tol``).
    The rank rule is monotone in the tolerance, so these columns hold the
    kernels at every tolerance up to ``tol``; only kernel-width columns
    are kept, so the memory per point is the kernel width.

    A simple point, square with at least ``_SIMPLE_POINT_MIN_ROWS`` rows
    and rank at least N - 1, takes its kernel pair from
    :func:`_simple_point_kernels` when that certifies it; every other point
    takes the trailing singular vectors of a full SVD.
    """
    m, n = Ac.shape
    if m == n >= _SIMPLE_POINT_MIN_ROWS:
        kernels = _simple_point_kernels(Ac, tol, floor)
        if kernels is not None:
            return kernels
    U, s, Vh = np.linalg.svd(Ac)
    rank, _ = _rank_rule(s, Ac.shape, tol, floor)
    return s, U[:, rank:].copy(), Vh[rank:].conj().T.copy()


def _unit(v):
    """``v`` scaled to unit norm; NaN where its norm is 0 or not finite, so
    an overflowing solve fails the certificate that reads it."""
    nv = np.linalg.norm(v)
    return v / nv if 0.0 < nv < np.inf else np.full_like(v, np.nan)


def _simple_point_kernels(Ac, tol, floor):
    """:func:`_point_kernels` of a square ``Ac`` of rank N - 1 or N, from
    values-only singular values and one LU; None where it cannot certify.

    The singular values come from an SVD without vectors, so the rank rule
    reads the same ``s`` as at every other point.  At rank N both kernels
    are empty.  At rank N - 1 the kernel pair ``(y, x)`` comes from the LU
    ``Ac = P L U`` (``lapack.zgetrf``): ``x = U^-1 e_j``, j the smallest
    pivot, then one step of inverse iteration, ``y ~ Ac^-H x``,
    ``x ~ Ac^-1 y``, ``y ~ Ac^-H x``.  For unit ``x`` the angle to the
    trailing right singular vector obeys ``sin <= |Ac x| /
    sqrt(s[-2]^2 - s[-1]^2)``, and the same holds for ``y`` with ``Ac^H``.
    The pair is kept when both bounds are within the accuracy LAPACK gives
    its own singular vectors, ``eps s[0] / (s[-2] - s[-1])`` times a
    modestly growing factor, taken as N.

    An exact zero pivot or a failed factorization, two pivots at or below
    ``floor`` (a kernel of width two or more is likely, which needs the
    full SVD anyway), a rank below N - 1, or a failed certificate return
    None, and the caller takes the full SVD.
    """
    n = Ac.shape[0]
    lu, piv, info = lapack.zgetrf(Ac)
    if info:
        return None
    pivots = np.abs(np.diagonal(lu))
    if np.count_nonzero(pivots <= floor) > 1:
        return None
    s = np.linalg.svd(Ac, compute_uv=False)
    rank, _ = _rank_rule(s, Ac.shape, tol, floor)
    if rank == n:
        return s, np.zeros((n, 0), dtype=complex), np.zeros((n, 0), dtype=complex)
    if rank < n - 1:
        return None
    e = np.zeros((n, 1), dtype=complex)
    e[np.argmin(pivots)] = 1.0
    x = _unit(lapack.ztrtrs(lu, e)[0])
    y = _unit(lapack.zgetrs(lu, piv, x, trans=2)[0])
    x = _unit(lapack.zgetrs(lu, piv, y)[0])
    y = _unit(lapack.zgetrs(lu, piv, x, trans=2)[0])
    # The certificate, multiplied through by sqrt(s[-2]^2 - s[-1]^2) > 0.
    limit = n * _EPS * s[0] * np.sqrt((s[-2] + s[-1]) / (s[-2] - s[-1]))
    if np.linalg.norm(Ac @ x) <= limit and np.linalg.norm(Ac.conj().T @ y) <= limit:
        return s, y, x
    return None


def _second_chain_nullity(Ac, Bc, s, Y, X, tol, floor, nB):
    """Nullity of the 2-stage chain matrix from the kernels of ``Ac``.

    ``Ac = U S V^H`` has singular values ``s`` and numerical rank r; ``Y``
    and ``X`` hold its left and right kernel bases (the trailing m - r and
    n - r singular vectors), ``floor`` is the chain matrix's threshold
    floor (:func:`_chain_floor` at k = 2) and ``nB`` the Frobenius norm of
    ``Bc``.  Block elimination of the rotated chain matrix
    ``[[S, 0], [U^H Bc V, S]]`` on the 2r pivots of ``S`` leaves
    ``[[E, 0], [Y^H Bc X, E]]``, E the sub-threshold singular values of
    ``Ac``: the chain matrix has rank ``2r + rank(Y^H Bc X)``, and only this
    kernel-width matrix is factored.

    The elimination is exact but not unitary, so the small singular values
    of the chain matrix are not those of ``Y^H Bc X``; at the
    rounding-split points of a defective eigenvalue they differ by more
    than a factor 10.  Its triangular factors change singular values by a
    factor of at most ``kappa`` (from ``|Y^H Bc|`` and ``|Bc X|`` over
    ``sigma_r = s[r-1]``), the pivot block has none below
    ``sigma_r / (1 + |Bc| / sigma_r)``, and E moves them by at most
    ``s[r]``.  ``Y^H Bc X`` decides only when these bounds put the pivots
    and each of its singular values on one side of the chain matrix's own
    threshold, which lies in ``[floor, sqrt(2) floor]``; otherwise the
    chain matrix is factored.  Either way the decision is the chain
    matrix's, up to rounding.
    """
    m, n = Ac.shape
    r = n - X.shape[1]
    YB = Y.conj().T @ Bc
    c = np.linalg.svd(YB @ X, compute_uv=False)
    kappa, pivots = 1.0, np.inf
    if r:
        sr = float(s[r - 1])
        kappa = (1 + np.linalg.norm(YB) / sr) * (1 + np.linalg.norm(Bc @ X) / sr)
        pivots = sr / (1 + nB / sr)
    e = float(s[r]) if r < s.size else 0.0
    lo, hi = floor / kappa, np.sqrt(2.0) * floor * kappa
    if pivots <= hi or e > lo or any(x + e > lo and x - e <= hi for x in c):
        return _chain_nullity(Ac, Bc, 2, tol)
    rank, amb = _gap_rule(c, (2 * m, 2 * n), tol, floor) if c.size else (0, False)
    return 2 * (n - r) - rank, amb


def _weyr_sequence(Ac, Bc, n_singular, tol, max_len, kernels, norms):
    """Weyr characteristic at a point from chain-matrix nullity increments.

    Each right singular block inflates every nullity increment by one, so
    ``n_singular`` is subtracted out.  The first two nullities come from the
    singular values and kernels of ``Ac``: ``kernels`` from
    :func:`_point_kernels` at a tolerance of at least ``tol``, or ``None``
    to take them here.  ``norms`` are the Frobenius norms of ``Ac`` and
    ``Bc`` that set the chain floors (:func:`_chain_floor`).  Deeper
    nullities, needed only when the second Weyr number is positive (a
    defective or rounding-split point), come from the chain matrices
    themselves.  Returns the (nonincreasing) list of Weyr numbers and an
    ambiguity flag.
    """
    m, n = Ac.shape
    floor = _chain_floor(Ac, 1, tol, norms)
    s, Y, X = kernels if kernels is not None else _point_kernels(Ac, tol, floor)
    r, ambiguous = _gap_rule(s, (m, n), tol, floor)
    if n - r > X.shape[1]:
        # Kernels cut at a smaller tolerance than this one: take them again.
        s, Y, X = _point_kernels(Ac, tol, floor)
    Y = Y[:, Y.shape[1] - (m - r) :]
    X = X[:, X.shape[1] - (n - r) :]
    weyr = []
    prev = 0
    for k in range(1, max_len + 2):
        if k == 1:
            nk, amb = n - r, False
        elif k == 2:
            # The k-stage floor is k times the one-stage floor, exactly.
            nk, amb = _second_chain_nullity(Ac, Bc, s, Y, X, tol, 2 * floor, norms[1])
        else:
            nk, amb = _chain_nullity(Ac, Bc, k, tol)
        ambiguous = ambiguous or amb
        w = (nk - prev) - n_singular
        prev = nk
        if w <= 0:
            break
        if weyr and w > weyr[-1]:
            w = weyr[-1]
        weyr.append(w)
    return weyr, ambiguous


def _conjugate_partition(weyr) -> tuple:
    """Block sizes (partition) conjugate to a Weyr characteristic."""
    if not weyr:
        return ()
    blocks = []
    for size in range(1, len(weyr) + 1):
        nxt = weyr[size] if size < len(weyr) else 0
        blocks.extend([size] * (weyr[size - 1] - nxt))
    return tuple(sorted(blocks, reverse=True))


def _generic_rotation(P: Pencil, r: int, tol: float, seed: int):
    """Rotation with s != 0 making the rotated leading coefficient rank r.

    In the rotated variable the pencil has no structure at infinity; the
    original point at infinity sits at the finite point mu = -c/s.
    """
    from .pencil import Rotation

    rng = np.random.default_rng(seed)
    for _ in range(32):
        theta = rng.uniform(0.35, np.pi - 0.35)
        c, s = float(np.cos(theta)), float(np.sin(theta))
        if matrix_rank(-s * P.L0 + c * P.L1, tol) == r:
            return Rotation(c, s)
    raise StaircaseError("no admissible rotation for structure extraction")


def _finite_candidates(
    P: Pencil, r: int, tol: float, seed: int, kernel_tol: float, nB: float
):
    """Candidate eigenvalues and minimal indices of a pencil of rank r > 0.

    ``P`` is rotated by :func:`_generic_rotation`, so its leading
    coefficient has rank r and the staircase loop peels only ``L_eps``
    blocks.  For pencils of full row (or column) normal rank the candidates
    are the eigenvalues of the regular part deflated by the staircase, and
    the minimal indices come from its block sizes.  Doubly singular pencils
    run the loop on ``P`` and on its transpose for the indices, and take
    candidates from seeded random unitary projections onto an r x r pencil,
    whose spectrum holds the true eigenvalues plus random spurious points.
    Candidates are validated by a rank drop of P at the point; spurious
    survivors are eliminated later by the multiplicity analysis.  ``nB`` is
    the Frobenius norm of ``L1``.  Returns ``(kept, eps, eta)``:
    ``(a, nA, kernels)`` triples, ``nA`` the Frobenius norm of
    ``L0 - a L1`` and ``kernels`` its singular values and kernels that
    validated ``a``, cut by :func:`_point_kernels` at ``kernel_tol`` (the
    first two chain nullities at ``a`` read them), and the right and left
    minimal indices.  A simple candidate of at least
    ``_SIMPLE_POINT_MIN_ROWS`` rows is validated by a values-only SVD, its
    kernel pair taken from one LU under a residual certificate; any other
    candidate, or one whose pair fails the certificate, by one full SVD.
    """
    from .linalg import eig_pair

    m, n = P.shape
    vals = []
    if r in (m, n):
        sf = separate_regular_right(P if r == m else P.transpose(), tol, seed)
        indices = sf.right_minimal_indices()
        eps, eta = (indices, ()) if r == m else ((), indices)
        X = sf.regular_part
        if X.rows:
            vals = list(eig_pair(X.L0, X.L1, tol))
    else:
        eps, eta = (
            _right_minimal_indices(_staircase(side, tol, lambda *step: None)[3])
            for side in (P, P.transpose())
        )
        rng = np.random.default_rng(seed)
        for _ in range(2):
            Q = random_unitary(rng, m)[:, :r]
            Z = random_unitary(rng, n)[:, :r]
            vals.extend(
                eig_pair(Q.conj().T @ P.L0 @ Z, Q.conj().T @ P.L1 @ Z, tol)
            )
    finite = [complex(v) for v in vals if np.isfinite(v)]
    n0 = np.linalg.norm(P.L0)
    kept = []
    for a in finite:
        Ac = P.L0 - a * P.L1
        nA = np.linalg.norm(Ac)
        floor = _chain_floor(Ac, 1, kernel_tol, (nA, nB))
        kernels = _point_kernels(Ac, kernel_tol, floor)
        # Threshold against the natural magnitude of P(a), not sigma_1:
        # at an eigenvalue of full multiplicity the whole matrix vanishes.
        scale_a = max(n0 + abs(a) * nB, 1e-300)
        if kernels[0][r - 1] <= 1e-6 * scale_a:
            kept.append((a, nA, kernels))
    return kept, eps, eta


def _cluster_members(points, radius_rel):
    """Greedy clustering; returns lists of (index, value) member pairs.

    Each cluster keeps the running sum of its members, added in member
    order, so its centroid is the one a sum over the members gives.
    """
    order = sorted(range(len(points)), key=lambda i: (points[i].real, points[i].imag))
    clusters, sums = [], []
    for i in order:
        p = points[i]
        for j, cl in enumerate(clusters):
            c = sums[j] / len(cl)
            if abs(p - c) <= radius_rel * max(1.0, abs(c), abs(p)):
                cl.append((i, p))
                sums[j] += p
                break
        else:
            clusters.append([(i, p)])
            sums.append(p)
    return clusters


# Clustering radii paired with rank-tolerance multipliers.  A Jordan block
# of size k splits under rounding by roughly eps**(1/k), so the ladder has
# to reach past 1e-3 before a size-5 block merges back into one point.
_ESCALATION = [
    (1e-8, 1.0),
    (1e-7, 10.0),
    (1e-6, 1e2),
    (1e-5, 1e3),
    (1e-4, 1e4),
    (3e-3, 1e4),
]


def kronecker_structure(
    P: Pencil, tol: float = DEFAULT_TOL, seed: int = 0
) -> KroneckerReport:
    """Complete Kronecker structure report of an arbitrary pencil.

    The eigenvalue analysis runs on a generically rotated (and power-of-2
    norm-balanced) copy of the pencil, so the point at infinity becomes the
    ordinary finite point mu = -c/s and defective structure at infinity
    cannot leak huge junk eigenvalues into the finite spectrum.  Partial
    multiplicities come from staircase chain nullities at each clustered
    candidate; minimal indices (invariant under the rotation) from the
    block sizes of the staircases run on the rotated copy, their counts
    checked against the normal rank.
    Candidates are clustered at an escalating radius until the eigenvalue
    count matches the normal-rank bookkeeping and every cluster is well
    separated; failure to reconcile sets ``ambiguous`` instead of raising.
    """
    from .pencil import default_lambda_scale, lambda_scale

    m, n = P.shape
    scale = P.coefficient_scale()
    # Coefficients fully below the joint noise floor carry no structure at
    # the working tolerance; dropping them keeps a noise-level leading
    # coefficient from masquerading as a huge finite eigenvalue.
    L0, L1 = P.L0, P.L1
    if np.linalg.norm(L0) <= tol * scale:
        L0 = np.zeros_like(L0)
    if np.linalg.norm(L1) <= tol * scale:
        L1 = np.zeros_like(L1)
    P = Pencil(L0, L1)
    r = normal_rank(P, tol, seed)  # 0 for an empty or zero pencil
    if r == 0:
        return KroneckerReport(
            normal_rank=0,
            finite_eigen={},
            infinite_blocks=(),
            right_minimal=(0,) * n,
            left_minimal=(0,) * m,
        )
    n_eps = n - r

    d_lam = default_lambda_scale(P)
    Pn = lambda_scale(P, d_lam)  # eigenvalues scale by d_lam exactly
    rot = _generic_rotation(Pn, r, tol, seed)
    Pr = mobius_rotate(Pn, rot)
    mu_inf = complex(-rot.c / rot.s)

    # Kernels at each point, cut at the widest tolerance the escalation
    # reaches.  A candidate clustered alone sits at its own value, so its
    # kernels are those that validated it.  L1 is the same at every point:
    # its norm, like each point's own, is taken once.
    kernel_tol = tol * max(mult for _, mult in _ESCALATION)
    nB = np.linalg.norm(Pr.L1)
    candidates, eps, eta = _finite_candidates(Pr, r, tol, seed, kernel_tol, nB)
    if len(eps) != n_eps or len(eta) != m - r:
        raise StaircaseError(
            f"minimal index counts {len(eps)}, {len(eta)} disagree with normal rank {r}"
        )
    target = r - sum(eps) - sum(eta)
    A_inf = Pr.L0 - mu_inf * Pr.L1
    point_norms = [np.linalg.norm(A_inf)] + [nA for _, nA, _ in candidates]
    floor_inf = _chain_floor(A_inf, 1, kernel_tol, (point_norms[0], nB))
    points = [mu_inf] + [a for a, _, _ in candidates]
    kernels = [_point_kernels(A_inf, kernel_tol, floor_inf)]
    kernels += [k for _, _, k in candidates]

    best = None
    best_key = None
    for radius, tol_mult in _ESCALATION:
        finite = {}
        inf_blocks = ()
        amb_round = False
        valid = True
        centroids = []
        for members in _cluster_members(points, radius):
            has_inf = any(i == 0 for i, _ in members)
            z = mu_inf if has_inf else sum(v for _, v in members) / len(members)
            Ac = Pr.L0 - z * Pr.L1
            # A cluster of several finite candidates takes its kernels at its
            # centroid; every other z is a point whose kernels are known.
            if has_inf or len(members) == 1:
                i = 0 if has_inf else members[0][0]
                known, nA = kernels[i], point_norms[i]
            else:
                known, nA = None, np.linalg.norm(Ac)
            # A finite cluster cannot hold more eigenvalues than members.
            max_len = r if has_inf else len(members)
            weyr, amb = _weyr_sequence(
                Ac, Pr.L1, n_eps, tol * tol_mult, max_len, known, (nA, nB)
            )
            amb_round = amb_round or amb
            part = _conjugate_partition(weyr)
            if not part:
                continue
            centroids.append(z)
            if has_inf:
                inf_blocks = part
            else:
                # A genuine finite eigenvalue of total multiplicity k shows
                # up as k (possibly split) values; a lone point close to a
                # defective eigenvalue claiming more weight than its cluster
                # holds is a rounding phantom and invalidates this radius.
                if sum(part) > len(members):
                    valid = False
                    break
                lam = rot.map_point(z)
                if np.isinf(lam):
                    valid = False
                    break
                finite[complex(lam) / d_lam] = part
        total = sum(sum(p) for p in finite.values()) + sum(inf_blocks)
        gap = abs(total - target)
        # The factor 100 covers the Mobius stretch between the clustering
        # variable and the eigenvalue variable: rounding-split points of
        # one eigenvalue must not pass as two stable clusters.
        stable = valid and all(
            abs(a - b) > 100.0 * radius * max(1.0, abs(a), abs(b))
            for i, a in enumerate(centroids)
            for b in centroids[i + 1 :]
        )
        key = (not valid, gap)
        if best is None or key < best_key:
            best, best_key = (finite, inf_blocks, amb_round), key
        if valid and gap == 0 and stable:
            return KroneckerReport(
                normal_rank=r,
                finite_eigen=finite,
                infinite_blocks=inf_blocks,
                right_minimal=eps,
                left_minimal=eta,
                ambiguous=amb_round,
            )
    finite, inf_blocks, amb_round = best
    return KroneckerReport(
        normal_rank=r,
        finite_eigen=finite,
        infinite_blocks=inf_blocks,
        right_minimal=eps,
        left_minimal=eta,
        ambiguous=True,
    )
