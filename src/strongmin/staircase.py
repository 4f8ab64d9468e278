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
comes from a Householder QR rather than an SVD; where the leading
coefficient also has orthonormal rows (``[I 0]`` of a state-space test
pencil), only the first window is factored and each later kernel is read
off the rows the step before moved out (Van Dooren, IEEE TAC 26, 1981;
Varga, Kybernetika 26, 1990).  ``split_infinite`` runs the same loop,
unrotated and with SVD rank decisions, to deflate the infinite part of a
regular pencil; its kernel widths are the Weyr characteristic at infinity,
from which it also reads the block sizes at infinity.  Either way each
step's column and row transforms are applied as the few Householder
reflectors of a kernel-width basis, never as dense unitaries, in the field
of the pencil: a real pencil takes real (orthogonal) reflectors.

``kronecker_structure`` reports the complete Kronecker data of an arbitrary
pencil: finite eigenvalues with partial multiplicities, infinite block
sizes, and left/right minimal indices, after GUPTRI (Demmel & Kagstrom, ACM
TOMS 19, 1993) and Beelen & Van Dooren (LAA 105, 1988).  The pencil is
rotated once so that its leading coefficient has the normal rank; the same
staircase loop, on the rotated pencil and then on the transpose of what is
left, peels the right and left minimal indices and leaves exactly the
regular part.  One QZ of the regular part gives its eigenvalues (for real
data the real QZ, its 2 x 2 blocks then made triangular by complex 2 x 2
unitaries), and one ``?ggev`` eigenvector call on the triangular factors
the perturbation discs of them all.  A lone eigenvalue, whose disc meets
no other, is simple and takes no factorization; a cluster of eigenvalues
is moved to the leading block of the Schur form and its block sizes are
read off the staircase of that small block in the variable that sends the
cluster's point to infinity.  A decision within a factor 10 of its other outcome
flags the report as ambiguous; a cluster that such a decision leaves
undecided is not reported.

That QZ (:func:`_triangular_pair`) is the package's only one.  It also
gives the eigenvalues of small regular pencils that
:mod:`strongmin.minreal` reports (:func:`_classified_eigenvalues`: the
structure at infinity is deflated first, and only then are clusters
averaged) and the plain QZ eigenvalues of
:func:`~strongmin.pencil.generalized_eigenvalues`.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack

from .linalg import DEFAULT_TOL, _lapack, _rank_rule, _svd_decision
from .pencil import (
    Pencil,
    RotationError,
    _choose_rotation,
    choose_rotation,
    default_lambda_scale,
    generalized_eigenvalues,
    lambda_scale,
    mobius_rotate,
    normal_rank,
)

_EPS = float(np.finfo(float).eps)


class StaircaseError(RuntimeError):
    """Rank decisions inside a staircase reduction were inconsistent."""


@dataclass
class StaircaseForm:
    """Unitary block decomposition U P(lambda) W^H = [[X, 0], [Y, S]].

    ``X`` is ``d_reg x d_reg`` regular and carries the eigenvalue multiset of
    the input; ``S`` has full row rank for every lambda including infinity.
    ``block_sizes`` records the staircase steps as (columns, rows) peeled,
    and ``close`` whether a rank decision of a step was a close call, a
    singular value within a factor 10 of its threshold.  ``eigenvalues``
    holds the classified eigenvalues of ``X`` once a reader has computed
    them (``strongmin.minreal``), so they are computed once per form.
    """

    U: np.ndarray
    W: np.ndarray
    transformed: Pencil
    d_reg: int
    block_sizes: list = field(default_factory=list)
    close: bool = False
    eigenvalues: np.ndarray = field(default=None, repr=False, compare=False)

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


def _svd_kernel(B, mw, nw, tol, floor):
    """Kernel basis of the window ``M = B[:mw, :nw]``, its rank from a full
    SVD at the package rule, and whether that decision was a close call
    (:func:`~strongmin.linalg._rank_rule`)."""
    _, _, V, rank, _, close = _svd_decision(B[:mw, :nw], tol, floor)
    return V[:, rank:], rank, close


def _qr_kernel(B, mw, nw, tol, floor):
    """Kernel basis of the window ``M = B[:mw, :nw]``, certified to have
    full row rank, that rank, and False: no rank is decided here, so there
    is no close call.

    The trailing ``n - m`` columns of the unitary factor of a Householder QR
    of ``M^H`` (n x m) span the kernel of ``M``; they are formed by applying
    the QR's reflectors to ``[0; I]``.
    """
    M = B[:mw, :nw]
    m, n = M.shape
    qr, tau, _, info = _lapack("geqrf", M)(M.conj().T)
    E = np.zeros((n, n - m), dtype=M.dtype)
    E[m:] = np.eye(n - m)
    K, _, info2 = _lapack("ormqr", M)("L", "N", qr, tau, E, max(1, n - m))
    if info or info2:
        raise StaircaseError(f"LAPACK QR failed (info {info}, {info2})")
    return K, m, False


def _moved_row_kernel(B, mw, nw, tol, floor):
    """Kernel basis of the window ``B[:mw, :nw]`` of a staircase whose
    leading coefficient has orthonormal rows, that rank, and False.

    Every window of such a staircase is then a row block of a unitary: the
    certified rows keep full rank, so each step leaves ``nw`` equal to the
    row count of the window before, and the kernel of the window is spanned
    by the conjugates of the rows the last row compression moved out,
    ``B[mw:nw, :nw]``, with no factorization.  The first step, whose window
    is wider than ``B`` has rows, takes :func:`_qr_kernel`.
    """
    if nw > B.shape[0]:
        return _qr_kernel(B, mw, nw, tol, floor)
    return B[mw:nw, :nw].conj().T, mw, False


def _trailing_reflectors(K):
    """Householder reflectors of a unitary ``V`` whose trailing columns span
    the orthonormal columns of ``K`` (n x k).

    ``V = J Q J``, ``J`` the exchange matrix and ``Q`` the unitary factor of
    a QR of the row-reversed ``K``: its k reflectors are returned in LAPACK
    form for :func:`_right_apply` and :func:`_left_apply_adjoint`.  A real
    ``K`` gives real (orthogonal) reflectors.
    """
    qr, tau, _, info = _lapack("geqrf", K)(K[::-1])
    if info:
        raise StaircaseError(f"LAPACK QR failed (info {info})")
    return qr, tau


def _right_apply(X, reflectors):
    """``X <- X V`` in place, ``V`` from :func:`_trailing_reflectors`."""
    qr, tau = reflectors
    ormqr = _lapack("ormqr", qr)
    XV, _, info = ormqr("R", "N", qr, tau, X[:, ::-1], max(1, X.shape[0]))
    if info:
        raise StaircaseError(f"LAPACK reflector update failed (info {info})")
    X[:, ::-1] = XV


def _left_apply_adjoint(X, reflectors):
    """``X <- V^H X`` in place, ``V`` from :func:`_trailing_reflectors`."""
    qr, tau = reflectors
    ormqr, adjoint = _lapack("ormqr", qr), _lapack("adjoint", qr)
    VX, _, info = ormqr("L", adjoint, qr, tau, X[::-1], max(1, X.shape[1]))
    if info:
        raise StaircaseError(f"LAPACK reflector update failed (info {info})")
    X[::-1] = VX


def _staircase_floor(P: Pencil, tol: float) -> float:
    """Threshold floor of every rank decision in a staircase of ``P``."""
    return tol * max(P.shape) * P.coefficient_scale()


def _staircase(P: Pencil, tol: float, check=None, kernel=_svd_kernel, floor=None):
    """The staircase loop shared by both deflations.

    Each step compresses the columns of the window's ``L1``, then the rows
    of ``L0`` on the kernel columns, moving those rows to the bottom; the
    window shrinks to what is left.  Columns left without rows form a last
    step ``(nw, 0)`` of ``L_0`` blocks.  Thresholds are floored at
    ``floor``, by default the scale of the whole pencil
    (:func:`_staircase_floor`).  ``check(mw, rB, nu, s_rank)``, when
    given (window rows, rank of ``L1``, kernel width and rank of ``L0`` on
    the kernel), raises :class:`StaircaseError` on a step the caller's
    problem rules out.

    ``kernel(B, mw, nw, tol, floor)`` returns a kernel basis of the window
    ``B[:mw, :nw]`` of the current ``L1``, its rank and whether that was a
    close call.  There are three strategies: :func:`_svd_kernel` decides
    the rank by the package rule; :func:`_qr_kernel` takes full row rank as
    given, for windows certified by :func:`separate_regular_right`; and
    :func:`_moved_row_kernel`, for a certified ``L1`` with orthonormal rows,
    reads the kernel off the rows the last step moved out and factors only
    the first window (see :func:`_certified_kernel`).  The row decision on
    the kernel columns is a thin SVD of that ``mw x nu`` block at the
    package rule.
    Both transforms are applied as the Householder reflectors of a
    kernel-width (or range-width) basis (:func:`_trailing_reflectors`), so
    a step forms no ``nw x nw`` or ``mw x mw`` unitary and costs
    ``O(N^2)`` beyond its kernel.
    Returns ``(U, W, U P W^H, blocks, mw, nw, close)``, ``blocks`` holding
    the ``(nu, s_rank)`` of each step, ``(mw, nw)`` the final window and
    ``close`` whether a rank decision of a step that peeled a block was a
    close call (:func:`~strongmin.linalg._rank_rule`).
    """
    m, n = P.shape
    A = P.L0.copy()
    B = P.L1.copy()
    if floor is None:
        floor = _staircase_floor(P, tol)
    U_acc = np.eye(m, dtype=A.dtype)
    Wh_acc = np.eye(n, dtype=A.dtype)
    blocks = []
    mw, nw = m, n
    close = False
    while nw > 0:
        if mw == 0:  # columns left without rows
            blocks.append((nw, 0))
            nw = 0
            break
        K, rB, close_k = kernel(B, mw, nw, tol, floor)
        nu = nw - rB
        if nu == 0:
            break
        cols = _trailing_reflectors(K)
        for X in (A, B, Wh_acc):
            _right_apply(X[:, :nw], cols)
        Ak = A[:mw, rB:nw]
        Us, sv, _ = np.linalg.svd(Ak, full_matrices=False)
        s_rank, _, close_s = _rank_rule(sv, Ak.shape, tol, floor)
        if check:
            check(mw, rB, nu, s_rank)
        close = close or close_k or close_s
        if s_rank:
            rows = _trailing_reflectors(Us[:, :s_rank])
            for X in (A, B, U_acc):
                _left_apply_adjoint(X[:mw], rows)
        blocks.append((nu, s_rank))
        mw -= s_rank
        nw = rB
    return U_acc, Wh_acc.conj().T, Pencil(A, B), blocks, mw, nw, close


# Multiple of ``m * max(m, n) * eps * |L1r|_F`` by which the rounding of a
# staircase can lower a window's smallest singular value below the margin.
_CERTIFICATE_PAD = 100.0


def _certified_kernel(R: Pencil, margin: float, tol: float):
    """The kernel strategy of a staircase of ``R`` whose full-row-rank
    leading coefficient ``L1r`` (m x n) has smallest singular value
    ``margin`` (see :func:`separate_regular_right`).

    :func:`_svd_kernel` unless ``margin`` certifies every window; then
    :func:`_moved_row_kernel` where the rows of ``L1r`` are also certified
    orthonormal, else :func:`_qr_kernel`.  The rows are orthonormal to
    within ``delta`` when every singular value is within ``delta`` of 1.
    The smallest is ``margin``, and the largest is at most
    ``sqrt(|L1r|_F^2 - (m - 1) margin^2)``, so the certificate needs no
    factorization beyond the rotation's.  ``delta`` is
    ``_CERTIFICATE_PAD * max(m, n) * eps``, the rounding of one staircase
    step.
    """
    m, n = R.shape
    norm = np.linalg.norm(R.L1)
    pad = _CERTIFICATE_PAD * m * max(m, n) * _EPS * norm
    if not margin - pad > _staircase_floor(R, tol):
        return _svd_kernel
    top = max(norm**2 - (m - 1) * margin**2, 0.0) ** 0.5
    if max(1.0 - margin, top - 1.0) <= _CERTIFICATE_PAD * max(m, n) * _EPS:
        return _moved_row_kernel
    return _qr_kernel


def separate_regular_right(
    P: Pencil, tol: float = DEFAULT_TOL, seed: int = 0
) -> StaircaseForm:
    """Deflate the regular part of a pencil with full row normal rank.

    Returns a :class:`StaircaseForm`; the transformed pencil is expressed in
    the original variable (the internal rotation is undone).  The rotation
    is the normal-rank certificate: a rotated leading coefficient whose
    ``sigma_m`` exceeds the staircase floor has full row rank, so the
    pencil has full row normal rank.  When :func:`choose_rotation` finds no
    such angle (or the pencil has more rows than columns), this raises
    :class:`StaircaseError` ("normal rank deficient rows").

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
    (:func:`_qr_kernel`).  Where the rows of ``L1r`` are also orthonormal,
    as the identity rotation leaves ``[I 0]`` of a state-space test pencil,
    every window stays a row block of a unitary and only the first window
    is factored (:func:`_moved_row_kernel`).  When the certificate fails,
    each window takes the SVD rank decision, and a window that lost full
    row rank raises.  The form's ``close`` records whether a rank decision
    of the staircase was a close call.
    """
    def full_row_rank(mw, rB, nu, s_rank):
        # The rotation gave the leading coefficient full row rank, and every
        # window must keep it.
        if rB < mw:
            raise StaircaseError(
                "rank decisions inconsistent: window leading coefficient "
                f"lost full row rank ({rB} < {mw})"
            )

    try:
        rot = choose_rotation(P, seed=seed, tol=tol)
    except RotationError:
        raise StaircaseError("normal rank deficient rows") from None
    R = mobius_rotate(P, rot)
    kernel = _certified_kernel(R, rot.margin, tol)
    U, W, T, blocks, mw, nw, close = _staircase(R, tol, full_row_rank, kernel)
    if mw != nw:
        raise StaircaseError("inconsistent deflation count")
    return StaircaseForm(U, W, mobius_rotate(T, rot.inverse()), mw, blocks, close)


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
    U, W, transformed, blocks, _, nw, _ = _staircase(P, tol, _regular_step)
    return U, W, transformed, n - nw, _blocks_at_infinity(blocks)


def _regular_step(mw, rB, nu, s_rank):
    """Staircase step check of a regular pencil: every step is square, the
    constant term having full column rank on the leading-coefficient
    kernel."""
    if s_rank != nu:
        raise StaircaseError(
            "pencil is singular: constant term rank-deficient on the "
            "leading-coefficient kernel"
        )


def _blocks_at_infinity(blocks) -> tuple:
    """Block sizes at infinity from the steps of a regular pencil's
    staircase: the conjugate partition of its kernel widths, which must
    not increase."""
    weyr = [nu for nu, _ in blocks]
    if any(a < b for a, b in zip(weyr, weyr[1:])):
        raise StaircaseError(f"Weyr characteristic at infinity increases: {weyr}")
    return _conjugate_partition(weyr)


# ---------------------------------------------------------------------------
# Kronecker structure
# ---------------------------------------------------------------------------


@dataclass
class KroneckerReport:
    """Complete Kronecker data of a pencil.

    ``finite_eigen`` maps each finite eigenvalue to its partition of partial
    multiplicities (sorted descending); ``infinite_blocks`` is the multiset
    of Kronecker block sizes at infinity (k >= 1); the minimal index tuples
    are sorted ascending.  ``ambiguous`` is set when a decision was a close
    call, within a factor 10 of its other outcome (a rank decision of the
    staircases that isolate the regular part, a perturbation-disc test, or
    a rank decision of a cluster's reading), when a reading split a
    cluster, or when the eigenvalue count does not reconcile with the
    normal rank and minimal indices.  The eigenvalues of a cluster that was
    a close call are left out of ``finite_eigen`` and ``infinite_blocks``.
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


def _conjugate_partition(weyr) -> tuple:
    """Block sizes (partition) conjugate to a Weyr characteristic."""
    if not weyr:
        return ()
    blocks = []
    for size in range(1, len(weyr) + 1):
        nxt = weyr[size] if size < len(weyr) else 0
        blocks.extend([size] * (weyr[size - 1] - nxt))
    return tuple(sorted(blocks, reverse=True))


def _regular_part(R: Pencil, r: int, margin: float, tol: float):
    """Regular part and minimal indices of a pencil whose leading
    coefficient has rank ``r``, its normal rank.

    Such a pencil has no structure at infinity, so the staircase loop peels
    only its ``L_eps`` blocks, and the same loop on the transpose of what is
    left peels only the ``L_eta^T`` blocks (Van Dooren, LAA 27, 1979): what
    remains is exactly the regular part.  A side of full normal rank has no
    blocks to peel and skips its loop.  Where ``r`` is the full row (or
    column) rank of ``R``, the rotation's ``margin`` certifies the QR (or
    moved-row) kernels of the loop on ``R`` (or its transpose), as in
    :func:`separate_regular_right`.  Every rank decision is floored at the
    scale of ``R``.  Returns ``(X, eps, eta, close)``, ``X`` the regular
    part (its transpose when the second loop ran) and ``close`` whether a
    rank decision of either loop was a close call.
    """
    m, n = R.shape
    floor = _staircase_floor(R, tol)
    eps = eta = ()
    X = R
    close = close_left = False
    if r < n:
        kernel = _certified_kernel(R, margin, tol) if r == m else _svd_kernel
        _, _, T, blocks, mw, nw, close = _staircase(R, tol, None, kernel, floor)
        eps = _right_minimal_indices(blocks)
        X = Pencil(T.L0[:mw, :nw], T.L1[:mw, :nw])
    if X.rows > X.cols:
        X = X.transpose()
        kernel = _certified_kernel(X, margin, tol) if r == n else _svd_kernel
        _, _, T, blocks, mw, nw, close_left = _staircase(X, tol, None, kernel, floor)
        eta = _right_minimal_indices(blocks)
        X = Pencil(T.L0[:mw, :nw], T.L1[:mw, :nw])
    return X, eps, eta, close or close_left


# Multiple of the distance to its farthest partner to which an
# eigenvalue's first-order radius is cut.  Partners are the eigenvalues
# whose disc and its own each hold the other's centre: it is then one of a
# cluster, a rounding-split defective eigenvalue say, whose first-order
# radii grow with the inverse of the members' distances while the cluster
# moves as a whole by amounts of the order of its own spread (Hoelder, not
# Lipschitz, in the perturbation).  Ten spreads keep every member's disc
# over the whole cluster, each pair within a twentieth of the sum of their
# radii, without reaching eigenvalues ten spreads away.
_CLUSTER_SPREAD = 10.0


def _eigen_discs(S, T, floor):
    """Eigenvalues of the upper triangular pair ``(S, T)`` and the radius of
    the disc each can move in under a perturbation of ``floor`` in both.

    ``w_i = S_ii / T_ii``.  The right and left eigenvectors ``x``, ``y`` of
    every eigenvalue come from one ``zggev`` call: on a triangular pair its
    QZ has nothing left to do, and its ``ztgevc`` solves for all of them in
    one column sweep, raising pivots below ``eps`` times the scale of the
    pair to that floor.  The first-order radius is ``floor (1 + |w_i|) |x|
    |y| / |y^H T x|``, whatever the scaling of the vectors.  An eigenvalue
    with partners (others whose disc and its own each hold the other's
    centre) has its radius cut to ``_CLUSTER_SPREAD`` times the distance to
    its farthest partner, but never below ``floor (1 + |w_i|) / |T_ii|``,
    the radius of an eigenvalue with orthogonal neighbours.  A radius that
    overflowed is infinite before the cut.
    """
    d = np.diagonal(T)
    w = np.diagonal(S) / d
    err = floor * (1 + np.abs(w))
    base = err / np.abs(d)
    *_, Y, X, _, info = lapack.zggev(S, T)
    if info:
        raise StaircaseError(f"eigenvectors failed (info {info})")
    with np.errstate(over="ignore", invalid="ignore"):
        yTx = np.abs(np.sum(Y.conj() * (T @ X), axis=0))
        radii = err * np.linalg.norm(X, axis=0) * np.linalg.norm(Y, axis=0) / yTx
    radii[np.isnan(radii)] = np.inf
    dist = np.abs(w[:, None] - w[None, :])
    partners = dist <= np.minimum.outer(radii, radii)
    np.fill_diagonal(partners, False)
    reach = np.where(partners, dist, 0.0).max(axis=1)
    cap = np.where(partners.any(axis=1), np.maximum(_CLUSTER_SPREAD * reach, base), np.inf)
    return w, np.minimum(radii, cap)


# Rows from which a real pencil takes the real QZ.  Measured on one core of
# a 2-vCPU Xeon VM (random pairs, one BLAS thread), dgges and the 2 x 2
# standardization take 0.11 ms at n = 2, 0.27 ms at n = 8 and 0.44 ms at
# n = 20, against 0.012, 0.071 and 0.48 ms for zgges: below the crossover
# the fixed cost of the standardization's numpy calls exceeds the flops the
# real QZ saves.
_REAL_QZ_MIN_ROWS = 20


def _triangular_pair(X: Pencil):
    """Complex upper triangular pair ``(S, T)`` unitarily equivalent to the
    square pencil ``X``, without Schur vectors.

    Complex data, and real data of fewer than ``_REAL_QZ_MIN_ROWS`` rows,
    take one complex QZ (``zgges``).  Other real data take the real QZ
    (``dgges``; Moler & Stewart, SIAM J. Numer. Anal. 10, 1973), whose
    ``S`` is quasi-triangular, and each 2 x 2 diagonal block is then made
    triangular by :func:`_triangularizing_blocks`.
    """
    L0, L1 = X.L0, X.L1
    if X.rows < _REAL_QZ_MIN_ROWS:
        L0, L1 = L0.astype(complex, copy=False), L1.astype(complex, copy=False)
    gges = _lapack("gges", L0)
    S, T, *out, info = gges(lambda *args: None, L0, L1, jobvsl=0, jobvsr=0)
    if info:
        raise StaircaseError(f"QZ failed (info {info})")
    if np.iscomplexobj(S):
        return S, T
    _, alphar, alphai, beta = out[:4]
    S, T = S.astype(complex), T.astype(complex)
    j, (q0, q1), (z0, z1) = _triangularizing_blocks(S, T, alphar + 1j * alphai, beta)
    if j.size:
        k = j + 1
        for M in (S, T):
            cj, ck = M[:, j], M[:, k]
            M[:, j], M[:, k] = cj * z0 + ck * z1, ck * z0.conj() - cj * z1.conj()
            rj, rk = M[j], M[k]
            M[j] = q0.conj()[:, None] * rj + q1.conj()[:, None] * rk
            M[k] = q0[:, None] * rk - q1[:, None] * rj
            M[k, j] = 0.0
    return S, T


def _triangularizing_blocks(S, T, alpha, beta):
    """2 x 2 unitaries that make triangular the 2 x 2 diagonal blocks of a
    real QZ pair ``(S, T)``, whose eigenvalues are ``alpha / beta`` (from
    ``dgges``).

    A block starts at each ``j`` where ``alpha_j`` has a positive
    imaginary part (its conjugate follows at ``j + 1``).  Each unitary is
    ``[[v0, -conj(v1)], [v1, conj(v0)]]``, given by its first column
    ``v``.  That of ``Z_j`` spans the kernel of ``beta_j S_jj - alpha_j
    T_jj``, read off its larger row, and that of ``Q_j`` the common
    direction of ``S_jj z`` and ``T_jj z``; ``Q_j^H (S_jj, T_jj) Z_j`` is
    then upper triangular with ``alpha_j / beta_j`` first.  Returns
    ``(j, (q0, q1), (z0, z1))``, one entry per block in each array.
    """
    j = np.flatnonzero(alpha.imag > 0)
    k = j + 1
    a, b = beta[j], alpha[j]
    s00, s01, s10, s11 = S[j, j], S[j, k], S[k, j], S[k, k]
    t00, t01, t10, t11 = T[j, j], T[j, k], T[k, j], T[k, k]
    m00, m01 = a * s00 - b * t00, a * s01 - b * t01
    m10, m11 = a * s10 - b * t10, a * s11 - b * t11
    first = abs(m00) ** 2 + abs(m01) ** 2 >= abs(m10) ** 2 + abs(m11) ** 2
    z0, z1 = _unit(np.where(first, -m01, -m11), np.where(first, m00, m10))
    u0, u1 = s00 * z0 + s01 * z1, s10 * z0 + s11 * z1
    w0, w1 = t00 * z0 + t01 * z1, t10 * z0 + t11 * z1
    larger = abs(u0) ** 2 + abs(u1) ** 2 >= abs(w0) ** 2 + abs(w1) ** 2
    return j, _unit(np.where(larger, u0, w0), np.where(larger, u1, w1)), (z0, z1)


def _unit(v0, v1):
    """The vectors ``(v0, v1)`` scaled to unit length."""
    norm = np.sqrt(abs(v0) ** 2 + abs(v1) ** 2)
    return v0 / norm, v1 / norm


def _components(adjacent) -> list:
    """Index arrays of the connected components of a symmetric boolean
    adjacency matrix: every vertex takes the smallest label among its
    neighbours and itself until no label changes."""
    k = adjacent.shape[0]
    labels = np.arange(k)
    while True:
        new = np.minimum(np.where(adjacent, labels, k).min(axis=1), labels)
        if np.array_equal(new, labels):
            break
        labels = new
    return [np.flatnonzero(labels == c) for c in np.unique(labels)]


def _weakest_link_split(ratio) -> list:
    """The parts of a cluster left when the weakest link of its strongest
    spanning tree is cut: the components of the graph of pairs whose
    ``ratio`` (distance over radii) is below the largest edge of the minimum
    spanning tree; always two or more."""
    k = ratio.shape[0]
    in_tree = np.zeros(k, dtype=bool)
    in_tree[0] = True
    reach = ratio[0].copy()
    weakest = 0.0
    for _ in range(k - 1):
        j = int(np.argmin(np.where(in_tree, np.inf, reach)))
        weakest = max(weakest, reach[j])
        in_tree[j] = True
        reach = np.minimum(reach, ratio[j])
    return _components(ratio < weakest)


def _cluster_reading(S, T, members, z, tol, floor):
    """Block sizes at ``z`` of the eigenvalues ``members`` of the upper
    triangular pair ``(S, T)`` and whether a rank decision of that reading
    was a close call, or None where not all of them sit at ``z``.

    ``ztgsen`` moves the members to the leading k x k block.  In the
    variable ``nu = 1 / (mu - z)`` that block is the pencil with leading
    coefficient ``S_k - z T_k`` and constant term ``T_k``, whose Weyr
    characteristic at infinity is the one at ``z``; it is read by the
    staircase of :func:`split_infinite`, its rank decisions floored at
    ``floor (1 + |z|)``, the error of ``S - z T`` when each coefficient
    carries ``floor``.  None also where that staircase is inconsistent or
    leaves finite eigenvalues (some member is not at ``z``).
    """
    n, k = S.shape[0], len(members)
    if k < n:
        select = np.zeros(n, dtype=np.int32)
        select[members] = 1
        unused = np.zeros((n, n), dtype=complex)
        S, T, *_, info = lapack.ztgsen(select, S, T, unused, unused, ijob=0, wantq=0, wantz=0)
        if info:
            return None
        S, T = S[:k, :k], T[:k, :k]
    try:
        _, _, _, blocks, _, nw, close = _staircase(
            Pencil(T, S - z * T), tol, _regular_step, floor=floor * (1 + abs(z))
        )
        part = _blocks_at_infinity(blocks)
    except StaircaseError:
        return None
    return None if nw else (part, close)


# Pairs whose distance is at most this many times the sum of their radii
# are read together first; a pair within this factor of the disc test's
# other outcome is a close call.
_MERGE_RATIO = 10.0


def _disc_clusters(w, radii):
    """The ratio of each pair of eigenvalues ``w``, their distance over the
    sum of their disc ``radii``, and the components of the pairs of ratio
    at most ``_MERGE_RATIO``: the clusters read together first."""
    ratio = np.abs(w[:, None] - w[None, :]) / (radii[:, None] + radii[None, :])
    return ratio, _components(ratio <= _MERGE_RATIO)


def _eigen_structure(X: Pencil, mu_inf, tol: float, floor: float):
    """Points and partial multiplicities of the square regular pencil ``X``.

    One QZ (:func:`_triangular_pair`, real for real data) gives the
    triangular pair and :func:`_eigen_discs` each eigenvalue's perturbation
    disc.  The distance of two eigenvalues over the sum of their radii is
    their ratio, and that of an eigenvalue to ``mu_inf`` over its radius its
    ratio to infinity.  Clusters are the components of the graph of pairs
    of ratio at most ``_MERGE_RATIO``.  A lone eigenvalue is simple and
    takes no factorization: it is the point ``mu_inf`` at a ratio to
    infinity of at most ``1 / _MERGE_RATIO``, and its own value beyond
    ``_MERGE_RATIO``.
    A cluster of several is read at ``mu_inf`` when a member is within
    ``_MERGE_RATIO`` of it, else (or when that fails) at its centroid, by
    :func:`_cluster_reading`; a cluster no reading accepts is cut by
    :func:`_weakest_link_split` and its parts are read in turn.

    A disc test decides when its ratio is at most ``1 / _MERGE_RATIO`` or
    beyond ``_MERGE_RATIO``, and a reading when no singular value is within
    a factor 10 of its threshold.  A cluster that its pairs of ratio at most
    ``1 / _MERGE_RATIO`` do not join, a lone eigenvalue with a ratio to
    infinity in between, or a reading with such a singular value, is a
    close call: another structure holds at a tolerance ten times smaller
    or larger.  Its eigenvalues are left out of the points, so that the
    eigenvalue count does not reconcile.

    Returns ``(points, close)``: ``(z, partition, at_infinity)`` triples,
    and whether a cluster was a close call or its reading split it.
    """
    k = X.rows
    if k == 0:
        return [], False
    S, T = _triangular_pair(X)
    w, radii = _eigen_discs(S, T, floor)
    ratio, clusters = _disc_clusters(w, radii)
    to_inf = np.full(k, np.inf) if mu_inf is None else np.abs(w - mu_inf) / radii
    lo = 1.0 / _MERGE_RATIO
    points, close = [], False
    while clusters:
        C = clusters.pop()
        if C.size == 1:
            if lo < to_inf[C[0]] <= _MERGE_RATIO:
                close = True
            else:
                at_inf = to_inf[C[0]] <= lo
                points.append((mu_inf, (1,), True) if at_inf else (complex(w[C[0]]), (1,), False))
            continue
        if len(_components(ratio[np.ix_(C, C)] <= lo)) > 1:
            close = True
            continue
        readings = [(mu_inf, True)] if np.any(to_inf[C] <= _MERGE_RATIO) else []
        readings.append((complex(np.mean(w[C])), False))
        for z, at_inf in readings:
            reading = _cluster_reading(S, T, C, z, tol, floor)
            if reading is not None:
                part, close_reading = reading
                if close_reading:
                    close = True
                else:
                    points.append((z, part, at_inf))
                break
        else:
            close = True
            clusters.extend(C[i] for i in _weakest_link_split(ratio[np.ix_(C, C)]))
    return points, close


def _pair_eigenvalues(S, T, tol: float) -> np.ndarray:
    """Eigenvalues ``alpha / beta`` of the upper triangular pair ``(S, T)``,
    ``alpha`` and ``beta`` their diagonals; an eigenvalue with ``|beta| <=
    tol * (|alpha| + |beta|)`` is infinite, ``inf + 0j``."""
    alpha, beta = np.diagonal(S), np.diagonal(T)
    out = np.full(alpha.size, complex(np.inf, 0.0))
    finite = np.abs(beta) > tol * (np.abs(alpha) + np.abs(beta))
    out[finite] = alpha[finite] / beta[finite]
    return out


def _classified_eigenvalues(X: Pencil, tol: float, seed: int) -> np.ndarray:
    """Eigenvalues of a small regular pencil ``X``, the structure at
    infinity deflated first and each cluster of finite eigenvalues given by
    its mean, repeated by its size.

    Plain QZ splits a defective block at infinity into a cloud of huge
    finite values that can also swallow nearby genuine eigenvalues, so the
    structure at infinity is deflated first (unitarily, by
    :func:`split_infinite`) and QZ runs on the finite block alone.  Only
    then are clusters averaged: the members of a rounding-split multiple
    eigenvalue spread by about the square root (or higher root) of the
    rounding, while their mean moves with the rounding itself.  Clusters
    are the components of the pairs of perturbation discs
    (:func:`_eigen_discs`, floored at the staircase floor of the finite
    block) of ratio at most ``_MERGE_RATIO``; an eigenvalue the ``beta``
    rule of :func:`_pair_eigenvalues` makes infinite joins no cluster.
    When the deflation fails, plain QZ on the whole pencil
    (:func:`~strongmin.pencil.generalized_eigenvalues`) is used instead,
    with a ``RuntimeWarning`` and no averaging.
    """
    if X.rows == 0:
        return np.zeros(0, dtype=complex)
    try:
        _, _, transformed, n_inf, _ = split_infinite(X, tol)
    except StaircaseError as exc:
        warnings.warn(
            f"deflation at infinity failed ({exc}); using plain QZ on the "
            f"{X.rows} x {X.rows} pencil",
            RuntimeWarning,
            stacklevel=2,
        )
        return generalized_eigenvalues(X, tol, seed)
    k = X.rows - n_inf
    out = np.full(X.rows, complex(np.inf, 0.0))
    if k == 0:
        return out
    F = Pencil(transformed.L0[:k, :k], transformed.L1[:k, :k])
    S, T = _triangular_pair(F)
    out[:k] = _pair_eigenvalues(S, T, tol)
    finite = np.flatnonzero(np.isfinite(out))
    if finite.size < 2:
        return out
    with np.errstate(divide="ignore", invalid="ignore"):
        w, radii = _eigen_discs(S, T, _staircase_floor(F, tol))
    w = w[finite]
    for C in _disc_clusters(w, radii[finite])[1]:
        out[finite[C]] = np.mean(w[C])
    return out


def kronecker_structure(
    P: Pencil, tol: float = DEFAULT_TOL, seed: int = 0
) -> KroneckerReport:
    """Complete Kronecker structure report of an arbitrary pencil.

    The pencil is norm-balanced by a power of 2 in lambda and rotated by the
    sampled angle that maximises the r-th singular value of its leading
    coefficient, r the normal rank (:func:`choose_rotation`).  In the
    rotated variable the pencil has no structure at infinity: the original
    point at infinity is the finite point ``mu = -c/s``.  Minimal indices
    (invariant under the rotation) come from the block sizes of the
    staircases that isolate the regular part (:func:`_regular_part`), their
    counts checked against the normal rank; points and partial
    multiplicities from one QZ of the regular part and the perturbation
    discs of its eigenvalues (:func:`_eigen_structure`).  ``ambiguous`` is
    set when a rank decision of those staircases or a clustering decision
    was a close call, or the eigenvalue count does not reconcile with the
    normal-rank bookkeeping.
    """
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

    d_lam = default_lambda_scale(P)
    Pn = lambda_scale(P, d_lam)  # eigenvalues scale by d_lam exactly
    rot = _choose_rotation(Pn, r, seed, tol)
    Pr = mobius_rotate(Pn, rot)
    X, eps, eta, close_staircase = _regular_part(Pr, r, rot.margin, tol)
    if len(eps) != n - r or len(eta) != m - r:
        raise StaircaseError(
            f"minimal index counts {len(eps)}, {len(eta)} disagree with normal rank {r}"
        )
    mu_inf = complex(-rot.c / rot.s) if rot.s else None
    points, close = _eigen_structure(X, mu_inf, tol, _staircase_floor(Pr, tol))
    finite, inf_blocks = {}, []
    for z, part, at_inf in points:
        lam = rot.map_point(z)
        if at_inf or np.isinf(lam):
            inf_blocks.extend(part)
        else:
            key = complex(lam) / d_lam
            finite[key] = tuple(sorted(finite.get(key, ()) + part, reverse=True))
    report = KroneckerReport(
        normal_rank=r,
        finite_eigen=finite,
        infinite_blocks=tuple(sorted(inf_blocks, reverse=True)),
        right_minimal=eps,
        left_minimal=eta,
    )
    report.ambiguous = (
        close
        or close_staircase
        or report.eigenvalue_total() != r - sum(eps) - sum(eta)
    )
    return report
