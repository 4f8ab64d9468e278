"""Matrix pencils and linear system quadruples.

A pencil is stored by its two constant coefficient matrices ``(L0, L1)``
with the convention ``P(lambda) = lambda*L1 - L0``.  A system quadruple
``{A, B, C, D}`` (A square and regular) realizes the rational transfer
function ``R(lambda) = D(lambda) + C(lambda) A(lambda)^{-1} B(lambda)``
through the system pencil

    S(lambda) = [[A(lambda), -B(lambda)],
                 [C(lambda),  D(lambda)]].
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    _field,
    _lapack,
    _rank_rule,
    as_matrix,
    matrix_rank,
)


class RotationError(RuntimeError):
    """No admissible rotation found within the retry budget."""


class SingularPencilError(RuntimeError):
    """A pencil required to be regular failed the regularity test."""


@dataclass
class Pencil:
    """Degree-1 matrix polynomial ``P(lambda) = lambda*L1 - L0``.

    Both coefficients are stored in one field: float64 when both are real,
    complex128 otherwise (:func:`~strongmin.linalg._field`).
    """

    L0: np.ndarray
    L1: np.ndarray

    def __post_init__(self):
        L0, L1 = np.asarray(self.L0), np.asarray(self.L1)
        dtype = _field(L0, L1)
        self.L0 = as_matrix(L0, dtype=dtype)
        self.L1 = as_matrix(L1, dtype=dtype)
        if self.L0.shape != self.L1.shape:
            raise ValueError(
                f"coefficient shapes differ: {self.L0.shape} vs {self.L1.shape}"
            )

    @property
    def shape(self):
        return self.L0.shape

    @property
    def rows(self) -> int:
        return self.L0.shape[0]

    @property
    def cols(self) -> int:
        return self.L0.shape[1]

    def __call__(self, z: complex) -> np.ndarray:
        return z * self.L1 - self.L0

    def transpose(self) -> "Pencil":
        return Pencil(self.L0.T.copy(), self.L1.T.copy())

    def coefficient_scale(self) -> float:
        """Frobenius norm of the stacked coefficients, used for tolerances."""
        return float(math.hypot(np.linalg.norm(self.L0), np.linalg.norm(self.L1)))


def constant_pencil(M) -> Pencil:
    """Pencil that is identically equal to the constant matrix ``M``, in
    the field of ``M``."""
    M = as_matrix(M)
    return Pencil(-M, np.zeros_like(M))


def zero_pencil(rows: int, cols: int) -> Pencil:
    z = np.zeros((rows, cols))
    return Pencil(z, z)


@dataclass
class Rotation:
    """Plane rotation defining the variable change lambda = (c*mu - s)/(s*mu + c).

    ``margin`` is the smallest singular value of the rotated leading
    coefficient ``-s*L0 + c*L1`` when :func:`choose_rotation` measured it,
    else nan; it takes no part in comparisons.
    """

    c: float
    s: float
    margin: float = field(default=math.nan, compare=False, repr=False)

    def __post_init__(self):
        if abs(self.c**2 + self.s**2 - 1.0) > 1e-12:
            raise ValueError("rotation must satisfy c^2 + s^2 = 1")

    def inverse(self) -> "Rotation":
        return Rotation(self.c, -self.s)

    def map_point(self, mu: complex) -> complex:
        """Image lambda of a rotated-variable point mu."""
        if np.isinf(mu):
            if self.s == 0.0:
                return complex(np.inf, 0.0)
            return complex(self.c / self.s)
        den = self.s * mu + self.c
        if den == 0:
            return complex(np.inf, 0.0)
        return (self.c * mu - self.s) / den


IDENTITY_ROTATION = Rotation(1.0, 0.0)


def mobius_rotate(P: Pencil, rot: Rotation) -> Pencil:
    """Rotate the pencil coefficients: eigenvalues move by the Mobius map.

    The rotated pencil in the variable mu has coefficients

        A0~ = c*L0 + s*L1,   A1~ = -s*L0 + c*L1,

    and an eigenvalue mu0 of the result corresponds to the eigenvalue
    lambda0 = (c*mu0 - s)/(s*mu0 + c) of ``P``.
    """
    c, s = rot.c, rot.s
    return Pencil(c * P.L0 + s * P.L1, -s * P.L0 + c * P.L1)


# Random angles choose_rotation samples when the identity is not good enough.
_ROTATION_TRIES = 32

# Rows from which choose_rotation bounds an angle's margin before its SVD.
# Measured at n = m + 2 on one core of a 2-vCPU Xeon VM, a one-solve bound
# costs 26 us against a 20 us SVD at m = 8, 35 us against 47 us at m = 16
# and 0.19 ms against 1.25 ms at m = 96: below the crossover a bound costs
# more than the SVD it can save.
_BOUND_MIN_ROWS = 16

# Inverse-iteration solves a bound may take before the SVD is run anyway.
_BOUND_SOLVES = 3


class _MarginBound:
    """Certified upper bounds on the margin of rotated leading coefficients.

    For ``M = -s*L0 + c*L1`` (m x n, m <= n) and any nonzero ``y``,
    ``sigma_m(M) <= |M^H y| / |y|`` (Courant-Fischer).  ``y`` comes from
    inverse iteration on the Gram matrix ``G = M M^H``, assembled per angle
    as ``s^2*K00 - s*c*H + c^2*K11`` from three products formed once and
    factored by Cholesky.  The quotient itself is evaluated on ``M``, so an
    inaccurate ``G`` only weakens the bound, never invalidates it.
    """

    def __init__(self, P: Pencil):
        L0, L1 = P.L0, P.L1
        X = L0 @ L1.conj().T
        self.K00, self.H, self.K11 = L0 @ L0.conj().T, X + X.conj().T, L1 @ L1.conj().T
        self.potrf, self.potrs = _lapack("potrf", L0), _lapack("potrs", L0)
        # A fixed start of its own keeps the angle stream untouched; real
        # data take its real part.
        rng = np.random.default_rng(0)
        start = rng.standard_normal(P.rows) + 1j * rng.standard_normal(P.rows)
        self.start = start if np.iscomplexobj(L0) else start.real

    def __call__(self, M: np.ndarray, c: float, s: float, target: float) -> float:
        """Upper bound on ``sigma_m(M)``, ``M = -s*L0 + c*L1``.

        Solves stop as soon as the bound falls below ``target``.  The bound
        is padded by ``100 * max(m, n) * eps * |M|_F``, which covers the
        rounding of the quotient and of LAPACK's ``sigma_m``.  Returns inf
        when the Cholesky factorization fails or ``y`` is not finite.
        """
        G = (s * s) * self.K00 - (s * c) * self.H + (c * c) * self.K11
        R, info = self.potrf(G, lower=0, clean=0, overwrite_a=1)
        if info != 0:
            return math.inf
        pad = 100 * max(M.shape) * np.finfo(float).eps * np.linalg.norm(M)
        Mh = M.conj().T
        y, bound = self.start, math.inf
        for _ in range(_BOUND_SOLVES):
            y, info = self.potrs(R, y, lower=0)
            norm_y = np.linalg.norm(y)
            if info != 0 or not 0 < norm_y < math.inf:
                return math.inf
            y = y / norm_y
            bound = float(np.linalg.norm(Mh @ y) / np.linalg.norm(y) + pad)
            if bound < target:
                break
        return bound


def choose_rotation(P: Pencil, seed: int = 0, tol: float = DEFAULT_TOL) -> Rotation:
    """Rotation making the rotated pencil's leading coefficient full row rank.

    The rotated leading coefficient is singular exactly when cot(theta)
    hits an eigenvalue of the pencil, so almost every angle is admissible;
    what matters numerically is the margin.  A sampled angle whose smallest
    singular value is small produces ill-conditioned kernel extractions in
    the staircase that follows, so the best-conditioned candidate among the
    samples is returned rather than the first admissible one.  The identity
    rotation is kept whenever ``L1`` is itself comfortably full row rank:
    ``sigma_m(L1) >= 0.05 * |(d * L0, L1)|_F``, ``d`` the power of 2 of
    :func:`default_lambda_scale`.  On that lambda-balanced scale the test
    does not change under ``lambda -> 2^k lambda``, and ``[lambda*I - F,
    -G]`` keeps the identity however large ``F`` is; a pencil that is
    already balanced (``d = 1``) is judged on its own norm.  Rank tests are
    floored at the joint coefficient scale so that a leading coefficient
    consisting of rounding noise is not mistaken for full rank.

    From ``_BOUND_MIN_ROWS`` rows on, once some candidate has a positive
    margin, each sampled angle is first bounded by :class:`_MarginBound`:
    ``sigma_m(M) <= |M^H y| / |y|`` for the rotated coefficient ``M``, padded
    by ``100 * max(m, n) * eps * |M|_F`` for rounding in the bound and in
    LAPACK's singular values.  An angle whose padded bound is below the best
    margin so far cannot win, so its SVD is skipped.  Every winner is still
    picked by its own SVD margin, from the same angle stream and by the same
    comparisons, so the result is bitwise the same as without the bounds.

    The returned rotation carries the winner's SVD margin in ``margin``
    (inf for a pencil without rows), so :func:`separate_regular_right` can
    certify its staircase without factoring the rotated coefficient again.
    """
    if P.rows > P.cols:
        raise RotationError("no admissible rotation: more rows than columns")
    return _choose_rotation(P, P.rows, seed, tol)


def _choose_rotation(P: Pencil, rank: int, seed: int, tol: float) -> Rotation:
    """:func:`choose_rotation` for a target rank ``rank <= min(m, n)``: the
    sampled angle maximising ``sigma_rank`` of the rotated leading
    coefficient, which then has rank ``rank``.  A target equal to the
    column count of a pencil with more rows is sampled on the transpose
    (the rotation acts on the coefficients alone, so it is the same one),
    so the margin bounds apply whenever the target is the full row or
    column rank."""
    if rank == 0:
        return Rotation(1.0, 0.0, math.inf)
    if rank == P.cols < P.rows:
        P = P.transpose()
    m = P.rows
    n0, n1 = np.linalg.norm(P.L0), np.linalg.norm(P.L1)
    jscale = math.hypot(n0, n1)  # the joint scale, P.coefficient_scale()
    if jscale == 0:
        raise RotationError("no admissible rotation found")
    floor = tol * max(P.shape) * jscale

    # One SVD of L1 gives both its margin and its rank decision.  The
    # identity is judged on the lambda-balanced scale, so that the decision
    # does not change under lambda -> 2^k lambda.
    s1 = np.linalg.svd(P.L1, compute_uv=False)
    if s1[rank - 1] >= 0.05 * math.hypot(_balancing_power(n0, n1) * n0, n1):
        return Rotation(1.0, 0.0, float(s1[rank - 1]))
    rng = np.random.default_rng(seed)
    best = None
    full_rank = _rank_rule(s1, P.L1.shape, tol, floor)[0] >= rank
    best_margin = float(s1[rank - 1]) if full_rank else -1.0
    if best_margin > 0:
        best = IDENTITY_ROTATION
    bound = None
    bounded = rank == m >= _BOUND_MIN_ROWS
    for _ in range(_ROTATION_TRIES):
        theta = rng.uniform(0.0, math.pi)
        c, s = math.cos(theta), math.sin(theta)
        M = -s * P.L0 + c * P.L1
        if best_margin > 0 and bounded:
            if bound is None:
                bound = _MarginBound(P)
            if bound(M, c, s, best_margin) < best_margin:
                # Cannot win: best_margin, and so the stop test, are unchanged.
                continue
        g = float(np.linalg.svd(M, compute_uv=False)[rank - 1])
        if g > best_margin:
            best, best_margin = Rotation(c, s), g
        if best_margin >= 0.1 * jscale:
            break
    if best is None or best_margin <= floor:
        raise RotationError("no admissible rotation found")
    return Rotation(best.c, best.s, best_margin)


def lambda_scale(P: Pencil, d_lambda: float) -> Pencil:
    """Variable scaling lambda_hat = d_lambda * lambda.

    Returns the pencil ``lambda_hat * L1 - d_lambda * L0`` whose eigenvalues
    are ``d_lambda`` times those of ``P``.  Powers of 2 rescale the entries
    of ``L0`` without rounding error.
    """
    if not d_lambda > 0:
        raise ValueError("d_lambda must be positive")
    return Pencil(d_lambda * P.L0, P.L1)


def default_lambda_scale(P: Pencil) -> float:
    """Power-of-2 factor equalizing the coefficient norms within sqrt(2).

    The scaled pencil has coefficients ``(d_lambda * L0, L1)``, so the
    equalizing factor is the rounded ratio ``|L1| / |L0|``.
    """
    return _balancing_power(np.linalg.norm(P.L0), np.linalg.norm(P.L1))


def _balancing_power(n0: float, n1: float) -> float:
    """:func:`default_lambda_scale` of coefficients of norms ``n0``, ``n1``."""
    if n0 == 0 or n1 == 0:
        return 1.0
    return float(2.0 ** round(math.log2(n1 / n0)))


@dataclass
class SystemQuadruple:
    """Four pencil blocks {A, B, C, D} with A square and regular."""

    A: Pencil
    B: Pencil
    C: Pencil
    D: Pencil

    def __post_init__(self):
        d = self.A.rows
        if self.A.cols != d:
            raise ValueError("A block must be square")
        m, n = self.C.rows, self.B.cols
        if self.B.rows != d or self.C.cols != d:
            raise ValueError("B/C blocks inconsistent with A")
        if self.D.shape != (m, n):
            raise ValueError("D block inconsistent with B/C")

    @property
    def d(self) -> int:
        return self.A.rows

    @property
    def m(self) -> int:
        return self.C.rows

    @property
    def n(self) -> int:
        return self.B.cols

    @property
    def dtype(self) -> np.dtype:
        """The field of the four pencils together: float64 when all are
        real, else complex128."""
        return _field(self.A.L0, self.B.L0, self.C.L0, self.D.L0)

    def transpose(self) -> "SystemQuadruple":
        """Dual quadruple {A^T, C^T, B^T, D^T} (inputs and outputs swap)."""
        return SystemQuadruple(
            self.A.transpose(),
            self.C.transpose(),
            self.B.transpose(),
            self.D.transpose(),
        )


def quadruple_from_constants(A0, A1, B0, B1, C0, C1, D0, D1) -> SystemQuadruple:
    """Build a quadruple from the eight coefficient matrices."""
    return SystemQuadruple(
        Pencil(A0, A1), Pencil(B0, B1), Pencil(C0, C1), Pencil(D0, D1)
    )


def state_space_quadruple(F, G, H, D=None) -> SystemQuadruple:
    """Classical state-space model ``D + H (lambda*I - F)^{-1} G``; each
    block keeps the field of its data."""
    F = as_matrix(F)
    G = as_matrix(G)
    H = as_matrix(H)
    d = F.shape[0]
    m, n = H.shape[0], G.shape[1]
    if D is None:
        D = np.zeros((m, n))
    return SystemQuadruple(
        Pencil(F, np.eye(d)),
        constant_pencil(G),
        constant_pencil(H),
        constant_pencil(D),
    )


def system_pencil(q: SystemQuadruple) -> Pencil:
    """Assemble S(lambda) = [[A, -B], [C, D]] as a single pencil.

    With :func:`split_system_pencil` this is the one place that knows the
    block layout of ``S`` and the sign of its ``B`` block.
    """
    d, dtype = q.d, q.dtype

    def assemble(A, B, C, D):
        S = np.empty((d + q.m, d + q.n), dtype=dtype)
        S[:d, :d], S[:d, d:], S[d:, :d], S[d:, d:] = A, -B, C, D
        return S

    return Pencil(
        assemble(q.A.L0, q.B.L0, q.C.L0, q.D.L0),
        assemble(q.A.L1, q.B.L1, q.C.L1, q.D.L1),
    )


def split_system_pencil(S: Pencil, d: int) -> SystemQuadruple:
    """Inverse of :func:`system_pencil`: the quadruple whose A block is the
    leading ``d x d`` block of ``S``."""
    L0, L1 = S.L0, S.L1
    return SystemQuadruple(
        Pencil(L0[:d, :d], L1[:d, :d]),
        Pencil(-L0[:d, d:], -L1[:d, d:]),
        Pencil(L0[d:, :d], L1[d:, :d]),
        Pencil(L0[d:, d:], L1[d:, d:]),
    )


def normal_rank(P: Pencil, tol: float = DEFAULT_TOL, seed: int = 0) -> int:
    """Normal rank from the maximum rank over seeded random evaluations.

    Points are drawn at several radii: a single badly matched radius can
    spread the singular values of the evaluation past 1/tol even though
    the pencil has full normal rank.  The first radius is the coefficient
    norm ratio ``|L0| / |L1|``, clamped to [1e-2, 1e2].
    """
    m, n = P.shape
    if m == 0 or n == 0:
        return 0
    rng = np.random.default_rng(seed)
    n0, n1 = np.linalg.norm(P.L0), np.linalg.norm(P.L1)
    if n0 == 0 and n1 == 0:
        return 0
    rho = min(max((n0 + 1e-300) / (n1 + 1e-300), 1e-2), 1e2)
    best = 0
    for radius in (rho, 1.0, np.sqrt(rho)):
        for _ in range(2):
            z = radius * np.exp(2j * np.pi * rng.uniform())
            best = max(best, matrix_rank(P(z), tol))
            if best == min(m, n):
                return best
    return best


def validate_regular(q: SystemQuadruple, tol: float = DEFAULT_TOL, seed: int = 0) -> None:
    """Probabilistic regularity check of the A block.

    A full-rank leading coefficient certifies regularity outright; otherwise
    the :func:`normal_rank` of ``A`` must be full.  Raises
    :class:`SingularPencilError` when it is not.
    """
    d = q.d
    if d == 0:
        return
    if matrix_rank(q.A.L1, tol) == d:
        return
    if normal_rank(q.A, tol, seed) < d:
        raise SingularPencilError("A block is singular as a polynomial matrix")


def transfer_eval(q: SystemQuadruple, z: complex, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Evaluate R(z) = D(z) + C(z) A(z)^{-1} B(z).

    Raises :class:`SingularPencilError` when ``A(z)`` is numerically
    singular (evaluation at a pole of the A block).
    """
    Dz = q.D(z)
    if q.d == 0:
        return Dz
    Az = q.A(z)
    if matrix_rank(Az, tol) < q.d:
        raise SingularPencilError("evaluation at pole of A")
    return Dz + q.C(z) @ np.linalg.solve(Az, q.B(z))


def generalized_eigenvalues(
    P: Pencil, tol: float = DEFAULT_TOL, seed: int = 0
) -> np.ndarray:
    """Eigenvalues (finite and infinite) of a square regular pencil.

    Regularity is verified by :func:`normal_rank`.  The eigenvalues are the
    diagonal ratios ``alpha / beta`` of one QZ, the triangular pair of
    :func:`~strongmin.staircase._triangular_pair`; a pair with ``|beta| <=
    tol * (|alpha| + |beta|)`` is infinite and reported as ``inf + 0j``.
    Nothing is deflated or averaged: a defective eigenvalue comes out split
    by the rounding.
    """
    # Imported here: strongmin.staircase imports this module.
    from .staircase import _pair_eigenvalues, _triangular_pair

    m, n = P.shape
    if m != n:
        raise SingularPencilError("singular pencil: not square")
    if n == 0:
        return np.zeros(0, dtype=complex)
    if normal_rank(P, tol, seed) < n:
        raise SingularPencilError("singular pencil")
    return _pair_eigenvalues(*_triangular_pair(P), tol)
