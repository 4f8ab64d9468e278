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
from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL, as_complex_matrix, eig_pair, matrix_rank


class RotationError(RuntimeError):
    """No admissible rotation found within the retry budget."""


class SingularPencilError(RuntimeError):
    """A pencil required to be regular failed the regularity test."""


@dataclass
class Pencil:
    """Degree-1 matrix polynomial ``P(lambda) = lambda*L1 - L0``."""

    L0: np.ndarray
    L1: np.ndarray

    def __post_init__(self):
        self.L0 = as_complex_matrix(self.L0)
        self.L1 = as_complex_matrix(self.L1)
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

    def copy(self) -> "Pencil":
        return Pencil(self.L0.copy(), self.L1.copy())


def hstack_pencils(pencils) -> Pencil:
    return Pencil(
        np.hstack([p.L0 for p in pencils]), np.hstack([p.L1 for p in pencils])
    )


def vstack_pencils(pencils) -> Pencil:
    return Pencil(
        np.vstack([p.L0 for p in pencils]), np.vstack([p.L1 for p in pencils])
    )


def constant_pencil(M) -> Pencil:
    """Pencil that is identically equal to the constant matrix ``M``."""
    M = as_complex_matrix(M)
    return Pencil(-M, np.zeros_like(M))


def zero_pencil(rows: int, cols: int) -> Pencil:
    z = np.zeros((rows, cols), dtype=complex)
    return Pencil(z, z.copy())


@dataclass
class Rotation:
    """Plane rotation defining the variable change lambda = (c*mu - s)/(s*mu + c)."""

    c: float
    s: float

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


def choose_rotation(P: Pencil, seed: int = 0, tol: float = DEFAULT_TOL) -> Rotation:
    """Rotation making the rotated pencil's leading coefficient full row rank.

    The rotated leading coefficient is singular exactly when cot(theta)
    hits an eigenvalue of the pencil, so almost every angle is admissible;
    what matters numerically is the margin.  A sampled angle whose smallest
    singular value is small produces ill-conditioned kernel extractions in
    the staircase that follows, so the best-conditioned candidate among the
    samples is returned rather than the first admissible one.  The identity
    rotation is kept whenever ``L1`` is itself comfortably full row rank.
    Rank tests are floored at the joint coefficient scale so that a leading
    coefficient consisting of rounding noise is not mistaken for full rank.
    """
    m = P.rows
    if m == 0:
        return IDENTITY_ROTATION
    jscale = P.coefficient_scale()
    if jscale == 0:
        raise RotationError("no admissible rotation found")
    floor = tol * max(P.shape) * jscale

    def margin(L):
        s = np.linalg.svd(L, compute_uv=False)
        return float(s[m - 1])

    if margin(P.L1) >= 0.05 * jscale:
        return IDENTITY_ROTATION
    rng = np.random.default_rng(seed)
    best = None
    best_margin = margin(P.L1) if matrix_rank(P.L1, tol, floor=floor) == m else -1.0
    if best_margin > 0:
        best = IDENTITY_ROTATION
    for _ in range(_ROTATION_TRIES):
        theta = rng.uniform(0.0, math.pi)
        c, s = math.cos(theta), math.sin(theta)
        g = margin(-s * P.L0 + c * P.L1)
        if g > best_margin:
            best, best_margin = Rotation(c, s), g
        if best_margin >= 0.1 * jscale:
            break
    if best is None or best_margin <= floor:
        raise RotationError("no admissible rotation found")
    return best


def lambda_scale(P: Pencil, d_lambda: float) -> Pencil:
    """Variable scaling lambda_hat = d_lambda * lambda.

    Returns the pencil ``lambda_hat * L1 - d_lambda * L0`` whose eigenvalues
    are ``d_lambda`` times those of ``P``.  Powers of 2 rescale the entries
    of ``L0`` without rounding error.
    """
    if not d_lambda > 0:
        raise ValueError("d_lambda must be positive")
    return Pencil(d_lambda * P.L0, P.L1.copy())


def default_lambda_scale(P: Pencil) -> float:
    """Power-of-2 factor equalizing the coefficient norms within sqrt(2).

    The scaled pencil has coefficients ``(d_lambda * L0, L1)``, so the
    equalizing factor is the rounded ratio ``|L1| / |L0|``.
    """
    n0 = np.linalg.norm(P.L0)
    n1 = np.linalg.norm(P.L1)
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

    def transpose(self) -> "SystemQuadruple":
        """Dual quadruple {A^T, C^T, B^T, D^T} (inputs and outputs swap)."""
        return SystemQuadruple(
            self.A.transpose(),
            self.C.transpose(),
            self.B.transpose(),
            self.D.transpose(),
        )

    def coefficient_scale(self) -> float:
        return max(p.coefficient_scale() for p in (self.A, self.B, self.C, self.D))


def quadruple_from_constants(A0, A1, B0, B1, C0, C1, D0, D1) -> SystemQuadruple:
    """Build a quadruple from the eight coefficient matrices."""
    return SystemQuadruple(
        Pencil(A0, A1), Pencil(B0, B1), Pencil(C0, C1), Pencil(D0, D1)
    )


def state_space_quadruple(F, G, H, D=None) -> SystemQuadruple:
    """Classical state-space model ``D + H (lambda*I - F)^{-1} G``."""
    F = as_complex_matrix(F)
    G = as_complex_matrix(G)
    H = as_complex_matrix(H)
    d = F.shape[0]
    m, n = H.shape[0], G.shape[1]
    if D is None:
        D = np.zeros((m, n), dtype=complex)
    return SystemQuadruple(
        Pencil(F, np.eye(d)),
        constant_pencil(G),
        constant_pencil(H),
        constant_pencil(D),
    )


def system_pencil(q: SystemQuadruple) -> Pencil:
    """Assemble S(lambda) = [[A, -B], [C, D]] as a single pencil."""
    L0 = np.block([[q.A.L0, -q.B.L0], [q.C.L0, q.D.L0]])
    L1 = np.block([[q.A.L1, -q.B.L1], [q.C.L1, q.D.L1]])
    return Pencil(L0, L1)


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

    Regularity is verified by :func:`normal_rank`; infinite eigenvalues are
    reported as ``inf + 0j``, one per defect of the leading coefficient in
    the generalized Schur form.
    """
    m, n = P.shape
    if m != n:
        raise SingularPencilError("singular pencil: not square")
    if n == 0:
        return np.zeros(0, dtype=complex)
    if normal_rank(P, tol, seed) < n:
        raise SingularPencilError("singular pencil")
    return eig_pair(P.L0, P.L1, tol)
