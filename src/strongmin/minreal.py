"""Reduction of linear system quadruples to strongly minimal form.

A quadruple {A, B, C, D} (A regular) is strongly E-controllable when the
pencil [A(lambda)  -B(lambda)] has no finite or infinite eigenvalues and
strongly E-observable when the stacked pencil [A(lambda); C(lambda)] has
none; it is strongly minimal when both hold.  The reduction deflates the
offending eigenvalues with unitary transformations only, changing the
transfer function by constant invertible factors on the left/right.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .linalg import DEFAULT_TOL, col_compress
from .pencil import (
    Pencil,
    SystemQuadruple,
    generalized_eigenvalues,
    hstack_pencils,
    system_pencil,
    validate_regular,
    vstack_pencils,
    zero_pencil,
    constant_pencil,
)
from .staircase import (
    StaircaseError,
    infinity_mcmillan_indices,
    kronecker_structure,
    separate_regular_right,
)


class ReductionError(RuntimeError):
    """The deflation bookkeeping disagreed with the staircase rank data."""


@dataclass
class ReductionRecord:
    """Transformations and deflation data of one reduction pass.

    The structured unitary ``W_tilde`` has the block pattern
    [[W11, 0, W13], [0, I, 0], [W31, 0, W33]] with ``W33`` invertible; the
    deflated pencil ``X_deflated`` is regular of size ``d_deflated`` and
    carries exactly the eigenvalues removed from the system.
    """

    U: np.ndarray
    V: np.ndarray
    W_tilde: np.ndarray
    W33: np.ndarray
    d_deflated: int
    X_deflated: Pencil
    side: str
    deflated_eigenvalues: np.ndarray = field(default=None, repr=False)


@dataclass
class MinimalityReport:
    e_controllable: bool
    e_observable: bool
    strongly_minimal: bool
    offending_eigenvalues: list

    def __post_init__(self):
        assert self.strongly_minimal == (self.e_controllable and self.e_observable)


def controllability_pencil(q: SystemQuadruple) -> Pencil:
    """The row pencil [A(lambda)  -B(lambda)]."""
    return Pencil(
        np.hstack([q.A.L0, -q.B.L0]), np.hstack([q.A.L1, -q.B.L1])
    )


def _classified_eigenvalues(X: Pencil, tol: float, seed: int) -> np.ndarray:
    """Eigenvalues of a small regular pencil with structural infinity
    classification.

    Plain QZ splits a defective block at infinity into a cloud of huge
    finite values that can also swallow nearby genuine eigenvalues, so the
    structure at infinity is deflated first (unitarily) and QZ runs on the
    finite block alone.  When the deflation fails, plain QZ on the whole
    pencil is used instead, with a ``RuntimeWarning``.
    """
    from .linalg import eig_pair
    from .staircase import split_infinite

    if X.rows == 0:
        return np.zeros(0, dtype=complex)
    try:
        _, _, transformed, n_inf = split_infinite(X, tol)
    except StaircaseError as exc:
        warnings.warn(
            f"deflation at infinity failed ({exc}); using plain QZ on the "
            f"{X.rows} x {X.rows} pencil",
            RuntimeWarning,
            stacklevel=2,
        )
        n_inf = 0
        finite = generalized_eigenvalues(X, tol, seed)
    else:
        k = X.rows - n_inf
        finite = eig_pair(transformed.L0[:k, :k], transformed.L1[:k, :k], tol)
    vals = list(finite) + [complex(np.inf, 0.0)] * n_inf
    return np.asarray(vals, dtype=complex)


def observability_pencil(q: SystemQuadruple) -> Pencil:
    """The column pencil [A(lambda); C(lambda)]."""
    return Pencil(
        np.vstack([q.A.L0, q.C.L0]), np.vstack([q.A.L1, q.C.L1])
    )


def is_strongly_minimal(
    q: SystemQuadruple, tol: float = DEFAULT_TOL, seed: int = 0
) -> MinimalityReport:
    """Decide strong E-controllability/observability of a quadruple.

    The staircase deflation counts the eigenvalues of the two test pencils;
    a quadruple is strongly minimal exactly when both counts are zero.  The
    offending eigenvalues (finite or ``inf``) are listed with their side.
    """
    validate_regular(q, tol, seed)
    offending = []

    sf_c = separate_regular_right(controllability_pencil(q), tol, seed)
    e_controllable = sf_c.d_reg == 0
    if not e_controllable:
        for v in _classified_eigenvalues(sf_c.regular_part, tol, seed):
            offending.append((complex(v), "controllable"))

    sf_o = separate_regular_right(observability_pencil(q).transpose(), tol, seed)
    e_observable = sf_o.d_reg == 0
    if not e_observable:
        for v in _classified_eigenvalues(sf_o.regular_part, tol, seed):
            offending.append((complex(v), "observable"))

    return MinimalityReport(
        e_controllable=e_controllable,
        e_observable=e_observable,
        strongly_minimal=e_controllable and e_observable,
        offending_eigenvalues=offending,
    )


def _bordered_controllable(q: SystemQuadruple) -> Pencil:
    """[[A, -B, 0], [C, D, -I]] -- the strong controllability test pencil."""
    top = hstack_pencils([q.A, Pencil(-q.B.L0, -q.B.L1), zero_pencil(q.d, q.m)])
    bot = hstack_pencils([q.C, q.D, constant_pencil(-np.eye(q.m))])
    return vstack_pencils([top, bot])


def _bordered_observable(q: SystemQuadruple) -> Pencil:
    """[[A, -B], [C, D], [0, I]] -- the strong observability test pencil."""
    rows = [
        hstack_pencils([q.A, Pencil(-q.B.L0, -q.B.L1)]),
        hstack_pencils([q.C, q.D]),
        hstack_pencils([zero_pencil(q.n, q.d), constant_pencil(np.eye(q.n))]),
    ]
    return vstack_pencils(rows)


def is_strongly_irreducible(
    q: SystemQuadruple, tol: float = DEFAULT_TOL, seed: int = 0
) -> bool:
    """True when both identity-bordered pencils have no finite or infinite zeros.

    Infinite zeros are interpreted in the McMillan sense: a Kronecker block
    of size k at infinity is a zero only for k >= 2.
    """
    validate_regular(q, tol, seed)
    for pencil in (_bordered_controllable(q), _bordered_observable(q)):
        rep = kronecker_structure(pencil, tol, seed)
        if rep.finite_eigen or infinity_mcmillan_indices(rep):
            return False
    return True


def _identity_record(q: SystemQuadruple, side: str) -> ReductionRecord:
    d, m, n = q.d, q.m, q.n
    k = n if side == "controllable" else m
    size = d + k
    return ReductionRecord(
        U=np.eye(d, dtype=complex),
        V=np.eye(d, dtype=complex),
        W_tilde=np.eye(size, dtype=complex),
        W33=np.eye(k, dtype=complex),
        d_deflated=0,
        X_deflated=zero_pencil(0, 0),
        side=side,
        deflated_eigenvalues=np.zeros(0, dtype=complex),
    )


def reduce_controllable(
    q: SystemQuadruple, tol: float = DEFAULT_TOL, seed: int = 0
):
    """Deflate the eigenvalues of [A  -B], producing a strongly
    E-controllable quadruple.

    Returns ``(q_c, record)`` where the transfer functions satisfy
    ``R_c(lambda) = R(lambda) @ record.W33`` with ``W33`` invertible, and
    [A_c  -B_c] has no finite or infinite eigenvalues.  Strong
    E-observability of the input is preserved.
    """
    validate_regular(q, tol, seed)
    d, m, n = q.d, q.m, q.n
    sf = separate_regular_right(controllability_pencil(q), tol, seed)
    r = sf.d_reg
    if r == 0:
        return q, _identity_record(q, "controllable")

    # Rows 0:r of the staircase column transformation, split over the
    # A-columns and the B-columns.
    W_top = sf.W[:r, :]
    W_ab = W_top[:, :d]
    W13 = W_top[:, d:]
    V, rv = col_compress(W_ab, tol)
    if rv != r:
        raise ReductionError(
            f"inconsistent deflation count: compressed rank {rv}, expected {r}"
        )

    # [What11 | W13] has orthonormal rows, so its conjugate transpose and an
    # orthonormal basis of its null space assemble the structured unitary
    # eliminating W13.
    What11 = (W_ab @ V)[:, :r]
    Mrow = np.hstack([What11, W13])
    Ncomp = scipy.linalg.null_space(Mrow)
    if Ncomp.shape[1] != n:
        raise ReductionError("inconsistent deflation count: null space defect")
    Wsmall = np.hstack([Mrow.conj().T, Ncomp])

    dc = d - r
    size = d + n
    W_tilde = np.zeros((size, size), dtype=complex)
    W_tilde[:r, :r] = Wsmall[:r, :r]
    W_tilde[:r, r + dc :] = Wsmall[:r, r:]
    W_tilde[r : r + dc, r : r + dc] = np.eye(dc)
    W_tilde[r + dc :, :r] = Wsmall[r:, :r]
    W_tilde[r + dc :, r + dc :] = Wsmall[r:, r:]
    W33 = Wsmall[r:, r:]

    S = system_pencil(q)
    UL = np.eye(d + m, dtype=complex)
    UL[:d, :d] = sf.U
    VR = np.eye(d + n, dtype=complex)
    VR[:d, :d] = V
    T0 = UL @ S.L0 @ VR @ W_tilde
    T1 = UL @ S.L1 @ VR @ W_tilde

    # Zero pattern check of the deflated first block row.
    scale = max(np.linalg.norm(T0), np.linalg.norm(T1), 1e-300)
    leak = max(
        np.linalg.norm(T0[:r, r:]), np.linalg.norm(T1[:r, r:])
    )
    if leak > 1e4 * tol * max(d + m, d + n) * scale:
        raise ReductionError(
            f"inconsistent deflation count: residual {leak:.2e} in deflated row"
        )

    X = Pencil(T0[:r, :r], T1[:r, :r])
    A_c = Pencil(T0[r:d, r:d], T1[r:d, r:d])
    B_c = Pencil(-T0[r:d, d:], -T1[r:d, d:])
    C_c = Pencil(T0[d:, r:d], T1[d:, r:d])
    D_c = Pencil(T0[d:, d:], T1[d:, d:])
    q_c = SystemQuadruple(A_c, B_c, C_c, D_c)
    record = ReductionRecord(
        U=sf.U,
        V=V,
        W_tilde=W_tilde,
        W33=W33,
        d_deflated=r,
        X_deflated=X,
        side="controllable",
        deflated_eigenvalues=_classified_eigenvalues(X, tol, seed),
    )
    return q_c, record


def reduce_observable(
    q: SystemQuadruple, tol: float = DEFAULT_TOL, seed: int = 0
):
    """Deflate the eigenvalues of [A; C]; dual of :func:`reduce_controllable`.

    Returns ``(q_o, record)`` with ``R_o(lambda) = record.W33 @ R(lambda)``
    (``W33`` is m x m invertible).  Implemented by reducing the transposed
    system and transposing back.
    """
    q_t, rec_t = reduce_controllable(q.transpose(), tol, seed)
    q_o = q_t.transpose()
    record = ReductionRecord(
        U=rec_t.U,
        V=rec_t.V,
        W_tilde=rec_t.W_tilde,
        W33=rec_t.W33.T.copy(),
        d_deflated=rec_t.d_deflated,
        X_deflated=rec_t.X_deflated.transpose(),
        side="observable",
        deflated_eigenvalues=rec_t.deflated_eigenvalues,
    )
    return q_o, record


# Reduction passes strongly_minimal_reduce makes before giving up.
_MAX_PASSES = 4


def strongly_minimal_reduce(
    q: SystemQuadruple,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
    order: str = "co",
):
    """Reduce a quadruple to strongly minimal form.

    Applies the controllable and observable reductions in the requested
    ``order`` ('co' = controllable first) and verifies the result, repeating
    when rank decisions left residual eigenvalues.  Returns
    ``(q_min, Wl, Wr, records)`` with the transfer functions related by
    ``R_min(lambda) = Wl @ R(lambda) @ Wr`` for constant invertible ``Wl``
    (m x m) and ``Wr`` (n x n); minimal indices are unchanged.
    """
    if order not in ("co", "oc"):
        raise ValueError("order must be 'co' or 'oc'")
    validate_regular(q, tol, seed)
    m, n = q.m, q.n
    Wl = np.eye(m, dtype=complex)
    Wr = np.eye(n, dtype=complex)
    records = []
    current = q
    for _ in range(_MAX_PASSES):
        for step in order:
            if step == "c":
                current, rec = reduce_controllable(current, tol, seed)
                Wr = Wr @ rec.W33
            else:
                current, rec = reduce_observable(current, tol, seed)
                Wl = rec.W33 @ Wl
            records.append(rec)
        report = is_strongly_minimal(current, tol, seed)
        if report.strongly_minimal:
            return current, Wl, Wr, records
    raise ReductionError("reduction did not reach a strongly minimal quadruple")
