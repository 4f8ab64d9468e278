"""Reduction of linear system quadruples to strongly minimal form.

A quadruple {A, B, C, D} (A regular) is strongly E-controllable when the
pencil [A(lambda)  -B(lambda)] has no finite or infinite eigenvalues and
strongly E-observable when its dual [A(lambda)^T  -C(lambda)^T] has none;
it is strongly minimal when both hold.  The staircase form of each test
pencil is computed once per quadruple and shared by the test, the
reduction pass of its side and the reduction's final check; its
eigenvalues are classified once
(:func:`~strongmin.staircase._classified_eigenvalues`), and a close rank
decision of its staircase makes the minimality report ambiguous.  The
reduction deflates the offending eigenvalues with unitary transformations
only, changing the transfer function by constant invertible factors.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

from .linalg import DEFAULT_TOL, col_compress
from .pencil import (
    Pencil,
    SystemQuadruple,
    constant_pencil,
    split_system_pencil,
    system_pencil,
    validate_regular,
)
from .staircase import (
    StaircaseForm,
    _classified_eigenvalues,
    infinity_mcmillan_indices,
    kronecker_structure,
    separate_regular_right,
)


class ReductionError(RuntimeError):
    """The deflation bookkeeping disagreed with the staircase rank data."""


@dataclass
class ReductionRecord:
    """Outcome of one reduction pass on one ``side``.

    ``W33`` is the invertible constant factor the pass puts on the transfer
    function (on the right for ``"controllable"``, on the left for
    ``"observable"``).  ``d_deflated`` states were removed, carrying exactly
    the ``deflated_eigenvalues`` (finite or ``inf``).
    """

    W33: np.ndarray
    d_deflated: int
    side: str
    deflated_eigenvalues: np.ndarray = field(default=None, repr=False)


@dataclass
class MinimalityReport:
    """Strong-minimality verdict, the offending eigenvalues by side, and
    ``ambiguous`` (kept out of comparisons): whether a rank decision of
    either test-pencil staircase was a close call."""

    e_controllable: bool
    e_observable: bool
    strongly_minimal: bool
    offending_eigenvalues: list
    ambiguous: bool = field(default=False, compare=False)

    def __post_init__(self):
        assert self.strongly_minimal == (self.e_controllable and self.e_observable)


def controllability_pencil(q: SystemQuadruple) -> Pencil:
    """The row pencil [A(lambda)  -B(lambda)]: the first d rows of S."""
    S = system_pencil(q)
    return Pencil(S.L0[: q.d], S.L1[: q.d])


def _form_eigenvalues(sf: StaircaseForm, tol: float, seed: int) -> np.ndarray:
    """:func:`_classified_eigenvalues` of the regular part of ``sf``,
    computed on the first call and read from ``sf.eigenvalues`` after.  A
    form is only ever read with the ``tol`` and ``seed`` it was made with."""
    if sf.eigenvalues is None:
        sf.eigenvalues = _classified_eigenvalues(sf.regular_part, tol, seed)
    return sf.eigenvalues


_SIDES = ("controllable", "observable")


def _test_form(q: SystemQuadruple, side: str, tol: float, seed: int) -> StaircaseForm:
    """Staircase form of the test pencil of one ``side`` of ``q``: [A  -B]
    for ``"controllable"``, its dual [A^T  -C^T] (the controllability pencil
    of ``q.transpose()``) for ``"observable"``.  Its ``d_reg`` counts the
    side's eigenvalues, which a reduction pass on that side deflates."""
    if side == "observable":
        q = q.transpose()
    return separate_regular_right(controllability_pencil(q), tol, seed)


def _test_forms(q: SystemQuadruple, held: dict, tol: float, seed: int) -> dict:
    """The test forms of both sides of ``q`` by side, taking those in
    ``held`` (already computed for ``q``) as they are."""
    return {
        side: held[side] if side in held else _test_form(q, side, tol, seed)
        for side in _SIDES
    }


def _minimality_report(forms: dict, tol: float, seed: int) -> MinimalityReport:
    """The strong-minimality verdict read off both sides' test forms."""
    offending = [
        (complex(v), side)
        for side in _SIDES
        for v in _form_eigenvalues(forms[side], tol, seed)
    ]
    e_controllable, e_observable = (forms[side].d_reg == 0 for side in _SIDES)
    return MinimalityReport(
        e_controllable,
        e_observable,
        e_controllable and e_observable,
        offending,
        any(forms[side].close for side in _SIDES),
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
    return _minimality_report(_test_forms(q, {}, tol, seed), tol, seed)


def _bordered_controllable(q: SystemQuadruple) -> Pencil:
    """[S, [0; -I]] = [[A, -B, 0], [C, D, -I]] -- the strong
    controllability test pencil."""
    S = system_pencil(q)
    border = constant_pencil(np.vstack([np.zeros((q.d, q.m)), -np.eye(q.m)]))
    return Pencil(np.hstack([S.L0, border.L0]), np.hstack([S.L1, border.L1]))


def _bordered_observable(q: SystemQuadruple) -> Pencil:
    """[S; [0, I]] = [[A, -B], [C, D], [0, I]] -- the strong observability
    test pencil."""
    S = system_pencil(q)
    border = constant_pencil(np.hstack([np.zeros((q.n, q.d)), np.eye(q.n)]))
    return Pencil(np.vstack([S.L0, border.L0]), np.vstack([S.L1, border.L1]))


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
    sf = _test_form(q, "controllable", tol, seed)
    return _deflate(q, "controllable", sf, tol, seed)


def _deflate(q: SystemQuadruple, side: str, sf: StaircaseForm, tol: float, seed: int):
    """One reduction pass on ``side`` of ``q``, given the staircase form
    ``sf`` of that side's test pencil (:func:`_test_form`).  The observable
    pass is the controllable pass of the transposed quadruple."""
    if side == "observable":
        q_t, rec = _deflate(q.transpose(), "controllable", sf, tol, seed)
        return q_t.transpose(), replace(rec, W33=rec.W33.T.copy(), side=side)
    d, m, n = q.d, q.m, q.n
    r = sf.d_reg
    if r == 0:
        none = np.zeros(0, dtype=complex)
        return q, ReductionRecord(np.eye(n, dtype=sf.W.dtype), 0, "controllable", none)

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
    W_tilde = np.zeros((size, size), dtype=Wsmall.dtype)
    W_tilde[:r, :r] = Wsmall[:r, :r]
    W_tilde[:r, r + dc :] = Wsmall[:r, r:]
    W_tilde[r : r + dc, r : r + dc] = np.eye(dc)
    W_tilde[r + dc :, :r] = Wsmall[r:, :r]
    W_tilde[r + dc :, r + dc :] = Wsmall[r:, r:]
    W33 = Wsmall[r:, r:]

    S = system_pencil(q)
    UL = np.eye(d + m, dtype=sf.U.dtype)
    UL[:d, :d] = sf.U
    VR = np.eye(d + n, dtype=V.dtype)
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

    # The deflated block T[:r, :r] is unitarily equivalent to the regular
    # part of sf, whose eigenvalues it carries.
    q_c = split_system_pencil(Pencil(T0[r:, r:], T1[r:, r:]), d - r)
    deflated = _form_eigenvalues(sf, tol, seed)
    return q_c, ReductionRecord(W33, r, "controllable", deflated)


def reduce_observable(
    q: SystemQuadruple, tol: float = DEFAULT_TOL, seed: int = 0
):
    """Deflate the eigenvalues of [A; C]; dual of :func:`reduce_controllable`.

    Returns ``(q_o, record)`` with ``R_o(lambda) = record.W33 @ R(lambda)``
    (``W33`` is m x m invertible).  Implemented by reducing the transposed
    system and transposing back.
    """
    validate_regular(q, tol, seed)
    sf = _test_form(q, "observable", tol, seed)
    return _deflate(q, "observable", sf, tol, seed)


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
    return _reduce(q, {}, tol, seed, order)


def _reduce(q: SystemQuadruple, forms: dict, tol: float, seed: int, order: str = "co"):
    """:func:`strongly_minimal_reduce` of a validated ``q`` whose test forms
    ``forms`` (by side) are already computed.  The loop holds the forms of
    its current quadruple; a pass that deflates nothing keeps both, and the
    end-of-round check reads ``d_reg`` off them.  ``forms`` is handed over:
    the first pass that deflates empties it, so that a caller's reference
    keeps no form of the input alive through the rest of the reduction.
    Derived quadruples need no validation: a derived A is the trailing
    diagonal block of a block-triangular unitary equivalent of the
    validated A (the leak check of :func:`_deflate` enforces the zero
    block)."""
    Wl = np.eye(q.m, dtype=q.dtype)
    Wr = np.eye(q.n, dtype=q.dtype)
    records = []
    for _ in range(_MAX_PASSES):
        for step in order:
            side = "controllable" if step == "c" else "observable"
            if side not in forms:
                forms[side] = _test_form(q, side, tol, seed)
            reduced, rec = _deflate(q, side, forms[side], tol, seed)
            if rec.d_deflated:
                q = reduced
                forms.clear()
            if side == "controllable":
                Wr = Wr @ rec.W33
            else:
                Wl = rec.W33 @ Wl
            records.append(rec)
        forms = _test_forms(q, forms, tol, seed)
        if all(sf.d_reg == 0 for sf in forms.values()):
            return q, Wl, Wr, records
    raise ReductionError("reduction did not reach a strongly minimal quadruple")
