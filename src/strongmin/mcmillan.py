"""McMillan structure of the transfer function of a system quadruple.

For a strongly minimal quadruple the complete structure of
``R(lambda) = D + C A^{-1} B`` is read off pencil eigenstructures:

* finite zeros of R      <- finite eigenvalues of the system pencil S,
* minimal indices of R   <- minimal indices of S,
* finite poles of R      <- finite eigenvalues of the A block,
* infinite zeros of R    <- infinite blocks of S, sizes shifted by one,
* infinite poles of R    <- block sizes at infinity of an identity-bordered
                            pencil built from the leading coefficients,
                            shifted by one, read off the kernel widths of
                            one staircase (``split_infinite``).

Structural indices follow the local Smith-McMillan convention: at each
point the indices are sorted increasingly, negative values are poles and
positive values are zeros.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import DEFAULT_TOL
from .minreal import MinimalityReport, _minimality_report, _reduce, _test_forms
from .pencil import Pencil, SystemQuadruple, system_pencil, validate_regular
from .staircase import infinity_mcmillan_indices, kronecker_structure, split_infinite


class NotStronglyMinimal(RuntimeError):
    """Structure extraction requires a strongly minimal quadruple."""


@dataclass
class McMillanStructure:
    """Structural data of a rational matrix.

    ``finite_points`` maps each critical point to its sorted structural
    indices; ``infinity_indices`` uses the same convention at infinity.
    The polar degree counts poles (negative indices, in absolute value),
    the zero degree counts zeros, both including infinity, and the McMillan
    degree equals the polar degree.

    ``minimality`` (the input's ``MinimalityReport``, unless assumed),
    ``reduction`` (the ``ReductionRecord`` list, if one ran) and
    ``ambiguous`` (set when either Kronecker report it was read from, or
    the minimality report of the input, is flagged ambiguous) are kept out
    of comparisons.
    """

    normal_rank: int
    finite_points: dict
    infinity_indices: tuple
    right_minimal: tuple
    left_minimal: tuple
    polar_degree: int = field(init=False)
    zero_degree: int = field(init=False)
    minimality: MinimalityReport | None = field(
        default=None, compare=False, repr=False
    )
    reduction: list | None = field(default=None, compare=False, repr=False)
    ambiguous: bool = field(default=False, compare=False)

    def __post_init__(self):
        pol = 0
        zer = 0
        for indices in self.finite_points.values():
            pol += sum(-i for i in indices if i < 0)
            zer += sum(i for i in indices if i > 0)
        pol += sum(-i for i in self.infinity_indices if i < 0)
        zer += sum(i for i in self.infinity_indices if i > 0)
        self.polar_degree = pol
        self.zero_degree = zer

    @property
    def mcmillan_degree(self) -> int:
        return self.polar_degree

    def sorted_points(self):
        return sorted(self.finite_points, key=lambda z: (z.real, z.imag))


def degree_sum_check(s: McMillanStructure) -> bool:
    """Integer identity: polar degree = zero degree + sum of minimal indices."""
    return s.polar_degree == s.zero_degree + sum(s.right_minimal) + sum(
        s.left_minimal
    )


def infinite_pole_pencil(q: SystemQuadruple) -> Pencil:
    """Identity-bordered pencil whose infinite zero structure gives the
    infinite polar structure of the transfer function.  It is square, and
    regular whenever ``q.A`` is.

    Layout (constant terms already eliminated against the identity pivots):

        [[lambda*A1 - A0,  -lambda*B1,  0],
         [lambda*C1,        lambda*D1, -I],
         [0,                I,          0]]
    """
    d, m, n = q.d, q.m, q.n
    N = d + m + n
    L0 = np.zeros((N, N), dtype=q.dtype)
    L0[:d, :d] = q.A.L0
    L0[d : d + m, d + n :] = np.eye(m)
    L0[d + m :, d : d + n] = -np.eye(n)
    L1 = np.zeros((N, N), dtype=q.dtype)
    L1[: d + m, : d + n] = system_pencil(q).L1
    return Pencil(L0, L1)


def _merge_point(mapping, point, indices, match_tol):
    """Accumulate indices at a point, merging it into the first nearby key."""
    keys = np.fromiter(mapping, dtype=complex, count=len(mapping))
    radius = match_tol * np.maximum(np.abs(keys), max(1.0, abs(point)))
    near = np.abs(keys - point) <= radius
    if near.any():
        key = list(mapping)[near.argmax()]
        mapping[key] = tuple(sorted(mapping[key] + tuple(indices)))
    else:
        mapping[complex(point)] = tuple(sorted(indices))


def rational_structure(
    q: SystemQuadruple,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
    assume_strongly_minimal: bool = False,
    reduce_first: bool = True,
) -> McMillanStructure:
    """Complete McMillan structure of the transfer function of ``q``.

    Unless ``assume_strongly_minimal`` is set, strong minimality is
    verified; a non-minimal quadruple is reduced first when
    ``reduce_first`` is enabled (the reduction multiplies the transfer
    function by constant invertible factors, which leaves every structural
    index unchanged) and rejected otherwise.
    """
    report = records = None
    if not assume_strongly_minimal:
        validate_regular(q, tol, seed)
        forms = _test_forms(q, {}, tol, seed)
        report = _minimality_report(forms, tol, seed)
        if not report.strongly_minimal:
            if not reduce_first:
                raise NotStronglyMinimal(
                    "not strongly minimal; enable reduction or reduce first"
                )
            q, _, _, records = _reduce(q, forms, tol, seed)

    S = system_pencil(q)
    rep_S = kronecker_structure(S, tol, seed)
    normal_rank = rep_S.normal_rank - q.d
    ambiguous = rep_S.ambiguous or (report is not None and report.ambiguous)

    finite = {}
    match_tol = 1e-8
    for lam, part in rep_S.finite_eigen.items():
        _merge_point(finite, lam, [int(k) for k in part], match_tol)

    if q.d:
        rep_A = kronecker_structure(q.A, tol, seed)
        ambiguous = ambiguous or rep_A.ambiguous
        for lam, part in rep_A.finite_eigen.items():
            _merge_point(finite, lam, [-int(k) for k in part], match_tol)

    inf_zeros = [int(k) for k in infinity_mcmillan_indices(rep_S)]
    # Only the structure at infinity of this pencil is needed: one staircase
    # gives its block sizes, and a block of size k is a pole of order k - 1.
    *_, blocks = split_infinite(infinite_pole_pencil(q), tol)
    inf_poles = [1 - k for k in blocks if k >= 2]
    infinity = tuple(sorted(inf_poles + inf_zeros))

    return McMillanStructure(
        normal_rank=normal_rank,
        finite_points={k: v for k, v in finite.items()},
        infinity_indices=infinity,
        right_minimal=rep_S.right_minimal,
        left_minimal=rep_S.left_minimal,
        minimality=report,
        reduction=records,
        ambiguous=ambiguous,
    )
