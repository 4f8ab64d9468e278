"""Staircase decompositions and Kronecker structure of matrix pencils.

Two services are provided.

``separate_regular_right`` splits a pencil of full row normal rank into a
regular part carrying every (finite and infinite) eigenvalue and a trailing
part that has full row rank for all lambda including infinity.  The split is
computed with unitary transformations only: the pencil is first rotated so
that its leading coefficient has full row rank (no eigenvalues at infinity
in the rotated variable), after which a single staircase loop of alternating
column/row compressions deflates the regular part.  ``split_infinite`` runs
the same loop, unrotated, to deflate the infinite part of a regular pencil.

``kronecker_structure`` reports the complete Kronecker data of an arbitrary
pencil: finite eigenvalues with partial multiplicities, infinite block
sizes, and left/right minimal indices.  Partial multiplicities at a point
are read off from the nullity increments of the staircase chain matrices at
that point; minimal indices from the nullity ladder of polynomial null
vectors of bounded degree.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    col_compress,
    matrix_rank,
    rank_with_gap,
    random_unitary,
    row_compress,
)
from .pencil import Pencil, mobius_rotate, choose_rotation, normal_rank


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
        eps = []
        for k, (nu, s) in enumerate(self.block_sizes, start=1):
            eps.extend([k - 1] * (nu - s))
        return tuple(sorted(eps))


def _staircase(P: Pencil, tol: float, check):
    """The staircase loop shared by both deflations.

    Each step compresses the columns of the window's ``L1``, then the rows
    of ``L0`` on the kernel columns, moving those rows to the bottom; the
    window shrinks to what is left.  Thresholds are floored at the scale of
    the whole pencil.  ``check(mw, rB, nu, s_rank)`` (window rows, rank of
    ``L1``, kernel width, rank of ``L0`` on the kernel) raises
    :class:`StaircaseError` on a step the caller's problem rules out.
    Returns ``(U, W, U P W^H, blocks, mw, nw)``, ``blocks`` holding the
    ``(nu, s_rank)`` of each step and ``(mw, nw)`` the final window.
    """
    m, n = P.shape
    A = P.L0.copy()
    B = P.L1.copy()
    floor = tol * max(m, n) * P.coefficient_scale()
    U_acc = np.eye(m, dtype=complex)
    Wh_acc = np.eye(n, dtype=complex)
    blocks = []
    mw, nw = m, n
    while mw > 0:
        V, rB = col_compress(B[:mw, :nw], tol, floor)
        nu = nw - rB
        if nu == 0:
            break
        A[:, :nw] = A[:, :nw] @ V
        B[:, :nw] = B[:, :nw] @ V
        Wh_acc[:, :nw] = Wh_acc[:, :nw] @ V
        Urc, s_rank = row_compress(A[:mw, rB:nw], tol, floor)
        check(mw, rB, nu, s_rank)
        Uw = np.vstack([Urc[s_rank:, :], Urc[:s_rank, :]])
        A[:mw, :] = Uw @ A[:mw, :]
        B[:mw, :] = Uw @ B[:mw, :]
        U_acc[:mw, :] = Uw @ U_acc[:mw, :]
        blocks.append((nu, s_rank))
        mw -= s_rank
        nw = rB
    return U_acc, Wh_acc.conj().T, Pencil(A, B), blocks, mw, nw


def separate_regular_right(
    P: Pencil, tol: float = DEFAULT_TOL, seed: int = 0
) -> StaircaseForm:
    """Deflate the regular part of a pencil with full row normal rank.

    Returns a :class:`StaircaseForm`; the transformed pencil is expressed in
    the original variable (the internal rotation is undone).  Raises
    :class:`StaircaseError` when the row normal rank test fails and
    propagates a rotation failure.
    """
    m, n = P.shape
    if m == 0:
        return StaircaseForm(
            np.zeros((0, 0), complex), np.eye(n, dtype=complex), P.copy(), 0, []
        )
    if normal_rank(P, tol, seed) < m:
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
    U, W, T, blocks, mw, nw = _staircase(mobius_rotate(P, rot), tol, full_row_rank)
    if mw == 0 and nw > 0:
        blocks.append((nw, 0))
    elif mw != nw:
        raise StaircaseError("inconsistent deflation count")
    return StaircaseForm(U, W, mobius_rotate(T, rot.inverse()), mw, blocks)


def split_infinite(P: Pencil, tol: float = DEFAULT_TOL):
    """Unitary deflation of the infinite part of a square regular pencil.

    Returns ``(U, W, transformed, n_inf)`` with ``U P(lambda) W^H``
    block lower triangular: the leading block (size ``n - n_inf``) has an
    invertible leading coefficient and carries the finite eigenvalues; the
    trailing block carries the structure at infinity.  Deflating first and
    applying QZ to the finite block only avoids the noise cloud that a
    defective block at infinity spreads over the whole spectrum.
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

    U, W, transformed, _, _, nw = _staircase(P, tol, regular)
    return U, W, transformed, n - nw


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


def _chain_nullity(Ac, Bc, k, tol):
    """Nullity of the k-stage staircase chain matrix at a point.

    The chain matrix stacks ``Ac`` on the block diagonal and ``Bc`` on the
    first block subdiagonal; its kernel holds the length-k Jordan chains at
    the point together with k degrees of freedom per right singular block.
    The rank threshold is floored at the joint coefficient scale: at an
    eigenvalue of full multiplicity ``Ac`` vanishes entirely and a purely
    relative threshold would see a full-rank noise matrix.
    """
    m, n = Ac.shape
    T = np.zeros((k * m, k * n), dtype=complex)
    for j in range(k):
        T[j * m : (j + 1) * m, j * n : (j + 1) * n] = Ac
        if j + 1 < k:
            T[(j + 1) * m : (j + 2) * m, j * n : (j + 1) * n] = Bc
    scale = float(np.hypot(np.linalg.norm(Ac), np.linalg.norm(Bc)))
    rank, amb = rank_with_gap(T, tol, floor=tol * max(T.shape) * scale)
    return k * n - rank, amb


def _weyr_sequence(Ac, Bc, n_singular, tol, max_len):
    """Weyr characteristic at a point from chain-matrix nullity increments.

    Each right singular block inflates every nullity increment by one, so
    ``n_singular`` is subtracted out.  Returns the (nonincreasing) list of
    Weyr numbers and an ambiguity flag.
    """
    weyr = []
    ambiguous = False
    prev = 0
    for k in range(1, max_len + 2):
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


def _minimal_indices_pencil(P: Pencil, count: int, tol: float) -> tuple:
    """Right minimal indices via the polynomial-null-vector degree ladder.

    The dimension of the space of polynomial null vectors of degree <= d
    equals ``sum_{eps_i <= d} (d - eps_i + 1)``, so successive nullity
    differences count the indices not exceeding each degree.
    """
    if count == 0:
        return ()
    m, n = P.shape
    if np.linalg.norm(P.L0) == 0 and np.linalg.norm(P.L1) == 0:
        return (0,) * count
    found = []
    prev2, prev1 = 0, 0
    cap = max(min(m, n), 1) + 1
    for delta in range(cap + 1):
        R = np.zeros(((delta + 2) * m, (delta + 1) * n), dtype=complex)
        for j in range(delta + 1):
            R[j * m : (j + 1) * m, j * n : (j + 1) * n] = P.L0
            R[(j + 1) * m : (j + 2) * m, j * n : (j + 1) * n] = P.L1
        ndim = (delta + 1) * n - matrix_rank(R, tol)
        at_most = ndim - prev1
        exactly = at_most - (prev1 - prev2)
        found.extend([delta] * exactly)
        prev2, prev1 = prev1, ndim
        if len(found) >= count:
            break
    if len(found) != count:
        raise StaircaseError(
            f"minimal index ladder found {len(found)} indices, expected {count}"
        )
    return tuple(sorted(found))


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


def _finite_candidates(P: Pencil, r: int, tol: float, seed: int):
    """Candidate eigenvalues of a (possibly singular) pencil.

    For pencils of full row (or column) normal rank the candidates are the
    eigenvalues of the regular part deflated by the staircase; doubly
    singular pencils fall back to seeded random unitary projections onto an
    r x r pencil, whose spectrum contains the true eigenvalues plus random
    spurious points.  Candidates are validated by a rank drop of P at the
    point; spurious survivors are eliminated later by the multiplicity
    analysis.
    """
    from .linalg import eig_pair

    m, n = P.shape
    if r == 0:
        return []
    vals = []
    if r in (m, n):
        X = separate_regular_right(
            P if r == m else P.transpose(), tol, seed
        ).regular_part
        if X.rows:
            vals = list(eig_pair(X.L0, X.L1, tol))
    else:
        rng = np.random.default_rng(seed)
        for _ in range(2):
            Q = random_unitary(rng, m)[:, :r]
            Z = random_unitary(rng, n)[:, :r]
            vals.extend(
                eig_pair(Q.conj().T @ P.L0 @ Z, Q.conj().T @ P.L1 @ Z, tol)
            )
    finite = [complex(v) for v in vals if np.isfinite(v)]
    n0, n1 = np.linalg.norm(P.L0), np.linalg.norm(P.L1)
    kept = []
    for a in finite:
        s = np.linalg.svd(P(a), compute_uv=False)
        # Threshold against the natural magnitude of P(a), not sigma_1:
        # at an eigenvalue of full multiplicity the whole matrix vanishes.
        scale_a = max(n0 + abs(a) * n1, 1e-300)
        if s[r - 1] <= 1e-6 * scale_a:
            kept.append(a)
    return kept


def _cluster_members(points, radius_rel):
    """Greedy clustering; returns lists of (index, value) member pairs."""
    order = sorted(range(len(points)), key=lambda i: (points[i].real, points[i].imag))
    clusters = []
    for i in order:
        p = points[i]
        placed = False
        for cl in clusters:
            c = sum(v for _, v in cl) / len(cl)
            if abs(p - c) <= radius_rel * max(1.0, abs(c), abs(p)):
                cl.append((i, p))
                placed = True
                break
        if not placed:
            clusters.append([(i, p)])
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
    candidate; minimal indices from polynomial-null-vector degree ladders.
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
    n_eta = m - r
    eps = _minimal_indices_pencil(P, n_eps, tol)
    eta = _minimal_indices_pencil(P.transpose(), n_eta, tol)

    d_lam = default_lambda_scale(P)
    Pn = lambda_scale(P, d_lam)  # eigenvalues scale by d_lam exactly
    rot = _generic_rotation(Pn, r, tol, seed)
    Pr = mobius_rotate(Pn, rot)
    mu_inf = complex(-rot.c / rot.s)

    target = r - sum(eps) - sum(eta)
    points = [mu_inf] + _finite_candidates(Pr, r, tol, seed)

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
            weyr, amb = _weyr_sequence(
                Pr.L0 - z * Pr.L1, Pr.L1, n_eps, tol * tol_mult, r
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
