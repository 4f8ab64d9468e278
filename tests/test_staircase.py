import numpy as np
import pytest
from scipy.linalg import lapack
from scipy.optimize import linear_sum_assignment

from strongmin.linalg import (
    DEFAULT_TOL,
    _rank_rule,
    col_compress,
    eig_pair,
    random_unitary,
    row_compress,
)
from strongmin.pencil import (
    Pencil,
    Rotation,
    choose_rotation,
    generalized_eigenvalues,
    mobius_rotate,
)
from strongmin.staircase import (
    _ESCALATION,
    StaircaseError,
    StaircaseForm,
    _chain_floor,
    _chain_nullity,
    _point_kernels,
    _second_chain_nullity,
    infinity_mcmillan_indices,
    kronecker_structure,
    separate_regular_right,
    split_infinite,
)

EPS = np.finfo(float).eps


def pencil(L0, L1):
    return Pencil(np.asarray(L0, float), np.asarray(L1, float))


def L_block(eps):
    """Right singular Kronecker block of index eps: eps x (eps+1)."""
    L0 = np.zeros((eps, eps + 1))
    L1 = np.zeros((eps, eps + 1))
    L0[:, 1:] = np.eye(eps)
    L1[:, :eps] = np.eye(eps)
    return Pencil(L0, L1)


def jordan_block(lam, k):
    """lambda*I - J_k(lam)."""
    J = lam * np.eye(k) + np.diag(np.ones(k - 1), 1)
    return Pencil(J, np.eye(k))


def inf_block(k):
    """Kronecker block of size k at infinity: lambda*N - I."""
    N = np.diag(np.ones(k - 1), 1) if k > 1 else np.zeros((1, 1))
    return Pencil(np.eye(k), N)


def direct_sum(*pencils):
    import scipy.linalg

    return Pencil(
        scipy.linalg.block_diag(*[p.L0 for p in pencils]),
        scipy.linalg.block_diag(*[p.L1 for p in pencils]),
    )


def unitary_equivalent(P, seed):
    rng = np.random.default_rng(seed)
    Q = random_unitary(rng, P.rows)
    Z = random_unitary(rng, P.cols)
    return Pencil(Q @ P.L0 @ Z, Q @ P.L1 @ Z)


class TestSeparateRegularRight:
    def check_form(self, P, sf):
        """Residual, unitarity and block shape of a staircase form."""
        m, n = P.shape
        assert np.linalg.norm(sf.U @ sf.U.conj().T - np.eye(m)) < 200 * EPS * max(m, 1)
        assert np.linalg.norm(sf.W @ sf.W.conj().T - np.eye(n)) < 200 * EPS * max(n, 1)
        scale = P.coefficient_scale()
        for z in (0.0, 1.0, -0.7, 2.3j):
            res = sf.U @ P(z) @ sf.W.conj().T - sf.transformed(z)
            assert np.linalg.norm(res) < 1e-10 * scale * (1 + abs(z))
        r = sf.d_reg
        leak = max(
            np.linalg.norm(sf.transformed.L0[:r, r:]),
            np.linalg.norm(sf.transformed.L1[:r, r:]),
        )
        assert leak < 1e-10 * max(scale, 1.0)

    def test_no_eigenvalues(self):
        P = pencil([[1.0, 1.0]], [[1.0, 0.0]])  # [lambda - 1, -1]
        sf = separate_regular_right(P)
        assert sf.d_reg == 0
        self.check_form(P, sf)
        assert sf.right_minimal_indices() == (1,)

    def test_no_rows(self):
        # Every column of a pencil without rows is an L_0 block.
        P = Pencil(np.zeros((0, 3)), np.zeros((0, 3)))
        sf = separate_regular_right(P)
        assert sf.d_reg == 0
        assert sf.right_minimal_indices() == (0, 0, 0)

    def test_uncontrollable_zero(self):
        P = pencil([[0.0, 0.0]], [[1.0, 0.0]])  # [lambda, 0]
        sf = separate_regular_right(P)
        assert sf.d_reg == 1
        vals = generalized_eigenvalues(sf.regular_part)
        assert vals[0] == pytest.approx(0.0, abs=1e-12)
        self.check_form(P, sf)
        assert sf.right_minimal_indices() == (0,)

    def test_double_zero_one_uncontrollable(self):
        # [lambda*I - A, -B] with A = B = [[0,0],[1,0]]: one uncontrollable
        # eigenvalue at 0 must deflate.
        A = np.array([[0.0, 0.0], [1.0, 0.0]])
        B = np.array([[0.0, 0.0], [1.0, 0.0]])
        P = Pencil(np.hstack([A, -B]), np.hstack([np.eye(2), np.zeros((2, 2))]))
        sf = separate_regular_right(P)
        assert sf.d_reg == 1
        vals = generalized_eigenvalues(sf.regular_part)
        assert abs(vals[0]) < 1e-10
        self.check_form(P, sf)

    def test_square_regular_pencil_is_all_regular(self):
        rng = np.random.default_rng(0)
        P = Pencil(rng.standard_normal((3, 3)), rng.standard_normal((3, 3)))
        sf = separate_regular_right(P)
        assert sf.d_reg == 3
        self.check_form(P, sf)

    def test_rank_deficient_rows_rejected(self):
        P = pencil([[0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [2.0, 0.0]])
        # Rows are rationally dependent: normal rank 1 < 2.
        with pytest.raises(StaircaseError, match="normal rank"):
            separate_regular_right(P)

    @pytest.mark.parametrize("seed", range(6))
    def test_eigenvalue_conservation_random_mixture(self, seed):
        # L_1 + L_2 + finite Jordan + infinite block, under random unitary
        # equivalence: d_reg must match the eigenvalue count.
        base = direct_sum(L_block(1), L_block(2), jordan_block(1.5, 2), inf_block(2))
        P = unitary_equivalent(base, seed)
        sf = separate_regular_right(P)
        assert sf.d_reg == 4  # two eigenvalues at 1.5, two at infinity
        vals = generalized_eigenvalues(sf.regular_part, seed=seed)
        # The infinite pair may surface as huge finite values after rounding
        # (a split Jordan block at infinity); only magnitudes are asserted.
        near = sorted(v.real for v in vals if np.isfinite(v) and abs(v) < 1e3)
        far = [v for v in vals if np.isinf(v) or abs(v) >= 1e3]
        assert near == pytest.approx([1.5, 1.5], abs=1e-6)
        assert len(far) == 2
        self.check_form(P, sf)
        assert sf.right_minimal_indices() == (1, 2)


def reference_separate_regular_right(P, tol=DEFAULT_TOL, seed=0):
    """separate_regular_right as it was with a full SVD of every L1 window
    and dense unitary updates."""
    rot = choose_rotation(P, seed=seed, tol=tol)
    R = mobius_rotate(P, rot)
    m, n = R.shape
    A, B = R.L0.copy(), R.L1.copy()
    floor = tol * max(m, n) * R.coefficient_scale()
    U_acc, Wh_acc = np.eye(m, dtype=complex), np.eye(n, dtype=complex)
    blocks = []
    mw, nw = m, n
    while nw > 0:
        if mw == 0:
            blocks.append((nw, 0))
            nw = 0
            break
        V, rB = col_compress(B[:mw, :nw], tol, floor)
        nu = nw - rB
        if nu == 0:
            break
        A[:, :nw] = A[:, :nw] @ V
        B[:, :nw] = B[:, :nw] @ V
        Wh_acc[:, :nw] = Wh_acc[:, :nw] @ V
        Urc, s_rank = row_compress(A[:mw, rB:nw], tol, floor)
        if rB < mw:
            raise StaircaseError(f"lost full row rank ({rB} < {mw})")
        Uw = np.vstack([Urc[s_rank:, :], Urc[:s_rank, :]])
        A[:mw, :] = Uw @ A[:mw, :]
        B[:mw, :] = Uw @ B[:mw, :]
        U_acc[:mw, :] = Uw @ U_acc[:mw, :]
        blocks.append((nu, s_rank))
        mw -= s_rank
        nw = rB
    T = mobius_rotate(Pencil(A, B), rot.inverse())
    return StaircaseForm(U_acc, Wh_acc.conj().T, T, mw, blocks)


def regular_mixture(m, r, seed, n_inf=0):
    """m x (m + 2) pencil: a regular part of size r (a Jordan block J_2(0.7),
    ``n_inf`` infinite eigenvalues, random simple eigenvalues) and two L
    blocks, under random unitary equivalence."""
    rng = np.random.default_rng(seed)
    parts = [jordan_block(0.7, 2)] if r >= 2 else []
    simple = rng.standard_normal(r - len(parts) * 2 - n_inf)
    if simple.size:
        parts.append(Pencil(np.diag(simple), np.eye(simple.size)))
    parts += [inf_block(1)] * n_inf
    eps1 = int(rng.integers(0, m - r + 1))
    parts += [L_block(eps1), L_block(m - r - eps1)]
    return unitary_equivalent(direct_sum(*parts), seed)


def planted_controllability(seed, d, n=2):
    """[lambda*I - F, -G] of a random system whose first d/4 states are
    uncontrollable: F[:k, k:] = 0 and G[:k] = 0."""
    rng = np.random.default_rng(seed)
    k = d // 4
    F = rng.standard_normal((d, d))
    F[:k, k:] = 0.0
    G = rng.standard_normal((d, n))
    G[:k] = 0.0
    return Pencil(np.hstack([F, -G]), np.hstack([np.eye(d), np.zeros((d, n))]))


def assert_same_regular_eigenvalues(got, ref, jordan=None):
    """Eigenvalues matched one to one within 1e-9 relative; the rounding
    split of a Jordan block at ``jordan`` is compared by its centroid."""
    got, ref = list(got), list(ref)
    if jordan is not None:
        for vals in (got, ref):
            vals.sort(key=lambda v: abs(v - jordan))
            vals[:2] = [np.mean(vals[:2])]
        assert abs(got[0] - ref[0]) <= 1e-9
        got, ref = got[1:], ref[1:]
    # Infinite eigenvalues may surface as huge finite values after rounding.
    a = np.array([v for v in got if abs(v) < 1e8])
    b = np.array([v for v in ref if abs(v) < 1e8])
    assert (a.size, len(got)) == (b.size, len(ref))
    if a.size:
        cost = np.abs(a[:, None] - b[None, :]) / np.maximum(1.0, np.abs(b))[None, :]
        rows, cols = linear_sum_assignment(cost)
        assert cost[rows, cols].max() <= 1e-9


def assert_equivalent_forms(P, sf, ref, tol=DEFAULT_TOL, jordan=None):
    """The staircase form ``sf`` against the reference loop's ``ref``."""
    m, n = P.shape
    assert sf.block_sizes == ref.block_sizes
    assert sf.d_reg == ref.d_reg
    assert np.linalg.norm(sf.U @ sf.U.conj().T - np.eye(m)) < 1e-13
    assert np.linalg.norm(sf.W @ sf.W.conj().T - np.eye(n)) < 1e-13
    scale = P.coefficient_scale()
    for got, coeff in ((sf.transformed.L0, P.L0), (sf.transformed.L1, P.L1)):
        res = np.linalg.norm(sf.U @ coeff @ sf.W.conj().T - got)
        assert res < 100 * max(m, n) * EPS * scale
    r = sf.d_reg
    leak = np.hypot(
        np.linalg.norm(sf.transformed.L0[:r, r:]), np.linalg.norm(sf.transformed.L1[:r, r:])
    )
    assert leak < tol * max(m, n) * scale
    X, Xr = sf.regular_part, ref.regular_part
    assert_same_regular_eigenvalues(
        eig_pair(X.L0, X.L1), eig_pair(Xr.L0, Xr.L1), jordan
    )


class TestCertifiedStaircase:
    """separate_regular_right certifies every window's full row rank once,
    takes QR kernels and applies reflectors; its structure is the one the
    per-window SVD loop finds."""

    @pytest.mark.parametrize(
        "m, r, n_inf",
        [(4, 0, 0), (4, 2, 0), (16, 2, 0), (16, 8, 1), (40, 2, 0), (40, 10, 0), (40, 20, 0)],
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_random_mixtures_match_reference(self, m, r, n_inf, seed):
        P = regular_mixture(m, r, 1000 * m + 10 * r + seed, n_inf)
        sf = separate_regular_right(P, seed=seed)
        ref = reference_separate_regular_right(P, seed=seed)
        assert sf.d_reg == r
        assert_equivalent_forms(P, sf, ref, jordan=0.7 if r >= 2 else None)

    @pytest.mark.parametrize("inst", [100, 101, 102])
    def test_planted_controllability_matches_reference(self, inst):
        P = planted_controllability(inst, 32)
        sf = separate_regular_right(P)
        assert sf.d_reg == 8
        assert_equivalent_forms(P, sf, reference_separate_regular_right(P))

    def test_svds_no_wider_than_kernel(self, monkeypatch):
        # Past choose_rotation, the only SVDs are the row decisions on the
        # kernel columns: step k factors an mw x nu_k block.  At most one
        # values-only SVD of the rotated L1 (m x n) is allowed besides.
        import strongmin.staircase as staircase

        P = regular_mixture(40, 10, 7)
        shapes, recording = [], []
        svd, choose = np.linalg.svd, staircase.choose_rotation

        def recorded(a, *args, **kwargs):
            if recording:
                shapes.append((np.shape(a), kwargs.get("compute_uv", True)))
            return svd(a, *args, **kwargs)

        def chosen(*args, **kwargs):
            rot = choose(*args, **kwargs)
            recording.append(True)
            return rot

        monkeypatch.setattr(np.linalg, "svd", recorded)
        monkeypatch.setattr(staircase, "choose_rotation", chosen)
        sf = separate_regular_right(P)
        full = [s for s in shapes if s == (P.shape, False)]
        assert len(full) <= 1
        steps = [shape for shape, _ in shapes if (shape, False) not in full]
        assert [shape[1] for shape in steps] == [nu for nu, _ in sf.block_sizes]
        assert max(nu for nu, _ in sf.block_sizes) <= 2

    def test_uncertified_rank_loss_raises(self, monkeypatch):
        # An identity rotation forced onto a rank-deficient L1: its margin
        # fails the certificate, and the per-window SVD check raises.
        import strongmin.staircase as staircase

        rng = np.random.default_rng(11)
        L1 = np.eye(6, 8)
        L1[5, 5] = 0.0
        P = Pencil(rng.standard_normal((6, 8)), L1)

        def identity(P, seed=0, tol=DEFAULT_TOL):
            return Rotation(1.0, 0.0, float(np.linalg.svd(P.L1, compute_uv=False)[-1]))

        monkeypatch.setattr(staircase, "choose_rotation", identity)
        with pytest.raises(StaircaseError, match=r"lost full row rank \(5 < 6\)"):
            separate_regular_right(P)

    @pytest.mark.parametrize("m, r, n_inf, seed", [(16, 8, 1, 0), (40, 10, 0, 1)])
    def test_uncertified_full_rank_matches_reference(self, monkeypatch, m, r, n_inf, seed):
        # The certificate fails (margin reported as 0), yet every window has
        # full row rank: the SVD decisions give the reference structure.
        import strongmin.staircase as staircase

        def no_margin(P, seed=0, tol=DEFAULT_TOL):
            rot = choose_rotation(P, seed=seed, tol=tol)
            return Rotation(rot.c, rot.s, 0.0)

        def no_qr(*args):
            raise AssertionError("QR kernel used without a certificate")

        monkeypatch.setattr(staircase, "choose_rotation", no_margin)
        monkeypatch.setattr(staircase, "_qr_kernel", no_qr)
        P = regular_mixture(m, r, seed, n_inf)
        sf = separate_regular_right(P, seed=seed)
        ref = reference_separate_regular_right(P, seed=seed)
        assert_equivalent_forms(P, sf, ref, jordan=0.7)


class TestKroneckerStructure:
    def test_diag_lambda_one(self):
        # diag(lambda, -1): eigenvalue 0 and one infinite block of size 1.
        P = pencil([[0.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 0.0]])
        rep = kronecker_structure(P)
        assert rep.normal_rank == 2
        assert rep.infinite_blocks == (1,)
        assert rep.right_minimal == () and rep.left_minimal == ()
        assert len(rep.finite_eigen) == 1
        (lam, part), = rep.finite_eigen.items()
        assert abs(lam) < 1e-10 and part == (1,)

    def test_single_right_block(self):
        P = pencil([[0.0, 1.0]], [[1.0, 0.0]])  # [lambda, -1]
        rep = kronecker_structure(P)
        assert rep.normal_rank == 1
        assert rep.right_minimal == (1,)
        assert rep.left_minimal == ()
        assert rep.finite_eigen == {} and rep.infinite_blocks == ()

    def test_zero_pencil(self):
        rep = kronecker_structure(pencil([[0.0]], [[0.0]]))
        assert rep.normal_rank == 0
        assert rep.right_minimal == (0,)
        assert rep.left_minimal == (0,)

    def test_nilpotent_leading_infinite_jordan(self):
        P = Pencil(np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]))
        rep = kronecker_structure(P)
        assert rep.infinite_blocks == (2,)
        assert rep.finite_eigen == {}

    @pytest.mark.parametrize("seed", range(6))
    def test_full_mixture_under_unitary_equivalence(self, seed):
        base = direct_sum(
            L_block(0),
            L_block(2),
            L_block(1).transpose(),
            jordan_block(-2.0, 1),
            jordan_block(0.5, 2),
            inf_block(3),
            inf_block(1),
        )
        P = unitary_equivalent(base, 100 + seed)
        rep = kronecker_structure(P, seed=seed)
        assert rep.normal_rank == base.rows - 1  # one left minimal index
        assert rep.right_minimal == (0, 2)
        assert rep.left_minimal == (1,)
        assert rep.infinite_blocks == (3, 1)
        got = {}
        for lam, part in rep.finite_eigen.items():
            got[complex(round(lam.real, 6), round(lam.imag, 6))] = part
        assert got == {complex(-2.0, 0.0): (1,), complex(0.5, 0.0): (2,)}
        assert rep.dimension_identity(P.rows, P.cols)

    def test_jordan_pair_is_clustered(self):
        # A Jordan block of size 2 splits under rounding by ~sqrt(eps); the
        # report must still see a single eigenvalue of multiplicity 2.
        P = unitary_equivalent(jordan_block(1.0, 2), 42)
        rep = kronecker_structure(P)
        assert len(rep.finite_eigen) == 1
        (lam, part), = rep.finite_eigen.items()
        assert lam == pytest.approx(1.0, abs=1e-8)
        assert part == (2,)

    def test_eigenvalue_and_singular_mix(self):
        # diag(lambda, lambda): eigenvalue 0 with two blocks of size 1.
        P = pencil([[0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]])
        rep = kronecker_structure(P)
        (lam, part), = rep.finite_eigen.items()
        assert part == (1, 1)


class TestMinimalIndicesFromStaircase:
    """Minimal indices come from the staircase block sizes, so no SVD in
    the minimal-index work is larger than the pencil itself."""

    @pytest.mark.parametrize(
        "blocks, eps, eta, eigen",
        [
            ((L_block(16),), (16,), (), {}),
            ((L_block(24),), (24,), (), {}),
            ((L_block(12), L_block(9).transpose()), (12,), (9,), {}),
            (
                (L_block(12), L_block(9).transpose(), jordan_block(2.0, 2)),
                (12,),
                (9,),
                {2.0: (2,)},
            ),
            ((L_block(0), L_block(3), L_block(0).transpose()), (0, 3), (0,), {}),
        ],
    )
    def test_indices_and_svd_shapes(self, monkeypatch, blocks, eps, eta, eigen):
        import strongmin.staircase as staircase

        P = unitary_equivalent(direct_sum(*blocks), 17)
        shapes = []
        svd, chain_nullity = np.linalg.svd, staircase._chain_nullity

        def recorded(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        def unrecorded(Ac, Bc, k, tol):
            # The k = 3 chain matrix that confirms the Jordan block of size
            # 2 is the eigenvalue analysis's, not the minimal indices'.
            monkeypatch.setattr(np.linalg, "svd", svd)
            try:
                return chain_nullity(Ac, Bc, k, tol)
            finally:
                monkeypatch.setattr(np.linalg, "svd", recorded)

        monkeypatch.setattr(np.linalg, "svd", recorded)
        monkeypatch.setattr(staircase, "_chain_nullity", unrecorded)
        rep = kronecker_structure(P)
        assert (rep.right_minimal, rep.left_minimal) == (eps, eta)
        assert max(max(s) for s in shapes) <= max(P.shape)
        assert rep.dimension_identity(P.rows, P.cols)
        got = {round(lam.real, 6): part for lam, part in rep.finite_eigen.items()}
        assert got == eigen

    @pytest.mark.parametrize(
        "blocks", [(L_block(3),), (L_block(3), L_block(2).transpose())]
    )
    def test_index_count_checked(self, monkeypatch, blocks):
        # An index count that disagrees with the normal rank is an error,
        # on both the one-sided and the doubly singular path.
        import strongmin.staircase as staircase

        real = staircase._right_minimal_indices
        monkeypatch.setattr(
            staircase, "_right_minimal_indices", lambda b: real(b)[:-1]
        )
        with pytest.raises(StaircaseError, match="minimal index counts"):
            kronecker_structure(unitary_equivalent(direct_sum(*blocks), 3))


def test_weyr_ladder_bounded_by_cluster(monkeypatch):
    # Chain nullities that grow by one with every k would run the Weyr
    # ladder of each simple eigenvalue to k = r + 1; a finite cluster cannot
    # hold more eigenvalues than members, so no k above members + 1 = 2 is
    # requested.
    import strongmin.staircase as staircase

    requested = []

    def runaway(Ac, Bc, k, tol):
        requested.append(k)
        return k, False

    monkeypatch.setattr(staircase, "_chain_nullity", runaway)
    monkeypatch.setattr(
        staircase,
        "_second_chain_nullity",
        lambda Ac, Bc, s, Y, X, tol, floor, nB: staircase._chain_nullity(Ac, Bc, 2, tol),
    )
    P = unitary_equivalent(Pencil(np.diag(np.arange(1.0, 9.0)), np.eye(8)), 3)
    kronecker_structure(P)
    assert requested and max(requested) == 2


class TestInfinityShift:
    def test_only_simple_blocks(self):
        rep = kronecker_structure(pencil([[1.0]], [[1.0]]))

        class R:
            infinite_blocks = (1, 1, 1)

        assert infinity_mcmillan_indices(R) == ()

    def test_shift_rule(self):
        class R:
            infinite_blocks = (2,)

        assert infinity_mcmillan_indices(R) == (1,)

        class R2:
            infinite_blocks = (3, 1)

        assert infinity_mcmillan_indices(R2) == (2,)


@pytest.mark.parametrize("seed", range(4))
def test_eigenvalue_count_conservation_cross_check(seed):
    # d_reg from the staircase equals finite multiplicities plus infinite
    # block sizes from the independent Kronecker report.
    base = direct_sum(L_block(1), jordan_block(0.7, 2), inf_block(2), L_block(0))
    P = unitary_equivalent(base, 40 + seed)
    sf = separate_regular_right(P, seed=seed)
    rep = kronecker_structure(P, seed=seed)
    assert sf.d_reg == rep.eigenvalue_total() == 4
    assert sf.right_minimal_indices() == rep.right_minimal == (0, 1)


def test_infinite_count_matches_leading_rank_defect():
    # For a diagonalizable structure at infinity, the number of infinite
    # eigenvalues equals n - rank(L1), consistent across both tools.
    from strongmin.linalg import matrix_rank

    P = Pencil(np.diag([1.0, 2.0, 3.0]), np.diag([1.0, 0.0, 2.0]))
    vals = generalized_eigenvalues(P)
    n_inf = sum(np.isinf(v) for v in vals)
    assert n_inf == P.rows - matrix_rank(P.L1) == 1
    rep = kronecker_structure(P)
    assert sum(rep.infinite_blocks) == n_inf


def test_structure_invariant_under_mobius_rotation():
    from strongmin.pencil import Rotation, mobius_rotate

    base = direct_sum(L_block(1), jordan_block(2.0, 2), inf_block(2))
    P = unitary_equivalent(base, 9)
    rot = Rotation(np.cos(0.8), np.sin(0.8))
    rep = kronecker_structure(mobius_rotate(P, rot))
    # Minimal indices and block SIZES are invariant; locations move.
    assert rep.right_minimal == (1,)
    parts = sorted(rep.finite_eigen.values())
    assert (2,) in parts  # the Jordan structure of eigenvalue 2 survives
    assert sum(sum(p) for p in rep.finite_eigen.values()) == 4  # 2 + 2 moved
    assert rep.infinite_blocks == ()  # infinity moved to a finite point


class TestSplitInfinite:
    @pytest.mark.parametrize("seed", range(3))
    def test_block_sizes_at_infinity(self, seed):
        base = direct_sum(
            inf_block(3), jordan_block(0.5, 2), inf_block(1), inf_block(2)
        )
        P = unitary_equivalent(base, 70 + seed)
        U, W, T, n_inf, blocks = split_infinite(P)
        assert blocks == (3, 2, 1)
        assert n_inf == sum(blocks) == 6
        np.testing.assert_allclose(U @ P.L0 @ W.conj().T, T.L0, atol=1e-12)
        np.testing.assert_allclose(U @ P.L1 @ W.conj().T, T.L1, atol=1e-12)

    def test_no_structure_at_infinity(self):
        *_, n_inf, blocks = split_infinite(jordan_block(2.0, 3))
        assert (n_inf, blocks) == (0, ())

    def test_singular_pencil_raises(self):
        # A step that is not square: the constant term loses rank on the
        # leading-coefficient kernel.
        P = direct_sum(L_block(1), Pencil(np.zeros((1, 0)), np.zeros((1, 0))))
        with pytest.raises(StaircaseError, match="singular"):
            split_infinite(P)

    def test_increasing_kernel_widths_raise(self, monkeypatch):
        import strongmin.staircase as staircase

        real = staircase._staircase

        def widths_1_2(P, tol, check):
            U, W, T, _, mw, nw = real(P, tol, check)
            return U, W, T, [(1, 1), (2, 2)], mw, nw

        monkeypatch.setattr(staircase, "_staircase", widths_1_2)
        with pytest.raises(StaircaseError, match="increases"):
            split_infinite(inf_block(3))


def _reference_weyr(Ac, Bc, n_singular, tol, max_len, kernels=None, norms=None):
    """The Weyr sequence with every chain nullity from its chain matrix."""
    weyr, prev, ambiguous = [], 0, False
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


def _check_points_against_chain_matrices(monkeypatch, tol=DEFAULT_TOL):
    """Make every point ``kronecker_structure`` visits compare, at every
    escalation multiplier, its Weyr sequence with the chain-matrix one.
    Returns the list of points checked."""
    import strongmin.staircase as staircase

    real = staircase._weyr_sequence
    checked = []

    def compared(Ac, Bc, n_singular, t, max_len, kernels, norms):
        for _, mult in _ESCALATION:
            got, _ = real(Ac, Bc, n_singular, tol * mult, max_len, kernels, norms)
            ref, _ = _reference_weyr(Ac, Bc, n_singular, tol * mult, max_len)
            assert got == ref, (mult, got, ref)
        checked.append(Ac.shape)
        return real(Ac, Bc, n_singular, t, max_len, kernels, norms)

    monkeypatch.setattr(staircase, "_weyr_sequence", compared)
    return checked


class TestWeyrFromKernels:
    """The k = 2 chain nullity read off the kernels at the point equals the
    one of the 2N x 2N chain matrix, which stays here as the reference."""

    @pytest.mark.parametrize(
        "blocks",
        [
            (jordan_block(0.5, 1), jordan_block(-1.0, 2), jordan_block(2.0, 3)),
            (jordan_block(1.5, 4), jordan_block(-0.5, 1)),
            (jordan_block(0.5, 2), jordan_block(0.5, 1), inf_block(2)),
            (inf_block(3), inf_block(1), jordan_block(-2.0, 2)),
            (L_block(0), L_block(2), jordan_block(0.7, 2), inf_block(2)),
            (L_block(1).transpose(), L_block(2).transpose(), jordan_block(1.0, 3)),
            (L_block(1), L_block(1).transpose(), jordan_block(-1.0, 1), inf_block(3)),
        ],
    )
    @pytest.mark.parametrize("seed", range(2))
    def test_kronecker_blocks(self, monkeypatch, blocks, seed):
        checked = _check_points_against_chain_matrices(monkeypatch)
        P = unitary_equivalent(direct_sum(*blocks), 300 + seed)
        kronecker_structure(P, seed=seed)
        assert checked

    def test_corpus_and_gallery(self, monkeypatch):
        from corpus import exact_instance
        from strongmin.gallery import (
            example_polynomial_system,
            example_rational_system,
            lambda_and_inverse_system,
            polynomial_chain_system,
            random_state_space,
        )
        from strongmin.mcmillan import rational_structure

        systems = [exact_instance(s)[0].to_numeric() for s in range(24)]
        rng = np.random.default_rng(5)
        for _ in range(2):
            e5, e1 = rng.standard_normal(6), rng.standard_normal(2)
            systems.append(example_polynomial_system(e5, e1))
            systems.append(example_rational_system(e5, e1))
        systems.append(lambda_and_inverse_system())
        chain = [np.eye(2), np.diag([1.0, 0.0]), np.diag([2.0, 0.0])]
        systems.append(polynomial_chain_system(chain))
        systems.append(random_state_space(0))
        checked = _check_points_against_chain_matrices(monkeypatch)
        for q in systems:
            rational_structure(q)
        assert len(checked) >= len(systems)

    def test_rounding_split_point(self):
        # 2.5e-6 from a size-3 Jordan block, Y^H Bc X alone sits above the
        # k = 2 threshold while the chain matrix has a second null vector:
        # the bounds must hand this decision to the chain matrix.
        P = unitary_equivalent(jordan_block(2.0, 3), 5)
        Ac, Bc, tol = P.L0 - (2.0 + 2.5e-6) * P.L1, P.L1, 1e-12
        norms = (np.linalg.norm(Ac), np.linalg.norm(Bc))
        s, Y, X = _point_kernels(Ac, tol, _chain_floor(Ac, 1, tol, norms))
        floor = _chain_floor(Ac, 2, tol, norms)
        c = np.linalg.svd(Y.conj().T @ Bc @ X, compute_uv=False)
        assert X.shape[1] == 1 and c[0] > floor
        assert _chain_nullity(Ac, Bc, 2, tol)[0] == 2
        assert _second_chain_nullity(Ac, Bc, s, Y, X, tol, floor, norms[1])[0] == 2

    def test_large_tolerance(self, monkeypatch):
        # At tol = 1e-3 the escalation reaches tolerances of 10 and above,
        # where every singular vector of a point counts as kernel: the
        # kernels kept per candidate are as wide as the pencil.
        import strongmin.staircase as staircase

        P = unitary_equivalent(
            direct_sum(jordan_block(0.5, 3), L_block(1), L_block(2)), 11
        )
        rep = kronecker_structure(P, tol=1e-3)
        monkeypatch.setattr(staircase, "_weyr_sequence", _reference_weyr)
        assert rep == kronecker_structure(P, tol=1e-3)
        assert rep.right_minimal == (1, 2)


def planted_quadruple(seed, d):
    """State-space model of a random system whose first d/4 states are
    uncontrollable; the structure query reduces it to d - d/4 states."""
    from strongmin.pencil import state_space_quadruple

    rng = np.random.default_rng(seed)
    k = d // 4
    F = rng.standard_normal((d, d))
    F[:k, k:] = 0.0
    G = rng.standard_normal((d, 2))
    G[:k] = 0.0
    H = rng.standard_normal((2, d))
    D = rng.standard_normal((2, 2))
    return state_space_quadruple(F, G, H, D)


def _reference_point_kernels(Ac, tol, floor):
    """The point kernels from one full SVD, as every point takes them below
    the simple-point cutoff."""
    U, s, Vh = np.linalg.svd(Ac)
    rank = _rank_rule(s, Ac.shape, tol, floor)[0]
    return s, U[:, rank:], Vh[rank:].conj().T


def _sine_to_line(v, line):
    """Sine of the angle between unit vectors ``v`` and ``line`` (n x 1)."""
    return np.linalg.norm(v - line @ (line.conj().T @ v))


def _check_points_against_full_svd(monkeypatch):
    """Make every point kernel and Weyr sequence ``kronecker_structure``
    takes compare with the full-SVD reference.  Returns the kernel widths of
    the square points at or above the simple-point cutoff."""
    import strongmin.staircase as staircase

    point_kernels, weyr_sequence = staircase._point_kernels, staircase._weyr_sequence
    widths = []

    def compared_kernels(Ac, tol, floor):
        s, Y, X = point_kernels(Ac, tol, floor)
        s_ref, Y_ref, X_ref = _reference_point_kernels(Ac, tol, floor)
        assert (Y.shape, X.shape) == (Y_ref.shape, X_ref.shape)  # the same rank
        assert np.abs(s - s_ref).max() <= 10 * max(Ac.shape) * EPS * s_ref[0]
        # LAPACK's own singular vectors are accurate to eps s[0] / gap: at a
        # point inside a split defective cluster (gap ~ 4e-6 s[0]) two SVDs
        # of one matrix, rows reversed, disagree by 1.4e-11.  The pair must
        # be within N times that, as certified, and never beyond 1e-12
        # where the gap allows.
        limit = 1e-12
        if Ac.shape[0] == Ac.shape[1] and X.shape[1] == 1:
            gap = s_ref[-2] - s_ref[-1]
            limit = max(limit, max(Ac.shape) * EPS * s_ref[0] / gap)
        for got, ref in ((Y, Y_ref), (X, X_ref)):
            assert np.allclose(got.conj().T @ got, np.eye(got.shape[1]), atol=1e-14)
            if got.shape[1] == 1:
                assert _sine_to_line(got, ref) <= limit
        if Ac.shape[0] == Ac.shape[1] >= staircase._SIMPLE_POINT_MIN_ROWS:
            widths.append(X.shape[1])
        return s, Y, X

    def compared_weyr(Ac, Bc, n_singular, tol, max_len, kernels, norms):
        got = weyr_sequence(Ac, Bc, n_singular, tol, max_len, kernels, norms)
        ref_kernels = _reference_point_kernels(Ac, tol, _chain_floor(Ac, 1, tol, norms))
        ref = weyr_sequence(Ac, Bc, n_singular, tol, max_len, ref_kernels, norms)
        assert got == ref
        return got

    monkeypatch.setattr(staircase, "_point_kernels", compared_kernels)
    monkeypatch.setattr(staircase, "_weyr_sequence", compared_weyr)
    return widths


class TestSimplePointKernels:
    """At a square point of at least ``_SIMPLE_POINT_MIN_ROWS`` rows and
    rank N - 1, the kernel pair comes from one LU and inverse iteration,
    certified against the singular-value gap; the full SVD stays here as
    the reference."""

    @pytest.mark.parametrize("d", [32, 48])
    def test_planted_points_match_full_svd(self, monkeypatch, d):
        from strongmin.mcmillan import rational_structure

        widths = _check_points_against_full_svd(monkeypatch)
        s = rational_structure(planted_quadruple(d, d))
        assert s.mcmillan_degree == d - d // 4
        assert widths.count(1) >= 2 * (d - d // 4)

    @pytest.mark.parametrize(
        "blocks",
        [
            (jordan_block(0.5, 1), jordan_block(-1.0, 2), jordan_block(2.0, 3)),
            (jordan_block(1.5, 4), jordan_block(-0.5, 1)),
            (jordan_block(0.5, 2), jordan_block(0.5, 1), inf_block(2)),
            (inf_block(3), inf_block(1), jordan_block(-2.0, 2)),
            (L_block(0), L_block(2), jordan_block(0.7, 2), inf_block(2)),
            (L_block(1).transpose(), L_block(2).transpose(), jordan_block(1.0, 3)),
            (L_block(1), L_block(1).transpose(), jordan_block(-1.0, 1), inf_block(3)),
        ],
    )
    def test_enlarged_kronecker_blocks(self, monkeypatch, blocks):
        # The TestWeyrFromKernels mixtures with 24 simple eigenvalues added,
        # so square ones reach the cutoff with their defective points.
        # Regular ones visit a simple point at each added eigenvalue.
        widths = _check_points_against_full_svd(monkeypatch)
        simple = np.random.default_rng(len(blocks)).uniform(3.0, 9.0, 24)
        base = direct_sum(*blocks, Pencil(np.diag(simple), np.eye(24)))
        rep = kronecker_structure(unitary_equivalent(base, 400))
        if rep.normal_rank == base.rows == base.cols:
            assert widths.count(1) >= 24

    def test_exact_zero_pivot_takes_full_svd(self):
        import strongmin.staircase as staircase

        n = 2 * staircase._SIMPLE_POINT_MIN_ROWS
        Ac = np.diag(np.arange(1.0, n + 1)).astype(complex) - 3.0 * np.eye(n)
        assert lapack.zgetrf(Ac)[2] == 3  # U[2, 2] is exactly zero
        floor = _chain_floor(Ac, 1, 1e-8, (np.linalg.norm(Ac), np.sqrt(n)))
        assert staircase._simple_point_kernels(Ac, 1e-8, floor) is None
        got = _point_kernels(Ac, 1e-8, floor)
        ref = _reference_point_kernels(Ac, 1e-8, floor)
        assert ref[2].shape == (n, 1)
        assert all(np.array_equal(a, b) for a, b in zip(got, ref))

    def test_failed_certificate_takes_full_svd(self):
        # sigma_N = 1e-10 is below the rank threshold but far above rounding,
        # so |Ac x| >= sigma_N exceeds what the certificate allows.
        import strongmin.staircase as staircase

        n = staircase._SIMPLE_POINT_MIN_ROWS + 8
        rng = np.random.default_rng(3)
        sv = np.append(np.linspace(2.0, 1.0, n - 1), 1e-10)
        Ac = random_unitary(rng, n) @ np.diag(sv) @ random_unitary(rng, n)
        floor = _chain_floor(Ac, 1, 1e-8, (np.linalg.norm(Ac), 1.0))
        assert staircase._simple_point_kernels(Ac, 1e-8, floor) is None
        got = _point_kernels(Ac, 1e-8, floor)
        ref = _reference_point_kernels(Ac, 1e-8, floor)
        assert ref[2].shape == (n, 1)
        assert all(np.array_equal(a, b) for a, b in zip(got, ref))

    def test_no_full_svd_at_simple_points(self, monkeypatch):
        # SVD-shape guard: on planted d = 48 every point is square with at
        # least 36 rows, above the cutoff, and none of kernel width at most
        # one takes an SVD with vectors.
        import strongmin.staircase as staircase
        from strongmin.mcmillan import rational_structure

        svd, point_kernels = np.linalg.svd, staircase._point_kernels
        taken, simple = [], []

        def recorded(a, *args, **kwargs):
            taken.append((np.shape(a), kwargs.get("compute_uv", True)))
            return svd(a, *args, **kwargs)

        def watched(Ac, *args):
            taken.clear()
            s, Y, X = point_kernels(Ac, *args)
            n = Ac.shape[0]
            if Ac.shape == (n, n) and X.shape[1] <= 1:
                simple.append(list(taken))
            return s, Y, X

        monkeypatch.setattr(np.linalg, "svd", recorded)
        monkeypatch.setattr(staircase, "_point_kernels", watched)
        rational_structure(planted_quadruple(48, 48))
        assert len(simple) >= 2 * 36
        assert all(uv is False for calls in simple for _, uv in calls)
