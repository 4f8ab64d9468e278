import numpy as np
import pytest
from scipy.linalg import lapack
from scipy.optimize import linear_sum_assignment

from helpers import eigen_discs_by_back_substitution, random_unitary, row_compress
from strongmin.linalg import DEFAULT_TOL, _rank_rule, col_compress
from strongmin.pencil import (
    Pencil,
    Rotation,
    choose_rotation,
    generalized_eigenvalues,
    mobius_rotate,
)
from strongmin.staircase import (
    StaircaseError,
    StaircaseForm,
    _classified_eigenvalues,
    _eigen_discs,
    _staircase,
    _triangular_pair,
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

    def test_more_rows_than_columns_rejected(self):
        # Three rows of two columns have row normal rank at most 2 < 3.
        rng = np.random.default_rng(3)
        P = Pencil(rng.standard_normal((3, 2)), rng.standard_normal((3, 2)))
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

    @pytest.mark.parametrize("seed", [2, 3])
    def test_classified_eigenvalues_of_random_mixture(self, seed):
        # Plain QZ splits the infinite pair of these seeds into huge finite
        # values; the classification deflates it before it averages the
        # rounding-split double eigenvalue 1.5, so neither swallows the other.
        base = direct_sum(L_block(1), L_block(2), jordan_block(1.5, 2), inf_block(2))
        sf = separate_regular_right(unitary_equivalent(base, seed))
        vals = _classified_eigenvalues(sf.regular_part, DEFAULT_TOL, seed)
        assert np.isinf(vals).sum() == 2
        assert vals[np.isfinite(vals)] == pytest.approx([1.5, 1.5], abs=1e-9)


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


def perturbed_identity_leading(d, k, seed, n=2):
    """[lambda*E - F, -G] with E = I + noise and the first k states
    uncontrollable (F, E block lower triangular, G[:k] = 0)."""
    rng = np.random.default_rng(seed)
    E = np.eye(d) + 0.3 * rng.standard_normal((d, d)) / np.sqrt(d)
    F = rng.standard_normal((d, d))
    G = rng.standard_normal((d, n))
    E[:k, k:] = F[:k, k:] = G[:k] = 0.0
    return Pencil(np.hstack([F, -G]), np.hstack([E, np.zeros((d, n))]))


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


def state_space_mixture(d, r, seed, n=2):
    """[lambda*I - F, -G] of a system whose uncontrollable part (size r: a
    Jordan block J_2(0.7) and random simple eigenvalues) is hidden by a
    random unitary change of state basis, which keeps E = I up to rounding:
    F, G <- Q F Q^H, Q G."""
    rng = np.random.default_rng(seed)
    F = rng.standard_normal((d, d)) + 0j
    F[:r, r:] = 0.0
    F[:r, :r] = np.diag(np.r_[0.7, 0.7, rng.standard_normal(r - 2)]) + np.diag(
        np.r_[1.0, np.zeros(r - 2)], 1
    )
    G = rng.standard_normal((d, n)) + 0j
    G[:r] = 0.0
    Q = random_unitary(rng, d)
    E = Q @ Q.conj().T
    return Pencil(np.hstack([Q @ F @ Q.conj().T, -Q @ G]), np.hstack([E, np.zeros((d, n))]))


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
        generalized_eigenvalues(X), generalized_eigenvalues(Xr), jordan
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

    @pytest.mark.parametrize(
        "kind, args, d_reg",
        [
            ("planted", (100, 32), 8),
            ("mixture", (8, 2, 0), 2),
            ("mixture", (16, 5, 1), 5),
            ("mixture", (32, 8, 2), 8),
            ("mixture", (48, 12, 3), 12),
            ("perturbed_E", (32, 8, 5), 8),
        ],
    )
    def test_kernel_strategy_matches_reference(self, monkeypatch, kind, args, d_reg):
        # E = I (exactly, or up to rounding in the mixtures): the rows of
        # [E 0] are certified orthonormal, only the first window takes a QR
        # and the moved-row kernels give the reference structure.  E = I +
        # noise: [E 0] has full row rank but no orthonormal rows, so every
        # window takes a QR.
        import strongmin.staircase as staircase

        qr_calls = []
        qr_kernel = staircase._qr_kernel

        def counted(*kernel_args):
            qr_calls.append(1)
            return qr_kernel(*kernel_args)

        monkeypatch.setattr(staircase, "_qr_kernel", counted)
        make = {
            "planted": planted_controllability,
            "mixture": state_space_mixture,
            "perturbed_E": perturbed_identity_leading,
        }[kind]
        P = make(*args)
        sf = separate_regular_right(P)
        ref = reference_separate_regular_right(P)
        assert sf.d_reg == d_reg
        assert_equivalent_forms(P, sf, ref, jordan=0.7 if kind == "mixture" else None)
        assert len(sf.block_sizes) > 2
        if kind == "perturbed_E":
            # One QR per step, and one for the last window (no kernel).
            assert len(qr_calls) == len(sf.block_sizes) + 1
        else:
            assert len(qr_calls) == 1

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
        P = unitary_equivalent(direct_sum(*blocks), 17)
        shapes = []
        svd = np.linalg.svd

        def recorded(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recorded)
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
    # The Weyr characteristic of a cluster is read off a staircase of a
    # block with exactly as many rows as the cluster has members, so it
    # cannot claim more eigenvalues than the cluster holds; lone eigenvalues
    # take no reading at all.
    import strongmin.staircase as staircase

    read = []
    real = staircase._cluster_reading

    def recorded(S, T, members, z, tol, floor):
        read.append(len(members))
        return real(S, T, members, z, tol, floor)

    monkeypatch.setattr(staircase, "_cluster_reading", recorded)
    P = unitary_equivalent(
        direct_sum(Pencil(np.diag(np.arange(1.0, 9.0)), np.eye(8)), jordan_block(0.5, 3)), 3
    )
    rep = kronecker_structure(P)
    assert read == [3]
    assert sorted(rep.finite_eigen.values()) == [(1,)] * 8 + [(3,)]


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
            U, W, T, _, mw, nw, close = real(P, tol, check)
            return U, W, T, [(1, 1), (2, 2)], mw, nw, close

        monkeypatch.setattr(staircase, "_staircase", widths_1_2)
        with pytest.raises(StaircaseError, match="increases"):
            split_infinite(inf_block(3))


def kronecker_sum(*spec):
    """Direct sum of the Kronecker blocks ``spec`` names, and its structure
    ``(finite, infinite, right, left)``: ``("J", lam, k)`` is a Jordan
    block, ``("inf", k)`` a block at infinity, ``("L", eps)`` and
    ``("LT", eta)`` right and left singular blocks."""
    blocks, finite, inf, eps, eta = [], {}, [], [], []
    for kind, *args in spec:
        if kind == "J":
            lam, k = args
            blocks.append(jordan_block(lam, k))
            finite[lam] = tuple(sorted(finite.get(lam, ()) + (k,), reverse=True))
        elif kind == "inf":
            blocks.append(inf_block(args[0]))
            inf.append(args[0])
        elif kind == "L":
            blocks.append(L_block(args[0]))
            eps.append(args[0])
        else:
            blocks.append(L_block(args[0]).transpose())
            eta.append(args[0])
    structure = (finite, tuple(sorted(inf, reverse=True)), tuple(sorted(eps)), tuple(sorted(eta)))
    return direct_sum(*blocks), structure


def assert_structure(rep, structure, rel=1e-6):
    """The report holds exactly ``structure``; points match within ``rel``
    relative to ``max(1, |point|)``."""
    finite, inf, eps, eta = structure
    assert (rep.infinite_blocks, rep.right_minimal, rep.left_minimal) == (inf, eps, eta)
    assert len(rep.finite_eigen) == len(finite)
    for lam, part in finite.items():
        near = [z for z in rep.finite_eigen if abs(z - lam) <= rel * max(1.0, abs(lam))]
        assert len(near) == 1, (lam, rep.finite_eigen)
        assert rep.finite_eigen[near[0]] == part, (lam, rep.finite_eigen[near[0]], part)


def _chain_partition(X, z, tol, max_len):
    """Partial multiplicities at ``z`` of the square regular pencil ``X``,
    by the classical definition: the nullity increments of the chain
    matrices with ``X.L0 - z X.L1`` on the block diagonal and ``X.L1`` on
    the first block subdiagonal, each rank decided by the package rule with
    a floor of ``tol * k * N`` times the joint norm of the two blocks."""
    from strongmin.staircase import _conjugate_partition

    Ac, Bc = X.L0 - z * X.L1, X.L1
    N = Ac.shape[0]
    weyr, prev = [], 0
    for k in range(1, max_len + 2):
        T = np.zeros((k * N, k * N), dtype=complex)
        for j in range(k):
            T[j * N : (j + 1) * N, j * N : (j + 1) * N] = Ac
            if j + 1 < k:
                T[(j + 1) * N : (j + 2) * N, j * N : (j + 1) * N] = Bc
        s = np.linalg.svd(T, compute_uv=False)
        floor = tol * k * N * np.hypot(np.linalg.norm(Ac), np.linalg.norm(Bc))
        nk = k * N - _rank_rule(s, T.shape, tol, floor)[0]
        w = nk - prev
        prev = nk
        if w <= 0:
            break
        weyr.append(min(w, weyr[-1]) if weyr else w)
    return _conjugate_partition(weyr)


def _check_points_against_chain_matrices(monkeypatch):
    """Make every point ``kronecker_structure`` reports compare its
    partition with the one the chain matrices of the regular part give at
    that point.  Returns the list of partitions checked."""
    import strongmin.staircase as staircase

    real = staircase._eigen_structure
    checked = []

    def compared(X, mu_inf, tol, floor):
        points, close = real(X, mu_inf, tol, floor)
        for z, part, _ in points:
            assert _chain_partition(X, z, tol, sum(part)) == part, (z, part)
            checked.append(part)
        return points, close

    monkeypatch.setattr(staircase, "_eigen_structure", compared)
    return checked


MIXTURES = [
    (("J", 0.5, 1), ("J", -1.0, 2), ("J", 2.0, 3)),
    (("J", 1.5, 4), ("J", -0.5, 1)),
    (("J", 0.5, 2), ("J", 0.5, 1), ("inf", 2)),
    (("inf", 3), ("inf", 1), ("J", -2.0, 2)),
    (("L", 0), ("L", 2), ("J", 0.7, 2), ("inf", 2)),
    (("LT", 1), ("LT", 2), ("J", 1.0, 3)),
    (("L", 1), ("LT", 1), ("J", -1.0, 1), ("inf", 3)),
]


class TestWeyrFromKernels:
    """Partial multiplicities are read off the kernel widths of one small
    staircase per cluster of eigenvalues; on mixed Kronecker blocks they
    are the known ones, and at every reported point the ones the chain
    matrices of the regular part give."""

    @pytest.mark.parametrize("blocks", MIXTURES)
    @pytest.mark.parametrize("seed", range(2))
    def test_kronecker_blocks(self, monkeypatch, blocks, seed):
        checked = _check_points_against_chain_matrices(monkeypatch)
        base, structure = kronecker_sum(*blocks)
        rep = kronecker_structure(unitary_equivalent(base, 300 + seed), seed=seed)
        assert_structure(rep, structure)
        assert not rep.ambiguous
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
        # A size-3 Jordan block splits under rounding into three points about
        # eps^(1/3) apart; their discs join them into one cluster, read as
        # one block of size 3 at the centroid.
        P = unitary_equivalent(jordan_block(2.0, 3), 5)
        rep = kronecker_structure(P)
        assert_structure(rep, ({2.0: (3,)}, (), (), ()))
        assert not rep.ambiguous

    def test_large_tolerance(self, monkeypatch):
        # At tol = 1e-3 the discs are wide, and the readings decide at that
        # tolerance; the chain matrices agree at every point.
        checked = _check_points_against_chain_matrices(monkeypatch)
        base, structure = kronecker_sum(("J", 0.5, 3), ("L", 1), ("L", 2))
        rep = kronecker_structure(unitary_equivalent(base, 11), tol=1e-3)
        assert_structure(rep, structure)
        assert checked == [(3,)]


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


def _record_factorizations(monkeypatch):
    """Record the shape of every SVD and LU ``kronecker_structure`` takes
    outside its normal-rank probe and its rotation sampler, which every
    pencil passes through.  Returns the list of ``(kind, shape)``."""
    import strongmin.staircase as staircase

    taken, paused = [], []
    svd, getrf = np.linalg.svd, lapack.zgetrf

    def recorder(kind, fn):
        def recorded(a, *args, **kwargs):
            if not paused:
                taken.append((kind, np.shape(a)))
            return fn(a, *args, **kwargs)

        return recorded

    def unrecorded(fn):
        def call(*args, **kwargs):
            paused.append(True)
            try:
                return fn(*args, **kwargs)
            finally:
                paused.pop()

        return call

    monkeypatch.setattr(np.linalg, "svd", recorder("svd", svd))
    monkeypatch.setattr(lapack, "zgetrf", recorder("lu", getrf))
    monkeypatch.setattr(staircase, "normal_rank", unrecorded(staircase.normal_rank))
    monkeypatch.setattr(staircase, "_choose_rotation", unrecorded(staircase._choose_rotation))
    return taken


class TestSimplePointKernels:
    """A lone eigenvalue, whose perturbation disc meets no other, is simple
    and takes no factorization: no SVD, LU or cluster staircase."""

    @pytest.mark.parametrize("d", [32, 48])
    def test_planted_points_match_full_svd(self, monkeypatch, d):
        # Every finite pole and zero of a planted system is simple: none
        # takes a cluster reading, only the two infinite eigenvalues of the
        # system pencil do.
        import strongmin.staircase as staircase
        from strongmin.mcmillan import rational_structure

        read = []
        real = staircase._cluster_reading

        def recorded(S, T, members, z, tol, floor):
            read.append(len(members))
            return real(S, T, members, z, tol, floor)

        monkeypatch.setattr(staircase, "_cluster_reading", recorded)
        s = rational_structure(planted_quadruple(d, d))
        assert s.mcmillan_degree == d - d // 4
        assert len(s.finite_points) == 2 * (d - d // 4)
        assert all(idx in ((-1,), (1,)) for idx in s.finite_points.values())
        assert read == [2]

    @pytest.mark.parametrize("blocks", MIXTURES)
    def test_enlarged_kronecker_blocks(self, blocks):
        # The mixtures above with 24 simple eigenvalues added: each is
        # reported right and unflagged, and a regular one keeps its
        # dimension identity.  Three of them, J_4(1.5) + J_1(-0.5),
        # inf_3 + inf_1 + J_2(-2) and L_1 + L_1^T + J_1(-1) + inf_3, once
        # lost simple eigenvalues to a clustering radius shared by the
        # whole spectrum.
        simple = np.random.default_rng(len(blocks)).uniform(3.0, 9.0, 24)
        base, (finite, *rest) = kronecker_sum(*blocks)
        base = direct_sum(base, Pencil(np.diag(simple), np.eye(24)))
        finite = {**finite, **{float(v): (1,) for v in simple}}
        P = unitary_equivalent(base, 400)
        rep = kronecker_structure(P)
        assert_structure(rep, (finite, *rest))
        assert not rep.ambiguous
        assert rep.dimension_identity(*P.shape)

    def test_exact_zero_pivot_takes_full_svd(self, monkeypatch):
        # diag(1, ..., 48) against the identity: QZ leaves it diagonal and
        # each eigenvalue exact; all are lone, and nothing is factored.
        taken = _record_factorizations(monkeypatch)
        n = 48
        rep = kronecker_structure(Pencil(np.diag(np.arange(1.0, n + 1)), np.eye(n)))
        assert rep.finite_eigen == {complex(k): (1,) for k in range(1, n + 1)}
        assert taken == []

    def test_failed_certificate_takes_full_svd(self):
        # Two eigenvalues 1e-10 apart, below the default tolerance floor
        # (about 5e-10 here) but far above rounding, are one semisimple
        # double eigenvalue; at tol = 1e-15 they are two simple ones.
        vals = np.append(np.linspace(2.0, 3.0, 30), [1.0, 1.0 + 1e-10])
        P = unitary_equivalent(Pencil(np.diag(vals), np.eye(vals.size)), 3)
        for tol, near_one in ((DEFAULT_TOL, [(1, 1)]), (1e-15, [(1,), (1,)])):
            rep = kronecker_structure(P, tol=tol)
            assert sorted(p for z, p in rep.finite_eigen.items() if abs(z - 1) < 1e-6) == near_one
            assert rep.finite_count() == 32 and not rep.ambiguous

    def test_no_full_svd_at_simple_points(self, monkeypatch):
        # Guard: a square regular pencil whose eigenvalues are all lone takes
        # no N x N SVD or LU past its normal-rank probe and rotation: no
        # factorization at all, only one QZ.
        taken = _record_factorizations(monkeypatch)
        rng = np.random.default_rng(8)
        N = 40
        P = Pencil(rng.standard_normal((N, N)), rng.standard_normal((N, N)))
        rep = kronecker_structure(P)
        assert rep.finite_count() == N and not rep.ambiguous
        assert taken == []


class TestCloseCalls:
    """A decision within a factor 10 of its other outcome sets ``ambiguous``,
    and a cluster whose disc tests do not decide it is left out of the
    points, so that the eigenvalue count does not reconcile."""

    @pytest.mark.parametrize(
        "d, flagged", [(0.0, False), (1e-12, True), (3e-12, True), (1e-8, False)]
    )
    def test_staircase_decision_near_threshold(self, d, flagged):
        # [lambda - 0.5, d]: the eigenvalue 0.5 and an L_0 block when d = 0,
        # one L_1 block otherwise.  The staircase's row decision on d has a
        # threshold of about 2e-12 here; within a factor 10 of it the
        # decision is a close call.
        rep = kronecker_structure(pencil([[0.5, -d]], [[1.0, 0.0]]))
        assert rep.ambiguous == flagged
        if not flagged:
            expected = ({0.5: (1,)}, (0,)) if d == 0 else ({}, (1,))
            assert (rep.finite_eigen, rep.right_minimal) == expected

    @pytest.mark.parametrize(
        "delta, finite, flagged",
        [(1e-5, [(1, 1)], False), (0.02, [], True), (1.0, [(1,), (1,)], False)],
    )
    def test_cluster_left_out_in_the_band(self, delta, finite, flagged):
        # Eigenvalues 1 and 1 + delta beside 4 at tol = 1e-3: far inside each
        # other's discs (distance over summed radii 2e-4) they are one
        # semisimple point, far apart (17) two simple ones; in between (0.4)
        # the disc test is a close call and neither reading is reported.
        vals = np.array([1.0, 1.0 + delta, 4.0])
        P = unitary_equivalent(Pencil(np.diag(vals), np.eye(3)), 6)
        rep = kronecker_structure(P, tol=1e-3)
        pair = sorted(p for z, p in rep.finite_eigen.items() if abs(z - 4) > 0.5)
        assert pair == finite
        assert rep.ambiguous == flagged
        assert rep.dimension_identity(3, 3) != flagged

    @pytest.mark.parametrize(
        "seed",
        [
            0,
            1,
            2,
            pytest.param(
                3,
                marks=pytest.mark.xfail(
                    reason="the row decision ending the longer L chain reads "
                    "about 7.5e-8 against a threshold of 4e-10: the chain runs on "
                    "through the regular part, and no decision is near its threshold"
                ),
            ),
        ],
    )
    def test_long_chain_mixture_right_or_flagged(self, seed):
        # A 30-eigenvalue regular part (one of them infinite) beside two L
        # blocks whose indices sum to 10.  The staircase decision that ends
        # the longer chain reads rounding amplified far above eps; where it
        # lands near its threshold the report is flagged.
        rep = kronecker_structure(regular_mixture(40, 30, seed, n_inf=1))
        right = (
            rep.finite_count() == 29
            and rep.infinite_blocks == (1,)
            and sum(rep.right_minimal) == 10
        )
        assert right or rep.ambiguous


def assert_same_discs(S, T, floor=1e-12):
    """``_eigen_discs`` of the triangular pair ``(S, T)`` agrees with the
    back substitution of the reference: the same eigenvalues, infinite
    radii where it has them, and finite radii within 1e-10 relative."""
    w, radii = _eigen_discs(S, T, floor)
    w_ref, radii_ref = eigen_discs_by_back_substitution(S, T, floor)
    np.testing.assert_array_equal(w, w_ref)
    np.testing.assert_array_equal(np.isinf(radii), np.isinf(radii_ref))
    finite = np.isfinite(radii_ref)
    np.testing.assert_allclose(radii[finite], radii_ref[finite], rtol=1e-10, atol=0)
    return w, radii


class TestEigenDiscs:
    """The discs of one eigenvector call against those of back
    substitution, one eigenvalue at a time."""

    @pytest.mark.parametrize("k", [1, 2, 5, 24, 74])
    def test_complex_pairs(self, k):
        rng = np.random.default_rng(k)
        L0, L1 = (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)) for _ in "ab")
        assert_same_discs(*_triangular_pair(Pencil(L0, L1)))

    @pytest.mark.parametrize("k", [20, 41])
    def test_real_qz_pairs_with_conjugate_eigenvalues(self, k):
        rng = np.random.default_rng(100 + k)
        S, T = _triangular_pair(Pencil(rng.standard_normal((k, k)), rng.standard_normal((k, k))))
        w, _ = assert_same_discs(S, T)
        assert np.count_nonzero(w.imag > 0) >= 2

    def test_jordan_block_beside_simple_eigenvalues(self):
        # J_3(2) beside 1, 3 and 5 under an upper triangular coupling: the
        # pivots of the block at 2 are exactly zero and floored, and its
        # members, one point, are cut to the radius of orthogonal
        # neighbours.
        rng = np.random.default_rng(7)
        S = np.diag([2.0, 2.0, 2.0, 1.0, 3.0, 5.0]).astype(complex)
        S[0, 1] = S[1, 2] = 1.0
        S += np.triu(rng.standard_normal((6, 6)), 3)
        T = np.eye(6, dtype=complex) + np.triu(rng.standard_normal((6, 6)), 3)
        floor = 1e-12
        w, radii = assert_same_discs(S, T, floor)
        np.testing.assert_array_equal(radii[:3], floor * (1 + np.abs(w[:3])))
        assert np.all(radii[3:] < 1e-9)

    def test_zero_leading_diagonal_entry(self):
        # An infinite eigenvalue (T_22 = 0) has an infinite radius, and the
        # others keep finite ones, under the errstate of
        # _classified_eigenvalues.
        rng = np.random.default_rng(3)
        S, T = (np.triu(rng.standard_normal((5, 5))).astype(complex) for _ in "ab")
        T[2, 2] = 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            _, radii = assert_same_discs(S, T)
        assert np.isinf(radii[2]) and np.all(np.isfinite(np.delete(radii, 2)))


def test_staircase_close_call_is_the_or_of_its_steps():
    # L_2 = [[lambda, -d, 0], [0, lambda, -1]]: the first step's row
    # decision reads 1, the second's reads d against the floor 1e-6.
    for d, close in ((3e-6, True), (1e-9, False)):
        P = pencil([[0.0, -d, 0.0], [0.0, 0.0, -1.0]], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        steps = []
        *_, got = _staircase(P, 1e-12, lambda *step: steps.append(step), floor=1e-6)
        assert steps[0] == (2, 2, 1, 1) and len(steps) == 2
        assert got == close


def test_staircase_close_call_of_its_ending_kernel_decision():
    # L1 = diag(1, d) has full column rank for d above the floor 1e-6, so
    # the first kernel decision ends the loop with no block peeled; at
    # d = 3e-6 that decision is a close call all the same.
    for d, close in ((3e-6, True), (1e-3, False)):
        P = Pencil(np.eye(2), np.diag([1.0, d]))
        *_, blocks, mw, nw, got = _staircase(P, 1e-12, floor=1e-6)
        assert (blocks, mw, nw) == ([], 2, 2)
        assert got == close
