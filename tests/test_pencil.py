import numpy as np
import pytest

from strongmin.pencil import (
    Pencil,
    Rotation,
    RotationError,
    SingularPencilError,
    SystemQuadruple,
    choose_rotation,
    constant_pencil,
    default_lambda_scale,
    generalized_eigenvalues,
    lambda_scale,
    mobius_rotate,
    normal_rank,
    quadruple_from_constants,
    state_space_quadruple,
    system_pencil,
    transfer_eval,
    validate_regular,
)

EPS = np.finfo(float).eps


def scalar_pencil(l0, l1):
    return Pencil(np.array([[l0]]), np.array([[l1]]))


class TestSystemPencil:
    def test_scalar_assembly(self):
        # A = lambda, B = 1, C = 1, D = 0 gives S(lambda) = [[l, -1], [1, 0]].
        q = quadruple_from_constants(
            [[0.0]], [[1.0]], [[-1.0]], [[0.0]], [[-1.0]], [[0.0]], [[0.0]], [[0.0]]
        )
        S = system_pencil(q)
        z = 3.7
        assert np.allclose(S(z), [[z, -1.0], [1.0, 0.0]])

    def test_d_only_block(self):
        # All blocks empty except D = lambda.
        q = SystemQuadruple(
            Pencil(np.zeros((0, 0)), np.zeros((0, 0))),
            Pencil(np.zeros((0, 1)), np.zeros((0, 1))),
            Pencil(np.zeros((1, 0)), np.zeros((1, 0))),
            scalar_pencil(0.0, 1.0),
        )
        S = system_pencil(q)
        assert np.allclose(S(2.0), [[2.0]])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            SystemQuadruple(
                scalar_pencil(1, 1),
                Pencil(np.zeros((2, 1)), np.zeros((2, 1))),
                Pencil(np.zeros((1, 1)), np.zeros((1, 1))),
                Pencil(np.zeros((1, 1)), np.zeros((1, 1))),
            )


class TestTransferEval:
    def test_scalar_inverse(self):
        # A = lambda - 1, B = C = 1, D = 0: R(3) = 1/2.
        q = quadruple_from_constants(
            [[1.0]], [[1.0]], [[-1.0]], [[0.0]], [[-1.0]], [[0.0]], [[0.0]], [[0.0]]
        )
        assert transfer_eval(q, 3.0) == pytest.approx(np.array([[0.5]]))

    def test_d_only(self):
        q = quadruple_from_constants(
            [[1.0]], [[1.0]], [[0.0]], [[0.0]], [[0.0]], [[0.0]], [[-2.0]], [[1.0]]
        )
        # B = C = 0 so R(z) = D(z) = z - (-(-2)) ... D(z) = z*1 - (-2) = z + 2.
        assert transfer_eval(q, 1.5) == pytest.approx(np.array([[3.5]]))

    def test_pole_of_A_raises(self):
        q = quadruple_from_constants(
            [[1.0]], [[1.0]], [[-1.0]], [[0.0]], [[-1.0]], [[0.0]], [[0.0]], [[0.0]]
        )
        with pytest.raises(SingularPencilError, match="pole"):
            transfer_eval(q, 1.0)


class TestMobius:
    def test_identity_rotation(self):
        P = Pencil(np.array([[2.0, 0.0], [1.0, 3.0]]), np.eye(2))
        Q = mobius_rotate(P, Rotation(1.0, 0.0))
        assert np.allclose(Q.L0, P.L0) and np.allclose(Q.L1, P.L1)

    def test_quarter_turn_swaps_coefficients(self):
        P = Pencil(np.array([[2.0]]), np.array([[1.0]]))
        Q = mobius_rotate(P, Rotation(0.0, 1.0))
        assert np.allclose(Q.L0, P.L1)
        assert np.allclose(Q.L1, -P.L0)

    def test_eigenvalue_change_of_variable(self):
        # lambda - 2 rotated by c = s = 1/sqrt(2) has eigenvalue mu = -3.
        c = s = 1.0 / np.sqrt(2.0)
        P = scalar_pencil(2.0, 1.0)
        Q = mobius_rotate(P, Rotation(c, s))
        mu = (Q.L0 / Q.L1).item()
        assert mu == pytest.approx(-3.0)
        assert Rotation(c, s).map_point(mu) == pytest.approx(2.0)

    def test_inverse_rotation_roundtrip(self):
        rng = np.random.default_rng(7)
        P = Pencil(rng.standard_normal((3, 4)), rng.standard_normal((3, 4)))
        rot = Rotation(np.cos(0.3), np.sin(0.3))
        back = mobius_rotate(mobius_rotate(P, rot), rot.inverse())
        assert np.allclose(back.L0, P.L0, atol=50 * EPS)
        assert np.allclose(back.L1, P.L1, atol=50 * EPS)

    def test_mapped_eigenvalues_match(self):
        rng = np.random.default_rng(3)
        n = 4
        P = Pencil(
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
        )
        rot = Rotation(np.cos(1.1), np.sin(1.1))
        orig = sorted(generalized_eigenvalues(P), key=lambda z: (z.real, z.imag))
        rotated = generalized_eigenvalues(mobius_rotate(P, rot))
        mapped = sorted(
            (rot.map_point(m) for m in rotated), key=lambda z: (z.real, z.imag)
        )
        assert np.allclose(mapped, orig, rtol=1e-9, atol=1e-12)


class TestChooseRotation:
    def test_full_rank_leading_accepts_identity(self):
        P = Pencil(np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]]))
        rot = choose_rotation(P)
        assert (rot.c, rot.s) == (1.0, 0.0)

    def test_rank_deficient_leading_needs_rotation(self):
        P = Pencil(np.eye(2), np.diag([1.0, 0.0]))
        rot = choose_rotation(P, seed=123)
        assert rot.s != 0.0
        rotated = mobius_rotate(P, rot)
        assert np.linalg.matrix_rank(rotated.L1) == 2

    def test_impossible_rotation_raises(self):
        # Zero row: no rotation can make the leading coefficient full row rank.
        P = Pencil(np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(RotationError):
            choose_rotation(P, seed=0)


class TestLambdaScale:
    def test_identity(self):
        P = scalar_pencil(4.0, 1.0)
        Q = lambda_scale(P, 1.0)
        assert np.allclose(Q.L0, P.L0)

    def test_eigenvalue_doubles(self):
        P = scalar_pencil(4.0, 1.0)
        Q = lambda_scale(P, 2.0)
        assert (Q.L0 / Q.L1).item() == pytest.approx(8.0)

    def test_default_heuristic_equalizes_norms(self):
        rng = np.random.default_rng(11)
        P = Pencil(1e5 * rng.standard_normal((3, 3)), rng.standard_normal((3, 3)))
        d = default_lambda_scale(P)
        assert d == 2.0 ** round(np.log2(np.linalg.norm(P.L1) / np.linalg.norm(P.L0)))
        Q = lambda_scale(P, d)
        ratio = np.linalg.norm(Q.L0) / np.linalg.norm(Q.L1)
        assert 1 / np.sqrt(2) <= ratio <= np.sqrt(2)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            lambda_scale(scalar_pencil(1, 1), 0.0)


class TestGeneralizedEigenvalues:
    def test_diagonal(self):
        P = Pencil(np.diag([1.0, 2.0]), np.eye(2))
        vals = generalized_eigenvalues(P)
        assert sorted(v.real for v in vals) == pytest.approx([1.0, 2.0])

    def test_infinite(self):
        P = Pencil(np.eye(2), np.diag([1.0, 0.0]))
        vals = generalized_eigenvalues(P)
        assert sum(np.isinf(v) for v in vals) == 1

    def test_singular_pencil_raises(self):
        P = Pencil(np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(SingularPencilError):
            generalized_eigenvalues(P)

    def test_unitary_equivalence_invariance(self):
        from strongmin.linalg import random_unitary
        from scipy.optimize import linear_sum_assignment

        rng = np.random.default_rng(5)
        n = 5
        P = Pencil(
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
        )
        Q = random_unitary(rng, n)
        Z = random_unitary(rng, n)
        P2 = Pencil(Q @ P.L0 @ Z, Q @ P.L1 @ Z)
        a = generalized_eigenvalues(P)
        b = generalized_eigenvalues(P2)
        cost = np.abs(a[:, None] - b[None, :])
        rows, cols = linear_sum_assignment(cost)
        assert cost[rows, cols].max() < 1e-9 * max(1.0, np.abs(a).max())


class TestNormalRank:
    @staticmethod
    def equal_rows_pencil(n=4):
        rng = np.random.default_rng(11)
        L0 = rng.standard_normal((n, n))
        L1 = rng.standard_normal((n, n))
        L0[1], L1[1] = L0[0], L1[0]
        return Pencil(L0, L1)

    @pytest.fixture
    def probes(self, monkeypatch):
        import strongmin.pencil as pencil_module

        calls = []

        def counted(P, tol, seed):
            calls.append(P.shape)
            return normal_rank(P, tol, seed)

        monkeypatch.setattr(pencil_module, "normal_rank", counted)
        return calls

    def test_two_equal_rows_lose_one(self):
        P = self.equal_rows_pencil()
        assert normal_rank(P) == P.rows - 1
        full = Pencil(P.L0 + np.eye(4)[:, :1] @ np.ones((1, 4)), P.L1)
        assert normal_rank(full) == P.rows

    def test_validate_regular_rejects(self, probes):
        P = self.equal_rows_pencil()
        q = SystemQuadruple(
            P, constant_pencil(np.ones((4, 1))),
            constant_pencil(np.ones((1, 4))), constant_pencil([[0.0]]),
        )
        with pytest.raises(SingularPencilError):
            validate_regular(q)
        assert probes == [(4, 4)]

    def test_generalized_eigenvalues_rejects(self, probes):
        with pytest.raises(SingularPencilError):
            generalized_eigenvalues(self.equal_rows_pencil())
        assert probes == [(4, 4)]


def test_state_space_quadruple_transfer():
    F = np.array([[0.0, 1.0], [-2.0, -3.0]])
    G = np.array([[0.0], [1.0]])
    H = np.array([[1.0, 0.0]])
    q = state_space_quadruple(F, G, H)
    z = 1.0 + 0.5j
    expected = H @ np.linalg.solve(z * np.eye(2) - F, G)
    assert np.allclose(transfer_eval(q, z), expected)


def test_constant_pencil_is_constant():
    P = constant_pencil([[3.0, 1.0]])
    assert np.allclose(P(0.0), [[3.0, 1.0]])
    assert np.allclose(P(5.0), [[3.0, 1.0]])
