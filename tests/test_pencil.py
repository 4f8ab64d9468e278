import math

import numpy as np
import pytest

import strongmin.linalg as linalg_module
import strongmin.pencil as pencil_module
from strongmin.linalg import DEFAULT_TOL, _lapack, _rank_rule
from strongmin.pencil import (
    _BOUND_MIN_ROWS,
    _ROTATION_TRIES,
    IDENTITY_ROTATION,
    _MarginBound,
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
    split_system_pencil,
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


def random_quadruple(rng, d, m, n):
    """Complex quadruple with every coefficient drawn at random, and one
    negative zero in B when B has entries."""

    def draw(rows, cols):
        return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))

    blocks = [draw(*shape) for shape in [(d, d)] * 2 + [(d, n)] * 2 + [(m, d)] * 2 + [(m, n)] * 2]
    if d and n:
        blocks[2][0, 0] = complex(-0.0, 0.0)
    return quadruple_from_constants(*blocks)


LAYOUT_SHAPES = [(3, 2, 2), (4, 1, 3), (0, 2, 1), (2, 0, 1), (2, 1, 0), (2, 0, 0), (0, 1, 1)]


class TestSystemMatrixLayout:
    """S = [[A, -B], [C, D]] and every test pencil cut from it, checked
    against matrices assembled here block by block."""

    @pytest.mark.parametrize("d, m, n", LAYOUT_SHAPES)
    def test_split_inverts_assembly_bit_exactly(self, d, m, n):
        q = random_quadruple(np.random.default_rng(d + 10 * m + 100 * n), d, m, n)
        S = system_pencil(q)
        assert S.shape == (d + m, d + n)
        for coeff in ("L0", "L1"):
            A, B, C, D = (getattr(getattr(q, name), coeff) for name in "ABCD")
            hand = np.vstack([np.hstack([A, -B]), np.hstack([C, D])])
            np.testing.assert_array_equal(getattr(S, coeff), hand)
        back = split_system_pencil(S, d)
        for name in "ABCD":
            for coeff in ("L0", "L1"):
                got = getattr(getattr(back, name), coeff)
                want = getattr(getattr(q, name), coeff)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (name, coeff)

    @pytest.mark.parametrize("d, m, n", LAYOUT_SHAPES)
    def test_test_pencils_are_slices_and_borders_of_S(self, d, m, n):
        from strongmin.mcmillan import infinite_pole_pencil
        from strongmin.minreal import (
            _bordered_controllable,
            _bordered_observable,
            controllability_pencil,
        )

        q = random_quadruple(np.random.default_rng(7 + d + 10 * m + 100 * n), d, m, n)
        A0, A1, B0, B1 = q.A.L0, q.A.L1, q.B.L0, q.B.L1
        C0, C1, D0, D1 = q.C.L0, q.C.L1, q.D.L0, q.D.L1
        # Pencil coefficients: a constant block M is stored as (L0, L1) = (-M, 0).
        Zdm, Znd, Zmn = np.zeros((d, m)), np.zeros((n, d)), np.zeros((m, n))
        Im, In = np.eye(m), np.eye(n)
        expected = {
            "[A -B]": (controllability_pencil,
                       np.hstack([A0, -B0]), np.hstack([A1, -B1])),
            "[A^T -C^T]": (lambda q: controllability_pencil(q.transpose()),
                           np.hstack([A0.T, -C0.T]), np.hstack([A1.T, -C1.T])),
            "[S, [0; -I]]": (
                _bordered_controllable,
                np.vstack([np.hstack([A0, -B0, Zdm]), np.hstack([C0, D0, Im])]),
                np.vstack([np.hstack([A1, -B1, Zdm]), np.hstack([C1, D1, 0 * Im])]),
            ),
            "[S; [0, I]]": (
                _bordered_observable,
                np.vstack([np.hstack([A0, -B0]), np.hstack([C0, D0]), np.hstack([Znd, -In])]),
                np.vstack([np.hstack([A1, -B1]), np.hstack([C1, D1]), np.hstack([Znd, 0 * In])]),
            ),
            "poles at infinity": (
                infinite_pole_pencil,
                np.vstack([
                    np.hstack([A0, 0 * B0, Zdm]),
                    np.hstack([0 * C0, Zmn, Im]),
                    np.hstack([Znd, -In, Zmn.T]),
                ]),
                np.vstack([
                    np.hstack([A1, -B1, Zdm]),
                    np.hstack([C1, D1, 0 * Im]),
                    np.zeros((n, d + n + m)),
                ]),
            ),
        }
        for label, (build, L0, L1) in expected.items():
            P = build(q)
            assert P.shape == L0.shape, label
            np.testing.assert_array_equal(P.L0, L0, err_msg=label)
            np.testing.assert_array_equal(P.L1, L1, err_msg=label)


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


def reference_choose_rotation(P, seed=0, tol=DEFAULT_TOL):
    """choose_rotation without its angle bounds: one SVD per sampled angle.
    The identity is judged on the lambda-balanced scale, as there."""
    m = P.rows
    if m == 0:
        return IDENTITY_ROTATION
    if m > P.cols:
        raise RotationError("no admissible rotation: more rows than columns")
    jscale = P.coefficient_scale()
    if jscale == 0:
        raise RotationError("no admissible rotation found")
    floor = tol * max(P.shape) * jscale
    s1 = np.linalg.svd(P.L1, compute_uv=False)
    if s1[m - 1] >= 0.05 * balanced_scale(P):
        return IDENTITY_ROTATION
    rng = np.random.default_rng(seed)
    best = None
    full_rank = _rank_rule(s1, P.L1.shape, tol, floor)[0] == m
    best_margin = float(s1[m - 1]) if full_rank else -1.0
    if best_margin > 0:
        best = IDENTITY_ROTATION
    for _ in range(_ROTATION_TRIES):
        theta = rng.uniform(0.0, math.pi)
        c, s = math.cos(theta), math.sin(theta)
        g = float(np.linalg.svd(-s * P.L0 + c * P.L1, compute_uv=False)[m - 1])
        if g > best_margin:
            best, best_margin = Rotation(c, s), g
        if best_margin >= 0.1 * jscale:
            break
    if best is None or best_margin <= floor:
        raise RotationError("no admissible rotation found")
    return best


def balanced_scale(P):
    """Joint coefficient norm after the lambda balancing of
    default_lambda_scale."""
    return lambda_scale(P, default_lambda_scale(P)).coefficient_scale()


def complex_normal(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def identity_wins(m, n, seed=0):
    """Dense L0 and L1 = [I 0]: no sampled angle beats the identity's margin 1."""
    rng = np.random.default_rng(seed)
    return complex_normal(rng, m, n), np.eye(m, n)


def graded_identity(m, n, seed=0, big=100.0):
    """Dense L0 and L1 = [diag(big, 1, ..., 1) 0]: the identity's margin 1
    is below 0.05 of the balanced scale, yet no sampled angle beats it."""
    L0, L1 = identity_wins(m, n, seed)
    L1[0, 0] = big
    return L0, L1


def rank_deficient_leading(m, n, seed=0):
    """L1 of rank m - 2: the identity is inadmissible, a rotation wins."""
    rng = np.random.default_rng(seed)
    L1 = np.eye(m, n)
    L1[m - 2:, m - 2:] = 0
    return complex_normal(rng, m, n), L1


def weak_leading(m, n, seed=0):
    """L1 = [I 0] with one diagonal entry 0.02: full row rank, yet rotations
    towards a dense L0 beat its margin."""
    rng = np.random.default_rng(seed)
    L1 = np.eye(m, n)
    L1[m - 1, m - 1] = 0.02
    return complex_normal(rng, m, n), L1


def state_space_test_pencil(scale, d=48, n=2, seed=0):
    """The controllability pencil [lambda*I - F, -G] of a state-space
    quadruple whose F is ``scale`` times a Gaussian matrix."""
    from strongmin.minreal import controllability_pencil

    rng = np.random.default_rng(seed)
    F, G, H = (rng.standard_normal(shape) for shape in ((d, d), (d, n), (1, d)))
    return controllability_pencil(state_space_quadruple(scale * F, G, H))


def nearly_dependent_rows(m, n, seed=0, gap=1e-8):
    """The last row repeats the first in both coefficients up to ``gap``, so
    many rotated Gram matrices are too ill-conditioned for Cholesky."""
    rng = np.random.default_rng(seed)
    L0, L1 = complex_normal(rng, m, n), np.eye(m, n, dtype=complex)
    L0[-1] = L0[0] + gap * rng.standard_normal(n)
    L1[-1] = L1[0] + gap * rng.standard_normal(n)
    return L0, L1


def rotation_or_error(P, seed, choose):
    try:
        rot = choose(P, seed=seed)
    except RotationError as exc:
        return str(exc)
    return (rot.c, rot.s)


class TestBoundedRotationSampler:
    """The margin bounds only skip SVDs: every choice is bitwise the one the
    unbounded sampler makes."""

    # Below the bound cutoff, at it, and well above it.
    SIZES = [
        (4, 6),
        (_BOUND_MIN_ROWS - 1, _BOUND_MIN_ROWS + 1),
        (_BOUND_MIN_ROWS, _BOUND_MIN_ROWS + 2),
        (40, 42),
    ]

    def _assert_same(self, L0, L1, seeds=range(4)):
        P = Pencil(L0, L1)
        results = []
        for seed in seeds:
            got = rotation_or_error(P, seed, choose_rotation)
            assert got == rotation_or_error(P, seed, reference_choose_rotation)
            results.append(got)
        return results

    @pytest.mark.parametrize("m, n", SIZES)
    def test_identity_wins(self, m, n):
        results = self._assert_same(*identity_wins(m, n))
        assert results == [(1.0, 0.0)] * len(results)

    def test_identity_wins_a_pruned_search(self):
        # The identity is not returned early, and every sampled angle is
        # skipped on its bound.
        results = self._assert_same(*graded_identity(40, 42))
        assert results == [(1.0, 0.0)] * len(results)

    @pytest.mark.parametrize("m, n", SIZES)
    def test_rotation_wins_over_rank_deficient_leading(self, m, n):
        for c, s in self._assert_same(*rank_deficient_leading(m, n)):
            assert s != 0.0

    @pytest.mark.parametrize("m, n", SIZES)
    def test_rotation_wins_over_weak_full_rank_leading(self, m, n):
        L0, L1 = weak_leading(m, n)
        P = Pencil(L0, L1)
        s1 = np.linalg.svd(P.L1, compute_uv=False)
        assert 0 < s1[m - 1] < 0.05 * balanced_scale(P)
        for c, s in self._assert_same(L0, L1):
            assert s != 0.0

    @pytest.mark.parametrize("gap, raises", [(1e-8, False), (1e-10, True)])
    def test_cholesky_failure_falls_back_to_svd(self, monkeypatch, gap, raises):
        failures = []
        zpotrf = _lapack("potrf", np.zeros((1, 1), dtype=complex))

        def counted(*args, **kwargs):
            R, info = zpotrf(*args, **kwargs)
            failures.append(info != 0)
            return R, info

        monkeypatch.setitem(linalg_module._LAPACK["D"], "potrf", counted)
        results = self._assert_same(*nearly_dependent_rows(40, 42, gap=gap), seeds=[0])
        assert any(failures)
        assert isinstance(results[0], str) == raises


class TestMarginBound:
    """The padded bound never falls below LAPACK's smallest singular value."""

    @staticmethod
    def _cases():
        rng = np.random.default_rng(2024)
        for trial in range(60):
            m = int(rng.integers(1, 30))
            n = m + int(rng.integers(0, 4))
            kind = trial % 3
            if kind == 0:  # dense
                L0, L1 = complex_normal(rng, m, n), complex_normal(rng, m, n)
            elif kind == 1:  # rank deficient at every angle
                r = int(rng.integers(0, m))
                V = complex_normal(rng, r, n)
                L0, L1 = complex_normal(rng, m, r) @ V, complex_normal(rng, m, r) @ V
            else:  # graded: singular values spread over ten decades
                U = np.linalg.qr(complex_normal(rng, m, m))[0]
                V = np.linalg.qr(complex_normal(rng, n, n))[0][:m]
                L0 = U @ np.diag(np.logspace(0, -10, m)) @ V
                L1 = complex_normal(rng, m, n)
            theta = rng.uniform(0.0, math.pi)
            yield Pencil(L0, L1), math.cos(theta), math.sin(theta)

    @pytest.mark.parametrize("target", [-math.inf, 0.0, math.inf])
    def test_bound_is_above_smallest_singular_value(self, target):
        for P, c, s in self._cases():
            M = -s * P.L0 + c * P.L1
            sigma = np.linalg.svd(M, compute_uv=False)[P.rows - 1]
            assert _MarginBound(P)(M, c, s, target) >= sigma

    def test_bound_is_tight_on_well_conditioned_margins(self):
        # Not required for correctness, but without it nothing is pruned.
        L0, L1 = identity_wins(40, 42)
        P = Pencil(L0, L1)
        c, s = math.cos(1.0), math.sin(1.0)
        M = -s * P.L0 + c * P.L1
        sigma = np.linalg.svd(M, compute_uv=False)[-1]
        assert _MarginBound(P)(M, c, s, -math.inf) < 1.5 * sigma


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

    def test_more_rows_than_columns_raises(self):
        # A 3 x 2 leading coefficient has full row rank at no angle.
        with pytest.raises(RotationError, match="more rows"):
            choose_rotation(Pencil(np.ones((3, 2)), np.ones((3, 2))))

    @pytest.mark.parametrize("make", [identity_wins, rank_deficient_leading, weak_leading])
    def test_margin_is_rotated_sigma_min(self, make):
        # The margin a rotation carries is the smallest singular value of
        # the rotated leading coefficient, which certifies the staircase.
        P = Pencil(*make(20, 22))
        rot = choose_rotation(P, seed=1)
        sigma = np.linalg.svd(mobius_rotate(P, rot).L1, compute_uv=False)[-1]
        assert rot.margin == pytest.approx(sigma, rel=1e-12)
        assert choose_rotation(Pencil(np.zeros((0, 2)), np.zeros((0, 2)))).margin == math.inf

    @staticmethod
    def _counted_choice(monkeypatch, P):
        """choose_rotation(P, seed=0), its SVD count and the number of
        margin bounds it built."""
        calls, built = [], []
        svd, bound = np.linalg.svd, pencil_module._MarginBound

        def counted(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        def counted_bound(*args):
            built.append(1)
            return bound(*args)

        monkeypatch.setattr(np.linalg, "svd", counted)
        monkeypatch.setattr(pencil_module, "_MarginBound", counted_bound)
        return choose_rotation(P, seed=0), len(calls), len(built)

    @pytest.mark.parametrize(
        "P, svds",
        [
            # L1 comfortably full row rank: the identity, from one SVD.
            (Pencil(np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]])), 1),
            # Every rotated margin is |c - s| * 1e-3, below the 0.1 * scale
            # target, so all sampled angles are tried; L1 is factored once.
            # Below _BOUND_MIN_ROWS no angle is bounded, so each takes an SVD.
            (Pencil(np.diag([1.0, 1e-3]), np.diag([1.0, 1e-3])), 1 + _ROTATION_TRIES),
            # L1 = [I 0] has margin 1, above 0.05 of the lambda-balanced
            # scale, though not of the joint norm with a dense L0.
            (Pencil(*identity_wins(40, 42)), 1),
        ]
        + [
            # [lambda*I - 2^k F, -G] keeps the identity at every scale of F:
            # the balanced scale does not grow with it.
            (state_space_test_pencil(2.0**k), 1)
            for k in range(7)
        ],
    )
    def test_svds_per_call(self, monkeypatch, P, svds):
        # No case builds a margin bound, so one SVD is the identity's early
        # return.
        rot, calls, bounds = self._counted_choice(monkeypatch, P)
        assert calls == svds
        assert bounds == 0
        assert ((rot.c, rot.s) == (1.0, 0.0)) == (svds == 1)

    def test_pruned_search_takes_one_svd(self, monkeypatch):
        # The identity's margin 1 is too small to return early, so all
        # sampled angles are tried; each is bounded below 1 and skipped, so
        # the SVD of L1 is the only one.
        rot, calls, bounds = self._counted_choice(monkeypatch, Pencil(*graded_identity(40, 42)))
        assert (rot.c, rot.s) == (1.0, 0.0)
        assert calls == 1
        assert bounds == 1


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

    def test_one_infinite(self):
        vals = generalized_eigenvalues(Pencil(np.eye(2), np.diag([1.0, 0.0])))
        finite = [v for v in vals if np.isfinite(v)]
        infinite = [v for v in vals if np.isinf(v)]
        assert len(finite) == 1 and len(infinite) == 1
        assert finite[0] == pytest.approx(1.0)
        assert infinite[0] == complex(np.inf, 0.0)

    def test_nilpotent_leading(self):
        # lambda*[[0,1],[0,0]] - I is regular with both eigenvalues infinite.
        vals = generalized_eigenvalues(Pencil(np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])))
        assert all(np.isinf(v) for v in vals)

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("n", [5, 19, 20, 40])
    def test_matches_scipy_eigvals(self, field, n):
        # One QZ of either field on both sides of the real-QZ crossover
        # (20 rows), against scipy's QZ with the same beta rule.  L1 has
        # rank n - 2, so two eigenvalues are infinite.
        from scipy.linalg import eigvals
        from scipy.optimize import linear_sum_assignment

        rng = np.random.default_rng([n, field == "complex"])

        def draw(*shape):
            M = rng.standard_normal(shape)
            return M + 1j * rng.standard_normal(shape) if field == "complex" else M

        L0 = draw(n, n)
        L1 = draw(n, n - 2) @ draw(n - 2, n)
        tol = 1e-12
        alpha, beta = eigvals(L0, L1, homogeneous_eigvals=True)
        finite = np.abs(beta) > tol * (np.abs(alpha) + np.abs(beta))
        want = alpha[finite] / beta[finite]

        got = generalized_eigenvalues(Pencil(L0, L1), tol)
        assert got.dtype == complex and got.shape == (n,)
        assert np.all(got[np.isinf(got)] == complex(np.inf, 0.0))
        got = got[np.isfinite(got)]
        assert got.size == want.size == n - 2
        cost = np.abs(got[:, None] - want[None, :]) / np.maximum(1.0, np.abs(want))
        rows, cols = linear_sum_assignment(cost)
        assert cost[rows, cols].max() < 1e-9

    def test_singular_pencil_raises(self):
        P = Pencil(np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(SingularPencilError):
            generalized_eigenvalues(P)

    def test_unitary_equivalence_invariance(self):
        from helpers import random_unitary
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
