import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strongmin.gallery import example_polynomial_system
from strongmin.pencil import Pencil, generalized_eigenvalues, system_pencil
from strongmin.scaling import (
    ScalingDivergence,
    apply_scaling,
    balance_pencil,
    build_M,
    build_M_alpha,
    quantize_pow2,
    scale_approach1,
    scale_approach2,
    scaled_quadruple,
    sinkhorn_knopp,
)
from test_acceptance import random_e5_e1


class TestBuildM:
    def test_scalars(self):
        assert build_M([[1.0]], [[2.0]]) == pytest.approx(np.array([[5.0]]))

    def test_zero(self):
        assert np.all(build_M(np.zeros((2, 2)), np.zeros((2, 2))) == 0)

    def test_mixed(self):
        A = [[1.0, 0.0], [0.0, 2.0]]
        B = [[0.0, 3.0], [1.0, 0.0]]
        assert build_M(A, B) == pytest.approx(np.array([[1.0, 9.0], [1.0, 4.0]]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            build_M(np.zeros((1, 2)), np.zeros((2, 1)))


class TestBuildMAlpha:
    def test_zero_M(self):
        S = build_M_alpha(np.array([[0.0]]), 1.0, 1, 1)
        assert S == pytest.approx(np.array([[1.0, 0.0], [0.0, 1.0]]))

    def test_one_by_one(self):
        S = build_M_alpha(np.array([[1.0]]), 2.0, 1, 1)
        assert S == pytest.approx(np.array([[4.0, 1.0], [1.0, 4.0]]))

    def test_symmetric_positive_diagonal(self):
        rng = np.random.default_rng(0)
        M = rng.random((3, 5))
        S = build_M_alpha(M, 0.7, 3, 5)
        assert np.allclose(S, S.T)
        assert np.all(np.diag(S) > 0)


def _bipartite_kron():
    B = np.random.default_rng(0).random((3, 3))
    S = np.kron([[0.0, 1.0], [1.0, 0.0]], B)
    return S + S.T


class TestSinkhornKnopp:
    def test_scalar(self):
        d_row, d_col, _, conv = sinkhorn_knopp(np.array([[2.0]]))
        assert conv
        assert d_row[0] * 2.0 * d_col[0] == pytest.approx(1.0)

    def test_identity(self):
        # Already doubly stochastic: no Newton step is taken.
        d_row, d_col, it, conv = sinkhorn_knopp(np.eye(2))
        assert conv
        assert it == 0
        assert np.allclose(d_row * d_col, 1.0)

    def test_uniform(self):
        d_row, d_col, _, conv = sinkhorn_knopp(np.ones((2, 2)))
        S = (d_row[:, None] * np.ones((2, 2))) * d_col[None, :]
        assert np.allclose(S, 0.5)

    def test_zero_row_rejected(self):
        with pytest.raises(ValueError, match="zero row/column"):
            sinkhorn_knopp(np.array([[0.0, 0.0], [1.0, 1.0]]))

    def test_nonsymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            sinkhorn_knopp(np.array([[1.0, 2.0], [1.0, 1.0]]))

    def test_start_vector(self):
        S = build_M_alpha(np.array([[1.0, 2.0]]), 1.0, 1, 2)
        x, _, _, conv = sinkhorn_knopp(S, tol=1e-13)
        _, _, it, conv_y = sinkhorn_knopp(S, tol=1e-13, x0=x)
        assert conv and conv_y
        assert it == 0
        z, _, _, conv_z = sinkhorn_knopp(S, tol=1e-13, x0=[5.0, 0.1, 2.0])
        assert conv_z
        assert np.allclose(z, x, rtol=1e-12)

    @pytest.mark.parametrize("S, factors", [
        ([[1e-6]], [3.0]),
        ([[0.0, 1e6, 1e-6], [1e6, 0.0, 1.0], [1e-6, 1.0, 1e-6]], [1.9, 0.1, 1.9]),
    ])
    def test_newton_step_is_cut_back(self, S, factors):
        # The Newton corrections from ones are about 5e5 and below -0.9:
        # the step is shortened until the extreme factor sits on 3 or 0.1.
        x, _, it, _ = sinkhorn_knopp(np.array(S), max_iter=1)
        assert it == 1
        assert x == pytest.approx(factors, rel=1e-5)

    @pytest.mark.parametrize("S, max_steps", [
        (np.array([[0.0, 2.0], [2.0, 0.0]]), 4),
        (_bipartite_kron(), 5),
    ], ids=["swap", "kron"])
    def test_singular_newton_system(self, S, max_steps):
        # A bipartite pattern makes every Newton matrix singular and the
        # scaling non-unique; the minimum-norm correction still reaches a
        # doubly stochastic scaling, in no more steps than the
        # conjugate-gradient iteration took.
        x, _, it, conv = sinkhorn_knopp(S)
        assert conv
        assert it <= max_steps
        P = (x[:, None] * S) * x[None, :]
        assert np.max(np.abs(P.sum(axis=1) - 1.0)) <= 1e-10

    @pytest.mark.parametrize("S", [
        [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]],
        [[0.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 0.0]],
        [[0.0, 1.0, 1.0, 1.0], [1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0],
         [1.0, 0.0, 0.0, 0.0]],
    ], ids=["path", "looped_path", "star"])
    def test_no_total_support_stops_unconverged(self, S):
        # No doubly stochastic scaling exists: the path and the star are
        # bipartite with unequal sides, and the looped path drives its ends
        # apart until its Newton matrix is singular to rounding.
        x, _, it, conv = sinkhorn_knopp(np.array(S))
        assert not conv
        assert it <= 20
        assert np.all(np.isfinite(x)) and np.all(x > 0)


def _chain_pencil(seed):
    """Criterion-9 system pencil: degree-5 chain with a root near 1e5."""
    rng = np.random.default_rng(seed)
    e5, e1, _ = random_e5_e1(rng, big_root=1e5, normalize=True)
    return system_pencil(example_polynomial_system(e5, e1))


class TestChainPencilBalancing:
    @pytest.mark.parametrize("seed", range(9000, 9020))
    def test_newton_converges_in_few_steps(self, seed):
        _, res = balance_pencil(
            _chain_pencil(seed), approach=2, alpha=1e-2, pow2=True,
            use_lambda_scale=False,
        )
        assert res.converged
        assert res.iterations <= 50

    def test_chain_balancing_is_quadratic(self):
        # Exact Newton steps: 10-11 per pencil; the conjugate-gradient
        # iteration took 18-23.
        steps = [
            balance_pencil(
                _chain_pencil(seed), approach=2, alpha=1e-2, pow2=True,
                use_lambda_scale=False,
            )[1].iterations
            for seed in range(9000, 9020)
        ]
        assert max(steps) <= 15

    def test_scaled_chains_are_pinned(self):
        # The power-of-2 scalings of 200 chain quadruples, and so every
        # scaled coefficient, are those of the conjugate-gradient iteration
        # that preceded exact Newton steps: the digest was computed with it.
        digest = hashlib.sha256()
        for seed in range(9000, 9200):
            rng = np.random.default_rng(seed)
            e5, e1, _ = random_e5_e1(rng, big_root=1e5, normalize=True)
            q, _, Dm, Dn = scaled_quadruple(example_polynomial_system(e5, e1))
            for M in (q.A.L0, q.A.L1, q.B.L0, q.B.L1, q.C.L0, q.C.L1,
                      q.D.L0, q.D.L1, Dm, Dn):
                digest.update(np.ascontiguousarray(M, dtype=complex).tobytes())
        assert digest.hexdigest() == (
            "482527aa2aacee55c1ba70616f157644a60334b615383c57fecde8c8a8206a10")

    def test_unconverged_warns(self):
        with pytest.warns(RuntimeWarning, match="after 2 iterations, residual"):
            _, res = balance_pencil(
                _chain_pencil(9000), approach=2, alpha=1e-2, pow2=True,
                use_lambda_scale=False, max_iter=2,
            )
        assert not res.converged


class TestApproach1:
    def test_scalar_pinned_by_determinant(self):
        res = scale_approach1([[4.0]], [[0.0]], 1.0, 1.0)
        assert res.converged
        assert res.d_left[0] == pytest.approx(1.0)
        assert res.d_right[0] == pytest.approx(1.0)
        assert res.gamma_left == pytest.approx(16.0)
        assert res.gamma_right == pytest.approx(16.0)

    def test_uniform_matrix_identity_scalings(self):
        A = np.ones((3, 3))
        res = scale_approach1(A, np.zeros((3, 3)), 1.0, 1.0)
        assert res.converged
        assert np.allclose(res.d_left, res.d_left[0])
        assert np.allclose(res.d_right, res.d_right[0])

    def test_diag_1_100(self):
        # minimize x + 1e4/x with xy = 1 -> per-position products 100, 1/100.
        res = scale_approach1(np.diag([1.0, 100.0]), np.zeros((2, 2)), 1.0, 1.0)
        assert res.converged
        prod1 = res.d_left[0] ** 2 * res.d_right[0] ** 2
        prod2 = res.d_left[1] ** 2 * res.d_right[1] ** 2
        assert prod1 == pytest.approx(100.0, rel=1e-8)
        assert prod2 == pytest.approx(0.01, rel=1e-8)
        assert res.gamma_left == pytest.approx(100.0, rel=1e-8)
        # Scaled coefficient proportional to diag(10, 10) in magnitude.
        scaled = apply_scaling(Pencil(np.diag([1.0, 100.0]), np.zeros((2, 2))), res)
        assert np.abs(scaled.L0[0, 0]) == pytest.approx(10.0, rel=1e-6)
        assert np.abs(scaled.L0[1, 1]) == pytest.approx(10.0, rel=1e-6)

    def test_zero_row_rejected(self):
        with pytest.raises(ValueError, match="zero row/column in M"):
            scale_approach1(np.array([[1.0, 0.0], [0.0, 0.0]]), np.zeros((2, 2)))

    def test_divergence_guard(self):
        # Triangular nonzero pattern [[1, 1], [0, 1]]: the row and column
        # sum equalities are contradictory, the infimum is not attained and
        # the scalings drift without bound.
        A = np.array([[1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(ScalingDivergence):
            scale_approach1(A, np.zeros((2, 2)))

    @pytest.mark.parametrize("seed", range(5))
    def test_converged_invariants_random(self, seed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        B = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        res = scale_approach1(A, B, 2.0, 0.5, tol=1e-11)
        assert res.converged
        m, n = 4, 6
        M2 = ((res.d_left**2)[:, None] * build_M(A, B)) * (res.d_right**2)[None, :]
        rows, cols = M2.sum(axis=1), M2.sum(axis=0)
        assert np.max(np.abs(rows - res.gamma_left)) <= 1e-10 * res.gamma_left
        assert np.max(np.abs(cols - res.gamma_right)) <= 1e-10 * res.gamma_right
        assert abs(m * res.gamma_left - n * res.gamma_right) <= 1e-9 * m * res.gamma_left
        # Determinant constraints hold.
        assert np.prod(res.d_left**2) == pytest.approx(2.0, rel=1e-9)
        assert np.prod(res.d_right**2) == pytest.approx(0.5, rel=1e-9)
        # Objective history is non-increasing.
        h = res.objective_history
        assert all(h[i + 1] <= h[i] * (1 + 1e-12) for i in range(len(h) - 1))


def _approach2_objective(M, alpha, u, v):
    """Objective of the regularized problem in squared-diagonal variables."""
    dl2 = np.exp(u)
    dr2 = np.exp(v)
    m, n = M.shape
    term = 2 * dl2 @ M @ dr2
    return term + alpha**2 * ((dl2.sum() / m) ** 2 + (dr2.sum() / n) ** 2)


class TestApproach2:
    def test_zero_M_gives_uniform(self):
        res = scale_approach2(np.zeros((2, 3)), np.zeros((2, 3)), alpha=1.0, c=1.0)
        assert np.allclose(res.d_left, res.d_left[0])
        assert np.allclose(res.d_right, res.d_right[0])

    def test_identity_symmetry(self):
        res = scale_approach2(np.eye(3), np.zeros((3, 3)), alpha=0.5, c=1.0)
        assert np.allclose(res.d_left, res.d_left[0], rtol=1e-8)
        assert np.allclose(res.d_left, res.d_right, rtol=1e-8)
        # Determinant constraint.
        det = np.prod(res.d_left**2) * np.prod(res.d_right**2)
        assert det == pytest.approx(1.0, rel=1e-9)

    def test_grid_search_oracle_1x2(self):
        # Brute-force the constrained minimum over a refined log-space grid
        # and compare with the Sinkhorn-Knopp solution.
        A = np.array([[1.0, 2.0]])
        B = np.zeros((1, 2))
        M = build_M(A, B)
        res = scale_approach2(A, B, alpha=1.0, c=1.0, tol=1e-13)

        # u + v1 + v2 = 0; 2-D grid over (v1, v2), refined around the best.
        best = (np.inf, None)
        lo, hi, steps = -4.0, 4.0, 41
        for _ in range(8):
            v1s = np.linspace(lo if np.isscalar(lo) else lo[0], hi if np.isscalar(hi) else hi[0], steps)
            v2s = np.linspace(lo if np.isscalar(lo) else lo[1], hi if np.isscalar(hi) else hi[1], steps)
            for v1 in v1s:
                for v2 in v2s:
                    u = -(v1 + v2)
                    val = _approach2_objective(M, 1.0, np.array([u]), np.array([v1, v2]))
                    if val < best[0]:
                        best = (val, (v1, v2))
            v1c, v2c = best[1]
            span = (v1s[1] - v1s[0]) * 2
            lo = np.array([v1c - span, v2c - span])
            hi = np.array([v1c + span, v2c + span])
        u_opt = np.log(res.d_left**2)
        v_opt = np.log(res.d_right**2)
        val_sk = _approach2_objective(M, 1.0, u_opt, v_opt)
        assert val_sk <= best[0] * (1 + 1e-6)
        assert abs(v_opt[0] - best[1][0]) < 1e-4
        assert abs(v_opt[1] - best[1][1]) < 1e-4

    def test_bordered_doubly_stochastic(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((3, 4))
        B = rng.standard_normal((3, 4))
        res = scale_approach2(A, B, alpha=1.0, c=2.0, tol=1e-12)
        assert res.converged
        S = build_M_alpha(build_M(A, B), 1.0, 3, 4)
        d2 = np.concatenate([res.d_left**2, res.d_right**2])
        scaled = (d2[:, None] * S) * d2[None, :]
        g = res.gamma
        assert np.max(np.abs(scaled.sum(axis=1) - g)) <= 1e-10 * g
        assert np.max(np.abs(scaled.sum(axis=0) - g)) <= 1e-10 * g

    def test_uniqueness_from_random_inits(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((3, 5))
        B = rng.standard_normal((3, 5))
        r1 = scale_approach2(A, B, alpha=0.8, c=1.0, tol=1e-13,
                             init=(rng.random(3) + 0.5, rng.random(5) + 0.5))
        r2 = scale_approach2(A, B, alpha=0.8, c=1.0, tol=1e-13,
                             init=(rng.random(3) + 0.5, rng.random(5) + 0.5))
        assert np.allclose(r1.d_left, r2.d_left, rtol=1e-8)
        assert np.allclose(r1.d_right, r2.d_right, rtol=1e-8)


def _plain_sinkhorn(S, tol):
    """Symmetric Sinkhorn iteration ``x <- sqrt(x / (S x))`` from ones."""
    x = np.ones(len(S))
    for _ in range(100000):
        if np.max(np.abs(x * (S @ x) - 1.0)) <= tol:
            return x
        x = np.sqrt(x / (S @ x))
    raise AssertionError("plain Sinkhorn did not reach tol")


@st.composite
def _sparse_nonnegative(draw):
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    entries = st.one_of(st.just(0.0), st.floats(0.0, 1.0))
    return np.array(draw(st.lists(entries, min_size=m * n, max_size=m * n))).reshape(m, n)


# Plain Sinkhorn contracts the balance between the two diagonal blocks by a
# factor near 1 - alpha^2 per sweep, so alpha starts at 0.05 (at most about
# 14000 sweeps); smaller alpha would need millions.
@settings(max_examples=60, deadline=None, derandomize=True)
@given(M=_sparse_nonnegative(), alpha=st.floats(0.05, 1.0))
def test_approach2_matches_plain_sinkhorn(M, alpha):
    m, n = M.shape
    res = scale_approach2(np.sqrt(M), np.zeros((m, n)), alpha=alpha, tol=1e-13)
    x = _plain_sinkhorn(build_M_alpha(M, alpha, m, n), 1e-13)
    d = np.sqrt(x * np.prod(x) ** (-1.0 / (m + n)))
    assert res.converged
    assert np.allclose(res.d_left, d[:m], rtol=1e-8, atol=0)
    assert np.allclose(res.d_right, d[m:], rtol=1e-8, atol=0)


class TestQuantizePow2:
    def test_fixed_points(self):
        res = scale_approach2(np.eye(2), np.zeros((2, 2)))
        q = quantize_pow2(res)
        assert all(np.log2(v) == round(np.log2(v)) for v in q.d_left)
        assert all(np.log2(v) == round(np.log2(v)) for v in q.d_right)

    def test_rule_arithmetic(self):
        from strongmin.scaling import _pow2

        assert _pow2(1.0) == 1.0
        assert _pow2(3.0) == 4.0
        assert _pow2(0.7) == 0.5

    @pytest.mark.parametrize("approach", [1, 2])
    def test_reevaluated_on_the_balanced_matrix(self, approach):
        # The constants and residual of the rounded scalings, recomputed
        # here from A and B: row and column sums of D_l^2 M D_r^2, or of
        # D^2 M_alpha D^2 against the one constant gamma.
        rng = np.random.default_rng(6)
        A, B = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
        if approach == 1:
            q = quantize_pow2(scale_approach1(A, B))
            X = ((q.d_left**2)[:, None] * build_M(A, B)) * (q.d_right**2)[None, :]
            gl, gr = X.sum(axis=1).mean(), X.sum(axis=0).mean()
            want = (gl, gr, None)
        else:
            q = quantize_pow2(scale_approach2(A, B, alpha=0.5))
            d2 = np.concatenate([q.d_left, q.d_right]) ** 2
            X = (d2[:, None] * build_M_alpha(build_M(A, B), 0.5, 3, 4)) * d2[None, :]
            gl = gr = X.sum(axis=1).mean()
            want = (None, None, gl)
        assert (q.gamma_left, q.gamma_right, q.gamma) == want
        residual = max(
            np.abs(X.sum(axis=1) - gl).max() / gl, np.abs(X.sum(axis=0) - gr).max() / gr
        )
        assert q.residual == residual > 0

    def test_factor_within_sqrt2(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((3, 4))
        res = scale_approach2(A, np.zeros((3, 4)))
        q = quantize_pow2(res)
        for a, b in ((res.d_left, q.d_left), (res.d_right, q.d_right)):
            f = b / a
            assert np.all(f <= np.sqrt(2) + 1e-12)
            assert np.all(f >= 1 / np.sqrt(2) - 1e-12)


class TestApplyScaling:
    def test_identity(self):
        P = Pencil(np.eye(2), np.eye(2))
        res = scale_approach2(np.eye(2), np.eye(2))
        one = res.d_left * 0 + 1.0
        from strongmin.scaling import ScalingResult

        ident = ScalingResult(
            d_left=one, d_right=one, d_lambda=1.0, gamma_left=None,
            gamma_right=None, gamma=None, iterations=0, residual=0.0,
            converged=True,
        )
        Q = apply_scaling(P, ident)
        assert np.allclose(Q.L0, P.L0)

    def test_two_sided(self):
        P = Pencil(np.array([[1.0]]), np.array([[1.0]]))
        from strongmin.scaling import ScalingResult

        res = ScalingResult(
            d_left=np.array([2.0]), d_right=np.array([1.0]), d_lambda=1.0,
            gamma_left=None, gamma_right=None, gamma=None, iterations=0,
            residual=0.0, converged=True,
        )
        Q = apply_scaling(P, res)
        assert Q.L0[0, 0] == pytest.approx(2.0)
        assert Q.L1[0, 0] == pytest.approx(2.0)

    @pytest.mark.parametrize("approach", [1, 2])
    def test_eigenvalues_invariant(self, approach):
        rng = np.random.default_rng(33)
        n = 4
        P = Pencil(
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
        )
        scaled, res = balance_pencil(P, approach=approach)
        before = np.sort_complex(generalized_eigenvalues(P))
        # The lambda scaling multiplies eigenvalues by d_lambda exactly.
        after = np.sort_complex(generalized_eigenvalues(scaled) / res.d_lambda)
        assert np.allclose(before, after, rtol=1e-9)

    def test_post_normalized_norms_bounded(self):
        rng = np.random.default_rng(4)
        P = Pencil(
            1e3 * rng.standard_normal((4, 6)), 1e-2 * rng.standard_normal((4, 6))
        )
        scaled, res = balance_pencil(P, approach=2)
        M2 = build_M(scaled.L1, scaled.L0)
        assert M2.sum(axis=1).max() <= 1.0 + 1e-9
        assert M2.sum(axis=0).max() <= 1.0 + 1e-9
