from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from corpus import exact_instance
from strongmin.gallery import (
    example_polynomial_system,
    example_rational_system,
    lambda_and_inverse_system,
    polynomial_chain_system,
    random_state_space,
)
from strongmin.minreal import (
    ReductionError,
    is_strongly_irreducible,
    is_strongly_minimal,
    reduce_controllable,
    reduce_observable,
    strongly_minimal_reduce,
)
from strongmin.pencil import (
    Pencil,
    SingularPencilError,
    SystemQuadruple,
    constant_pencil,
    generalized_eigenvalues,
    system_pencil,
    transfer_eval,
)
from strongmin.staircase import StaircaseError

RNG_POLY = np.random.default_rng(20240817)


def random_e5_e1(rng):
    e5 = rng.standard_normal(6)
    e5[5] += np.sign(e5[5]) + 0.5  # keep the leading coefficient away from 0
    e1 = rng.standard_normal(2)
    e1[1] += np.sign(e1[1]) + 0.5
    return list(e5), list(e1)


def transfer_samples(q, count=7, seed=0, radius=1.7):
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < count:
        z = radius * np.exp(2j * np.pi * rng.uniform()) + 0.1j
        try:
            transfer_eval(q, z)
        except SingularPencilError:
            continue
        pts.append(z)
    return pts


class TestIsStronglyMinimal:
    def test_state_space_minimal(self):
        q = random_state_space(0)
        rep = is_strongly_minimal(q)
        assert rep.strongly_minimal
        assert rep.e_controllable and rep.e_observable
        assert rep.offending_eigenvalues == []

    def test_example_polynomial_not_minimal_at_infinity(self):
        e5, e1 = random_e5_e1(np.random.default_rng(1))
        q = example_polynomial_system(e5, e1)
        rep = is_strongly_minimal(q)
        assert not rep.strongly_minimal
        assert not rep.e_controllable
        vals = [v for v, side in rep.offending_eigenvalues if side == "controllable"]
        assert len(vals) == 4
        assert all(np.isinf(v) or abs(v) > 1e6 for v in vals)

    def test_example_rational_offends_at_zero(self):
        e5, e1 = random_e5_e1(np.random.default_rng(2))
        q = example_rational_system(e5, e1)
        rep = is_strongly_minimal(q)
        assert not rep.strongly_minimal
        ctrl = [v for v, side in rep.offending_eigenvalues if side == "controllable"]
        assert any(abs(v) < 1e-8 for v in ctrl if np.isfinite(v))

    def test_unobservable_scalar(self):
        # A = lambda (eigenvalue 0), C = 0: the stacked pencil keeps the
        # eigenvalue, so the system is not strongly E-observable.
        q = SystemQuadruple(
            Pencil([[0.0]], [[1.0]]),
            constant_pencil([[1.0]]),
            constant_pencil([[0.0]]),
            constant_pencil([[0.0]]),
        )
        rep = is_strongly_minimal(q)
        assert rep.e_controllable
        assert not rep.e_observable


def _unobservable_state_space(seed, d=6, k=2):
    """A state-space quadruple whose states 0..k-1 are unobservable: they
    span an F-invariant subspace in the kernel of H."""
    from strongmin.pencil import state_space_quadruple

    rng = np.random.default_rng(seed)
    F = rng.standard_normal((d, d))
    F[k:, :k] = 0.0
    H = rng.standard_normal((2, d))
    H[:, :k] = 0.0
    return state_space_quadruple(F, rng.standard_normal((d, 2)), H)


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: _unobservable_state_space(30), id="d6-k2"),
        pytest.param(lambda: _unobservable_state_space(31, d=7, k=3), id="d7-k3"),
        # The dual of a system with four infinite uncontrollable eigenvalues.
        pytest.param(
            lambda: example_polynomial_system(
                *random_e5_e1(np.random.default_rng(7))
            ).transpose(),
            id="infinite",
        ),
    ],
)
def test_observable_offending_eigenvalues_match_stacked_pencil(build):
    # The observable side is tested on the dual pencil [A^T  -C^T], whose
    # eigenvalues are those of the [A; C] slice of S.
    from scipy.optimize import linear_sum_assignment

    from strongmin.minreal import _classified_eigenvalues
    from strongmin.staircase import separate_regular_right

    q = build()
    report = is_strongly_minimal(q)
    got = [v for v, side in report.offending_eigenvalues if side == "observable"]
    S = system_pencil(q)
    stacked = Pencil(S.L0[:, : q.d], S.L1[:, : q.d]).transpose()
    sf = separate_regular_right(stacked, 1e-12, 0)
    want = list(_classified_eigenvalues(sf.regular_part, 1e-12, 0))
    assert len(got) == len(want) > 0
    got_inf = sorted(np.isinf(v) for v in got)
    assert got_inf == sorted(np.isinf(v) for v in want)
    got_fin = np.array([v for v in got if np.isfinite(v)])
    want_fin = np.array([v for v in want if np.isfinite(v)])
    cost = np.abs(got_fin[:, None] - want_fin[None, :])
    rows, cols = linear_sum_assignment(cost)
    rel = cost[rows, cols] / np.maximum(1.0, np.abs(want_fin[cols]))
    assert np.all(rel <= 1e-12)


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: _unobservable_state_space(31, d=7, k=3), id="d7-k3"),
        pytest.param(
            lambda: example_polynomial_system(
                *random_e5_e1(np.random.default_rng(7))
            ).transpose(),
            id="infinite",
        ),
    ],
)
def test_deflation_reuses_the_classified_eigenvalues_of_its_form(monkeypatch, build):
    # The deflated block is unitarily equivalent to the regular part of the
    # side's test form, so its eigenvalues are classified once per form, and
    # the pass deflates exactly the eigenvalues the minimality report lists.
    import strongmin.minreal as minreal

    sizes = []
    classify = minreal._classified_eigenvalues

    def counted(X, tol, seed):
        sizes.append(X.rows)
        return classify(X, tol, seed)

    monkeypatch.setattr(minreal, "_classified_eigenvalues", counted)
    q = build()
    forms = minreal._test_forms(q, {}, 1e-12, 0)
    report = minreal._minimality_report(forms, 1e-12, 0)
    assert sizes == [0, forms["observable"].d_reg] and sizes[1] > 0
    _, rec = minreal._deflate(q, "observable", forms["observable"], 1e-12, 0)
    assert len(sizes) == 2
    want = [v for v, side in report.offending_eigenvalues if side == "observable"]
    assert rec.d_deflated == len(want)
    np.testing.assert_array_equal(rec.deflated_eigenvalues, want)


@lru_cache(maxsize=None)
def corpus_quadruples():
    """The exact corpus seeds 0-23, inputs of the transfer tests of a
    reduction pass beside a gallery example."""
    return tuple(exact_instance(s)[0].to_numeric() for s in range(24))


def assert_input_rows_orthonormal(q, side, W33):
    """The rows of a pass's unitary on the inputs are [W[:r, d:]^H, 0, N2],
    W the staircase's column transformation and N2 = W33 (controllable) or
    W33^T (observable): ``W33`` is unitary exactly when the regular part has
    no input component."""
    import strongmin.minreal as minreal

    sf = minreal._test_form(q, side, 1e-12, 0)
    W13 = sf.W[: sf.d_reg, q.d :]
    N2 = W33 if side == "controllable" else W33.T
    gram = N2 @ N2.conj().T + W13.conj().T @ W13
    np.testing.assert_allclose(gram, np.eye(len(N2)), rtol=0, atol=1e-12)


class TestReductionChecks:
    """A pass deflates the regular part of its staircase form, and raises
    when the form's rows disagree with its count."""

    @staticmethod
    def form():
        import strongmin.minreal as minreal

        q = example_polynomial_system(*random_e5_e1(np.random.default_rng(7)))
        sf = minreal._test_form(q, "controllable", 1e-12, 0)
        assert sf.d_reg == 4
        return q, sf

    def test_state_rank_check(self):
        # Row 0 of the regular-part columns moved into the input
        # coordinates: the state rows of the first r rows of W lose rank.
        import strongmin.minreal as minreal

        q, sf = self.form()
        W = sf.W.copy()
        W[0, : q.d] = 0.0
        W[0, q.d] = 1.0
        match = "inconsistent deflation count: ranks 3 and 4, expected 4"
        with pytest.raises(ReductionError, match=match):
            minreal._deflate(q, "controllable", replace(sf, W=W), 1e-12, 0)

    def test_leak_check(self):
        # One column too many deflated: the first r rows of the transformed
        # pencil no longer vanish on the remaining columns.
        import strongmin.minreal as minreal

        q, sf = self.form()
        sf = replace(sf, d_reg=sf.d_reg + 1)
        with pytest.raises(ReductionError, match="inconsistent deflation count: residual"):
            minreal._deflate(q, "controllable", sf, 1e-12, 0)


class TestReduceControllable:
    def test_already_controllable_identity(self):
        q = random_state_space(3)
        q_c, rec = reduce_controllable(q)
        assert rec.d_deflated == 0
        assert q_c.d == q.d
        assert np.allclose(rec.W33 @ rec.W33.conj().T, np.eye(q.n), atol=1e-12)

    def test_example_polynomial_deflates_four_infinite(self):
        e5, e1 = random_e5_e1(np.random.default_rng(7))
        q = example_polynomial_system(e5, e1)
        q_c, rec = reduce_controllable(q)
        assert rec.d_deflated == 4
        assert q_c.d == q.d - 4
        # The deflated pencil carries the four infinite eigenvalues.
        vals = rec.deflated_eigenvalues
        assert len(vals) == 4
        assert all(np.isinf(v) or abs(v) > 1e6 for v in vals)
        # [A_c  -B_c] has no eigenvalues left.
        rep = is_strongly_minimal(q_c)
        assert rep.e_controllable

    def test_transfer_changed_by_w33_only(self):
        e5, e1 = random_e5_e1(np.random.default_rng(8))
        for q in (example_polynomial_system(e5, e1), *corpus_quadruples()):
            q_c, rec = reduce_controllable(q)
            assert_input_rows_orthonormal(q, "controllable", rec.W33)
            for z in transfer_samples(q):
                R = transfer_eval(q, z)
                R_c = transfer_eval(q_c, z)
                assert np.linalg.norm(R_c - R @ rec.W33) <= 1e-9 * np.linalg.norm(R)

    def test_observability_preserved(self):
        e5, e1 = random_e5_e1(np.random.default_rng(9))
        q = example_polynomial_system(e5, e1)
        assert is_strongly_minimal(q).e_observable
        q_c, _ = reduce_controllable(q)
        assert is_strongly_minimal(q_c).e_observable


class TestReduceObservable:
    def test_already_observable_identity(self):
        q = random_state_space(4)
        q_o, rec = reduce_observable(q)
        assert rec.d_deflated == 0

    def test_unobservable_eigenvalue_deflated(self):
        q = SystemQuadruple(
            Pencil([[0.0]], [[1.0]]),
            constant_pencil([[1.0]]),
            constant_pencil([[0.0]]),
            constant_pencil([[0.0]]),
        )
        q_o, rec = reduce_observable(q)
        assert rec.d_deflated == 1
        assert abs(rec.deflated_eigenvalues[0]) < 1e-10
        assert q_o.d == 0

    def test_transfer_changed_by_left_w33(self):
        e5, e1 = random_e5_e1(np.random.default_rng(10))
        for q in (example_rational_system(e5, e1), *corpus_quadruples()):
            q_o, rec = reduce_observable(q)
            assert_input_rows_orthonormal(q, "observable", rec.W33)
            for z in transfer_samples(q):
                R = transfer_eval(q, z)
                R_o = transfer_eval(q_o, z)
                assert np.linalg.norm(R_o - rec.W33 @ R) <= 1e-9 * np.linalg.norm(R)


class TestStronglyMinimalReduce:
    def test_minimal_input_unchanged_sizes(self):
        q = random_state_space(11)
        q_min, Wl, Wr, recs = strongly_minimal_reduce(q)
        assert q_min.d == q.d
        assert np.allclose(Wl @ Wl.conj().T, np.eye(q.m), atol=1e-10)
        assert np.allclose(Wr @ Wr.conj().T, np.eye(q.n), atol=1e-10)

    @pytest.mark.parametrize("order", ["co", "oc"])
    def test_example_rational_reduces(self, order):
        e5, e1 = random_e5_e1(np.random.default_rng(12))
        q = example_rational_system(e5, e1)
        q_min, Wl, Wr, recs = strongly_minimal_reduce(q, order=order)
        assert is_strongly_minimal(q_min).strongly_minimal
        # Transfer invariance R_min = Wl R Wr at sampled points.
        for z in transfer_samples(q, count=10):
            R = transfer_eval(q, z)
            R_min = transfer_eval(q_min, z)
            assert np.linalg.norm(R_min - Wl @ R @ Wr) <= 1e-10 * np.linalg.norm(R)

    def test_deflation_bookkeeping(self):
        e5, e1 = random_e5_e1(np.random.default_rng(13))
        q = example_rational_system(e5, e1)
        q_min, _, _, recs = strongly_minimal_reduce(q)
        assert q.d - q_min.d == sum(r.d_deflated for r in recs)

    def test_lambda_inverse_already_minimal(self):
        q = lambda_and_inverse_system()
        q_min, Wl, Wr, _ = strongly_minimal_reduce(q)
        assert q_min.d == 1


class TestStrongIrreducibility:
    def test_minimal_implies_irreducible_state_space(self):
        for seed in range(3):
            q = random_state_space(seed, d=3, m=2, n=2)
            assert is_strongly_minimal(q).strongly_minimal
            assert is_strongly_irreducible(q)

    def test_d_only_quadruple(self):
        q = polynomial_chain_system([np.array([[1.0, 0.0], [0.0, 2.0]])])
        assert is_strongly_minimal(q).strongly_minimal
        assert is_strongly_irreducible(q)

    def test_minimal_implies_irreducible_after_reduction(self):
        e5, e1 = random_e5_e1(np.random.default_rng(14))
        q = example_rational_system(e5, e1)
        q_min, _, _, _ = strongly_minimal_reduce(q)
        assert is_strongly_irreducible(q_min)


class TestInfinitePropertyLink:
    """No infinite eigenvalues of [A -B] implies no infinite zeros of the
    bordered controllability pencil (and dually)."""

    @pytest.mark.parametrize("seed", range(4))
    def test_forward_implication(self, seed):
        from strongmin.minreal import _bordered_controllable, controllability_pencil
        from strongmin.staircase import (
            infinity_mcmillan_indices,
            kronecker_structure,
            separate_regular_right,
        )

        q = random_state_space(seed, d=3, m=2, n=2)
        sf = separate_regular_right(controllability_pencil(q))
        assert sf.d_reg == 0  # no eigenvalues at all, in particular none at inf
        rep = kronecker_structure(_bordered_controllable(q))
        assert infinity_mcmillan_indices(rep) == ()

    @pytest.mark.parametrize("seed", range(4))
    def test_dual_implication(self, seed):
        from strongmin.minreal import _bordered_observable, controllability_pencil
        from strongmin.staircase import (
            infinity_mcmillan_indices,
            kronecker_structure,
            separate_regular_right,
        )

        q = random_state_space(10 + seed, d=3, m=2, n=2)
        # The dual pencil [A^T  -C^T] of the strong observability test.
        sf = separate_regular_right(controllability_pencil(q.transpose()))
        assert sf.d_reg == 0
        rep = kronecker_structure(_bordered_observable(q))
        assert infinity_mcmillan_indices(rep) == ()


def test_failed_deflation_at_infinity_falls_back_to_qz_loudly(monkeypatch):
    import strongmin.minreal as minreal
    import strongmin.staircase as staircase

    def fail(P, tol):
        raise StaircaseError("forced failure")

    monkeypatch.setattr(staircase, "split_infinite", fail)
    X = Pencil(np.diag([1.0, 2.0, 3.0]), np.diag([1.0, 1.0, 0.0]))
    with pytest.warns(RuntimeWarning, match="plain QZ"):
        vals = minreal._classified_eigenvalues(X, 1e-12, 0)
    np.testing.assert_array_equal(vals, generalized_eigenvalues(X))


def test_rank_L1_equals_mcmillan_degree_for_minimal_example():
    # diag(lambda, 1/lambda) has McMillan degree 2; the system pencil of its
    # strongly minimal realization must have rank(L1) = 2.
    q = lambda_and_inverse_system()
    S = system_pencil(q)
    assert np.linalg.matrix_rank(S.L1) == 2
