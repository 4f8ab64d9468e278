import functools

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from corpus import exact_instance
from strongmin.gallery import (
    example_polynomial_system,
    example_rational_system,
    lambda_and_inverse_system,
    polynomial_chain_system,
    random_state_space,
)
from strongmin.mcmillan import (
    McMillanStructure,
    NotStronglyMinimal,
    degree_sum_check,
    infinite_pole_pencil,
    rational_structure,
)
from strongmin.minreal import is_strongly_minimal, strongly_minimal_reduce
from strongmin.pencil import system_pencil
from strongmin.staircase import (
    infinity_mcmillan_indices,
    kronecker_structure,
    split_infinite,
)


def match_points(actual: dict, expected: dict, tol=1e-8):
    """Integer-exact index comparison with point matching at tol."""
    if len(actual) != len(expected):
        return False
    used = set()
    for pt, idx in expected.items():
        hit = None
        for apt, aidx in actual.items():
            if apt in used:
                continue
            if abs(apt - pt) <= tol * max(1.0, abs(pt)) and tuple(aidx) == tuple(idx):
                hit = apt
                break
        if hit is None:
            return False
        used.add(hit)
    return True


class TestRationalStructure:
    def test_constant_invertible(self):
        q = polynomial_chain_system([np.array([[2.0, 0.0], [1.0, 1.0]])])
        s = rational_structure(q)
        assert s.normal_rank == 2
        assert s.finite_points == {}
        assert s.infinity_indices == ()
        assert s.mcmillan_degree == 0
        assert degree_sum_check(s)

    def test_diag_lambda_invlambda(self):
        q = lambda_and_inverse_system()
        s = rational_structure(q)
        assert s.normal_rank == 2
        assert match_points(s.finite_points, {0j: (-1, 1)})
        assert s.infinity_indices == (-1, 1)
        assert s.right_minimal == () and s.left_minimal == ()
        assert s.mcmillan_degree == 2
        assert degree_sum_check(s)

    def test_pure_lambda(self):
        # R = [[lambda]]: zero at 0, pole at infinity.
        q = polynomial_chain_system([np.array([[0.0]]), np.array([[1.0]])])
        s = rational_structure(q)
        assert match_points(s.finite_points, {0j: (1,)})
        assert s.infinity_indices == (-1,)
        assert s.mcmillan_degree == 1
        assert degree_sum_check(s)

    def test_row_one_lambda(self):
        # R = [1, lambda]: pole at infinity, right minimal index 1.
        q = polynomial_chain_system([np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])])
        s = rational_structure(q)
        assert s.normal_rank == 1
        assert s.finite_points == {}
        assert s.infinity_indices == (-1,)
        assert s.right_minimal == (1,)
        assert s.polar_degree == 1 and s.zero_degree == 0
        assert degree_sum_check(s)

    def test_example_polynomial_structure(self):
        # diag(e5, e1): 6 finite zeros (roots of e5*e1), poles only at
        # infinity, no infinite zeros in the McMillan sense.
        rng = np.random.default_rng(3)
        e5 = list(rng.standard_normal(6))
        e5[5] += np.sign(e5[5]) + 0.5
        e1 = list(rng.standard_normal(2))
        e1[1] += np.sign(e1[1]) + 0.5
        q = example_polynomial_system(e5, e1)
        s = rational_structure(q)
        assert s.normal_rank == 2
        zero_count = sum(
            sum(i for i in idx if i > 0) for idx in s.finite_points.values()
        )
        assert zero_count == 6
        # No positive indices at infinity.
        assert all(i < 0 for i in s.infinity_indices)
        # Polar structure entirely at infinity: orders 5 and 1.
        assert sorted(-i for i in s.infinity_indices) == [1, 5]
        assert s.mcmillan_degree == 6
        assert degree_sum_check(s)
        # The zero locations are the roots of e5*e1, matched one to one:
        # sorting both by (real, imag) can pair a point with the conjugate
        # of its root when the pair's real parts differ in the last digit.
        roots = np.concatenate([np.roots(e5[::-1]), np.roots(e1[::-1])])
        pts = np.array(list(s.finite_points))
        assert len(pts) == len(roots)
        cost = np.abs(pts[:, None] - roots[None, :]) / np.maximum(1.0, np.abs(roots))
        rows, cols = linear_sum_assignment(cost)
        assert cost[rows, cols].max() <= 1e-7

    def test_not_minimal_rejected_without_reduction(self):
        rng = np.random.default_rng(4)
        e5 = list(rng.standard_normal(6))
        e5[5] += 1.0
        e1 = [1.0, 1.0]
        q = example_polynomial_system(e5, e1)
        with pytest.raises(NotStronglyMinimal):
            rational_structure(q, reduce_first=False)

    def test_state_space_poles_are_eigenvalues(self):
        q = random_state_space(6, d=3, m=2, n=2)
        s = rational_structure(q)
        F = q.A.L0
        eig = sorted(np.linalg.eigvals(F), key=lambda z: (z.real, z.imag))
        poles = sorted(
            (pt for pt, idx in s.finite_points.items() if any(i < 0 for i in idx)),
            key=lambda z: (z.real, z.imag),
        )
        assert len(poles) == 3
        for p, e in zip(poles, eig):
            assert abs(p - e) < 1e-8 * max(1.0, abs(e))
        assert degree_sum_check(s)
        assert s.mcmillan_degree == 3


class TestDegreeSum:
    def test_manual_structures(self):
        s = McMillanStructure(
            normal_rank=2,
            finite_points={0j: (-1, 1)},
            infinity_indices=(-1, 1),
            right_minimal=(),
            left_minimal=(),
        )
        assert s.polar_degree == 2 and s.zero_degree == 2
        assert degree_sum_check(s)

    def test_minimal_indices_enter(self):
        s = McMillanStructure(
            normal_rank=1,
            finite_points={},
            infinity_indices=(-1,),
            right_minimal=(1,),
            left_minimal=(),
        )
        assert degree_sum_check(s)

    def test_violation_detected(self):
        s = McMillanStructure(
            normal_rank=1,
            finite_points={0j: (1,)},
            infinity_indices=(),
            right_minimal=(),
            left_minimal=(),
        )
        assert not degree_sum_check(s)  # a zero with no pole anywhere


class TestRankL1Remark:
    @pytest.mark.parametrize("seed", range(3))
    def test_rank_L1_equals_degree(self, seed):
        from strongmin.linalg import matrix_rank

        q = random_state_space(seed, d=4, m=2, n=3)
        s = rational_structure(q)
        S = system_pencil(q)
        assert matrix_rank(S.L1) == s.mcmillan_degree

    def test_lambda_inverse(self):
        from strongmin.linalg import matrix_rank

        q = lambda_and_inverse_system()
        s = rational_structure(q)
        assert matrix_rank(system_pencil(q).L1) == s.mcmillan_degree == 2


class TestOracleAgreement:
    def test_diag_lambda_invlambda_vs_oracle(self):
        from strongmin.exact import (
            ExactQuadruple,
            full_structure_exact,
            transfer_exact,
        )

        qe = ExactQuadruple(
            A0=[[0]], A1=[[1]],
            B0=[[0, -1]], B1=[[0, 0]],
            C0=[[0], [-1]], C1=[[0], [0]],
            D0=[[0, 0], [0, 0]], D1=[[1, 0], [0, 0]],
        )
        R = transfer_exact(qe)
        exact = full_structure_exact(R)
        numeric = rational_structure(qe.to_numeric())
        assert numeric.normal_rank == exact.normal_rank
        assert numeric.infinity_indices == exact.infinity_indices
        assert numeric.right_minimal == exact.right_minimal
        assert numeric.left_minimal == exact.left_minimal
        assert match_points(numeric.finite_points, exact.finite_points)
        assert numeric.mcmillan_degree == exact.mcmillan_degree


@functools.lru_cache(maxsize=1)
def _infinite_pole_systems():
    """Corpus seeds 0-23 and gallery systems, 18 of the 32 with poles at
    infinity."""
    systems = [exact_instance(s)[0].to_numeric() for s in range(24)]
    rng = np.random.default_rng(5)
    for _ in range(3):
        e5 = rng.standard_normal(6)
        e1 = rng.standard_normal(2)
        systems.append(example_polynomial_system(e5, e1))
        systems.append(example_rational_system(e5, e1))
    systems.append(lambda_and_inverse_system())
    chain = [np.eye(2), np.diag([1.0, 0.0]), np.diag([2.0, 0.0])]
    systems.append(polynomial_chain_system(chain))
    return tuple(systems)


@pytest.mark.parametrize("seed", range(3))
def test_infinite_poles_from_staircase_match_kronecker_report(seed):
    # rational_structure reads the poles at infinity off one staircase of
    # the identity-bordered pencil; the full Kronecker analysis of the same
    # pencil is the reference.
    with_poles = 0
    for q in _infinite_pole_systems():
        if not is_strongly_minimal(q, seed=seed).strongly_minimal:
            q = strongly_minimal_reduce(q, seed=seed)[0]
        *_, blocks = split_infinite(infinite_pole_pencil(q))
        found = tuple(sorted(k - 1 for k in blocks if k >= 2))
        reference = infinity_mcmillan_indices(
            kronecker_structure(infinite_pole_pencil(q), seed=seed)
        )
        assert found == reference
        s = rational_structure(q, seed=seed, assume_strongly_minimal=True)
        assert tuple(sorted(-i for i in s.infinity_indices if i < 0)) == found
        with_poles += bool(found)
    assert with_poles >= 10


def _planted_d16():
    """A planted d = 16 state-space system whose states 0-3 are
    uncontrollable."""
    from strongmin.pencil import state_space_quadruple

    rng = np.random.default_rng(1)
    d, k = 16, 4
    F = rng.standard_normal((d, d))
    F[:k, k:] = 0.0
    G = rng.standard_normal((d, 2))
    G[:k] = 0.0
    H = rng.standard_normal((2, d))
    D = rng.standard_normal((2, 2))
    return state_space_quadruple(F, G, H, D)


def test_structure_query_svd_count(monkeypatch):
    # Work guard: one structure query on a planted d = 16 system (4 of its
    # states uncontrollable) makes 76 SVDs.  An SVD per eigenvalue, as a
    # factorization at every point would take, pushes it over the ceiling,
    # and so does a normal-rank probe per test staircase (80).
    q = _planted_d16()
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    s = rational_structure(q)
    assert s.mcmillan_degree == 12
    assert len(calls) <= 76


def test_structure_query_svd_shapes(monkeypatch):
    # Work-shape guard on the planted d = 16 system above: every SVD in a
    # structure query is of a matrix no taller than the system pencil
    # (d + m rows).  A 2N x 2N chain matrix per eigenvalue would be twice
    # that.
    q = _planted_d16()
    rows = []
    svd = np.linalg.svd

    def recorded(a, *args, **kwargs):
        rows.append(np.shape(a)[0])
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    s = rational_structure(q)
    assert s.mcmillan_degree == 12
    assert max(rows) <= 16 + 2


def test_structure_query_factors_each_staircase_once(counted_test_forms):
    # The reduction of a quadruple found not strongly minimal reuses the
    # test's staircase forms, a pass that deflates nothing keeps its form
    # for the final check, and only the input is validated: the test (2),
    # the observable pass after the controllable one deflated (1) and the
    # check's controllable side (1).
    staircases, validated = counted_test_forms
    s = rational_structure(_planted_d16())
    assert s.mcmillan_degree == 12
    assert len(staircases) == len(set(staircases)) == 4
    assert len(validated) == len(set(validated)) == 1


def test_input_forms_released_after_deflating_pass(monkeypatch):
    # rational_structure hands its input's two test forms to the reduction,
    # which lets them go at the first pass that deflates: by the next test
    # staircase (the observable side of the reduced quadruple) both are
    # collected, though the caller is still in its call to _reduce.
    import gc
    import weakref

    import strongmin.minreal as minreal

    input_forms, alive_after_deflation = [], []
    test_form, deflate = minreal._test_form, minreal._deflate
    deflated = []

    def recorded_test_form(*args):
        if deflated and not alive_after_deflation:
            gc.collect()
            alive_after_deflation.append([ref() is not None for ref in input_forms])
        sf = test_form(*args)
        if len(input_forms) < 2:
            input_forms.append(weakref.ref(sf))
        return sf

    def recorded_deflate(*args):
        reduced, rec = deflate(*args)
        deflated.append(rec.d_deflated)
        return reduced, rec

    monkeypatch.setattr(minreal, "_test_form", recorded_test_form)
    monkeypatch.setattr(minreal, "_deflate", recorded_deflate)
    s = rational_structure(_planted_d16())
    assert s.mcmillan_degree == 12
    assert deflated[0] == 4
    assert alive_after_deflation == [[False, False]]


@pytest.mark.parametrize("order, count", [("co", 3), ("oc", 4)])
def test_reduction_factors_each_staircase_once(counted_test_forms, order, count):
    # "co": the controllable pass (1) deflates, the observable pass (1)
    # deflates nothing and keeps its form, the check adds the controllable
    # side (1).  "oc": the observable pass (1) keeps its form, the
    # controllable pass (1) deflates, the check needs both sides (2).
    staircases, validated = counted_test_forms
    q_min, _, _, records = strongly_minimal_reduce(_planted_d16(), order=order)
    assert q_min.d == 12
    assert len(staircases) == len(set(staircases)) == count
    assert len(validated) == len(set(validated)) == 1


def _merge_point_loop(mapping, point, indices, match_tol):
    """Reference for ``_merge_point``: the per-key Python loop."""
    for key in mapping:
        if abs(key - point) <= match_tol * max(1.0, abs(key), abs(point)):
            mapping[key] = tuple(sorted(mapping[key] + tuple(indices)))
            return
    mapping[complex(point)] = tuple(sorted(indices))


@pytest.mark.parametrize("seed", range(3))
def test_merge_point_matches_loop(seed):
    # Clusters of points at every scale, spread around the merge radius, so
    # that some points lie within the radius of two keys.
    from strongmin.mcmillan import _merge_point

    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.uniform(-3, 6, 12)
    centres = scales * np.exp(2j * np.pi * rng.uniform(size=12))
    got, want = {}, {}
    for _ in range(150):
        c = centres[rng.integers(12)]
        offset = rng.uniform(0, 2) * np.exp(2j * np.pi * rng.uniform())
        z = c + 1e-8 * max(1.0, abs(c)) * offset
        indices = [int(k) for k in rng.integers(-3, 4, rng.integers(1, 3))]
        _merge_point(got, z, indices, 1e-8)
        _merge_point_loop(want, z, indices, 1e-8)
    assert list(got.items()) == list(want.items())
    assert len(want) > 12
