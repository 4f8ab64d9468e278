import hashlib
import json
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strongmin.exact import (
    GQ,
    ExactQuadruple,
    ExactRationalMatrix,
    ExactSingularError,
    ExactStructureError,
    Poly,
    RatFun,
    exact_roots,
    full_structure_exact,
    gq_sqrt,
    infinity_structure_exact,
    local_structure_exact,
    minimal_indices_exact,
    poly_det,
    transfer_exact,
)
from strongmin.mcmillan import degree_sum_check


X = Poly.x()


def rf(num, den=1):
    return RatFun(Poly.coerce(num) if not isinstance(num, (list, tuple)) else Poly(num),
                  Poly.coerce(den) if not isinstance(den, (list, tuple)) else Poly(den))


def _triple(z: GQ):
    """The stored integer triple ``(a, b, d)`` of ``z = (a + b i)/d``."""
    return z._a, z._b, z._d


def _canonical(z: GQ) -> bool:
    a, b, d = _triple(z)
    return d > 0 and gcd(a, b, d) == 1


# Reference arithmetic on (re, im) pairs of Fractions.
def _ref_add(x, y):
    return x[0] + y[0], x[1] + y[1]


def _ref_sub(x, y):
    return x[0] - y[0], x[1] - y[1]


def _ref_mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _ref_div(x, y):
    n = y[0] * y[0] + y[1] * y[1]
    return (x[0] * y[0] + x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n


_fracs = st.fractions(min_value=-40, max_value=40, max_denominator=24)
_pairs = st.tuples(_fracs, _fracs)


class TestScalars:
    def test_arithmetic(self):
        a = GQ(Fraction(1, 2), 1)
        b = GQ(2, -1)
        assert a + b == GQ(Fraction(5, 2), 0)
        assert a * b == GQ(2, Fraction(3, 2))
        assert (a / b) * b == a

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(x=_pairs, y=_pairs)
    def test_matches_fraction_pair_reference(self, x, y):
        zx, zy = GQ(*x), GQ(*y)
        assert (zx.re, zx.im) == x and _canonical(zx)
        results = [
            (zx + zy, _ref_add(x, y)),
            (zx - zy, _ref_sub(x, y)),
            (zx * zy, _ref_mul(x, y)),
            (-zx, (-x[0], -x[1])),
            (zx.conjugate(), (x[0], -x[1])),
        ]
        if any(y):
            results.append((zx / zy, _ref_div(x, y)))
            results.append((zy.inverse(), _ref_div((Fraction(1), Fraction(0)), y)))
        else:
            for op in (lambda: zx / zy, zy.inverse, lambda: zx / 0):
                with pytest.raises(ZeroDivisionError):
                    op()
        for z, (re, im) in results:
            assert (z.re, z.im) == (re, im)
            assert isinstance(z.re, Fraction) and isinstance(z.im, Fraction)
            assert _canonical(z)
            assert z == GQ(re, im) and _triple(z) == _triple(GQ(re, im))
            assert hash(z) == hash(GQ(re, im)) == hash((re, im))
        assert zx.abs2() == x[0] * x[0] + x[1] * x[1]
        assert bool(zx) == any(x)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(x=_pairs, y=_pairs)
    def test_equal_values_built_differently(self, x, y):
        z = GQ(*x)
        others = [
            GQ(str(x[0]), str(x[1])),
            GQ(z),
            (z + GQ(*y)) - GQ(*y),
            GQ(x[0]) + GQ(0, x[1]),
        ]
        if any(y):
            others.append((z * GQ(*y)) / GQ(*y))
        for w in others:
            assert w == z and _triple(w) == _triple(z)
            assert hash(w) == hash(z)
        assert len({z, *others}) == 1
        if not x[1]:
            assert z == x[0]

    def test_gq_copy_rejects_an_imaginary_part(self):
        z = GQ(Fraction(1, 3), 2)
        assert _triple(GQ(z)) == _triple(z) == (1, 6, 3)
        assert _triple(GQ(z, 0)) == _triple(z)
        with pytest.raises(TypeError, match="imaginary part"):
            GQ(z, 1)
        with pytest.raises(TypeError):
            GQ(1.5)

    def test_constructor_inputs(self):
        assert _triple(GQ(True, False)) == (1, 0, 1)
        assert _triple(GQ("-4/6", Fraction(2, 4))) == (-4, 3, 6)
        assert _triple(GQ(0, Fraction(-3, 9))) == (0, -1, 3)
        assert _triple(GQ()) == (0, 0, 1)
        assert GQ(Fraction(1, 2), 1).to_complex() == complex(0.5, 1.0)
        assert repr(GQ(Fraction(-2, 3))) == "GQ(-2/3)"
        assert repr(GQ(1, Fraction(1, 2))) == "GQ(1, 1/2)"

    def test_sqrt(self):
        assert gq_sqrt(GQ(4)) == GQ(2)
        assert gq_sqrt(GQ(-4)) == GQ(0, 2)
        assert gq_sqrt(GQ(0, 2)) == GQ(1, 1)
        assert gq_sqrt(GQ(2)) is None


class TestPoly:
    def test_divmod_and_gcd(self):
        p = (X - 1) * (X - 2) * (X + 3)
        q = (X - 2) * (X + 5)
        g = p.gcd(q)
        assert g == (X - 2).monic()

    def test_gcd_with_a_constant(self):
        p = (X - 1) * (2 * X + GQ(0, 3))
        for c in (GQ(3), GQ(Fraction(-1, 2), 5)):
            assert p.gcd(Poly([c])) == Poly([1])
            assert Poly([c]).gcd(p) == Poly([1])
            assert Poly([c]).gcd(Poly([2])) == Poly([1])
        assert p.gcd(Poly()) == p.monic()
        assert Poly().gcd(p) == p.monic()
        assert Poly().gcd(Poly()).is_zero()
        assert RatFun(p, 3) == RatFun(p * GQ(Fraction(1, 3)))
        assert RatFun(p, 3).den == Poly([1])

    def test_deflate_and_valuation(self):
        p = (X - 1) * (X - 1) * (X + 2)
        assert p.valuation_at(GQ(1)) == 2
        assert p.valuation_at(GQ(-2)) == 1
        assert p.valuation_at(GQ(5)) == 0

    def test_exact_roots_rational(self):
        p = (X - 1) * (X - 1) * (2 * X + 1)
        roots, leftover = exact_roots(p)
        assert leftover == 0
        assert roots == {GQ(1): 2, GQ(Fraction(-1, 2)): 1}

    def test_exact_roots_gaussian_quadratic(self):
        p = X * X + 1
        roots, leftover = exact_roots(p)
        assert leftover == 0
        assert roots == {GQ(0, 1): 1, GQ(0, -1): 1}

    def test_exact_roots_irrational_leftover(self):
        p = X * X - 2
        roots, leftover = exact_roots(p)
        assert roots == {} and leftover == 2

    def test_candidates_resolve(self):
        p = X * X - 2
        # Candidates are verified exactly; a wrong candidate is ignored.
        roots, leftover = exact_roots(p, candidates=[GQ(1)])
        assert leftover == 2
        q = (X - 7) * (X - 7)
        roots, leftover = exact_roots(q, candidates=[GQ(7)])
        assert roots == {GQ(7): 2} and leftover == 0


class TestRatFun:
    def test_reduction(self):
        f = RatFun((X - 1) * (X + 2), (X + 2) * (X + 5))
        assert f.num == (X - 1).monic()
        assert f.den == (X + 5).monic()

    def test_valuations(self):
        f = RatFun(X * X, (X - 1))
        assert f.valuation_at(GQ(0)) == 2
        assert f.valuation_at(GQ(1)) == -1
        assert f.valuation_at_infinity() == -1

    def test_subs_inverse(self):
        f = RatFun(X)  # lambda -> 1/mu
        g = f.subs_inverse()
        assert g == RatFun(Poly([1]), X)


class TestPolyDet:
    def test_two_by_two(self):
        M = [[X, Poly([1])], [Poly([1]), X]]
        assert poly_det(M) == X * X - 1

    def test_singular(self):
        M = [[X, X], [X, X]]
        assert poly_det(M).is_zero()

    def test_with_pivoting(self):
        M = [[Poly(), Poly([1])], [Poly([1]), Poly()]]
        assert poly_det(M) == Poly([-1])

    def test_zero_pivot_column_is_singular(self):
        # A vanishing pivot column means determinant zero; the stale
        # diagonal entry must not leak through.
        M = [[Poly(), Poly()], [Poly(), X * (X - 2)]]
        assert poly_det(M).is_zero()
        M3 = [
            [Poly([1]), Poly(), Poly([2])],
            [Poly([3]), Poly(), Poly([4])],
            [Poly([5]), Poly(), Poly([6])],
        ]
        assert poly_det(M3).is_zero()


class TestLocalStructure:
    def test_diag_lambda_invlambda_at_zero(self):
        R = ExactRationalMatrix.diagonal([RatFun(X), RatFun(1, X)])
        assert local_structure_exact(R, 0) == (-1, 1)

    def test_regular_point_all_zero(self):
        R = ExactRationalMatrix.diagonal([RatFun(X), RatFun(1, X)])
        assert local_structure_exact(R, 3) == (0, 0)

    def test_double_zero(self):
        R = ExactRationalMatrix([[RatFun(X * X)]])
        assert local_structure_exact(R, 0) == (2,)

    def test_infinity(self):
        assert infinity_structure_exact(ExactRationalMatrix([[RatFun(X)]])) == (-1,)
        R = ExactRationalMatrix.diagonal([RatFun(X), RatFun(1, X)])
        assert infinity_structure_exact(R) == (-1, 1)
        C = ExactRationalMatrix.diagonal([RatFun(2), RatFun(3)])
        assert infinity_structure_exact(C) == (0, 0)


class TestMinimalIndices:
    def test_one_lambda_row(self):
        R = ExactRationalMatrix([[RatFun(1), RatFun(X)]])
        right, left = minimal_indices_exact(R)
        assert right == (1,)
        assert left == ()

    def test_one_zero_row(self):
        R = ExactRationalMatrix([[RatFun(1), RatFun(0)]])
        right, left = minimal_indices_exact(R)
        assert right == (0,)
        assert left == ()

    def test_invertible(self):
        R = ExactRationalMatrix.identity(3)
        assert minimal_indices_exact(R) == ((), ())

    def test_zero_matrix(self):
        R = ExactRationalMatrix.zeros(2, 3)
        right, left = minimal_indices_exact(R)
        assert right == (0, 0, 0)
        assert left == (0, 0)

    def test_degree_two_nullvector(self):
        # [1, lambda, lambda^2] has right indices (1, 1): the null space has
        # a basis of two degree-1 vectors.
        R = ExactRationalMatrix([[RatFun(1), RatFun(X), RatFun(X * X)]])
        right, left = minimal_indices_exact(R)
        assert right == (1, 1)


class TestTransferExact:
    def test_scalar_inverse(self):
        q = ExactQuadruple(
            A0=[[0]], A1=[[1]], B0=[[-1]], B1=[[0]],
            C0=[[-1]], C1=[[0]], D0=[[0]], D1=[[0]],
        )
        R = transfer_exact(q)
        assert R.entries[0][0] == RatFun(1, X)

    def test_b_zero_gives_d(self):
        q = ExactQuadruple(
            A0=[[1]], A1=[[1]], B0=[[0]], B1=[[0]],
            C0=[[-1]], C1=[[0]], D0=[[-3]], D1=[[1]],
        )
        R = transfer_exact(q)
        assert R.entries[0][0] == RatFun(X + 3)

    def test_singular_A_raises(self):
        q = ExactQuadruple(
            A0=[[0]], A1=[[0]], B0=[[-1]], B1=[[0]],
            C0=[[-1]], C1=[[0]], D0=[[0]], D1=[[0]],
        )
        with pytest.raises(ExactSingularError):
            transfer_exact(q)


class TestFullStructure:
    def test_diag_lambda_invlambda(self):
        R = ExactRationalMatrix.diagonal([RatFun(X), RatFun(1, X)])
        s = full_structure_exact(R)
        assert s.normal_rank == 2
        assert set(s.finite_points) == {0j}
        assert s.finite_points[0j] == (-1, 1)
        assert s.infinity_indices == (-1, 1)
        assert s.right_minimal == () and s.left_minimal == ()
        assert s.polar_degree == 2 and s.zero_degree == 2
        assert s.mcmillan_degree == 2
        assert degree_sum_check(s)

    def test_constant_invertible(self):
        s = full_structure_exact(ExactRationalMatrix.identity(2))
        assert s.finite_points == {} and s.infinity_indices == ()
        assert s.mcmillan_degree == 0
        assert s.normal_rank == 2

    def test_one_lambda(self):
        R = ExactRationalMatrix([[RatFun(1), RatFun(X)]])
        s = full_structure_exact(R)
        assert s.polar_degree == 1  # pole of order 1 at infinity
        assert s.zero_degree == 0
        assert s.right_minimal == (1,)
        assert degree_sum_check(s)

    def test_unrepresentable_raises(self):
        R = ExactRationalMatrix([[RatFun(X * X - 2)]])
        with pytest.raises(ExactStructureError, match="not exactly representable"):
            full_structure_exact(R)

    def test_candidates_not_needed_for_rational_points(self):
        R = ExactRationalMatrix(
            [
                [RatFun((X - 1) * (X + 2), X), RatFun(0)],
                [RatFun(1), RatFun(1, (X - 1))],
            ]
        )
        s = full_structure_exact(R)
        assert degree_sum_check(s)
        pts = {complex(z) for z in s.finite_points}
        assert (1 + 0j) in pts and 0j in pts

    def test_unimodular_invariance(self):
        R = ExactRationalMatrix.diagonal([RatFun(X), RatFun(1, X)])
        U = ExactRationalMatrix(
            [[RatFun(1), RatFun(X)], [RatFun(0), RatFun(1)]]
        )  # unimodular
        s1 = full_structure_exact(R)
        s2 = full_structure_exact(U @ R)
        assert s1.finite_points == s2.finite_points
        assert s1.normal_rank == s2.normal_rank


def test_quadruple_to_numeric_matches_exact_transfer():
    import numpy as np
    from strongmin.pencil import transfer_eval

    q = ExactQuadruple(
        A0=[[0, 1], [0, 0]], A1=[[1, 0], [0, 1]],
        B0=[[-1, 0], [0, -2]], B1=[[0, 0], [0, 0]],
        C0=[[-1, 0], [0, -1]], C1=[[0, 0], [0, 0]],
        D0=[[0, 0], [0, 0]], D1=[[1, 0], [0, 0]],
    )
    R = transfer_exact(q)
    qn = q.to_numeric()
    for z in (0.7, 2.0 + 1.0j, -3.1):
        assert np.allclose(R.eval_complex(z), transfer_eval(qn, z), rtol=1e-12)


# sha256 of the canonical dump of full_structure_exact over corpus seeds
# 0-123 (see _corpus_structure_dump).  Any change to the exact layer must
# leave every one of these structures as it is.
CORPUS_STRUCTURE_SHA256 = (
    "d5405b5b0962ec5582f6447cea4fff04461acf670e40d2c2fd247a83ff48ceed"
)


def _corpus_structure_dump(seeds) -> str:
    """Canonical JSON of the exact structure of each corpus seed: normal
    rank, finite points as ``repr`` strings of their real and imaginary
    parts with their indices, infinity indices and both minimal-index
    tuples."""
    from corpus import exact_instance

    out = []
    for seed in seeds:
        _, R, cands = exact_instance(seed)
        s = full_structure_exact(R, candidates=cands)
        out.append({
            "seed": seed,
            "normal_rank": s.normal_rank,
            "finite_points": sorted(
                [repr(z.real), repr(z.imag), list(idx)]
                for z, idx in s.finite_points.items()
            ),
            "infinity_indices": list(s.infinity_indices),
            "right_minimal": list(s.right_minimal),
            "left_minimal": list(s.left_minimal),
        })
    return json.dumps(out, sort_keys=True, separators=(",", ":"))


def test_corpus_structures_are_pinned():
    text = _corpus_structure_dump(range(124))
    assert hashlib.sha256(text.encode()).hexdigest() == CORPUS_STRUCTURE_SHA256
