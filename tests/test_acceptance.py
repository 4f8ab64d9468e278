"""Acceptance suite.

One test per acceptance criterion, each printing a PASS line with its
measured margin.  Tolerances are fixed here and nowhere else.
"""
import time
import warnings

import numpy as np
from scipy.optimize import linear_sum_assignment

from corpus import exact_instance, match_points
from helpers import random_unitary
from strongmin.exact import full_structure_exact
from strongmin.gallery import (
    example_polynomial_system,
    example_rational_system,
)
from strongmin.linalg import matrix_rank
from strongmin.mcmillan import degree_sum_check, rational_structure
from strongmin.minreal import (
    is_strongly_irreducible,
    is_strongly_minimal,
    reduce_controllable,
    strongly_minimal_reduce,
)
from strongmin.pencil import (
    Pencil,
    Rotation,
    SingularPencilError,
    generalized_eigenvalues,
    mobius_rotate,
    system_pencil,
    transfer_eval,
)
from strongmin.scaling import (
    apply_scaling,
    build_M,
    build_M_alpha,
    scale_approach1,
    scale_approach2,
)


def announce(name, detail=""):
    print(f"ACCEPT  {name}" + (f"  [{detail}]" if detail else ""))


def random_e5_e1(rng, big_root=None, normalize=False):
    """Coefficient lists of a degree-5 and a degree-1 polynomial with
    moderate random roots; optionally one root of prescribed magnitude.
    With ``normalize`` the degree-5 coefficients are rescaled to unit
    maximum magnitude (the leading coefficient then carries the reciprocal
    of the large root)."""
    roots5 = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    roots5 = [complex(r) for r in roots5]
    if big_root is not None:
        roots5[0] = big_root * (1.0 + 0.1 * rng.uniform())
    e5 = np.poly(roots5)[::-1]  # ascending
    if normalize:
        e5 = e5 / np.max(np.abs(e5))
    root1 = complex(rng.standard_normal() + 1j * rng.standard_normal())
    e1 = np.poly([root1])[::-1]
    return list(e5), list(e1), sorted(roots5 + [root1], key=lambda z: (z.real, z.imag))


def root_condition(coeffs_ascending, r):
    """Relative condition number of a simple root under relative
    coefficient perturbations."""
    c = np.asarray(coeffs_ascending, dtype=complex)
    powers = np.abs(r) ** np.arange(len(c))
    dp = np.polyval(np.polyder(np.asarray(c[::-1])), r)
    denom = abs(r) * abs(dp)
    if denom == 0:
        return np.inf
    return float(np.sum(np.abs(c) * powers) / denom)


def matched_errors(true_vals, computed):
    """Relative error of each true value against its closest computed one."""
    errs = []
    for t in true_vals:
        finite = [v for v in computed if np.isfinite(v)]
        if not finite:
            errs.append(np.inf)
            continue
        errs.append(min(abs(v - t) / max(abs(t), 1e-300) for v in finite))
    return errs


class TestCriterion1:
    """Polynomial example replica: four extraneous infinite eigenvalues
    deflate and the finite spectrum matches the scalar-root oracle."""

    def test_criterion(self):
        failures = []
        worst = 0.0
        slowest = 0.0
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            e5, e1, roots = random_e5_e1(rng)
            q = example_polynomial_system(e5, e1)
            t0 = time.perf_counter()
            rep = is_strongly_minimal(q, seed=seed)
            assert not rep.strongly_minimal, f"seed {seed}: expected non-minimal"
            q_c, rec = reduce_controllable(q, seed=seed)
            assert rec.d_deflated == 4, f"seed {seed}: deflated {rec.d_deflated}"
            assert all(np.isinf(v) for v in rec.deflated_eigenvalues), (
                f"seed {seed}: deflated values {rec.deflated_eigenvalues}"
            )
            vals = generalized_eigenvalues(system_pencil(q_c), seed=seed)
            elapsed = time.perf_counter() - t0
            slowest = max(slowest, elapsed)
            assert elapsed <= 1.0, f"seed {seed}: runtime {elapsed:.2f}s"
            # Companion-matrix oracle for the roots of e5*e1.
            oracle = list(np.roots(e5[::-1])) + list(np.roots(e1[::-1]))
            errs = matched_errors(oracle, vals)
            for r, err in zip(oracle, errs):
                kappa = min(root_condition(e5, r), root_condition(e1, r))
                if kappa <= 1e4:
                    worst = max(worst, err)
                    if err > 1e-8:
                        failures.append((seed, r, err, kappa))
        assert not failures, f"root mismatches: {failures}"
        announce(
            "criterion 1: 4 infinite eigenvalues deflated, roots to 1e-8",
            f"worst rel err {worst:.2e}, slowest {slowest:.2f}s",
        )


class TestCriterion2:
    """Rational example replica: the uncontrollable eigenvalue at 0
    deflates and the transfer function is preserved to 1e-10."""

    def test_criterion(self):
        worst = 0.0
        for seed in range(5):
            rng = np.random.default_rng(2000 + seed)
            e5, e1, _ = random_e5_e1(rng)
            q = example_rational_system(e5, e1)
            assert q.d == 10 and q.m == 2 and q.n == 2  # 12x12 system pencil
            q_c, rec = reduce_controllable(q, seed=seed)
            finite_deflated = [
                v for v in rec.deflated_eigenvalues if np.isfinite(v)
            ]
            assert any(abs(v) <= 1e-8 for v in finite_deflated), (
                f"seed {seed}: no eigenvalue at 0 among {rec.deflated_eigenvalues}"
            )
            q_min, Wl, Wr, _ = strongly_minimal_reduce(q, seed=seed)
            assert is_strongly_minimal(q_min, seed=seed).strongly_minimal
            pts = 0
            rng2 = np.random.default_rng(seed)
            while pts < 10:
                z = 1.9 * np.exp(2j * np.pi * rng2.uniform()) + 0.05j
                try:
                    R = transfer_eval(q, z)
                    Rm = transfer_eval(q_min, z)
                except SingularPencilError:
                    continue
                pts += 1
                dev = np.linalg.norm(Rm - Wl @ R @ Wr) / np.linalg.norm(R)
                worst = max(worst, dev)
                assert dev <= 1e-10, f"seed {seed}: transfer deviation {dev:.2e}"
        announce(
            "criterion 2: uncontrollable 0 deflated, transfer kept to 1e-10",
            f"worst rel deviation {worst:.2e}",
        )


CORPUS_SEEDS = list(range(24))


def corpus_with_structures():
    out = []
    for seed in CORPUS_SEEDS:
        quad, R, cands = exact_instance(seed)
        exact = full_structure_exact(R, candidates=cands)
        out.append((seed, quad, exact))
    return out


class TestCriterion3:
    """Numerical structure pipeline equals the exact oracle on the corpus."""

    def test_criterion(self):
        mismatches = []
        for seed, quad, exact in corpus_with_structures():
            numeric = rational_structure(quad.to_numeric(), seed=seed)
            same = (
                numeric.normal_rank == exact.normal_rank
                and numeric.infinity_indices == exact.infinity_indices
                and numeric.right_minimal == exact.right_minimal
                and numeric.left_minimal == exact.left_minimal
                and numeric.polar_degree == exact.polar_degree
                and numeric.zero_degree == exact.zero_degree
                and match_points(numeric.finite_points, exact.finite_points)
            )
            if not same:
                mismatches.append(seed)
            assert degree_sum_check(numeric), f"seed {seed}: numeric degree sum"
            assert degree_sum_check(exact), f"seed {seed}: exact degree sum"
        assert not mismatches, f"oracle mismatches at seeds {mismatches}"
        announce(
            "criterion 3: oracle equivalence on exact corpus",
            f"{len(CORPUS_SEEDS)} instances, all integer data identical",
        )


class TestCriterion4:
    """rank(L1 of S) equals the McMillan degree on strongly minimal output."""

    def test_criterion(self):
        checked = 0
        for seed, quad, exact in corpus_with_structures():
            q = quad.to_numeric()
            q_min, _, _, _ = strongly_minimal_reduce(q, seed=seed)
            S = system_pencil(q_min)
            assert matrix_rank(S.L1) == exact.mcmillan_degree, (
                f"seed {seed}: rank {matrix_rank(S.L1)} vs degree "
                f"{exact.mcmillan_degree}"
            )
            checked += 1
        announce(
            "criterion 4: rank(L1) = McMillan degree",
            f"{checked} strongly minimal systems",
        )


class TestCriterion5:
    """Strong minimality implies strong irreducibility; no counterexample."""

    def test_criterion(self):
        checked = 0
        for seed, quad, _ in corpus_with_structures():
            q = quad.to_numeric()
            q_min, _, _, _ = strongly_minimal_reduce(q, seed=seed)
            assert is_strongly_minimal(q_min, seed=seed).strongly_minimal
            assert is_strongly_irreducible(q_min, seed=seed), (
                f"seed {seed}: minimal quadruple failed irreducibility"
            )
            checked += 1
        announce(
            "criterion 5: strongly minimal => strongly irreducible",
            f"{checked} instances, no counterexample",
        )


class TestCriterion6:
    """Alternating balancing on 50 dense 5x7 pairs converges with equalized
    row/column sums and a non-increasing objective."""

    def test_criterion(self):
        worst_dev = 0.0
        worst_gap = 0.0
        for seed in range(50):
            rng = np.random.default_rng(6000 + seed)
            A = rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))
            B = rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))
            res = scale_approach1(A, B, 1.0, 1.0, tol=1e-11)
            assert res.converged, f"seed {seed}: no convergence"
            M2 = ((res.d_left**2)[:, None] * build_M(A, B)) * (
                res.d_right**2
            )[None, :]
            rows, cols = M2.sum(axis=1), M2.sum(axis=0)
            dev = max(
                np.max(np.abs(rows - res.gamma_left)) / res.gamma_left,
                np.max(np.abs(cols - res.gamma_right)) / res.gamma_right,
            )
            worst_dev = max(worst_dev, dev)
            assert dev <= 1e-10, f"seed {seed}: sum deviation {dev:.2e}"
            gap = abs(5 * res.gamma_left - 7 * res.gamma_right) / (
                5 * res.gamma_left
            )
            worst_gap = max(worst_gap, gap)
            assert gap <= 1e-10, f"seed {seed}: m*gl vs n*gr gap {gap:.2e}"
            h = res.objective_history
            assert all(
                h[i + 1] <= h[i] * (1 + 1e-12) for i in range(len(h) - 1)
            ), f"seed {seed}: objective increased"
        announce(
            "criterion 6: approach-1 balancing on 50 dense 5x7 pairs",
            f"worst sum dev {worst_dev:.2e}, worst m/n gap {worst_gap:.2e}",
        )


class TestCriterion7:
    """Regularized scaling: doubly stochastic to 1e-10, unique from random
    starts to 1e-8, convergence within 10000 iterations."""

    def test_criterion(self):
        worst_ds = 0.0
        worst_uni = 0.0
        most_iter = 0
        shapes = [(5, 7), (3, 3), (2, 6), (4, 4), (1, 5)]
        for seed in range(20):
            rng = np.random.default_rng(7000 + seed)
            m, n = shapes[seed % len(shapes)]
            A = rng.standard_normal((m, n))
            B = rng.standard_normal((m, n))
            if seed % 3 == 0:
                A[rng.integers(0, m)] *= 0.0  # sparse rows are fine here
            r1 = scale_approach2(
                A, B, alpha=1.0, c=1.0, tol=1e-12, max_iter=10000,
                init=(rng.random(m) + 0.5, rng.random(n) + 0.5),
            )
            r2 = scale_approach2(
                A, B, alpha=1.0, c=1.0, tol=1e-12, max_iter=10000,
                init=(rng.random(m) + 0.5, rng.random(n) + 0.5),
            )
            assert r1.converged and r2.converged, f"seed {seed}: no convergence"
            most_iter = max(most_iter, r1.iterations, r2.iterations)
            S = build_M_alpha(build_M(A, B), 1.0, m, n)
            d2 = np.concatenate([r1.d_left**2, r1.d_right**2])
            scaled = (d2[:, None] * S) * d2[None, :]
            g = float(np.mean(scaled.sum(axis=1)))
            ds_dev = max(
                np.max(np.abs(scaled.sum(axis=1) - g)),
                np.max(np.abs(scaled.sum(axis=0) - g)),
            ) / g
            worst_ds = max(worst_ds, ds_dev)
            assert ds_dev <= 1e-10, f"seed {seed}: stochasticity dev {ds_dev:.2e}"
            uni = max(
                np.max(np.abs(r1.d_left / r2.d_left - 1.0)),
                np.max(np.abs(r1.d_right / r2.d_right - 1.0)),
            )
            worst_uni = max(worst_uni, uni)
            assert uni <= 1e-8, f"seed {seed}: solutions differ by {uni:.2e}"
        assert most_iter <= 10000
        announce(
            "criterion 7: approach-2 scaling unique and doubly stochastic",
            f"worst ds dev {worst_ds:.2e}, worst uniqueness {worst_uni:.2e}, "
            f"max iters {most_iter}",
        )


class TestCriterion8:
    """Eigenvalue invariance under diagonal scaling and Mobius rotation."""

    def test_criterion(self):
        worst = 0.0
        for seed in range(20):
            rng = np.random.default_rng(8000 + seed)
            n = int(rng.integers(3, 7))
            P = Pencil(
                rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
                rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
            )
            base = generalized_eigenvalues(P, seed=seed)
            assert all(np.isfinite(v) for v in base)

            res = scale_approach2(P.L1, P.L0, alpha=1.0, c=1.0)
            scaled = apply_scaling(P, res)
            vals_s = generalized_eigenvalues(scaled, seed=seed)

            theta = rng.uniform(0.3, np.pi - 0.3)
            rot = Rotation(np.cos(theta), np.sin(theta))
            vals_r = generalized_eigenvalues(mobius_rotate(P, rot), seed=seed)
            mapped = np.array([rot.map_point(v) for v in vals_r])

            for other in (vals_s, mapped):
                cost = np.abs(base[:, None] - other[None, :]) / np.maximum(
                    np.abs(base[:, None]), 1e-300
                )
                rows, cols = linear_sum_assignment(cost)
                err = cost[rows, cols].max()
                worst = max(worst, err)
                assert err <= 1e-9, f"seed {seed}: eigenvalue drift {err:.2e}"
        announce(
            "criterion 8: eigenvalues invariant under scaling and rotation",
            f"worst matched rel err {worst:.2e}",
        )


class TestCriterion9:
    """Deflating the extraneous structure restores the accuracy of a large
    sensitive root that random unitary equivalence destroys.

    The full pipeline is compared: balance the system pencil, reduce, QZ
    the minimal pencil, and classify the deflated blocks by splitting off
    their structure at infinity before QZ (the eigenvalue report of the
    reduction is the union of deflated and retained eigenvalues).  A root
    of magnitude 1e5 in a degree-5 chain spans a dynamic range beyond
    double precision, so it is numerically uncontrollable and must be
    recovered from the deflated block.
    """

    def test_criterion(self):
        from strongmin.scaling import scaled_quadruple

        wins = 0
        ratios = []
        for seed in range(20):
            rng = np.random.default_rng(9000 + seed)
            e5, e1, roots = random_e5_e1(rng, big_root=1e5, normalize=True)
            q = example_polynomial_system(e5, e1)
            S = system_pencil(q)

            Q = random_unitary(rng, S.rows)
            Z = random_unitary(rng, S.cols)
            S_eq = Pencil(Q @ S.L0 @ Z, Q @ S.L1 @ Z)
            vals_raw = generalized_eigenvalues(S_eq, seed=seed)
            err_raw = max(matched_errors(roots, vals_raw))

            # The balancing must converge: its warning is an error here.
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                q_s, d_lam, _, _ = scaled_quadruple(q)
            q_min, _, _, records = strongly_minimal_reduce(q_s, seed=seed)
            vals = list(generalized_eigenvalues(system_pencil(q_min), seed=seed))
            for rec in records:
                vals.extend(rec.deflated_eigenvalues)
            vals = [v / d_lam for v in vals if np.isfinite(v)]
            err_red = max(matched_errors(roots, vals))

            ratios.append(err_raw / max(err_red, 1e-300))
            if err_red * 100.0 <= err_raw:
                wins += 1
        assert wins >= 16, f"only {wins}/20 seeds improved 100x ({ratios})"
        announce(
            "criterion 9: reduction restores sensitive-root accuracy",
            f"{wins}/20 seeds improved >= 100x, median ratio "
            f"{np.median(ratios):.1e}",
        )
