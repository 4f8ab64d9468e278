"""Property: a Kronecker report depends on neither the seed nor the basis."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from strongmin.pencil import Pencil
from strongmin.staircase import kronecker_structure
from test_staircase import direct_sum, jordan_block, unitary_equivalent


def _same_report(a, b, rel=1e-8):
    assert (a.normal_rank, a.infinite_blocks, a.right_minimal, a.left_minimal) == (
        b.normal_rank,
        b.infinite_blocks,
        b.right_minimal,
        b.left_minimal,
    )
    assert not a.ambiguous and not b.ambiguous
    assert len(a.finite_eigen) == len(b.finite_eigen)
    for z, part in a.finite_eigen.items():
        (w,) = [w for w in b.finite_eigen if abs(w - z) <= rel * max(1.0, abs(z))]
        assert b.finite_eigen[w] == part


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    k=st.sampled_from([2, 3]),
    lam=st.floats(-2.0, 2.0),
    count=st.integers(8, 24),
    draw=st.integers(0, 2**32 - 1),
)
def test_mixture_report_is_seed_and_basis_invariant(k, lam, count, draw):
    # J_k(lam) plus simple eigenvalues at least 0.1 from lam and from each
    # other: the same report under pipeline seeds 0-4 and under a random
    # unitary equivalence, with the Jordan block read as one point.
    rng = np.random.default_rng(draw)
    simple = []
    while len(simple) < count:
        v = rng.uniform(-4.0, 4.0)
        if all(abs(v - u) >= 0.1 for u in [lam, *simple]):
            simple.append(v)
    base = direct_sum(jordan_block(lam, k), Pencil(np.diag(simple), np.eye(count)))
    P = unitary_equivalent(base, draw % 1000)
    reports = [kronecker_structure(P, seed=seed) for seed in range(5)]
    reports.append(kronecker_structure(unitary_equivalent(P, draw % 1000 + 1)))
    for rep in reports[1:]:
        _same_report(reports[0], rep)
    (z,) = [z for z in reports[0].finite_eigen if abs(z - lam) < 1e-6]
    assert reports[0].finite_eigen[z] == (k,)
    assert reports[0].finite_count() == k + count
