#!/usr/bin/env python3
"""Why deflation matters: sensitivity of a large root near a defective
block at infinity.

The degree-5 diagonal polynomial has one root of magnitude 1e5.  Its 10x10
chain pencil carries a size-4 Kronecker block at infinity whose rounding
cloud reaches the same magnitude; after a random unitary equivalence
transformation, plain QZ loses most digits of that root.  Deflating the
extraneous structure first (balance, staircase reduction, split the
deflated block at infinity, then QZ on what is left) recovers it to
near machine precision.
"""
import numpy as np

from strongmin import (
    Pencil,
    generalized_eigenvalues,
    strongly_minimal_reduce,
    system_pencil,
)
from strongmin.gallery import example_polynomial_system
from strongmin.scaling import scaled_quadruple

rng = np.random.default_rng(9001)
roots5 = rng.standard_normal(5) + 1j * rng.standard_normal(5)
roots5[0] = 1e5 * (1.0 + 0.1 * rng.uniform())
roots = [complex(r) for r in roots5]
e5 = np.poly(roots)[::-1]
e5 = list(e5 / np.max(np.abs(e5)))  # balanced coefficients, tiny leading one
root1 = complex(rng.standard_normal() + 1j * rng.standard_normal())
e1 = list(np.poly([root1])[::-1])
roots.append(root1)

q = example_polynomial_system(e5, e1)
S = system_pencil(q)


def random_unitary(n):
    """Unitary factor of a QR of a complex Gaussian, phases fixed by R."""
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(G)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


# Method A: QZ on a randomly unitarily-equivalent copy of the raw pencil.
Q = random_unitary(S.rows)
Z = random_unitary(S.cols)
vals_raw = generalized_eigenvalues(Pencil(Q @ S.L0 @ Z, Q @ S.L1 @ Z))

# Method B: balance, reduce, and report deflated + retained eigenvalues.
q_s, d_lam, _, _ = scaled_quadruple(q)
q_min, _, _, records = strongly_minimal_reduce(q_s)
vals_red = list(generalized_eigenvalues(system_pencil(q_min)))
deflated = []
for rec in records:
    deflated.extend(rec.deflated_eigenvalues)
vals_red = [v / d_lam for v in vals_red if np.isfinite(v)]
deflated = [v / d_lam if np.isfinite(v) else v for v in deflated]
print(f"deflated eigenvalues (reported in brackets): {deflated}\n")


def best_error(t, values):
    finite = [v for v in values if np.isfinite(v)]
    return min(abs(v - t) / abs(t) for v in finite)


print(f"{'true root':>28}  {'QZ on Q S Z':>12}  {'after reduction':>15}")
for t in sorted(roots, key=abs):
    ea = best_error(t, vals_raw)
    eb = best_error(t, vals_red + deflated)
    print(f"{t:28.6g}  {ea:12.2e}  {eb:15.2e}")
