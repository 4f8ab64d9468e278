#!/usr/bin/env python3
"""Diagonal balancing of a badly scaled rectangular pencil.

Two-sided positive diagonal scalings compress row/column norms spreading
over many orders of magnitude.  The alternating scheme (approach 1)
equalizes the row and column sums of M = |A|^2 + |B|^2 exactly but can
diverge on sparse patterns; the regularized scheme (approach 2) always
converges to a unique bounded scaling via Sinkhorn-Knopp on a bordered
matrix, trading some equalization for that guarantee (smaller alpha means
stronger equalization).  Powers-of-2 quantization keeps the scaled pencil
bit-exactly equivalent to working precision.
"""
import numpy as np

from strongmin import (
    Pencil,
    ScalingDivergence,
    apply_scaling,
    build_M,
    quantize_pow2,
    scale_approach1,
    scale_approach2,
)

rng = np.random.default_rng(3)
m, n = 4, 6
row_scales = 10.0 ** rng.integers(-4, 5, size=m)
col_scales = 10.0 ** rng.integers(-4, 5, size=n)
L0 = row_scales[:, None] * rng.standard_normal((m, n)) * col_scales[None, :]
L1 = row_scales[:, None] * rng.standard_normal((m, n)) * col_scales[None, :]
P = Pencil(L0, L1)


def norm_spread(P):
    M2 = build_M(P.L1, P.L0)
    norms = np.concatenate([np.sqrt(M2.sum(1)), np.sqrt(M2.sum(0))])
    return norms.max() / norms.min()


print(f"unscaled row/col norm spread: {norm_spread(P):.3e}")

res1 = scale_approach1(P.L1, P.L0, tol=1e-12)
print(f"\napproach 1: converged={res1.converged} in {res1.iterations} sweeps,"
      f" residual {res1.residual:.1e}")
print(f"  gamma_left = {res1.gamma_left:.6e}, gamma_right = "
      f"{res1.gamma_right:.6e}")
print(f"  m*gamma_left - n*gamma_right = "
      f"{4 * res1.gamma_left - 6 * res1.gamma_right:.2e}")
print(f"  spread after scaling: {norm_spread(apply_scaling(P, res1)):.3e}")

res2 = scale_approach2(P.L1, P.L0, alpha=0.01, tol=1e-12)
print(f"\napproach 2 (alpha=0.01): converged={res2.converged} in "
      f"{res2.iterations} Newton steps")
print(f"  spread after scaling: {norm_spread(apply_scaling(P, res2)):.3e}")

q2 = quantize_pow2(res2)
print(f"\npower-of-2 quantization: entries moved by at most sqrt(2); "
      f"residual {q2.residual:.1e}")
print(f"  d_left  = {q2.d_left}")
print(f"  d_right = {q2.d_right}")
print(f"  spread with quantized scalings: "
      f"{norm_spread(apply_scaling(P, q2)):.3e}")

# A sparsity pattern without total support defeats approach 1 ...
bad = Pencil(np.array([[1.0, 1.0], [0.0, 1.0]]), np.zeros((2, 2)))
try:
    scale_approach1(bad.L0, bad.L1)
except ScalingDivergence as exc:
    print(f"\napproach 1 on a triangular pattern: {exc}")
# ... while approach 2 is unconditionally safe.
res = scale_approach2(bad.L0, bad.L1)
print(f"approach 2 on the same pattern: converged={res.converged}, "
      f"gamma={res.gamma:.6f}")
