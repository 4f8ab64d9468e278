"""Seeded descriptor systems with a planted uncontrollable part.

``descriptor_system(seed)`` builds ``{lambda*E - F, -G, H, D}`` with
``E = I + noise`` (so ``E != I`` and the controllability pencil's leading
coefficient ``[E 0]`` has rows that are not orthonormal), and zeros the
coupling of the first ``kk`` states to the rest and to the input.  Those
states are uncontrollable, every other state is controllable and
observable for almost every draw, and ``E`` is invertible, so the McMillan
degree of the transfer function is ``d - kk``.
"""
from __future__ import annotations

import numpy as np

from strongmin.pencil import Pencil, SystemQuadruple, constant_pencil


def descriptor_system(seed: int):
    """``(q, d, kk)``: the quadruple of ``seed``, its state dimension and
    the number of planted uncontrollable states."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(8, 60))
    m = int(rng.integers(1, 4))
    n = int(rng.integers(1, 4))
    E = np.eye(d) + float(rng.uniform(0.1, 0.6)) * rng.standard_normal((d, d)) / np.sqrt(d)
    F = float(rng.uniform(1, 20)) * rng.standard_normal((d, d))
    G = rng.standard_normal((d, n))
    H = rng.standard_normal((m, d))
    kk = int(rng.integers(0, d // 3 + 1))
    if kk:
        F[:kk, kk:] = 0
        G[:kk] = 0
        E[:kk, kk:] = 0
    D = rng.standard_normal((m, n))
    q = SystemQuadruple(Pencil(F, E), constant_pencil(-G), constant_pencil(H), constant_pencil(D))
    return q, d, kk
