"""Outside-in tracing of strongmin: wrap public functions, record spans.

Nothing in ``src/`` is changed.  :meth:`Tracer.install` replaces every public
function bound in a ``strongmin.*`` module namespace with a timing wrapper.
A name brought in with ``from .x import f`` is a separate binding of the
same function, so every binding is replaced, all by one shared wrapper.
``numpy.linalg.svd`` and ``scipy.linalg.eig`` (the QZ behind
``linalg.eig_pair``) are wrapped at their module attribute, which is how
strongmin calls them.

A span is ``(name id, start, end, parent index, query id, outermost)``.
Spans stay in memory until :meth:`Tracer.dump`.  A span's self time is its
duration minus the durations of its direct children.  ``outermost`` is
false for a span nested inside another span of the same name, so inclusive
times of recursive calls are not counted twice.

Work counters are read at the same boundaries from arguments and return
values: SVD flops from shapes, Sinkhorn sweeps and convergence from what
``sinkhorn_knopp`` returns, pass and deflation counts from the records
``strongly_minimal_reduce`` returns, and bytes from the size of each file
``parse_quadruple`` or ``file_digest`` reads.
"""
from __future__ import annotations

import functools
import inspect
import json
import os
import sys
from collections import Counter
from time import perf_counter

import numpy as np
import scipy.linalg

SVD = "numpy.linalg.svd"
QZ = "scipy.linalg.eig"


def svd_flops(shape, dtype, compute_uv=True, full_matrices=True) -> float:
    """Flop estimate of one LAPACK SVD, computed from the operand shape.

    Golub & Van Loan (Matrix Computations, 4th ed., table 8.6.1) for real
    m x n, m >= n: ``4mn^2 - 4n^3/3`` for singular values only,
    ``4m^2n + 8mn^2 + 9n^3`` with full U and V, ``14mn^2 + 8n^3`` with thin
    U.  A complex flop is counted as four real ones.  This is a model of
    the work, not a hardware count.
    """
    m, n = shape
    if m < n:
        m, n = n, m
    if not compute_uv:
        flops = 4.0 * m * n * n - 4.0 * n ** 3 / 3.0
    elif full_matrices:
        flops = 4.0 * m * m * n + 8.0 * m * n * n + 9.0 * n ** 3
    else:
        flops = 14.0 * m * n * n + 8.0 * n ** 3
    if np.issubdtype(dtype, np.complexfloating):
        flops *= 4.0
    return flops


def _observe_svd(counters, args, kwargs, result):
    a = np.asarray(args[0])
    full = kwargs.get("full_matrices", args[1] if len(args) > 1 else True)
    uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
    counters["svd_flop"] += svd_flops(a.shape, a.dtype, uv, full)


def _observe_sinkhorn(counters, args, kwargs, result):
    _, _, sweeps, converged = result
    counters["sinkhorn_calls"] += 1
    counters["sinkhorn_sweeps"] += int(sweeps)
    counters["sinkhorn_converged"] += int(bool(converged))


def _observe_reduce(counters, args, kwargs, result):
    records = result[3]
    counters["reduce_passes"] += len(records)
    counters["states_deflated"] += sum(int(r.d_deflated) for r in records)
    counters["useful_passes"] += sum(1 for r in records if r.d_deflated > 0)


def _observe_file(counters, args, kwargs, result):
    counters["bytes_read"] += os.path.getsize(args[0])


OBSERVERS = {
    SVD: _observe_svd,
    "scaling.sinkhorn_knopp": _observe_sinkhorn,
    "minreal.strongly_minimal_reduce": _observe_reduce,
    "fileio.parse_quadruple": _observe_file,
    "fileio.file_digest": _observe_file,
}


def _span_name(fn) -> str:
    return f"{fn.__module__.removeprefix('strongmin.')}.{fn.__name__}"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []
        self.counters: Counter = Counter()
        self.query = -1
        self._stack: list[int] = []
        self._active: list[int] = []
        self._wrappers: dict[int, object] = {}
        self._patched: list[tuple] = []

    def _wrap(self, name, fn):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
            self._active.append(0)
        observe = OBSERVERS.get(name)
        spans, stack, active, counters = (
            self.spans, self._stack, self._active, self.counters)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            active[nid] += 1
            outermost = active[nid] == 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                active[nid] -= 1
                stack.pop()
                spans[idx] = (nid, t0, t1, parent, tracer.query, outermost)
            if observe is not None and outermost:
                observe(counters, args, kwargs, result)
            return result

        return traced

    def _patch(self, namespace, attr, name, fn):
        wrapper = self._wrappers.get(id(fn))
        if wrapper is None:
            wrapper = self._wrappers[id(fn)] = self._wrap(name, fn)
        self._patched.append((namespace, attr, fn))
        setattr(namespace, attr, wrapper)

    def install(self) -> None:
        """Wrap every public strongmin function binding, svd and eig."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [
            mod for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == "strongmin" or key.startswith("strongmin."))
        ]
        for mod in modules:
            for attr, val in sorted(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(val)
                        or not val.__module__.startswith("strongmin")):
                    continue
                self._patch(mod, attr, _span_name(val), val)
        self._patch(np.linalg, "svd", SVD, np.linalg.svd)
        self._patch(scipy.linalg, "eig", QZ, scipy.linalg.eig)

    def uninstall(self) -> None:
        for namespace, attr, fn in reversed(self._patched):
            setattr(namespace, attr, fn)
        self._patched.clear()

    def totals(self) -> dict:
        """Per span name: calls, outermost inclusive seconds, self seconds."""
        child = [0.0] * len(self.spans)
        for nid, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {name: {"calls": 0, "incl_s": 0.0, "self_s": 0.0} for name in self.names}
        for i, (nid, t0, t1, _, _, outermost) in enumerate(self.spans):
            row = out[self.names[nid]]
            row["calls"] += 1
            row["self_s"] += (t1 - t0) - child[i]
            if outermost:
                row["incl_s"] += t1 - t0
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({
                "fields": ["name", "start_s", "end_s", "parent", "query", "outermost"],
                "names": self.names,
                "spans": self.spans,
                "counters": dict(self.counters),
            }, fh, separators=(",", ":"))
