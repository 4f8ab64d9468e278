"""JSON serialization of system quadruples and reports.

Quadruple files carry a ``schema`` version, the three dimensions, and the
eight coefficient matrices as flat row-major arrays of ``[re, im]`` pairs.
A block whose imaginary parts are all ``+0.0`` is read as real (float64),
any other as complex (complex128): this is where the field of the data is
decided, once.
Serialization is deterministic: keys are sorted and floats use shortest
round-trip formatting, so identical data produces byte-identical files.
"""
from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from .pencil import Pencil, SystemQuadruple

SCHEMA_VERSION = 1

_BLOCKS = ("A0", "A1", "B0", "B1", "C0", "C1", "D0", "D1")


class QuadrupleFormatError(ValueError):
    """Malformed quadruple file."""


def _flatten(M: np.ndarray) -> list:
    out = []
    for v in M.reshape(-1):
        out.append([float(v.real), float(v.imag)])
    return out


def _entry_error(pair):
    """What is wrong with one ``[re, im]`` entry, or None."""
    if not (isinstance(pair, list) and len(pair) == 2):
        return "expected an [re, im] pair"
    if not all(isinstance(x, (int, float)) for x in pair):
        return "non-numeric entry"
    try:
        finite = all(math.isfinite(x) for x in pair)
    except OverflowError:  # an integer beyond the float range
        finite = False
    return None if finite else "non-finite entry"


def _unflatten(data, rows, cols, name):
    if not isinstance(data, list):
        raise QuadrupleFormatError(f"{name}: expected a list of [re, im] pairs")
    if len(data) != rows * cols:
        raise QuadrupleFormatError(
            f"{name}: expected {rows * cols} entries, got {len(data)}"
        )
    # One numpy pass accepts a block of boolean, integer or float pairs.
    # Its dtype is read before any conversion to float, which would turn
    # numeric strings into numbers.
    try:
        pairs = np.array(data)
    except ValueError:  # ragged entries
        pairs = None
    if (
        pairs is None
        or pairs.shape != (len(data), 2)
        or pairs.dtype.kind not in "biuf"
        or not np.isfinite(pairs).all()
    ):
        # Anything else is named entry by entry; what passes is numeric.
        for k, pair in enumerate(data):
            error = _entry_error(pair)
            if error:
                raise QuadrupleFormatError(f"{name}[{k}]: {error}")
        pairs = np.array(data, dtype=float)
    # Each row holds the real and imaginary parts of one complex entry.
    # Imaginary parts that are all +0.0 (every bit clear) make a real block;
    # a -0.0 keeps it complex, so that the file's bits are kept.
    pairs = pairs.astype(float, copy=False).reshape(-1, 2)
    if not pairs[:, 1].view(np.uint64).any():
        return pairs[:, 0].reshape(rows, cols)
    return pairs.view(complex).reshape(rows, cols)


def quadruple_to_dict(q: SystemQuadruple) -> dict:
    d, m, n = q.d, q.m, q.n
    blocks = {
        "A0": q.A.L0, "A1": q.A.L1,
        "B0": q.B.L0, "B1": q.B.L1,
        "C0": q.C.L0, "C1": q.C.L1,
        "D0": q.D.L0, "D1": q.D.L1,
    }
    doc = {"schema": SCHEMA_VERSION, "d": d, "m": m, "n": n}
    for name in _BLOCKS:
        doc[name] = _flatten(blocks[name])
    return doc


def quadruple_from_dict(doc: dict) -> SystemQuadruple:
    if not isinstance(doc, dict):
        raise QuadrupleFormatError(f"expected a JSON object, got {type(doc).__name__}")
    for field in ("schema", "d", "m", "n"):
        if field not in doc:
            raise QuadrupleFormatError(f"missing field {field!r}")
    # JSON true and false parse to bool, a subclass of int: reject them.
    if isinstance(doc["schema"], bool) or doc["schema"] != SCHEMA_VERSION:
        raise QuadrupleFormatError(f"unsupported schema {doc['schema']!r}")
    d, m, n = doc["d"], doc["m"], doc["n"]
    for name, value in (("d", d), ("m", m), ("n", n)):
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise QuadrupleFormatError(f"{name}: expected a nonnegative integer")
    shapes = {
        "A0": (d, d), "A1": (d, d),
        "B0": (d, n), "B1": (d, n),
        "C0": (m, d), "C1": (m, d),
        "D0": (m, n), "D1": (m, n),
    }
    grids = {}
    for name in _BLOCKS:
        if name not in doc:
            raise QuadrupleFormatError(f"missing block {name!r}")
        grids[name] = _unflatten(doc[name], *shapes[name], name)
    return SystemQuadruple(
        Pencil(grids["A0"], grids["A1"]),
        Pencil(grids["B0"], grids["B1"]),
        Pencil(grids["C0"], grids["C1"]),
        Pencil(grids["D0"], grids["D1"]),
    )


def dumps_deterministic(doc) -> str:
    """Deterministic JSON text (sorted keys, shortest round-trip floats)."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)


def write_quadruple(path, q: SystemQuadruple) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_deterministic(quadruple_to_dict(q)))
        fh.write("\n")


def parse_quadruple(path) -> SystemQuadruple:
    """Read and validate a quadruple file.

    The file must hold one JSON object in UTF-8.  NaN/Infinity literals
    are rejected at the JSON level; shape and finiteness violations name
    the offending block.
    """
    return read_quadruple(path)[0]


def read_quadruple(path):
    """:func:`parse_quadruple` and the sha256 hex digest of the bytes of
    ``path``, from one read of the file: ``(quadruple, digest)``."""

    def _reject(token):
        raise QuadrupleFormatError(f"non-finite literal {token!r} in file")

    with open(path, "rb") as fh:
        data = fh.read()
    try:
        doc = json.loads(data.decode("utf-8"), parse_constant=_reject)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise QuadrupleFormatError(f"invalid JSON: {exc}") from exc
    return quadruple_from_dict(doc), hashlib.sha256(data).hexdigest()


def matrix_to_pairs(M: np.ndarray) -> list:
    return _flatten(np.asarray(M, dtype=complex))


def pencil_to_dict(P: Pencil) -> dict:
    return {
        "rows": P.rows,
        "cols": P.cols,
        "L0": _flatten(P.L0),
        "L1": _flatten(P.L1),
    }
