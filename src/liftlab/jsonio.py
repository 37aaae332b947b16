"""JSON wire formats for every object the command line reads or writes.

Complex matrices travel as {"rows", "cols", "data"} with data a flat
row-major list of [re, im] pairs; factored operators add "dims" listed
leftmost factor first. Plain nested JSON arrays of numbers are accepted
wherever a real matrix or vector is expected. Loaders raise SchemaError on
any malformed payload so the command line can map them to exit code 2; a
well-formed payload that breaks a mathematical precondition raises the
constructor's MathDomainError (exit code 3). No JSON text in or out may
hold NaN, Infinity, or a number that overflows to inf (1e999).
"""
from __future__ import annotations

import json
from numbers import Real

import numpy as np

from .circulant import BellSpectrum, CirculantSpec
from .classical import as_permutation
from .errors import MathDomainError, SchemaError
from .matcore import FactoredOperator
from .qlift import CpMap


def _require(cond: bool, message: str):
    if not cond:
        raise SchemaError(message)


def _as_int(value, name: str) -> int:
    _require(isinstance(value, int) and not isinstance(value, bool), f"{name} must be an integer")
    return value


def _decoded(build, *args):
    """Call a constructor on decoded data: its MathDomainError passes
    through, any other ValueError becomes a SchemaError."""
    try:
        return build(*args)
    except MathDomainError:
        raise
    except ValueError as exc:
        raise SchemaError(str(exc)) from None


def _finite(a: np.ndarray, what: str) -> np.ndarray:
    _require(bool(np.all(np.isfinite(a))), f"{what} entries must be finite numbers")
    return a


def _reject_constant(name: str):
    raise SchemaError(f"invalid JSON: {name} is not a finite number")


def _pair_to_complex(entry, name: str) -> complex:
    _require(
        isinstance(entry, (list, tuple))
        and len(entry) == 2
        and all(isinstance(x, Real) for x in entry),
        f"{name} entries must be [re, im] pairs",
    )
    return complex(entry[0], entry[1])


def matrix_to_json(m) -> dict:
    """Encode a complex matrix as {"rows", "cols", "data"} with flat
    row-major [re, im] pairs."""
    a = np.asarray(m, dtype=complex)
    _require(a.ndim == 2, f"expected a matrix, got array of shape {a.shape}")
    data = [[float(z.real), float(z.imag)] for z in a.ravel(order="C")]
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]), "data": data}


def json_to_matrix(obj) -> np.ndarray:
    """Decode a matrix from pair format or from a plain nested real array."""
    if isinstance(obj, dict):
        _require(
            set(obj) >= {"rows", "cols", "data"},
            "matrix object needs keys rows, cols, data",
        )
        rows = _as_int(obj["rows"], "rows")
        cols = _as_int(obj["cols"], "cols")
        data = obj["data"]
        _require(isinstance(data, list), "data must be a list")
        _require(len(data) == rows * cols, f"data has {len(data)} entries, expected {rows * cols}")
        flat = [_pair_to_complex(e, "data") for e in data]
        return _finite(np.array(flat, dtype=complex).reshape(rows, cols), "matrix")
    if isinstance(obj, list):
        try:
            a = np.array(obj, dtype=float)
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"matrix rows are not numeric: {exc}") from None
        _require(a.ndim == 2, f"nested array must be two-dimensional, got shape {a.shape}")
        return _finite(a, "matrix").astype(complex)
    raise SchemaError(f"cannot read a matrix from {type(obj).__name__}")


def factored_to_json(op: FactoredOperator) -> dict:
    """Matrix format plus "dims", leftmost (highest-numbered) factor first."""
    out = matrix_to_json(op.matrix)
    out["dims"] = [int(d) for d in op.dims]
    return out


def json_to_factored(obj) -> FactoredOperator:
    _require(isinstance(obj, dict) and "dims" in obj, "factored operator needs a dims key")
    dims = obj["dims"]
    _require(
        isinstance(dims, list) and dims and all(isinstance(d, int) and d > 0 for d in dims),
        "dims must be a non-empty list of positive integers",
    )
    return _decoded(FactoredOperator, json_to_matrix(obj), tuple(dims))


def vector_to_json(v) -> list:
    a = np.asarray(v, dtype=float)
    _require(a.ndim == 1, f"expected a vector, got array of shape {a.shape}")
    return [float(x) for x in a]


def json_to_vector(obj) -> np.ndarray:
    _require(
        isinstance(obj, list) and all(isinstance(x, Real) for x in obj),
        "vector must be a list of numbers",
    )
    return _finite(np.array(obj, dtype=float), "vector")


def json_to_permutation(obj) -> np.ndarray:
    _require(
        isinstance(obj, list) and all(isinstance(x, int) and not isinstance(x, bool) for x in obj),
        "permutation must be a list of integer images",
    )
    return as_permutation(np.array(obj, dtype=int))


def lifting_tensor_to_json(t) -> dict:
    """Flatten to {"n1", "n2", "data"} with (input, new, retained)
    lexicographic order."""
    e = np.asarray(t, dtype=float)
    _require(
        e.ndim == 3 and e.shape[0] == e.shape[2],
        f"lifting tensor must have shape (n1, n2, n1), got {e.shape}",
    )
    return {
        "n1": int(e.shape[0]),
        "n2": int(e.shape[1]),
        "data": [float(x) for x in e.ravel(order="C")],
    }


def json_to_tensor_data(obj) -> np.ndarray:
    """Decode {"n1", "n2", "data"} to an (n1, n2, n1) array without checking
    that it is a lifting tensor."""
    _require(
        isinstance(obj, dict) and set(obj) >= {"n1", "n2", "data"},
        "lifting tensor object needs keys n1, n2, data",
    )
    n1 = _as_int(obj["n1"], "n1")
    n2 = _as_int(obj["n2"], "n2")
    data = obj["data"]
    _require(
        isinstance(data, list) and all(isinstance(x, Real) for x in data),
        "data must be a list of numbers",
    )
    _require(len(data) == n1 * n2 * n1, f"data has {len(data)} entries, expected {n1 * n2 * n1}")
    return _finite(np.array(data, dtype=float).reshape(n1, n2, n1), "lifting tensor")


def cpmap_to_json(cp: CpMap) -> dict:
    """Encode as {"d", "units"} with the d^2 unit images in (i, j)
    lexicographic order."""
    d = cp.d
    return {
        "d": int(d),
        "units": [matrix_to_json(cp.units[i, j]) for i in range(d) for j in range(d)],
    }


def json_to_cpmap(obj) -> CpMap:
    _require(
        isinstance(obj, dict) and set(obj) >= {"d", "units"},
        "cp map object needs keys d, units",
    )
    d = _as_int(obj["d"], "d")
    units = obj["units"]
    _require(isinstance(units, list), "units must be a list")
    _require(len(units) == d * d, f"units has {len(units)} entries, expected {d * d}")
    mats = [json_to_matrix(u) for u in units]
    for k, m in enumerate(mats):
        _require(m.shape == (d, d), f"unit {k} has shape {m.shape}, expected ({d}, {d})")
    return _decoded(CpMap, np.array(mats, dtype=complex).reshape(d, d, d, d))


def circulant_to_json(spec: CirculantSpec) -> dict:
    return {
        "d": int(spec.d),
        "blocks": [matrix_to_json(spec.blocks[a]) for a in range(spec.d)],
    }


def json_to_circulant(obj) -> CirculantSpec:
    _require(
        isinstance(obj, dict) and set(obj) >= {"d", "blocks"},
        "circulant object needs keys d, blocks",
    )
    d = _as_int(obj["d"], "d")
    blocks = obj["blocks"]
    _require(isinstance(blocks, list) and len(blocks) == d, f"blocks must list {d} matrices")
    mats = [json_to_matrix(b) for b in blocks]
    for k, m in enumerate(mats):
        _require(m.shape == (d, d), f"block {k} has shape {m.shape}, expected ({d}, {d})")
    return _decoded(CirculantSpec, np.array(mats, dtype=complex))


def bell_spectrum_to_json(bs: BellSpectrum) -> dict:
    return {"d": int(bs.d), "p": [[float(x) for x in row] for row in bs.p]}


def canonical_dumps(obj) -> str:
    """Stable serialization: sorted keys, two-space indent, trailing newline.

    A NaN or infinite value is a SchemaError, never an invalid JSON token.
    """
    try:
        return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise SchemaError(f"result is not finite JSON: {exc}") from None


def load_argument(text: str):
    """Parse a command-line value: inline JSON, or @path to read a file."""
    if text.startswith("@"):
        try:
            with open(text[1:], "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise SchemaError(f"cannot read {text[1:]}: {exc}") from None
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from None
