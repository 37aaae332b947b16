"""JSON wire formats for every object the command line reads or writes.

Complex matrices travel as {"rows", "cols", "data"} with data a flat
row-major list of [re, im] pairs; factored operators add "dims" listed
leftmost factor first. Plain nested JSON arrays of numbers are accepted
wherever a real matrix or vector is expected. Loaders raise SchemaError on
any malformed payload so the command line can map them to exit code 2; a
well-formed payload that breaks a mathematical precondition raises the
constructor's MathDomainError (exit code 3). No JSON text in or out may
hold NaN or Infinity, no list of numbers read may hold true, false or a
number of modulus past 2**60 (1e999, 10**400), and no size may be negative.
Every JSON list of numbers is read by matcore._as_array, the library's
number policy, with one np.array call and the decoder's own message for a
list that holds a non-number. A matrix is written from its distinct values:
canonical_pieces dumps the document around a placeholder and renders each
matrix chunk by chunk, with one repr per distinct value of a column in the
chunk and a gather of those strings, byte for byte as json.dumps(indent=2),
whose pure-Python encoder would otherwise make a call per number. The
command line writes the pieces as they come, so a large matrix is never
held as text.
"""
from __future__ import annotations

import json

import numpy as np

from .circulant import BellSpectrum, CirculantSpec
from .classical import as_permutation
from .errors import SchemaError
from .matcore import FactoredOperator, _as_array, _Fresh, _size
from .qlift import CpMap


def _require(cond: bool, message: str):
    if not cond:
        raise SchemaError(message)


def _reject_constant(name: str):
    raise SchemaError(f"invalid JSON: {name} is not a finite number")


class _Pairs(list):
    """Matrix data: an (n, 2) float array that reads as the list of its
    [re, im] rows.

    The list itself stays empty, so no Python object is made per entry:
    canonical_pieces renders the array. len(), iteration (all that json.dump,
    json.dumps and np.array read of a list subclass), indexing and comparison
    see the rows.
    """

    def __init__(self, pairs: np.ndarray):
        super().__init__()
        self.pairs = pairs

    def __len__(self):
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs.tolist())

    def __getitem__(self, key):
        return self.pairs[key].tolist()

    def __eq__(self, other):
        return list(self) == other

    def __ne__(self, other):
        return list(self) != other

    def __repr__(self):
        return repr(list(self))


def matrix_to_json(m) -> dict:
    """Encode a complex matrix as {"rows", "cols", "data"} with flat
    row-major [re, im] pairs."""
    a = _as_array(m, "matrix", complex, bound=False)
    _require(a.ndim == 2, f"expected a matrix, got array of shape {a.shape}")
    # The document keeps its values when the caller later writes to m; a
    # read-only array, such as FactoredOperator.matrix, cannot change.
    a = a.copy() if a.flags.writeable else np.ascontiguousarray(a)
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]), "data": _Pairs(a.view(float).reshape(-1, 2))}


def json_to_matrix(obj) -> np.ndarray:
    """Decode a matrix from pair format or from a plain nested real array."""
    if isinstance(obj, dict):
        _require(
            set(obj) >= {"rows", "cols", "data"},
            "matrix object needs keys rows, cols, data",
        )
        rows = _size(obj["rows"], "rows")
        cols = _size(obj["cols"], "cols")
        data = obj["data"]
        _require(isinstance(data, list), "data must be a list")
        _require(len(data) == rows * cols, f"data has {len(data)} entries, expected {rows * cols}")
        not_pairs = "data entries must be [re, im] pairs"
        a = _as_array(data or np.zeros((0, 2)), "matrix", bad=not_pairs)
        _require(a.shape == (rows * cols, 2), not_pairs)
        return a.view(complex).reshape(rows, cols)
    if isinstance(obj, list):
        a = _as_array(obj, "matrix", bad="matrix rows are not numeric")
        _require(a.ndim == 2, f"nested array must be two-dimensional, got shape {a.shape}")
        return a.astype(complex)
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
        isinstance(dims, list)
        and dims
        and all(isinstance(d, int) and not isinstance(d, bool) and d > 0 for d in dims),
        "dims must be a non-empty list of positive integers",
    )
    return FactoredOperator(json_to_matrix(obj), tuple(dims))


def vector_to_json(v) -> list:
    a = _as_array(v, "vector", bound=False)
    _require(a.ndim == 1, f"expected a vector, got array of shape {a.shape}")
    return a.tolist()


def json_to_vector(obj) -> np.ndarray:
    not_numbers = "vector must be a list of numbers"
    a = _as_array(obj, "vector", bad=not_numbers)
    _require(a.ndim == 1, not_numbers)
    return a


def json_to_permutation(obj) -> np.ndarray:
    bad = "permutation must be a list of integer images"
    s = _as_array(obj, "permutation", None, bad=bad)
    _require(s.ndim == 1 and s.dtype.kind in "iu", bad)
    return as_permutation(s)


def lifting_tensor_to_json(t) -> dict:
    """Flatten to {"n1", "n2", "data"} with (input, new, retained)
    lexicographic order."""
    e = _as_array(t, "lifting tensor", bound=False)
    _require(
        e.ndim == 3 and e.shape[0] == e.shape[2],
        f"lifting tensor must have shape (n1, n2, n1), got {e.shape}",
    )
    return {"n1": int(e.shape[0]), "n2": int(e.shape[1]), "data": e.ravel().tolist()}


def json_to_tensor_data(obj) -> np.ndarray:
    """Decode {"n1", "n2", "data"} to an (n1, n2, n1) array without checking
    that it is a lifting tensor."""
    _require(
        isinstance(obj, dict) and set(obj) >= {"n1", "n2", "data"},
        "lifting tensor object needs keys n1, n2, data",
    )
    n1 = _size(obj["n1"], "n1")
    n2 = _size(obj["n2"], "n2")
    not_numbers = "data must be a list of numbers"
    a = _as_array(obj["data"], "lifting tensor", bad=not_numbers)
    _require(a.ndim == 1, not_numbers)
    _require(a.size == n1 * n2 * n1, f"data has {a.size} entries, expected {n1 * n2 * n1}")
    return a.reshape(n1, n2, n1)


def _square_matrices(items: list, d: int, what: str) -> np.ndarray:
    """Decode every matrix of a list, then require each to be d x d; they
    come back stacked in one complex array."""
    mats = [json_to_matrix(m) for m in items]
    for k, m in enumerate(mats):
        _require(m.shape == (d, d), f"{what} {k} has shape {m.shape}, expected ({d}, {d})")
    return np.array(mats, dtype=complex)


def json_to_profiles(obj) -> np.ndarray:
    """Decode a non-empty list of d matrices, each d x d, stacked."""
    _require(isinstance(obj, list) and len(obj) > 0, "profiles must be a non-empty JSON list of matrices")
    return _square_matrices(obj, len(obj), "profile")


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
    d = _size(obj["d"], "d")
    units = obj["units"]
    _require(isinstance(units, list), "units must be a list")
    _require(len(units) == d * d, f"units has {len(units)} entries, expected {d * d}")
    # bounded: every matrix was decoded through _as_array.
    return CpMap(_Fresh(_square_matrices(units, d, "unit").reshape(d, d, d, d), bounded=True))


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
    d = _size(obj["d"], "d")
    blocks = obj["blocks"]
    _require(isinstance(blocks, list) and len(blocks) == d, f"blocks must list {d} matrices")
    return CirculantSpec(_square_matrices(blocks, d, "block"))


def bell_spectrum_to_json(bs: BellSpectrum) -> dict:
    return {"d": int(bs.d), "p": bs.p.tolist()}


# Stands in for a rendered pair list; json.dumps writes it as "\u0000pairs".
# Any other string that writes it adds a piece, which canonical_pieces
# refuses rather than misplace a list.
_SLOT = "\x00pairs"

# Pairs per rendered piece: a streamed matrix is held as text one chunk at a time.
_CHUNK = 1 << 16


def _render_pairs(pairs: np.ndarray, level: int):
    """Yield what json.dumps(indent=2) writes for the (n, 2) pair array
    `level` containers deep, one chunk of pairs per piece.

    Each column of a chunk is rendered from its distinct values, found by
    np.unique on the int64 bit view so that -0.0 and 0.0 stay apart. Each
    distinct value gets one repr (json's float format), joined to the
    separator before it, and the chunk is a gather of those strings and one
    str.join. The columns are sorted apart: one sort of both would mix a
    nearly constant column, such as the zero imaginary parts of a real
    state, into the other, and np.unique's argsort slows on such runs of one
    value.
    """
    if not len(pairs):
        yield "[]"
        return
    outer, inner = "\n" + "  " * (level + 1), "\n" + "  " * (level + 2)
    head, mid, tail = outer + "[" + inner, "," + inner, outer + "]"
    between = tail + "," + head
    bits = pairs.view(np.int64)
    for lo in range(0, len(bits), _CHUNK):
        chunk = bits[lo:lo + _CHUNK]
        tokens = np.empty(chunk.shape, dtype=object)
        for col, before in enumerate((between, mid)):
            values, index = np.unique(chunk[:, col], return_inverse=True)
            reps = [before + repr(v) for v in values.view(float).tolist()]
            tokens[:, col] = np.array(reps, dtype=object)[index]
        if lo == 0:
            tokens[0, 0] = "[" + head + tokens[0, 0][len(between):]
        yield "".join(tokens.ravel().tolist())
    yield tail + "\n" + "  " * level + "]"


def canonical_pieces(obj):
    """canonical_dumps(obj) as an iterator of strings, to be written in turn.

    Every check runs before this returns, so a caller that writes the pieces
    as they come writes nothing for a document that fails them.
    """
    matrices = []

    def mark(node, level):  # in json's order: sorted keys, then list order
        if isinstance(node, _Pairs):
            _require(bool(np.isfinite(node.pairs).all()),
                     "result is not finite JSON: Out of range float values are not JSON compliant")
            matrices.append((node.pairs, level))
            return _SLOT
        if isinstance(node, dict):
            return {k: mark(node[k], level + 1) for k in sorted(node)}
        if isinstance(node, list):
            return [mark(v, level + 1) for v in node]
        return node

    skeleton = mark(obj, 0)
    try:
        skeleton = json.dumps(skeleton, indent=2, sort_keys=True, ensure_ascii=True, allow_nan=False)
    except ValueError as exc:
        raise SchemaError(f"result is not finite JSON: {exc}") from None
    pieces = skeleton.split(json.dumps(_SLOT))
    if len(pieces) != len(matrices) + 1:
        raise ValueError(f"a string in the document is written as the placeholder {json.dumps(_SLOT)}")
    return _stream(pieces, matrices)


def _stream(pieces: list[str], matrices: list):
    for piece, (pairs, level) in zip(pieces, matrices):
        yield piece
        yield from _render_pairs(pairs, level)
    yield pieces[-1] + "\n"


def canonical_dumps(obj) -> str:
    """Stable serialization: sorted keys, two-space indent, trailing newline.

    A NaN or infinite value is a SchemaError, never an invalid JSON token.
    """
    return "".join(canonical_pieces(obj))


def load_argument(text: str):
    """Parse a command-line value: inline JSON, or @path to read a file."""
    if text.startswith("@"):
        try:
            with open(text[1:], "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise SchemaError(f"cannot read {text[1:]}: {exc}") from None
    try:
        obj = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from None
    return obj
