"""Dense complex-matrix substrate for small multipartite operators.

Operators on a tensor product carry an ordered tuple of factor dimensions.
The leftmost tensor slot is the highest-numbered system, so a composite of
systems N, ..., 2, 1 is laid out as d_N x ... x d_2 x d_1 in row-major kron
order, and factor labels passed to :func:`partial_trace` and
:func:`partial_transpose` count 1-based from the right (rightmost slot is
system 1). Basis indices are 0-based everywhere.

Tolerance policy: every check in liftlab compares against one of the
constants below. Only is_psd, is_unital, is_stochastic, is_doubly_stochastic,
is_nondemolition, verify_transition_expectation and run_suite (--tol) take
a tolerance argument, defaulting to the same value.

  TOL         1e-9   relative: Hermiticity (to the largest entry) and the
                     lowest eigenvalue (to the spectral norm, floored at 1)
                     of states, circulant blocks and profiles, conditional
                     operators and separable-map images;
                     absolute: circulant trace sums, isometry vector norms,
                     the compound-state marginal and faithfulness floor, and
                     the CLI's Kraus self-check and doubly-stochastic flag
  TRACE_TOL   1e-8   absolute: a state's trace (10 * TOL)
  STRUCT_TOL  1e-10  absolute: CpMap Hermiticity preservation and
                     unitality, the BellSpectrum sum
  CPMAP_RTOL  1e-5   relative: CpMap Hermiticity preservation
  PROB_TOL    1e-12  absolute: negative probabilities, channel weights,
                     lifting-tensor, joint-channel and Markov entries, and
                     sums of these (scaled by the entry count, except in
                     is_unital and is_stochastic)

Sums (lifting tensors, joint channels, Markov conditionals,
is_unital/is_stochastic, is_nondemolition, CpMap unitality, the
compound-state marginal) are compared by _abs_close, |a - b| <= atol entry
by entry: the bound is the absolute one listed above and nothing more. On
finite arrays it gives np.allclose(a, b, rtol=0, atol=atol)'s verdict
without that wrapper's per-call set-up.

Copies and finiteness: FactoredOperator(m) copies m and checks that every
entry is finite, so no caller's array is ever aliased. Constructors in this
package that have just built a complex matrix no caller can write to hand it
over without the copy (the private _Fresh marker), and the check still runs,
except where the inputs bound the result: diagonal_operator checks its n
weights instead of the n^2 entries of the matrix it builds from them, and an
N-party chain whose links are bounded is not scanned (see qlift._chain). Below
MMAP_DIAGONAL_SIDE a diagonal matrix is np.zeros'; from that side up it lies
on a fresh anonymous mmap of which only the pages holding the diagonal are
written, so the zeros cost no memory.

Per-call cost: on the small matrices of the verify suites the checks cost
more in numpy's Python-level wrappers than in arithmetic, so they call
ufuncs and array methods (np.maximum.reduce, x.trace(),
np.isfinite(x).all(), np.maximum(x, 0.0) for np.clip(x, 0.0, None)) and
_kron for np.kron. Each gives the same bits as the call it replaces.
"""
from __future__ import annotations

import mmap
from dataclasses import dataclass, field
from math import prod
from operator import index
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatchError,
    EigensolverError,
    IndexOutOfRangeError,
    NotAStateError,
    NotHermitianError,
    NotPSDError,
    SchemaError,
)

# The tolerance policy; the table in the module docstring says what each bounds.
TOL = 1e-9
TRACE_TOL = 10 * TOL
STRUCT_TOL = 1e-10
CPMAP_RTOL = 1e-5
PROB_TOL = 1e-12
# Largest dense complex operator an N-party constructor may allocate: a
# 2^13-sided matrix (d=2, N=13) is exactly 1 GiB.
MAX_DENSE_BYTES = 1 << 30
# Side from which diagonal_operator writes its weights into untouched mmap
# pages instead of calling np.diag, which faults in and zeroes every page.
# Measured on a 2-core x86-64 VM, np.diag against mmap: side 1024 (16 MiB)
# 1.5 against 2.5 ms, 2048 (64 MiB) 13.4 against 6.0 ms, 4096 (256 MiB) 51.8
# against 13.5 ms.
MMAP_DIAGONAL_SIDE = 2048


def _as_matrix(m) -> np.ndarray:
    """Accept a raw array or anything carrying a .matrix attribute."""
    return np.asarray(getattr(m, "matrix", m), dtype=complex)


def _abs_close(a, b, atol: float) -> bool:
    """Every entry of a within atol of b (broadcast). For finite arrays this
    is np.allclose(a, b, rtol=0, atol=atol)."""
    return bool((np.abs(a - b) <= atol).all())


def _read_dims(dims) -> tuple[int, ...]:
    """Factor dimensions as a tuple of ints: each must be an integer (not a
    bool) by operator.index, so 2.7 or "2" is refused, not truncated."""
    try:
        dims = tuple(dims)
        if bool not in map(type, dims):
            return tuple(map(index, dims))
    except TypeError:
        pass
    raise DimensionMismatchError(f"factor dimensions must be integers, got {dims!r}")


class _Fresh(NamedTuple):
    """A complex matrix that a constructor in this package has just built
    and that no caller can write to: FactoredOperator takes it as it is,
    without a copy or a dtype conversion. ``finite`` says that its entries
    are already known to be finite."""

    array: np.ndarray
    finite: bool = False


@dataclass(frozen=True, eq=False)
class FactoredOperator:
    """Square complex matrix tagged with ordered tensor-factor dimensions.

    ``dims[0]`` is the leftmost (highest-numbered) factor; each must be an
    integer. The matrix is stored read-only; operations return new
    instances. The matrix passed in is copied, so later writes to it do not
    reach the operator, and every entry is checked to be finite
    (DimensionMismatchError otherwise).
    """

    matrix: np.ndarray
    dims: tuple[int, ...] = field(default=())

    def __post_init__(self):
        m = self.matrix
        if isinstance(m, _Fresh):  # a complex array
            m, finite = m
        else:
            m, finite = np.array(m, dtype=complex), False
        shape = m.shape
        dims = _read_dims(self.dims) if self.dims else shape[:1]
        if len(shape) != 2 or shape[0] != shape[1]:
            raise DimensionMismatchError(f"matrix must be square, got shape {shape}")
        if not finite and not np.isfinite(m).all():
            raise DimensionMismatchError("matrix entries must be finite")
        if min(dims) < 1:
            raise DimensionMismatchError(f"factor dimensions must be positive, got {dims}")
        if prod(dims) != shape[0]:
            raise DimensionMismatchError(
                f"product of dims {dims} is {prod(dims)}, matrix side is {shape[0]}"
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dims", dims)

    @property
    def n_factors(self) -> int:
        return len(self.dims)

    def trace(self) -> complex:
        return complex(self.matrix.trace())


def diagonal_operator(w, dims) -> FactoredOperator:
    """Diagonal operator on factors ``dims`` with the weights ``w`` on its
    diagonal, in row-major order (leftmost factor slowest).

    Finiteness is checked on the complex weights, so a weight that
    overflows on conversion fails too, and not on the dense matrix, which is
    built once and never copied. From MMAP_DIAGONAL_SIDE up the matrix lies
    on an anonymous mmap, where the pages off the diagonal are never written
    and stay unallocated.
    """
    w = np.asarray(w, dtype=complex).reshape(-1)
    dims = _read_dims(dims)
    if w.size != prod(dims):
        raise DimensionMismatchError(f"product of dims {dims} is {prod(dims)}, weight count is {w.size}")
    if not np.isfinite(w).all():
        raise DimensionMismatchError("matrix entries must be finite")
    n = w.size
    if n < MMAP_DIAGONAL_SIDE:
        m = np.zeros((n, n), dtype=complex)
    else:
        m = np.frombuffer(mmap.mmap(-1, n * n * w.itemsize), dtype=complex).reshape(n, n)
    m.reshape(-1)[:: n + 1] = w
    return FactoredOperator(_Fresh(m, finite=True), dims)


def unit_matrix(d: int, i: int, j: int) -> np.ndarray:
    """Matrix unit e_ij of size d x d."""
    if not (0 <= i < d and 0 <= j < d):
        raise IndexOutOfRangeError(f"unit indices ({i},{j}) outside range 0..{d - 1}")
    m = np.zeros((d, d), dtype=complex)
    m[i, j] = 1.0
    return m


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two matrices: the same one product a[i, j] * b[k, l] per
    entry, without np.kron's shape handling for arrays of any rank."""
    (p, q), (r, s) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(p * r, q * s)


def check_dense_size(dims) -> None:
    """Raise SchemaError when a dense complex operator on factors ``dims``
    would exceed MAX_DENSE_BYTES; call it before allocating."""
    side = prod(int(d) for d in dims)
    nbytes = side * side * np.dtype(complex).itemsize
    if nbytes > MAX_DENSE_BYTES:
        raise SchemaError(f"dense {side} x {side} operator needs {nbytes} bytes, limit is {MAX_DENSE_BYTES}")


def sandwich_right(x, r) -> np.ndarray:
    """(I x r) x (I x r) with the k x k matrix r on the rightmost slots of x.

    r multiplies each k-row block of x from the left (a batched product on
    the (side/k, k, side) reshape), then each k-column block from the right
    (one product on the (side^2/k, k) reshape): O(side^2 k) in all, and
    I x r is never formed.
    """
    x = np.asarray(x)
    r = np.asarray(r)
    side, k = x.shape[0], r.shape[0]
    if x.shape != (side, side) or r.shape != (k, k) or side % k:
        raise DimensionMismatchError(f"cannot sandwich shape {x.shape} with a {r.shape} right factor")
    left = np.matmul(r, x.reshape(side // k, k, side))
    return (left.reshape(-1, k) @ r).reshape(side, side)


def tensor(a: FactoredOperator, b: FactoredOperator) -> FactoredOperator:
    """Tensor product of factored operators; a supplies the left factors."""
    return FactoredOperator(_Fresh(_kron(a.matrix, b.matrix)), a.dims + b.dims)


def _positions(op: FactoredOperator, labels) -> list[int]:
    """Translate 1-based right-counted factor labels to axis positions."""
    n = op.n_factors
    out = []
    for k in labels:
        k = int(k)
        if not 1 <= k <= n:
            raise IndexOutOfRangeError(f"factor label {k} outside 1..{n}")
        out.append(n - k)
    if len(set(out)) != len(out):
        raise IndexOutOfRangeError(f"factor labels {tuple(labels)} repeat")
    return out


def partial_trace(op: FactoredOperator, keep) -> FactoredOperator:
    """Trace out every factor not listed in ``keep``.

    ``keep`` holds 1-based labels counted from the right; the kept factors
    retain their original left-to-right order.
    """
    keep_pos = set(_positions(op, keep))
    if not keep_pos:
        raise IndexOutOfRangeError("keep must name at least one factor")
    n = op.n_factors
    drop = sorted(set(range(n)) - keep_pos, reverse=True)
    t = op.matrix.reshape(*op.dims, *op.dims)
    m = n
    for pos in drop:
        t = t.trace(axis1=pos, axis2=pos + m)
        m -= 1
    kept_dims = tuple(d for i, d in enumerate(op.dims) if i in keep_pos)
    side = prod(kept_dims)
    return FactoredOperator(_Fresh(t.reshape(side, side)), kept_dims)


def trace_out(op: FactoredOperator, factors) -> FactoredOperator:
    """Complement of :func:`partial_trace`: trace out the listed factors."""
    drop_pos = set(_positions(op, factors))
    keep_labels = [op.n_factors - p for p in range(op.n_factors) if p not in drop_pos]
    return partial_trace(op, keep_labels)


def partial_transpose(op: FactoredOperator, factor: int) -> FactoredOperator:
    """Transpose a single factor (1-based label counted from the right)."""
    (pos,) = _positions(op, [factor])
    n = op.n_factors
    t = op.matrix.reshape(*op.dims, *op.dims)
    t = np.swapaxes(t, pos, pos + n)
    side = op.matrix.shape[0]
    # A permutation of op's entries, which are finite.
    return FactoredOperator(_Fresh(t.reshape(side, side), finite=True), op.dims)


def _spectral_scale(w: np.ndarray) -> np.ndarray:
    """Tolerance scale of each spectrum (last axis): spectral norm floored at 1."""
    return np.maximum.reduce(np.abs(w), axis=-1, initial=1.0)


def _check_hermitian(m: np.ndarray, tol: float = TOL) -> np.ndarray:
    """Hermitian part of each matrix of a (..., n, n) stack; raises for the
    first that is not, or DimensionMismatchError if any entry is not finite."""
    scale = np.maximum.reduce(np.abs(m), axis=(-2, -1), initial=1.0)  # NaN or inf where an entry is
    if not np.isfinite(scale).all():
        raise DimensionMismatchError("matrix entries must be finite")
    mh = m.swapaxes(-1, -2).conj()
    dev = np.maximum.reduce(np.abs(m - mh), axis=(-2, -1), initial=0.0)
    bad = dev > tol * scale
    if bad.any():
        k = int(np.argmax(bad))
        dev, scale = dev.flat[k], scale.flat[k]
        raise NotHermitianError(f"deviation from Hermiticity {dev:.3e} exceeds {tol:.1e} * {scale:.3e}")
    return 0.5 * (m + mh)


def _eig(solve, h: np.ndarray):
    """``solve(h)`` for an np.linalg Hermitian eigensolver, with its
    LinAlgError (no convergence) raised as EigensolverError."""
    try:
        return solve(h)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"Hermitian eigensolver failed: {exc}") from None


def _psd_stack(ms: np.ndarray, tol: float = TOL) -> tuple[np.ndarray, np.ndarray]:
    """:func:`is_psd` of every matrix in a (..., n, n) stack by one stacked
    eigensolve: (ok, min_eigenvalue) arrays of the stack's shape."""
    w = _eig(np.linalg.eigvalsh, _check_hermitian(ms, tol))
    lows = np.minimum.reduce(w, axis=-1, initial=np.inf)  # a 0 x 0 matrix passes
    return lows >= -tol * _spectral_scale(w), lows


def is_psd(m, tol: float = TOL) -> tuple[bool, float]:
    """Positivity test for a Hermitian matrix.

    Returns ``(ok, min_eigenvalue)`` where ok means the smallest eigenvalue
    is above ``-tol`` relative to the spectral-norm estimate. Raises
    :class:`NotHermitianError` on non-Hermitian input and
    :class:`DimensionMismatchError` on a non-finite entry.
    """
    ok, lo = _psd_stack(_as_matrix(m), tol)
    return bool(ok), float(lo)


def herm_sqrt(m) -> np.ndarray:
    """Principal square root of a PSD matrix via Hermitian eigendecomposition.

    Eigenvalues inside the negative tolerance band are clipped to zero;
    anything below it raises :class:`NotPSDError`.
    """
    h = _check_hermitian(_as_matrix(m))
    w, v = _eig(np.linalg.eigh, h)
    if w.size and w[0] < -TOL * _spectral_scale(w):  # eigh sorts ascending; a 0 x 0 matrix passes
        raise NotPSDError(f"matrix has eigenvalue {w[0]:.3e}, below PSD tolerance")
    w = np.maximum(w, 0.0)
    return (v * np.sqrt(w)) @ v.conj().T


def check_state(op) -> FactoredOperator:
    """Validate a density operator: Hermitian, PSD, unit trace.

    Accepts a FactoredOperator or raw matrix; returns a FactoredOperator.
    """
    fo = op if isinstance(op, FactoredOperator) else FactoredOperator(op)
    try:
        ok, lo = is_psd(fo.matrix)
    except NotHermitianError as exc:
        raise NotAStateError(f"state is not Hermitian: {exc}") from exc
    if not ok:
        raise NotAStateError(f"state has negative eigenvalue {lo:.3e}")
    tr = fo.trace()
    if abs(tr - 1.0) > TRACE_TOL:
        raise NotAStateError(f"state trace {tr} differs from 1")
    return fo
