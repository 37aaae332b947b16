"""Dense complex-matrix substrate for small multipartite operators.

Operators on a tensor product carry an ordered tuple of factor dimensions.
The leftmost tensor slot is the highest-numbered system, so a composite of
systems N, ..., 2, 1 is laid out as d_N x ... x d_2 x d_1 in row-major kron
order, and factor labels passed to :func:`partial_trace` and
:func:`partial_transpose` count 1-based from the right (rightmost slot is
system 1). Basis indices are 0-based everywhere.

Tolerance policy: every check in liftlab compares against one of the
constants below. Only is_unital, is_stochastic, is_doubly_stochastic and
run_suite (--tol) take a tolerance argument, defaulting to the same value.

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

The lowest-eigenvalue test, an eigenvalue of at least -TOL times the
spectral norm floored at 1, is written once, in _psd_verdicts: is_psd,
herm_sqrt and the gates' fallback read their verdicts there. The gates
(check_state, QcpOperator, a chain's unrooted outermost link,
channel_from_compound, CirculantSpec, the circulant profiles,
separable_n_state's images) read the eigenvalue only to word a failure,
so they first certify positivity by one Cholesky factorization of the
Hermitian part plus (TOL / 2) I, the shift added in place (_first_non_psd),
and run the eigensolve on the same Hermitian part, formed again, only when
that fails, for the verdict and the message. is_psd, herm_sqrt and
everything verify measures keep the eigensolve. No PSD test takes a
tolerance: TOL is read where it is used.

Inputs: numpy converts caller data only in _as_array, which holds library
arrays and the JSON decoders' lists to one number policy. A number is an
int or a float, or a complex where one is due, never a bool, a string or
another object, and it is finite with modulus at most _MAX_MODULUS (2**60),
for a complex number each of its parts: anything else is a SchemaError.
The count at _MAX_MODULUS shows that no product or sum the package forms
from such numbers leaves the float range, so no inf or NaN test follows the
readers and no overflow is silenced. Only the JSON writers skip the bound.
Each kind of input has one reader. _size reads sizes, indices and party
counts (operator.index, no bool, one lower bound; party counts at most
_MAX_FACTORS, which FactoredOperator also holds its dims to); _as_matrix
square matrices; _read_state a lift's input state (check_state, then its
side); qlift._read_square a map's d x d argument; qlift._qcp_matrix a chain
link (a QcpOperator is a checked link); classical._read_probabilities
probability data: no entry below -PROB_TOL, each sum within PROB_TOL per
entry of 1. Other sums go through _abs_close, np.allclose(rtol=0)'s verdict.

Copies and checks: one rule, _own, decides for FactoredOperator(m),
CpMap(units) and CirculantSpec(blocks) whether the array is copied and
whether it is checked, and sets it read-only. A caller's array is copied
through _as_array, so it is never aliased, and checked in full. Constructors
in this package that have just built a complex array no caller can write to
hand it over without the copy (the private _Fresh marker). Unmarked, it is
scanned for the bound and checked in full, so a result past the bound (a
tensor product of large operands, a compound product in
channel_from_compound) is a SchemaError. Marked checked=True, the receiving
type's invariants hold by construction, the bound included: FactoredOperator
keeps only its shape checks, CpMap skips its Hermiticity test and
CirculantSpec its PSD gate and trace sum. Each site that marks it, and why
that holds:
  diagonal_operator           the weights were read by _as_array
  qlift._chain                when every link's entries are at most d (see
                              there)
  ohya_lift                   a checked state's clipped eigenvalues, on unit
                              vectors
  partial_transpose, the      permutations of bounded entries, or a state's
  circulant assemblies        diagonal times unit-trace PSD profiles
  bell_state                  projector entries at most 1/d
  qcp_from_channel            a permutation of the units CpMap holds
  choi_matrix                 the images it read, divided by d
  cp_identity                 units 0 and 1
  classical_cpmap             real units on the diagonal pairs, the
                              conditional read by _as_matrix
  cp_from_kraus               scans its product with _bounded itself, as Kraus
                              products may pass the bound; the product is
                              Hermitian up to rounding
  sampling.circulant_spec     convex mixes of PSD matrices, scaled to traces
                              w_alpha, so entries at most 1
The JSON decoders read outside input and never mark it, so decoded data gets
every check (tests/test_source_rules.py holds jsonio.py and cli.py to that).
Below MMAP_DIAGONAL_SIDE a diagonal matrix is np.zeros'; from that side up
it lies on a fresh private anonymous mmap, opted out of transparent huge
pages, of which only the pages holding the diagonal are written, so the
zeros cost no memory and no page is shared memory.

Sizes: a size that cannot fit is a SchemaError before anything is
allocated. The allocators of outputs larger than their inputs guard
themselves: _zeros checks its shape at its dtype's entry size against
MAX_DENSE_BYTES, and _kron its product. Constructors guard by hand
(check_dense_size, _check_bytes) only to refuse before other work or another
kind of allocation: circulant_subspaces, shift_matrix, bell_state,
cp_identity, cp_from_kraus and choi_matrix (np.arange, np.eye, np.outer, a
product), circulant_lift_isometry and bell_diagonal_lift (their d^3 blocks),
diagonal_operator (its mmap branch), the N-party builds (n_lift,
markov_weights, separable_n_state, ohya_lift, qlift._chain) and the sampling
draws, which allocate through numpy's generator, not _zeros.

Per-call cost: on the small matrices of the verify suites the checks cost
more in numpy's Python-level wrappers than in arithmetic, so they call
ufuncs and array methods (np.maximum.reduce, x.trace(), np.maximum(x, 0.0)
for np.clip(x, 0.0, None)) and _kron for np.kron. Each gives the same bits
as the call it replaces.
"""
from __future__ import annotations

import mmap
from contextlib import suppress
from dataclasses import dataclass, field
from itertools import chain
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
# Largest dense array that any constructor may allocate, when its output
# outgrows its input (_zeros, _kron, check_dense_size): a 2^13-sided complex
# matrix (d=2, N=13) is exactly 1 GiB.
MAX_DENSE_BYTES = 1 << 30
# Most tensor factors an operator or an N-party build may have, checked
# before any per-party list or dims tuple is built. partial_trace and
# partial_transpose view a matrix as 2n axes, within numpy 1.x's 32; factors
# of side 2 or more pass MAX_DENSE_BYTES at 14, so this bound refuses only
# operators with many 1-dimensional factors.
_MAX_FACTORS = 16
# Side from which diagonal_operator writes its weights into untouched pages
# of a private anonymous map, opted out of transparent huge pages, instead of
# into np.zeros, which faults in and zeroes every page. Measured on a 2-core
# x86-64 VM, median of 15 builds of each, np.zeros against the map: side 1024
# (16 MiB) 0.9-1.5 against 1.5-2.1 ms, 2048 (64 MiB) 9.8-13.9 against 3.8-5.0
# ms, 4096 (256 MiB) 46-53 against 7.8-10.5 ms.
MMAP_DIAGONAL_SIDE = 2048
# Largest modulus of a number that _as_array accepts: of a real number, or of
# each part of a complex one, whose modulus is then at most 2^60.5. The
# longest product of bounded entries that a public callable forms has 16
# Kronecker factors (separable_n_state at _MAX_FACTORS), and a sum has at most
# 2^30 terms (MAX_DENSE_BYTES): 16 x 60.5 + 30 = 998 bits, below the float
# range's 1024. An N-party chain stays inside it too: its at most 15 links (12
# once d >= 2, as d^N <= 2^13) each multiply the composite's norm by at most
# d^2 2^60.5 (qlift._chain), under 2^934 in all.
_MAX_MODULUS = 2.0**60
_PAST_BOUND = "{} must hold finite numbers of modulus at most 2**60"
# herm_sqrt's refusal, which qlift's chains also give an outermost link.
_NOT_PSD = "matrix has eigenvalue {:.3e}, below PSD tolerance"
# Types that np.array reads as numbers but that are not numbers here.
_BOOLS = frozenset((bool, np.bool_))


def _size(n, name: str, low: float = 0, high: float = np.inf) -> int:
    """n by operator.index, a bool refused, at least low (-np.inf for an index range-checked after)
    and at most high (_MAX_FACTORS for a party count)."""
    try:
        k = None if isinstance(n, bool) else index(n)
    except TypeError:
        k = None
    if k is None:
        raise DimensionMismatchError(f"{name} must be an integer")
    if not low <= k <= high:
        bound = f"at least {low}" if k < low else f"at most {high}"
        got = f", got {k}" if k.bit_length() <= 64 else ""  # str() refuses ints of over 4300 digits
        raise DimensionMismatchError(f"{name} must be {bound}{got}")
    return k


def _as_array(x, what: str, dtype=float, copy: bool = False, bad: str | None = None, bound: bool = True) -> np.ndarray:
    """x as an array of dtype (None: the dtype numpy reads), a new one if copy, by the number
    policy: a complex x where dtype is float, a ragged x or one holding a non-number (the
    SchemaError ``bad``) and, unless bound is False (the JSON writers, whose results may be
    past it), an entry past _MAX_MODULUS (_bounded) are SchemaErrors."""
    bad = bad or f"{what} must be a rectangular array of numbers"
    try:
        a = np.asarray(x)
    except ValueError:  # ragged
        raise SchemaError(bad) from None
    kind = a.dtype.kind
    if kind == "O":  # how numpy reads a Python int past 64 bits, or a non-number
        numbers = (int, float, complex) if dtype is complex else (int, float)
        if not all(type(v) in numbers for v in a.flat):
            raise SchemaError(bad)
        try:
            a = a.astype(dtype or float)
        except OverflowError:
            raise SchemaError(_PAST_BOUND.format(what)) from None
    elif kind not in "iufc" or isinstance(x, (list, tuple)) and _holds_bool(x, a.ndim):
        raise SchemaError(bad)
    if kind == "c" and dtype is float:
        raise SchemaError(f"{what} must be real, got a complex array")
    a = np.array(a, dtype) if copy else np.asarray(a, dtype)
    return _bounded(a, what) if bound else a


def _holds_bool(x, depth: int) -> bool:
    """Whether the nested lists x, np.asarray(x).ndim == depth deep, hold a bool (which numpy
    reads as 1 or 0) among their entries: one pass over the entries' types. Where x starts with
    an array, as a list of Kraus operators does, the arrays in x are judged by their dtype
    instead of entry by entry."""
    if x and isinstance(x[0], np.ndarray):
        if any(isinstance(e, np.ndarray) and e.dtype.kind == "b" for e in x):
            return True
        x = [e for e in x if not isinstance(e, np.ndarray)]
    entries = x
    for _ in range(depth - 1):
        entries = chain.from_iterable(entries)
    return not _BOOLS.isdisjoint(map(type, entries))


def _bounded(a: np.ndarray, what: str = "matrix") -> np.ndarray:
    """a, once every entry, or a complex entry's real and imaginary parts, is found finite and at
    most _MAX_MODULUS in modulus (SchemaError). The numbers are reduced where they lie, with no
    temporary: a complex array through the float view of its axes in memory order (a transposed
    copy is one dense block), or as .real and .imag where no axis is dense."""
    parts = (a,)
    if a.dtype.kind == "c":
        m = a
        if a.ndim and a.strides[-1] != a.itemsize:
            m = a.transpose(sorted(range(a.ndim), key=a.strides.__getitem__, reverse=True))
        parts = (m.view(a.real.dtype),) if m.ndim and m.strides[-1] == m.itemsize else (a.real, a.imag)
    for v in parts:  # NaN fails both comparisons
        if not (-_MAX_MODULUS <= np.minimum.reduce(v, None, initial=0.0)
                and np.maximum.reduce(v, None, initial=0.0) <= _MAX_MODULUS):
            raise SchemaError(_PAST_BOUND.format(what))
    return a


def _as_matrix(m, what: str = "matrix", dtype=complex) -> np.ndarray:
    """_as_array of m, or of its .matrix, required to be square."""
    a = _as_array(getattr(m, "matrix", m), what, dtype)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"{what} must be square, got shape {a.shape}")
    return a


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
    """A complex array that a constructor in this package has just built
    and that no caller can write to: _own takes it as it is, without a copy
    or a dtype conversion. ``checked`` says that the receiving type's
    invariants hold by construction, the 2**60 bound included (the module
    docstring lists each site that sets it and why)."""

    array: np.ndarray
    checked: bool = False


def _own(x, what: str) -> tuple[np.ndarray, bool]:
    """(array, checked) for the read-only complex array that FactoredOperator, CpMap and
    CirculantSpec keep for x: a _Fresh array as it is, scanned by _bounded unless it is
    checked, and anything else copied through _as_array, so no caller's array is aliased.
    The receiving type runs its own checks unless checked is True."""
    if isinstance(x, _Fresh):
        a = x.array if x.checked else _bounded(x.array, what)
    else:
        a = _as_array(x, what, complex, copy=True)
    a.setflags(write=False)
    return a, isinstance(x, _Fresh) and x.checked


@dataclass(frozen=True, eq=False)
class FactoredOperator:
    """Square complex matrix tagged with ordered tensor-factor dimensions.

    ``dims[0]`` is the leftmost (highest-numbered) factor; each must be an
    integer. The matrix is stored read-only; operations return new
    instances. The matrix passed in is read by _as_array and copied, so later
    writes to it do not reach the operator, and every entry's real and
    imaginary parts are finite and at most 2**60 in modulus (SchemaError
    otherwise).
    """

    matrix: np.ndarray
    dims: tuple[int, ...] = field(default=())

    def __post_init__(self):
        m, _ = _own(self.matrix, "matrix")
        shape = m.shape
        dims = _read_dims(self.dims) if not isinstance(self.dims, tuple) or self.dims else shape[:1]
        if len(shape) != 2 or shape[0] != shape[1]:
            raise DimensionMismatchError(f"matrix must be square, got shape {shape}")
        if min(dims, default=0) < 1:
            raise DimensionMismatchError(f"factor dimensions must be positive, got {dims}")
        if len(dims) > _MAX_FACTORS:
            raise DimensionMismatchError(f"an operator has at most {_MAX_FACTORS} tensor factors, got {len(dims)}")
        if prod(dims) != shape[0]:
            raise DimensionMismatchError(f"product of dims {dims} is {prod(dims)}, matrix side is {shape[0]}")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dims", dims)

    @property
    def n_factors(self) -> int:
        return len(self.dims)

    def trace(self) -> complex:
        return complex(self.matrix.trace())


def _anonymous_pages(size: int) -> mmap.mmap:
    """Zeroed memory of ``size`` bytes of which a page is resident only once
    written: a private anonymous map (a shared one would put every page in
    shmem, slower to fault in and to free), opted out of transparent huge
    pages, which would make a whole 2 MiB around each written entry resident.
    Where mmap has no MAP_PRIVATE (Windows), anonymous maps are private
    already.
    """
    if not hasattr(mmap, "MAP_PRIVATE"):
        return mmap.mmap(-1, size)
    pages = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        with suppress(OSError):  # EINVAL from a kernel built without huge pages
            pages.madvise(mmap.MADV_NOHUGEPAGE)
    return pages


def diagonal_operator(w, dims) -> FactoredOperator:
    """Diagonal operator on factors ``dims`` with the weights ``w`` on its
    diagonal, in row-major order (leftmost factor slowest).

    The weights are read by _as_array, and the dense matrix, which is built
    once and never copied, is not scanned. From MMAP_DIAGONAL_SIDE up the
    matrix lies on a private anonymous mmap, where the pages off the
    diagonal are never written and stay unallocated.
    """
    w = _as_array(w, "weights", complex).reshape(-1)
    dims = _read_dims(dims)
    if w.size != prod(dims):
        raise DimensionMismatchError(f"product of dims {dims} is {prod(dims)}, weight count is {w.size}")
    n = w.size
    check_dense_size((n,))
    if n < MMAP_DIAGONAL_SIDE:
        m = np.zeros((n, n), dtype=complex)
    else:
        m = np.frombuffer(_anonymous_pages(n * n * w.itemsize), dtype=complex).reshape(n, n)
    m.reshape(-1)[:: n + 1] = w
    return FactoredOperator(_Fresh(m, checked=True), dims)


def unit_matrix(d: int, i: int, j: int) -> np.ndarray:
    """Matrix unit e_ij of size d x d."""
    d, i, j = _size(d, "d"), _size(i, "i", -np.inf), _size(j, "j", -np.inf)
    if not (0 <= i < d and 0 <= j < d):
        raise IndexOutOfRangeError(f"unit indices ({i},{j}) outside range 0..{d - 1}")
    m = _zeros((d, d), "operator", complex)
    m[i, j] = 1.0
    return m


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two matrices: the same one product a[i, j] * b[k, l] per
    entry, without np.kron's shape handling for arrays of any rank. A product
    past MAX_DENSE_BYTES, at 16 bytes an entry, is a SchemaError before it is
    formed."""
    (p, q), (r, s) = a.shape, b.shape
    _check_bytes((p * r, q * s), "operator")
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(p * r, q * s)


def _check_bytes(shape, what: str, item: int = 16) -> None:
    """Raise SchemaError when a dense array of ``shape`` (sizes of at least
    0), item bytes an entry, would exceed MAX_DENSE_BYTES. _zeros and _kron
    call it before they allocate, and constructors call it by hand only
    where they must refuse before other work. Sizes past 2^64 go unnamed, as
    _size leaves them."""
    n = prod(shape) * item
    if n > MAX_DENSE_BYTES:
        named = max(shape) <= 1 << 64  # str() refuses ints of over 4300 digits
        size = f"{' x '.join(map(str, shape))} {what} needs {n} bytes" if named else f"{what} of side over 2^64"
        raise SchemaError(f"dense {size}, limit is {MAX_DENSE_BYTES}")


def _zeros(shape, what: str, dtype=float) -> np.ndarray:
    """np.zeros(shape, dtype), refused by _check_bytes at dtype's entry size first."""
    _check_bytes(shape, what, np.dtype(dtype).itemsize)
    return np.zeros(shape, dtype)


def check_dense_size(dims) -> None:
    """Raise SchemaError when a dense complex operator on factors ``dims``
    would exceed MAX_DENSE_BYTES; call it before allocating.

    The side is multiplied out factor by factor, and a partial product past
    2^64 is held just above it, so no integer grows with the number of
    factors (a zero factor still gives side 0).
    """
    side = 1
    for d in dims:
        side = min(side, (1 << 64) + 1) * int(d)
    _check_bytes((side, side), "operator")


def _sandwich_right(x: np.ndarray, r: np.ndarray) -> np.ndarray:
    """(I x r) x (I x r) with the k x k matrix r on the rightmost slots of x,
    for arrays the caller has read.

    r multiplies each k-row block of x from the left (a batched product on
    the (side/k, k, side) reshape), then each k-column block from the right
    (one product on the (side^2/k, k) reshape): O(side^2 k) in all, and
    I x r is never formed.
    """
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
        k = _size(k, "factor label", -np.inf)
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
    # checked: a permutation of op's entries, which are bounded.
    return FactoredOperator(_Fresh(t.reshape(side, side), checked=True), op.dims)


def _check_hermitian(m: np.ndarray) -> np.ndarray:
    """Hermitian part 0.5 * (m + m^dagger), rounded once, of each matrix of a
    (..., n, n) stack; raises for the first that is not Hermitian to TOL
    times its largest entry, floored at 1."""
    scale = np.maximum.reduce(np.abs(m), axis=(-2, -1), initial=1.0)
    mh = m.swapaxes(-1, -2).conj()
    dev = np.maximum.reduce(np.abs(m - mh), axis=(-2, -1), initial=0.0)
    bad = dev > TOL * scale
    if bad.any():
        k = int(np.argmax(bad))
        raise NotHermitianError(f"deviation from Hermiticity {dev.flat[k]:.3e} exceeds {TOL:.1e} * {scale.flat[k]:.3e}")
    return 0.5 * (m + mh)


def _eig(solve, h: np.ndarray):
    """``solve(h)`` for an np.linalg Hermitian eigensolver, with its
    LinAlgError (no convergence) raised as EigensolverError."""
    try:
        return solve(h)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"Hermitian eigensolver failed: {exc}") from None


def _hermitian_spectra(ms: np.ndarray) -> np.ndarray:
    """Eigenvalues, ascending, of the Hermitian part of each matrix in a
    (..., n, n) stack, from one stacked eigensolve: a (..., n) array."""
    return _eig(np.linalg.eigvalsh, _check_hermitian(ms))


def _psd_verdicts(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`is_psd` of every matrix in a Hermitian (..., n, n) stack, read
    from its (..., n) eigenvalues ``w``: (ok, min_eigenvalue) arrays of the
    stack's shape. ok is the lowest eigenvalue at least -TOL times the
    spectral norm floored at 1: the one place that threshold is written."""
    lows = np.minimum.reduce(w, axis=-1, initial=np.inf)  # a 0 x 0 matrix passes
    return lows >= -TOL * np.maximum.reduce(np.abs(w), axis=-1, initial=1.0), lows


def _psd_stack(ms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_psd_verdicts` of the Hermitian part of each matrix in ms."""
    return _psd_verdicts(_hermitian_spectra(ms))


def _cholesky_certifies(h: np.ndarray) -> bool:
    """True when one Cholesky factorization of h + (TOL / 2) I, for the
    finite Hermitian (..., n, n) stack h, succeeds with a finite factor.

    The shift is added to h's diagonal in place, through a reshaped view:
    h must be C-contiguous, and is the caller's to give up. Then every
    lowest eigenvalue is above -TOL / 2 up to rounding far below that, so
    every matrix passes :func:`is_psd`.
    False says only that the factorization failed. An empty stack or a
    0 x 0 matrix passes.
    """
    n = h.shape[-1]
    h.reshape(*h.shape[:-2], n * n)[..., :: n + 1] += TOL / 2  # the diagonal, as a strided view
    try:
        return bool(np.isfinite(np.linalg.cholesky(h)).all())
    except np.linalg.LinAlgError:
        return False


def _first_non_psd(ms: np.ndarray) -> tuple[int, float] | None:
    """Flat index of the first matrix of a (..., n, n) stack that
    :func:`is_psd` refuses, with its lowest eigenvalue; None when every
    matrix passes. For gates that read the eigenvalue only to word a
    failure: when :func:`_cholesky_certifies` the Hermitian part no
    eigensolve runs, and otherwise :func:`_psd_stack`, which forms the
    Hermitian part again since the certificate shifted its diagonal,
    decides."""
    if _cholesky_certifies(_check_hermitian(ms)):
        return None
    ok, lows = _psd_stack(ms)
    if ok.all():
        return None
    k = int(np.argmin(ok))
    return k, np.ravel(lows)[k]


def is_psd(m) -> tuple[bool, float]:
    """Positivity test for a Hermitian matrix.

    Returns ``(ok, min_eigenvalue)`` where ok means the smallest eigenvalue
    is at least -TOL times the spectral norm floored at 1 (_psd_verdicts).
    Raises :class:`NotHermitianError` on non-Hermitian input and
    :class:`SchemaError` on an entry past the number policy (_as_array).
    """
    ok, lo = _psd_stack(_as_matrix(m))
    return bool(ok), float(lo)


def herm_sqrt(m) -> np.ndarray:
    """Principal square root of a PSD matrix via Hermitian eigendecomposition.

    Eigenvalues inside the negative tolerance band are clipped to zero;
    anything below it raises :class:`NotPSDError`.
    """
    h = _check_hermitian(_as_matrix(m))
    w, v = _eig(np.linalg.eigh, h)
    ok, low = _psd_verdicts(w)
    if not ok:
        raise NotPSDError(_NOT_PSD.format(low))
    w = np.maximum(w, 0.0)
    return (v * np.sqrt(w)) @ v.conj().T


def check_state(op) -> FactoredOperator:
    """Validate a density operator: Hermitian, PSD, unit trace.

    Accepts a FactoredOperator or raw matrix; returns a FactoredOperator.
    """
    fo = op if isinstance(op, FactoredOperator) else FactoredOperator(op)
    try:
        bad = _first_non_psd(fo.matrix)
    except NotHermitianError as exc:
        raise NotAStateError(f"state is not Hermitian: {exc}") from exc
    if bad:
        raise NotAStateError(f"state has negative eigenvalue {bad[1]:.3e}")
    tr = fo.trace()
    if abs(tr - 1.0) > TRACE_TOL:
        raise NotAStateError(f"state trace {tr} differs from 1")
    return fo


def _read_state(rho, d: int, what: str) -> np.ndarray:
    """The matrix of :func:`check_state` (rho), required to have side d, the size of ``what``."""
    m = check_state(rho).matrix
    if m.shape[0] != d:
        raise DimensionMismatchError(f"state side {m.shape[0]} != {what} {d}")
    return m
