"""Quantum liftings through conditional-probability operators.

A unital CP map Lambda on M_d defines the operator pi = sum_ij e_ij x
Lambda(e_ij) on two d-dimensional factors. pi is PSD exactly when Lambda is
CP, and tracing out the first (leftmost) slot gives the identity when Lambda
is unital. Sandwiching, E(rho) = (I x sqrt(rho)) pi (I x sqrt(rho)), lifts a
state to a joint state whose first-slot partial trace is rho and whose
second-slot partial trace is the transpose of the adjoint channel applied to
rho. Chaining sandwiched copies of pi yields N-party liftings that reduce to
Markov chains on diagonal data.

Every sandwich acts only on the slots it names: a stage of an N-party chain
applies sqrt(pi) (d^2 x d^2) on both sides of the rightmost two slots as one
batched product with a kernel of d^6 entries, d^2 multiply-adds per entry of
the output, and neither I x sqrt(pi) nor cur x I_d is formed. Between stages
the composite stays in the order the next stage reads (pairs order), so only
the outermost link is ever regrouped; the last stage writes the matrix in
its own order. Up to _REAL_CHAIN_MAX_D every stage is a real product on
float views, which OpenBLAS runs faster than the complex one at those sizes.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotCompatibleError,
    NotCPError,
    NotFaithfulError,
    NotHermitianError,
    NotPSDError,
    NotUnitalError,
)
from .matcore import (
    _MAX_FACTORS,
    _NOT_PSD,
    CPMAP_RTOL,
    STRUCT_TOL,
    TOL,
    FactoredOperator,
    _abs_close,
    _as_array,
    _as_matrix,
    _bounded,
    _check_hermitian,
    _eig,
    _first_non_psd,
    _Fresh,
    _kron,
    _own,
    _read_state,
    _sandwich_right,
    _size,
    _zeros,
    check_dense_size,
    check_state,
    herm_sqrt,
    partial_trace,
)


# Largest factor size d whose chain stages run as real products (_chain).
# Measured on a 2-core x86-64 VM with one OpenBLAS thread: warm n_compose_qcp
# medians in ms, real against complex, the range over two runs of three
# interleaved rounds each: d=2, N=10 4.4-4.5 against 6.9-7.9; d=4, N=3
# 0.16-0.29 against 0.16-0.30, N=4 0.40-0.71 against 0.54-0.98 and N=5
# 3.9-5.6 against 6.7-8.7; d=5, N=3 0.45-0.76 against 0.46-0.49 and N=4
# 2.8-3.3 against 3.9-4.8; d=6, N=3 1.6-1.7 against 1.6 and N=4 14.8-15.0
# against 15.5-16.6; d=8, N=3 12.6-15.9 against 9.0-10.7; d=10, N=3 87
# against 48-50. A fresh process's first chain at d=5, N=3 took 1.8 against
# 1.2 (medians of 7 processes). So real wins up to d=4, and at d=5 and 6
# only from N=4 on; complex wins from d=8. No benchmark kind has d >= 5, so
# the limit stays at 4 until one measures that side.
_REAL_CHAIN_MAX_D = 4
# A column of 1 and i: the two rows s of a real chain kernel (_link_kernel).
_ONE_I = np.array([[1], [1j]])


def _read_square(x, d: int, what: str) -> np.ndarray:
    """_as_matrix of x, required to be d x d."""
    m = _as_matrix(x, what)
    if m.shape != (d, d):
        raise DimensionMismatchError(f"{what} shape {m.shape}, expected {(d, d)}")
    return m


@dataclass(frozen=True, eq=False)
class CpMap:
    """Linear map on M_d stored by its images on matrix units.

    units[i, j] holds the image of e_ij; Hermiticity preservation
    (units[i, j]^dagger == units[j, i]) is enforced at construction unless
    the package built the array checked (cp_identity, cp_from_kraus,
    classical_cpmap). The units passed in are copied, as FactoredOperator
    copies its matrix, and stored read-only.
    """

    units: np.ndarray

    def __post_init__(self):
        u, checked = _own(self.units, "units")
        if u.ndim != 4 or len(set(u.shape)) != 1:
            raise DimensionMismatchError(f"units must have shape (d, d, d, d), got {u.shape}")
        # np.allclose(units[i, j]^dagger, units[j, i]) for every i <= j: np.isclose's
        # test, which on bounded entries is |a - b| <= atol + rtol |b|. It runs in
        # (j, i, k, l) order, where b = units[j, i] is u itself; a is one C-order
        # copy (np.array always copies: at d = 1 the transpose is u's own layout).
        if not checked:
            a = np.array(u.transpose(1, 0, 3, 2), order="C")
            np.conjugate(a, out=a)
            np.subtract(a, u, out=a)
            gap = np.abs(a)
            del a
            bad = np.argwhere(np.triu((gap > STRUCT_TOL + CPMAP_RTOL * np.abs(u)).any(axis=(2, 3)).T))
            if bad.size:
                i, j = bad[0]
                raise NotHermitianError(f"units[{i},{j}]^dagger differs from units[{j},{i}]")
        object.__setattr__(self, "units", u)

    @property
    def d(self) -> int:
        return self.units.shape[0]

    @property
    def unital(self) -> bool:
        total = self.units[np.arange(self.d), np.arange(self.d)].sum(axis=0)
        return _abs_close(total, np.eye(self.d), STRUCT_TOL)

    def apply(self, x) -> np.ndarray:
        """Evaluate Lambda(x) by linearity over matrix units."""
        return np.einsum("ij,ijkl->kl", _read_square(x, self.d, "input"), self.units)

    def adjoint_apply(self, rho) -> np.ndarray:
        """Adjoint under the bilinear pairing Tr(Lambda(a) rho) = Tr(a Lambda#(rho))."""
        return np.einsum("ijkl,lk->ji", self.units, _read_square(rho, self.d, "input"))


def cp_identity(d: int) -> CpMap:
    d = _size(d, "d")
    check_dense_size((d, d))
    # checked: the units are 0 and 1, units[i, j] = e_ij.
    return CpMap(_Fresh(np.eye(d * d, dtype=complex).reshape(d, d, d, d), checked=True))


def cp_from_kraus(ops) -> CpMap:
    """CP map Lambda(x) = sum_m K_m x K_m^dagger from Kraus operators."""
    ks = _as_array(list(ops), "Kraus operator", complex)
    if ks.ndim != 3 or ks.shape[1] != ks.shape[2]:
        raise DimensionMismatchError("Kraus operators must be square matrices of one common size")
    n, d = ks.shape[:2]
    check_dense_size((d, d))
    m = ks.reshape(n, d * d)  # row k holds K_k flattened over (a, i)
    # units[i, j] = sum_k K_k e_ij K_k^dagger, entrywise sum_k K_k[a, i] conj(K_k[b, j]):
    # one product indexed ((a, i), (b, j)). An image past the bound is the units'
    # bound error, raised here. checked: the product is Hermitian, so units[j, i] is
    # units[i, j]^dagger up to rounding.
    units = (m.T @ m.conj()).reshape(d, d, d, d).transpose(1, 3, 0, 2)
    return CpMap(_Fresh(_bounded(units, "units"), checked=True))


def classical_cpmap(conditional) -> CpMap:
    """Diagonal CP map Lambda(e_aa) = sum_i p(a|i) e_ii, zero off the diagonal.

    conditional[a, i] = p(a|i) with unit column sums makes the map unital;
    its conditional-probability operator is the diagonal matrix of a
    classical Markov step.
    """
    c = _as_matrix(conditional, "conditional", float)
    d = c.shape[0]
    a, i = np.arange(d)[:, None], np.arange(d)[None, :]
    units = _zeros((d * d, d * d), "operator", complex).reshape(d, d, d, d)
    units[a, a, i, i] = c
    # checked: c was read by _as_matrix, and each nonzero unit is a real diagonal.
    return CpMap(_Fresh(units, checked=True))


def _link_side(op) -> int:
    """d of a FactoredOperator link, required to have dims (d, d)."""
    if not isinstance(op, FactoredOperator) or op.n_factors != 2 or op.dims[0] != op.dims[1]:
        raise DimensionMismatchError(f"conditional operator needs dims (d, d), got {getattr(op, 'dims', None)}")
    return op.dims[0]


@dataclass(frozen=True, eq=False)
class QcpOperator:
    """Conditional-probability operator pi = sum_ij e_ij x Lambda(e_ij)
    together with its source map.

    The operator is checked at construction, the one gate of a conditional
    operator: a FactoredOperator with dims (d, d) (DimensionMismatchError)
    that is PSD (NotCPError, by _first_non_psd). A chain trusts it from then
    on. The source map is kept as given and never read.
    """

    op: FactoredOperator
    source: CpMap

    def __post_init__(self):
        _link_side(self.op)
        bad = _first_non_psd(self.op.matrix)
        if bad:
            raise NotCPError(f"conditional operator has eigenvalue {bad[1]:.3e}; map is not CP")

    @property
    def d(self) -> int:
        return self.op.dims[0]

    @property
    def matrix(self) -> np.ndarray:
        return self.op.matrix


def qcp_from_channel(cp: CpMap) -> QcpOperator:
    """Build pi from a unital CP map and validate both properties.

    Raises NotUnitalError when the unit-sum of images differs from the
    identity, and then QcpOperator's NotCPError when pi fails positive
    semidefiniteness.
    """
    d = cp.d
    if not cp.unital:
        raise NotUnitalError("sum of diagonal-unit images differs from the identity")
    pi = cp.units.transpose(0, 2, 1, 3).reshape(d * d, d * d)
    # checked: pi is a permutation of the units, which CpMap holds to the bound.
    return QcpOperator(FactoredOperator(_Fresh(pi, checked=True), (d, d)), cp)


def _qcp_matrix(pi) -> tuple[np.ndarray, int]:
    """A link's d^2 x d^2 matrix and d; a QcpOperator, checked when it was
    built, is read as its operator."""
    if isinstance(pi, QcpOperator):
        return pi.matrix, pi.d
    if isinstance(pi, FactoredOperator):
        return pi.matrix, _link_side(pi)
    m = _as_array(pi, "conditional operator", complex)
    d = int(round(m.shape[0] ** 0.5)) if m.ndim == 2 else 0
    if d == 0 or m.shape != (d * d, d * d):
        raise DimensionMismatchError(f"conditional operator must be d^2 x d^2, got shape {m.shape}")
    return m, d


def nonlinear_lift(pi, rho) -> FactoredOperator:
    """Sandwich lifting E(rho) = (I x sqrt(rho)) pi (I x sqrt(rho)): the
    one-link chain :func:`n_nonlinear_lift` with parties = 2.

    Tracing out the first (leftmost) slot returns rho exactly; tracing out
    the second slot returns the transposed adjoint channel of rho.
    """
    return n_nonlinear_lift(pi, rho, 2)


def ohya_lift(rho, parties: int = 2) -> FactoredOperator:
    """Copy lifting sum_k p_k E_k x ... x E_k from the spectral decomposition.

    Eigenprojectors come from the Hermitian eigensolver, so the choice of
    basis inside degenerate eigenspaces follows that solver. Every
    single-party marginal equals rho regardless of the choice.
    """
    parties = _size(parties, "parties", 2, _MAX_FACTORS)
    state = check_state(rho)
    d = state.matrix.shape[0]
    check_dense_size((d,) * parties)
    w, v = _eig(np.linalg.eigh, state.matrix)
    w = np.maximum(w, 0.0)
    # Column k of copies is the parties-fold Kronecker power of eigenvector k.
    copies = v
    for _ in range(parties - 1):
        copies = (copies[:, None, :] * v[None, :, :]).reshape(-1, d)
    # checked: the weights are clipped eigenvalues of a checked state, in
    # [0, 1] up to the trace and PSD tolerances, and the columns are unit
    # vectors, so every entry is at most about 1 in modulus.
    return FactoredOperator(_Fresh((copies * w) @ copies.conj().T, checked=True), (d,) * parties)


def _link_kernel(l: np.ndarray, d: int, last: bool, real: bool) -> np.ndarray:
    """Kernel of the chain stage x -> (I x L) (x (x) I_d) (I x L)^dagger for a
    d^2 x d^2 matrix L: K = sum_z L[(b,c),(x,z)] conj(L[(b',c'),(y,z)]), as
    the (d^2, d^2, d^2) array K[(b,c),(x,y),(b',c')] for the last stage and
    the (d, d^2, d^3) array K[b,(x,y),(b',c,c')] for the others.

    With real, each (m, n) slice is instead the float (2m, 2n) matrix whose
    entries are the 2 x 2 blocks [[Re K, Im K], [-Im K, Re K]]: it maps the
    float view of a complex row to the float view of the row's product with
    the slice. That matrix is the float view of K and i K interleaved by row
    (an axis s after (x, y)), so it comes from one product, of the rows of L
    taken as they are and times i (s) against their conjugates.
    """
    rows = l.reshape(d**3, d)  # ((b, c, x), z)
    e = 2 if real else 1
    left = (rows[:, None] * _ONE_I).reshape(-1, d) if real else rows
    k = (left @ rows.conj().T).reshape(d, d, d, e, d, d, d)  # (b, c, x, s, b', c', y)
    if last:
        k = k.transpose(0, 1, 2, 6, 3, 4, 5).reshape(d * d, e * d * d, d * d)
    else:
        k = k.transpose(0, 2, 6, 3, 4, 1, 5).reshape(d, e * d * d, d**3)
    return k.view(float) if real else k


def _read_links(pis: list, rho):
    """Read a chain's inputs, each once: the links pis (conditional
    operators, innermost first) and the state rho, or None.

    Returns (links, dims, root, bounded, roots). links maps the id of each
    distinct link object to its decoded d^2 x d^2 matrix, a caller's array
    when it came in as one; dims is the composite's factor shape (d,) * N
    for N = len(pis) + 1; root is sqrt(rho), or None; bounded says that
    every link's entries are at most d in modulus; roots maps the id of each
    distinct link in pis[:-1] to its root. pis[-1] is rooted only when it
    also appears there: a chain never reads its root, and rooting it would
    add a d^2-sided eigensolve to every two-party lift.

    Each distinct link is checked PSD once: a QcpOperator when it was built,
    a link in pis[:-1] by herm_sqrt as it is rooted, and an unrooted pis[-1]
    by _first_non_psd, with herm_sqrt's NotHermitianError or NotPSDError.
    rho is checked as a state, then for its side, then rooted. Errors come
    in the order decoding, dense size, state, side, link roots, outermost
    link, so an input with a bad inner link fails on that link's root.
    """
    if not pis:
        raise DimensionMismatchError("need at least one conditional operator")
    mats = {key: _qcp_matrix(p) for key, p in {id(p): p for p in pis}.items()}
    d = mats[id(pis[0])][1]
    if any(dk != d for _, dk in mats.values()):
        raise DimensionMismatchError("conditional operators must share one factor size")
    dims = (d,) * _size(len(pis) + 1, "parties", 2, _MAX_FACTORS)
    check_dense_size(dims)
    root = None if rho is None else herm_sqrt(_read_state(rho, d, "conditional side"))
    links = {key: m for key, (m, _) in mats.items()}
    bounded = all(np.abs(m).max(initial=0.0) <= d for m in links.values())
    roots = {key: herm_sqrt(links[key]) for key in dict.fromkeys(map(id, pis[-2::-1]))}
    # The outermost link, unless a root or its QcpOperator checked it already.
    bad = None if id(pis[-1]) in roots or isinstance(pis[-1], QcpOperator) else _first_non_psd(links[id(pis[-1])])
    if bad:
        raise NotPSDError(_NOT_PSD.format(bad[1]))
    return links, dims, root, bounded, roots


def _chain(pis, rho=None) -> FactoredOperator:
    """Composite chained from pis, on a new array; with the state ``rho`` it
    is sandwiched by (I x sqrt(rho)) on slot 1. The inputs are read by
    :func:`_read_links`.

    A stage extends the composite, indexed ((a, x), (a', y)) with x and y on
    its rightmost slot, to ((a, b, c), (a', b', c')) with L = sqrt(pi) on the
    two rightmost slots: one batched product, d^2 multiply-adds per output
    entry, against the stage's kernel (_link_kernel). Between stages the
    composite stays in pairs order (a, a', (x, y)): pis[-1] is regrouped to
    it once, and every stage but the last takes it over (a, b) against a
    kernel of slices (b, (x, y), (b', c, c')), so its product comes out as
    ((a, b), (a', b'), (c, c')), the next stage's pairs order, with no copy.
    The last stage takes it over (a, (b, c)) against slices ((x, y),
    (b', c')) and comes out in the matrix's own order. sqrt(rho) is folded
    into the last stage as L = (I_d x sqrt(rho)) sqrt(pi). Up to
    _REAL_CHAIN_MAX_D every product runs on the float view of pairs against
    the real form of the kernels, built once per distinct link.

    Every link is PSD (_read_links checks each once), and sqrt(rho) has norm
    at most 1. A link's entries have parts of modulus at most 2**60 (the
    readers' bound), so its norm is at most d^2 2^60.5 and a stage multiplies
    the composite's norm by at most that: over the at most 15 links, with
    d^(2(N-1)) <= 2^26 on the at most 2^13-sided output (check_dense_size),
    no entry or partial sum passes 2^934. The output is bound-checked
    (FactoredOperator) unless every link's entries are at most d in modulus,
    as a validated conditional operator's are (they are at most 1): the
    links' norms are then at most d^3, and the output's entries at most
    d^(3(N-1)) <= 2^39.
    """
    pis = list(pis)
    links, dims, root, bounded, roots = _read_links(pis, rho)
    d = dims[0]
    cur = links[id(pis[-1])]  # a caller's array when pis has one element
    if len(pis) == 1:
        cur = cur.copy() if rho is None else _sandwich_right(cur, root)
        return FactoredOperator(_Fresh(cur, bounded), dims)
    real = d <= _REAL_CHAIN_MAX_D
    inner = pis[-2:0:-1]  # the links of every stage but the last, in stage order
    kernels = {key: _link_kernel(roots[key], d, False, real) for key in dict.fromkeys(map(id, inner))}
    last = roots[id(pis[0])] if rho is None else _kron(np.eye(d), root) @ roots[id(pis[0])]
    pairs = np.array(cur.reshape(d, d, d, d).transpose(0, 2, 1, 3), order="C").reshape(d, 1, d, d * d)
    if real:
        pairs = pairs.view(float)
    a = d
    for p in inner:
        pairs = np.matmul(pairs, kernels[id(p)]).reshape(a * d, 1, a * d, -1)
        a *= d
    cur = np.matmul(pairs, _link_kernel(last, d, True, real))
    if real:
        cur = cur.view(complex)
    return FactoredOperator(_Fresh(cur.reshape(a * d * d, a * d * d), bounded), dims)


def compose_qcp(pi1, pi2) -> FactoredOperator:
    """Three-factor composite (I x sqrt(pi1)) (pi2 x I) (I x sqrt(pi1)).

    pi1 occupies the two rightmost slots, pi2 the two leftmost. Tracing out
    the leftmost slot returns pi1; tracing out the two leftmost returns the
    identity.
    """
    return _chain([pi1, pi2])


def n_compose_qcp(pis) -> FactoredOperator:
    """Chain N-1 conditional operators into an N-factor composite.

    The list orders operators from the innermost link outward: element 0
    couples slots 2 and 1, element 1 couples slots 3 and 2, and so on. The
    square root of each distinct operator object is taken once.
    """
    return _chain(pis)


def n_nonlinear_lift(pi, rho, parties: int) -> FactoredOperator:
    """N-party sandwich lifting from one conditional operator.

    Chains parties-1 copies of pi and sandwiches with sqrt(rho) on the
    rightmost slot. parties = 2 is :func:`nonlinear_lift`; with the
    diagonal operator of a classical conditional matrix and diagonal rho it
    reproduces the Markov-chain state.
    """
    return _chain([pi] * (_size(parties, "parties", 2, _MAX_FACTORS) - 1), rho)


def channel_from_compound(theta: FactoredOperator, rho) -> CpMap:
    """Recover the unital CP map of a compound state with faithful marginal.

    Requires theta PSD with blocks B_ij = theta[(i, :), (j, :)] and
    first-slot partial trace equal to rho, and rho finite, Hermitian and
    strictly positive. The recovered map is Lambda(e_ij) = rho^{-1/2} B_ij
    rho^{-1/2}, so the sandwich lifting of rho through it rebuilds theta.
    """
    if not isinstance(theta, FactoredOperator) or theta.n_factors != 2 or theta.dims[0] != theta.dims[1]:
        raise DimensionMismatchError("compound state must be a FactoredOperator with dims (d, d)")
    d = theta.dims[0]
    rm = _read_square(rho, d, "marginal")
    w, v = _eig(np.linalg.eigh, _check_hermitian(rm))
    if w[0] <= TOL:
        raise NotFaithfulError(f"marginal has eigenvalue {w[0]:.3e}; need strict positivity")
    bad = _first_non_psd(theta.matrix)
    if bad:
        raise NotCompatibleError(f"compound state has eigenvalue {bad[1]:.3e}; blocks admit no CP map")
    marg = partial_trace(theta, keep={1}).matrix
    if not _abs_close(marg, rm, TOL):
        raise NotCompatibleError("first-slot partial trace of the compound state differs from the marginal")
    inv_s = (v / np.sqrt(w)) @ v.conj().T
    blocks = theta.matrix.reshape(d, d, d, d).transpose(0, 2, 1, 3)
    return CpMap(_Fresh(inv_s @ blocks @ inv_s))  # broadcast over (i, j)


def robertson_map(x) -> np.ndarray:
    """Positive unital map on 4x4 matrices acting blockwise.

    With X partitioned into 2x2 blocks X11, X12, X21, X22 the image is
    1/2 [[I tr X22, X12 + R(X21)], [X21 + R(X12), I tr X11]] where
    R(Y) = I tr Y - Y.
    """
    xm = _read_square(x, 4, "input")
    x11, x12 = xm[:2, :2], xm[:2, 2:]
    x21, x22 = xm[2:, :2], xm[2:, 2:]
    eye2 = np.eye(2)

    def refl(y):
        return eye2 * np.trace(y) - y

    out = _zeros((4, 4), "operator", complex)
    out[:2, :2] = eye2 * np.trace(x22)
    out[:2, 2:] = x12 + refl(x21)
    out[2:, :2] = x21 + refl(x12)
    out[2:, 2:] = eye2 * np.trace(x11)
    return 0.5 * out


def lifting_assisted_map(psi: Callable[[np.ndarray], np.ndarray], omega):
    """Reduce a map on the product space to a map on the system alone.

    Given psi acting on (d * d_omega)-dimensional matrices and an ancilla
    state omega, returns phi with phi(rho) = trace-out-last-slot of
    psi(rho x omega); the system rides the leftmost slot. psi = identity
    gives phi = identity.
    """
    om = check_state(omega).matrix
    dw = om.shape[0]

    def phi(rho: np.ndarray) -> np.ndarray:
        rm = _as_matrix(rho, "input")
        joint = FactoredOperator(psi(_kron(rm, om)), (len(rm), dw))  # checks psi's shape
        return partial_trace(joint, keep={2}).matrix

    return phi


def choi_matrix(phi: Callable[[np.ndarray], np.ndarray], d: int) -> FactoredOperator:
    """Normalized Choi matrix (1/d) sum_ij e_ij x phi(e_ij)."""
    d = _size(d, "d", 1)
    check_dense_size((d, d))
    units = np.eye(d * d, dtype=complex).reshape(d, d, d, d)  # units[i, j] = e_ij
    images = _as_array([[phi(e) for e in row] for row in units], "phi images", complex)
    del units
    if images.shape != (d, d, d, d):
        raise DimensionMismatchError(f"phi returned shape {images.shape[2:]}, expected {(d, d)}")
    choi = images.transpose(0, 2, 1, 3).reshape(d * d, d * d)
    del images
    choi /= d
    # checked: the images were read by _as_array, and are divided by d.
    return FactoredOperator(_Fresh(choi, checked=True), (d, d))
