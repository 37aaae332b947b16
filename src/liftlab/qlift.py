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
batched product with a d^2 x d^2 x d^2 kernel, d^2 multiply-adds per entry of
the d^N x d^N output, and neither I x sqrt(pi) nor cur x I_d is formed.
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
    NotUnitalError,
)
from .matcore import (
    CPMAP_RTOL,
    STRUCT_TOL,
    TOL,
    FactoredOperator,
    _abs_close,
    _as_matrix,
    _check_hermitian,
    _eig,
    _Fresh,
    _kron,
    check_dense_size,
    check_state,
    herm_sqrt,
    is_psd,
    partial_trace,
    sandwich_right,
)


@dataclass(frozen=True, eq=False)
class CpMap:
    """Linear map on M_d stored by its images on matrix units.

    units[i, j] holds the image of e_ij; Hermiticity preservation
    (units[i, j]^dagger == units[j, i]) is enforced at construction.
    """

    units: np.ndarray

    def __post_init__(self):
        u = np.array(self.units, dtype=complex)
        if u.ndim != 4 or len(set(u.shape)) != 1:
            raise DimensionMismatchError(f"units must have shape (d, d, d, d), got {u.shape}")
        if not np.isfinite(u).all():
            raise DimensionMismatchError("units entries must be finite")
        # np.allclose(units[i, j]^dagger, units[j, i]) for every i <= j: np.isclose's
        # test, which on finite entries is |a - b| <= atol + rtol |b|.
        b = u.transpose(1, 0, 2, 3)
        close = np.abs(u.transpose(0, 1, 3, 2).conj() - b) <= STRUCT_TOL + CPMAP_RTOL * np.abs(b)
        if not close.all():
            bad = np.argwhere(np.triu(~close.all(axis=(2, 3))))
            if bad.size:
                i, j = bad[0]
                raise NotHermitianError(f"units[{i},{j}]^dagger differs from units[{j},{i}]")
        u.setflags(write=False)
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
        xm = np.asarray(x, dtype=complex)
        if xm.shape != (self.d, self.d):
            raise DimensionMismatchError(f"input shape {xm.shape}, expected {(self.d, self.d)}")
        return np.einsum("ij,ijkl->kl", xm, self.units)

    def adjoint_apply(self, rho) -> np.ndarray:
        """Adjoint under the bilinear pairing Tr(Lambda(a) rho) = Tr(a Lambda#(rho))."""
        rm = np.asarray(rho, dtype=complex)
        if rm.shape != (self.d, self.d):
            raise DimensionMismatchError(f"input shape {rm.shape}, expected {(self.d, self.d)}")
        return np.einsum("ijkl,lk->ji", self.units, rm)


def cp_identity(d: int) -> CpMap:
    return CpMap(np.eye(d * d, dtype=complex).reshape(d, d, d, d))


def cp_from_kraus(ops) -> CpMap:
    """CP map Lambda(x) = sum_m K_m x K_m^dagger from Kraus operators."""
    ks = [np.asarray(k, dtype=complex) for k in ops]
    if not ks or any(k.shape != ks[0].shape or k.ndim != 2 or k.shape[0] != k.shape[1] for k in ks):
        raise DimensionMismatchError("Kraus operators must be square matrices of one common size")
    k = np.array(ks)
    # units[i, j] = sum_m K_m e_ij K_m^dagger, entrywise K_m[a, i] conj(K_m[b, j]).
    return CpMap(np.einsum("kai,kbj->ijab", k, k.conj()))


def classical_cpmap(conditional) -> CpMap:
    """Diagonal CP map Lambda(e_aa) = sum_i p(a|i) e_ii, zero off the diagonal.

    conditional[a, i] = p(a|i) with unit column sums makes the map unital;
    its conditional-probability operator is the diagonal matrix of a
    classical Markov step.
    """
    c = np.asarray(conditional, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise DimensionMismatchError(f"conditional must be square, got shape {c.shape}")
    d = c.shape[0]
    a, i = np.arange(d)[:, None], np.arange(d)[None, :]
    units = np.zeros((d, d, d, d), dtype=complex)
    units[a, a, i, i] = c
    return CpMap(units)


@dataclass(frozen=True, eq=False)
class QcpOperator:
    """Conditional-probability operator pi = sum_ij e_ij x Lambda(e_ij)
    together with its source map."""

    op: FactoredOperator
    source: CpMap

    @property
    def d(self) -> int:
        return self.source.d

    @property
    def matrix(self) -> np.ndarray:
        return self.op.matrix


def qcp_from_channel(cp: CpMap) -> QcpOperator:
    """Build pi from a unital CP map and validate both properties.

    Raises NotUnitalError when the unit-sum of images differs from the
    identity and NotCPError when pi fails positive semidefiniteness.
    """
    d = cp.d
    if not cp.unital:
        raise NotUnitalError("sum of diagonal-unit images differs from the identity")
    pi = cp.units.transpose(0, 2, 1, 3).reshape(d * d, d * d)
    ok, lo = is_psd(pi)
    if not ok:
        raise NotCPError(f"conditional operator has eigenvalue {lo:.3e}; map is not CP")
    return QcpOperator(FactoredOperator(_Fresh(pi), (d, d)), cp)


def _qcp_matrix(pi) -> tuple[np.ndarray, int]:
    if isinstance(pi, QcpOperator):
        return pi.matrix, pi.d
    if isinstance(pi, FactoredOperator):
        if pi.n_factors != 2 or pi.dims[0] != pi.dims[1]:
            raise DimensionMismatchError(f"conditional operator needs dims (d, d), got {pi.dims}")
        return pi.matrix, pi.dims[0]
    m = np.asarray(pi, dtype=complex)
    d = int(round(m.shape[0] ** 0.5))
    if m.ndim != 2 or m.shape[0] != m.shape[1] or d * d != m.shape[0]:
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
    if parties < 2:
        raise DimensionMismatchError(f"parties must be at least 2, got {parties}")
    state = check_state(rho)
    d = state.matrix.shape[0]
    check_dense_size((d,) * parties)
    w, v = _eig(np.linalg.eigh, state.matrix)
    w = np.maximum(w, 0.0)
    # Column k of copies is the parties-fold Kronecker power of eigenvector k.
    copies = v
    for _ in range(parties - 1):
        copies = (copies[:, None, :] * v[None, :, :]).reshape(-1, d)
    return FactoredOperator(_Fresh((copies * w) @ copies.conj().T), (d,) * parties)


def _link_kernel(l: np.ndarray, d: int) -> np.ndarray:
    """Kernel of the chain stage x -> (I x L) (x (x) I_d) (I x L)^dagger for a
    d^2 x d^2 matrix L: the (d^2, d^2, d^2) array
    K[(b,c),(x,y),(b',c')] = sum_z L[(b,c),(x,z)] conj(L[(b',c'),(y,z)])."""
    rows = l.reshape(d**3, d)  # ((b, c, x), z)
    k = (rows @ rows.conj().T).reshape(d * d, d, d * d, d)
    return k.transpose(0, 1, 3, 2).reshape(d * d, d * d, d * d)


def _chain(pis, rho=None) -> FactoredOperator:
    """Composite chained from pis, on a new array; with the state ``rho`` it
    is sandwiched by (I x sqrt(rho)) on slot 1.

    Each input is read once: each distinct link object (keyed by id) is
    decoded, bound-tested and, unless it is only pis[-1], rooted; rho is
    checked as a state, then for its side, then rooted. Errors come in the
    order decoding, dense size, state, side.

    A stage extends the composite cur, indexed ((a, x), (a', y)) with x and y
    on its rightmost slot, to ((a, b, c), (a', b', c')) with L = sqrt(pi) on
    the two rightmost slots. That is one batched product, d^2 multiply-adds
    per output entry: cur goes to (a, a', (x, y)) order and meets the stage
    kernel once for each (b, c), and the product comes out in the new
    matrix's own order. sqrt(rho) is folded into the last stage as
    L = (I_d x sqrt(rho)) sqrt(pi).

    The output is scanned for finiteness unless every link's entries are at
    most d in modulus, as a validated conditional operator's are (they are
    at most 1). Every link but pis[-1] is then PSD (herm_sqrt checks it)
    with spectral norm at most d^3, sqrt(rho) has norm at most 1, and a
    stage multiplies the composite's norm by at most d^3: on the at most
    2^13-sided output (check_dense_size) no entry or partial sum can come
    near overflow. A link with a larger, infinite or NaN entry leaves the
    scan on, and the scan, not a numpy warning, reports an overflow in the
    stages.
    """
    pis = list(pis)
    if not pis:
        raise DimensionMismatchError("need at least one conditional operator")
    mats = {key: _qcp_matrix(p) for key, p in {id(p): p for p in pis}.items()}
    d = mats[id(pis[0])][1]
    if any(dk != d for _, dk in mats.values()):
        raise DimensionMismatchError("conditional operators must share one factor size")
    dims = (d,) * (len(pis) + 1)
    check_dense_size(dims)
    if rho is not None:
        state = check_state(rho).matrix
        if state.shape[0] != d:
            raise DimensionMismatchError(f"state side {state.shape[0]} != conditional side {d}")
        root = herm_sqrt(state)
    bounded = all(np.abs(m).max(initial=0.0) <= d for m, _ in mats.values())
    cur = mats[id(pis[-1])][0]  # a caller's array when pis has one element
    if len(pis) == 1:
        cur = cur.copy() if rho is None else sandwich_right(cur, root)
        return FactoredOperator(_Fresh(cur, bounded), dims)
    roots: dict[int, np.ndarray] = {}
    for p in pis[-2::-1]:
        if id(p) not in roots:
            roots[id(p)] = herm_sqrt(mats[id(p)][0])
    with np.errstate(over="ignore", invalid="ignore"):
        kernels = {key: _link_kernel(r, d) for key, r in roots.items()}
        stages = [kernels[id(p)] for p in pis[-2::-1]]
        if rho is not None:
            stages[-1] = _link_kernel(_kron(np.eye(d), root) @ roots[id(pis[0])], d)
        for k in stages:
            a = cur.shape[0] // d
            pairs = cur.reshape(a, d, a, d).transpose(0, 2, 1, 3).reshape(a, 1, a, d * d)
            cur = np.matmul(pairs, k).reshape(a * d * d, a * d * d)
    return FactoredOperator(_Fresh(cur, bounded), dims)


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
    if parties < 2:
        raise DimensionMismatchError(f"parties must be at least 2, got {parties}")
    return _chain([pi] * (parties - 1), rho)


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
    rm = _as_matrix(rho)
    if rm.shape != (d, d):
        raise DimensionMismatchError(f"marginal shape {rm.shape}, expected {(d, d)}")
    w, v = _eig(np.linalg.eigh, _check_hermitian(rm))
    if w[0] <= TOL:
        raise NotFaithfulError(f"marginal has eigenvalue {w[0]:.3e}; need strict positivity")
    ok, lo = is_psd(theta.matrix)
    if not ok:
        raise NotCompatibleError(f"compound state has eigenvalue {lo:.3e}; blocks admit no CP map")
    marg = partial_trace(theta, keep={1}).matrix
    if not _abs_close(marg, rm, TOL):
        raise NotCompatibleError("first-slot partial trace of the compound state differs from the marginal")
    inv_s = (v / np.sqrt(w)) @ v.conj().T
    blocks = theta.matrix.reshape(d, d, d, d).transpose(0, 2, 1, 3)
    units = np.einsum("ab,ijbc,cd->ijad", inv_s, blocks, inv_s)
    return CpMap(units)


def robertson_map(x) -> np.ndarray:
    """Positive unital map on 4x4 matrices acting blockwise.

    With X partitioned into 2x2 blocks X11, X12, X21, X22 the image is
    1/2 [[I tr X22, X12 + R(X21)], [X21 + R(X12), I tr X11]] where
    R(Y) = I tr Y - Y.
    """
    xm = np.asarray(x, dtype=complex)
    if xm.shape != (4, 4):
        raise DimensionMismatchError(f"input shape {xm.shape}, expected (4, 4)")
    x11, x12 = xm[:2, :2], xm[:2, 2:]
    x21, x22 = xm[2:, :2], xm[2:, 2:]
    eye2 = np.eye(2)

    def refl(y):
        return eye2 * np.trace(y) - y

    out = np.zeros((4, 4), dtype=complex)
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
        rm = np.asarray(rho, dtype=complex)
        d = rm.shape[0]
        if rm.shape != (d, d):
            raise DimensionMismatchError(f"input shape {rm.shape} is not square")
        out = np.asarray(psi(_kron(rm, om)), dtype=complex)
        if out.shape != (d * dw, d * dw):
            raise DimensionMismatchError(f"psi returned shape {out.shape}, expected {(d * dw, d * dw)}")
        joint = FactoredOperator(out, (d, dw))
        return partial_trace(joint, keep={2}).matrix

    return phi


def choi_matrix(phi: Callable[[np.ndarray], np.ndarray], d: int) -> FactoredOperator:
    """Normalized Choi matrix (1/d) sum_ij e_ij x phi(e_ij)."""
    units = np.eye(d * d, dtype=complex).reshape(d, d, d, d)  # units[i, j] = e_ij
    images = np.array([[phi(e) for e in row] for row in units], dtype=complex)
    if images.shape != units.shape:
        raise DimensionMismatchError(f"phi returned shape {images.shape[2:]}, expected {(d, d)}")
    return FactoredOperator(_Fresh(images.transpose(0, 2, 1, 3).reshape(d * d, d * d) / d), (d, d))
