"""Circulant two-party states, their partial transposes, and Bell liftings.

C^d x C^d splits into d diagonal subspaces Sigma_alpha spanned by
e_i x e_{i+alpha} (indices mod d). A circulant state is a direct sum of
blocks over these subspaces; its partial transpose is again circulant, with
blocks given by a finite convolution, so positivity of the partial transpose
reduces to d small eigenvalue problems. Liftings that place block alpha
proportional to the input's diagonal entry rho[alpha, alpha] include the
Bell-diagonal family, whose output spectrum factorizes as p_m * rho[n, n].
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classical import as_probability_vector
from .errors import (
    BlockNotPSDError,
    DimensionMismatchError,
    IndexOutOfRangeError,
    NotNormalizedError,
    TraceNotOneError,
)
from .matcore import (
    PROB_TOL,
    STRUCT_TOL,
    TOL,
    FactoredOperator,
    _as_array,
    _as_matrix,
    _check_bytes,
    _first_non_psd,
    _Fresh,
    _hermitian_spectra,
    _own,
    _psd_verdicts,
    _size,
    _zeros,
    check_dense_size,
    check_state,
)


def circulant_subspaces(d: int) -> np.ndarray:
    """Partner array p[alpha, i] = (i + alpha) mod d, of shape (d, d):
    Sigma_alpha is spanned by e_i x e_{p[alpha, i]}."""
    d = _size(d, "d", 1)
    _check_bytes((d, d), "partner array", 8)
    return (np.arange(d)[:, None] + np.arange(d)) % d


def shift_matrix(d: int) -> np.ndarray:
    """Cyclic shift S e_k = e_{k+1 mod d}."""
    d = _size(d, "d")
    check_dense_size((d,))
    return np.roll(np.eye(d, dtype=complex), 1, axis=0)


def _block_stack(b: np.ndarray) -> np.ndarray:
    if b.ndim != 3 or b.shape[0] != b.shape[1] or b.shape[1] != b.shape[2]:
        raise DimensionMismatchError(f"blocks must have shape (d, d, d), got {b.shape}")
    return b


def _as_blocks(blocks) -> np.ndarray:
    return _block_stack(_as_array(blocks, "blocks", complex))


def _check_trace_sum(blocks: np.ndarray) -> None:
    total = blocks.trace(axis1=1, axis2=2).real.sum()
    if abs(total - 1.0) > TOL:
        raise TraceNotOneError(f"block traces sum to {float(total)!r}, expected 1")


@dataclass(frozen=True, eq=False)
class CirculantSpec:
    """Circulant state data: one PSD d x d block per subspace, traces
    summing to one. The blocks are kept read-only, taken through _own: a
    caller's array is copied once."""

    blocks: np.ndarray

    def __post_init__(self):
        b = _block_stack(_own(self.blocks, "blocks"))
        bad = _first_non_psd(b)
        if bad:
            raise BlockNotPSDError(f"block {bad[0]} has eigenvalue {bad[1]:.3e}")
        _check_trace_sum(b)
        object.__setattr__(self, "blocks", b)

    @property
    def d(self) -> int:
        return self.blocks.shape[0]


def _assemble(blocks: np.ndarray, partners: np.ndarray) -> FactoredOperator:
    """Place entry [alpha, i, j] at (pos[alpha, i], pos[alpha, j]) by one
    flat scatter, with pos[alpha, i] = i * d + partners[alpha, i]; for the
    partner arrays passed here the d^3 positions are distinct. The result is
    not scanned: its entries are the blocks', which _as_blocks or _own read or
    which are a state's diagonal times unit-trace PSD profiles."""
    d = blocks.shape[0]
    m = _zeros((d * d, d * d), "operator", complex)
    pos = np.arange(d) * d + partners
    m.reshape(-1)[(pos[:, :, None] * (d * d) + pos[:, None, :]).ravel()] = blocks.ravel()
    return FactoredOperator(_Fresh(m, bounded=True), (d, d))


def build_circulant(spec: CirculantSpec) -> FactoredOperator:
    """Assemble the two-party state sum_alpha sum_ij a^(alpha)_ij
    e_ij x e_{i+alpha, j+alpha}."""
    return _assemble(spec.blocks, circulant_subspaces(spec.d))


def circulant_partial_transpose(blocks) -> np.ndarray:
    """Blocks of the partial transpose of a circulant state.

    Transposing the rightmost slot keeps the circulant structure and maps
    the blocks to a~^(alpha) = sum_beta a^(alpha+beta) o (Pi S^beta), with o
    the entrywise product, S the cyclic shift and Pi the permutation matrix
    of i -> -i mod d. Entrywise this is a~^(alpha)[i, j] =
    a^(alpha-i-j)[i, j]. Input blocks need not come from a valid state, so
    this accepts a bare (d, d, d) array.
    """
    b = _as_blocks(blocks)
    d = b.shape[0]
    k = np.arange(d)
    i, j = k[:, None], k
    return b[(k[:, None, None] - (i + j)) % d, i, j]


def assemble_partial_transpose(tilde_blocks) -> FactoredOperator:
    """Reassemble partially transposed blocks on the reflected subspaces:
    sum_alpha sum_ij a~^(alpha)_ij e_ij x e_{-i+alpha, -j+alpha}."""
    b = _as_blocks(tilde_blocks)
    return _assemble(b, circulant_subspaces(len(b))[:, -np.arange(len(b))])


def _pt_spectra(blocks) -> np.ndarray:
    """Eigenvalues of the partial transpose, block by block: row alpha of the
    (d, d) array holds, ascending, those of the Hermitian part of block alpha
    of :func:`circulant_partial_transpose`, all from one stacked eigensolve.
    Together the rows are the spectrum of the dense partial transpose."""
    return _hermitian_spectra(circulant_partial_transpose(blocks))


def is_ppt_circulant(spec: CirculantSpec) -> tuple[bool, np.ndarray]:
    """Block-level PPT test.

    Returns (all blocks of the partial transpose PSD, the vector of their
    minimal eigenvalues), read from :func:`_pt_spectra`.
    """
    ok, lows = _psd_verdicts(_pt_spectra(spec.blocks))
    return bool(ok.all()), lows


def _state_diagonal(rho, d: int, what: str) -> np.ndarray:
    """Real diagonal of the state rho, checked to have side d (the size of ``what``)."""
    state = check_state(rho)
    if state.matrix.shape[0] != d:
        raise DimensionMismatchError(f"state side {state.matrix.shape[0]} != {what} {d}")
    return state.matrix.diagonal().real


def _lift_profiles(profiles: np.ndarray, diagonal: np.ndarray) -> FactoredOperator:
    """Circulant state with block diagonal[alpha] * profiles[alpha], after
    checking that each profile is PSD with unit trace. A (1, d, d) stack
    is one profile for every subspace, checked once.

    Block alpha's eigenvalues are diagonal[alpha] >= -TOL times those of
    profiles[alpha], so the profile check stands in for a block check; only
    the blocks' trace sum is checked again.
    """
    bad = _first_non_psd(profiles)
    traces = profiles.trace(axis1=1, axis2=2).real
    off = np.flatnonzero(np.abs(traces - 1.0) > TOL)
    if bad and not (off.size and off[0] < bad[0]):  # the first profile with either fault
        raise BlockNotPSDError(f"profile {bad[0]} has eigenvalue {bad[1]:.3e}")
    if off.size:
        raise TraceNotOneError(f"profile {off[0]} has trace {float(traces[off[0]])!r}, expected 1")
    blocks = diagonal[:, None, None] * profiles
    _check_trace_sum(blocks)
    return _assemble(blocks, circulant_subspaces(diagonal.size))


def circulant_lift(cs, rho) -> FactoredOperator:
    """Lift a state along fixed circulant profiles.

    cs[alpha] is a PSD unit-trace d x d matrix; the output circulant state
    carries block rho[alpha, alpha] * cs[alpha], so it depends on rho only
    through its diagonal. Output traces to one for any unit-trace input.
    """
    profiles = _as_blocks(cs)
    return _lift_profiles(profiles, _state_diagonal(rho, profiles.shape[0], "block count"))


def circulant_lift_isometry(cvecs, rho) -> tuple[FactoredOperator, np.ndarray]:
    """Isometry form of the circulant lifting.

    cvecs[alpha] is a unit vector; V maps e_alpha to
    sum_j cvecs[alpha][j] e_j x e_{j+alpha} and satisfies V*V = I; E(rho) =
    V diag(rho) V* is assembled as :func:`circulant_lift` of the rank-one
    profiles c_alpha c_alpha*, without forming that product. Returns (state, V).
    """
    c = _as_matrix(cvecs, "cvecs")
    d = c.shape[0]
    for alpha in range(d):
        nrm = np.linalg.norm(c[alpha])
        if abs(nrm - 1.0) > TOL:
            raise NotNormalizedError(f"vector {alpha} has norm {float(nrm)!r}, expected 1")
    diagonal = _state_diagonal(rho, d, "vector count")
    check_dense_size((d, d))
    partners = circulant_subspaces(d)
    k = np.arange(d)
    v = _zeros((d * d, d), "isometry", complex)
    v[k * d + partners, k[:, None]] = c
    blocks = diagonal[:, None, None] * (c[:, :, None] * c.conj()[:, None, :])
    return _assemble(blocks, partners), v


def maximally_entangled(d: int) -> FactoredOperator:
    """Projector onto (1/sqrt d) sum_i e_i x e_i: :func:`bell_state` (0, 0, d)."""
    return bell_state(0, 0, d)


def bell_unitary(m: int, n: int, d: int) -> np.ndarray:
    """Weyl unitary U_mn e_k = lambda^{mk} e_{k+n} with lambda = exp(2 pi i / d).

    The d^2 unitaries are trace-orthogonal: Tr(U_mn U_rs^dagger) =
    d delta_mr delta_ns.
    """
    m, n, d = _size(m, "m", -np.inf), _size(n, "n", -np.inf), _size(d, "d")
    if not (0 <= m < d and 0 <= n < d):
        raise IndexOutOfRangeError(f"indices ({m},{n}) outside range 0..{d - 1}")
    u = _zeros((d, d), "operator", complex)
    k = np.arange(d)
    u[(k + n) % d, k] = np.exp(2j * np.pi * m * k / d)
    return u


def bell_state(m: int, n: int, d: int) -> FactoredOperator:
    """Rank-one projector (I x U_mn) P+ (I x U_mn)^dagger on Sigma_n: psi psi^dagger / d, with
    psi = vec(U_mn^T) = sum_k lambda^{mk} e_k x e_{k+n}; its entries are at most 1/d, so not scanned."""
    d = _size(d, "d")
    check_dense_size((d, d))
    psi = bell_unitary(m, n, d).T.reshape(-1)
    return FactoredOperator(_Fresh(np.outer(psi, psi.conj() / d), bounded=True), (d, d))


@dataclass(frozen=True, eq=False)
class BellSpectrum:
    """Joint weights p[m, n] over the d^2 Bell projectors."""

    p: np.ndarray

    def __post_init__(self):
        p = _as_matrix(self.p, "spectrum", float)
        low = p.min(initial=0.0)  # a 0 x 0 spectrum fails the sum check below
        if low < -PROB_TOL:
            raise BlockNotPSDError(f"spectrum has negative weight {low:.3e}")
        total = p.sum()
        if abs(total - 1.0) > STRUCT_TOL:
            raise TraceNotOneError(f"spectrum sums to {float(total)!r}, expected 1")
        p = np.maximum(p, 0.0)
        p.setflags(write=False)
        object.__setattr__(self, "p", p)

    @property
    def d(self) -> int:
        return self.p.shape[0]


def bell_diagonal_lift(p, rho) -> tuple[FactoredOperator, BellSpectrum]:
    """Circulant lifting whose output is Bell diagonal.

    The single profile c[k, l] = (1/d) sum_m p_m lambda^{m(k-l)} is used on
    every subspace; the output equals sum_mn p_m rho[n, n] P_mn, so the Bell
    spectrum of the lift factorizes into the input weight p and the diagonal
    of rho. Returns (state, spectrum).
    """
    weights = as_probability_vector(p)
    d = weights.size
    diagonal = _state_diagonal(rho, d, "weight count")
    check_dense_size((d, d))
    phases = np.exp(2j * np.pi * np.outer(np.arange(d), np.arange(d)) / d)
    # A sum over axis 0 adds in the order, and so with the rounding, of a loop over m.
    outers = phases[:, :, None] * phases[:, None, :].conj()
    profile = (weights[:, None, None] * outers).sum(axis=0) / d
    lifted = _lift_profiles(profile[None], diagonal)
    spectrum = BellSpectrum(np.outer(weights, diagonal))
    return lifted, spectrum
