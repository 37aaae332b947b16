"""Classical probability in matrix form: diagonal states and channels.

A probability vector p embeds as the diagonal density matrix sum_i p_i e_ii.
A channel between point sets Omega_1 (size n1) and Omega_2 (size n2) is a
nonnegative weight matrix L with L[i, j] read as the transition weight from
letter i to letter j. Both pictures act through the same contraction
b_j = sum_i a_i L[i, j]; on observables this is the Heisenberg map, on
probability vectors the state map. Column sums of 1 make the channel unital,
row sums of 1 make the state action trace preserving.
"""
from __future__ import annotations

import numpy as np

from .errors import (
    DimensionMismatchError,
    NegativeEntryError,
    NotNormalizedError,
    NotUnitalError,
    SchemaError,
)
from .matcore import PROB_TOL, FactoredOperator, _abs_close, diagonal_operator


def as_probability_vector(p) -> np.ndarray:
    """Validate and return a probability vector as a float array."""
    v = np.asarray(p, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise DimensionMismatchError(f"probability vector must be 1-d and nonempty, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise SchemaError("probability vector entries must be finite")
    if v.min(initial=0.0) < -PROB_TOL:
        raise NegativeEntryError(f"probability vector has negative entry {v.min():.3e}")
    if abs(v.sum() - 1.0) > PROB_TOL * max(1, v.size):
        raise NotNormalizedError(f"probability vector sums to {float(v.sum())!r}, not 1")
    return np.maximum(v, 0.0)


def as_channel(weights) -> np.ndarray:
    """Validate a channel weight matrix: 2-d, real, nonnegative."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 2 or 0 in w.shape:
        raise DimensionMismatchError(f"channel weights must be a nonempty 2-d matrix, got shape {w.shape}")
    if not np.isfinite(w).all():
        raise SchemaError("channel weights must be finite")
    if w.min() < -PROB_TOL:
        raise NegativeEntryError(f"channel weights have negative entry {w.min():.3e}")
    return np.maximum(w, 0.0)


def as_permutation(perm) -> np.ndarray:
    """Validate a permutation given as the array of images of 0..n-1."""
    s = np.asarray(perm, dtype=int)
    if s.ndim != 1 or s.size == 0:
        raise SchemaError(f"permutation must be a nonempty 1-d array, got shape {s.shape}")
    if sorted(s.tolist()) != list(range(s.size)):
        raise SchemaError(f"images {s.tolist()} are not a permutation of 0..{s.size - 1}")
    return s


def permutation_inverse(perm) -> np.ndarray:
    s = as_permutation(perm)
    inv = np.empty_like(s)
    inv[s] = np.arange(s.size)
    return inv


def is_unital(weights, atol: float = PROB_TOL) -> bool:
    """Columns sum to one (the identity observable is preserved)."""
    w = as_channel(weights)
    return _abs_close(w.sum(axis=0), 1.0, atol)


def is_stochastic(weights, atol: float = PROB_TOL) -> bool:
    """Rows sum to one (the state action preserves total probability)."""
    w = as_channel(weights)
    return _abs_close(w.sum(axis=1), 1.0, atol)


def is_doubly_stochastic(weights, atol: float = PROB_TOL) -> bool:
    return is_unital(weights, atol) and is_stochastic(weights, atol)


def _contract(weights: np.ndarray, x: np.ndarray) -> np.ndarray:
    if x.shape[0] != weights.shape[0]:
        raise DimensionMismatchError(
            f"vector of length {x.shape[0]} does not match channel input size {weights.shape[0]}"
        )
    return weights.T @ x


def apply_to_observable(weights, a) -> np.ndarray:
    """Heisenberg action on a diagonal observable: b_j = sum_i a_i L[i, j]."""
    w = as_channel(weights)
    return _contract(w, np.asarray(a, dtype=float))


def apply_to_state(weights, p) -> np.ndarray:
    """State action on a probability vector: b_j = sum_i L[i, j] p_i."""
    w = as_channel(weights)
    return _contract(w, as_probability_vector(p))


def kraus_from_channel(weights) -> list[np.ndarray]:
    """Kraus operators K_ij = sqrt(L[i, j]) |f_j><e_i| in (i, j) lex order.

    The principal nonnegative real root is used. The full n1*n2 list is
    returned, zero operators included, so ordering is stable.
    """
    w = as_channel(weights)
    n1, n2 = w.shape
    i, j = np.arange(n1)[:, None], np.arange(n2)[None, :]
    ops = np.zeros((n1, n2, n2, n1), dtype=complex)
    ops[i, j, j, i] = np.sqrt(w)
    return list(ops.reshape(n1 * n2, n2, n1))


def apply_kraus(ops, rho) -> np.ndarray:
    """Evaluate sum_k K rho K^dagger."""
    rho = np.asarray(rho, dtype=complex)
    out = np.zeros((ops[0].shape[0], ops[0].shape[0]), dtype=complex)
    for k in ops:
        out += k @ rho @ k.conj().T
    return out


def permutation_channel(perm) -> np.ndarray:
    """Deterministic channel moving letter i to pi(i): L[i, j] = delta(j, pi(i))."""
    s = as_permutation(perm)
    w = np.zeros((s.size, s.size))
    w[np.arange(s.size), s] = 1.0
    return w


def channel_from_dilation(perm, sigma) -> np.ndarray:
    """Channel induced by a permutation of system-ancilla pairs.

    The pair (i, k) with system letter i and ancilla letter k is encoded as
    i*n + k. The permutation acts on the n^2 pair labels, the ancilla starts
    in distribution sigma, and the ancilla slot is traced out afterwards.
    Returns weights with L[i, j] = probability that letter i maps to j; the
    state action is always trace preserving, but not unital in general.
    """
    q = as_probability_vector(sigma)
    s = as_permutation(perm)
    n = q.size
    if s.size != n * n:
        raise DimensionMismatchError(f"permutation acts on {s.size} labels, expected n^2 = {n * n}")
    # Pair (j, k) lands on letter s[j*n + k] // n; np.add.at adds in (j, k) order.
    out = np.zeros((n, n))
    np.add.at(out, (np.arange(n)[:, None], s.reshape(n, n) // n), q)
    return out


def max_correlated_state(perm) -> FactoredOperator:
    """Two-party diagonal state (1/n) sum_i e_ii x e_{pi(i) pi(i)}."""
    s = as_permutation(perm)
    n = s.size
    w = np.zeros(n * n)
    w[np.arange(n) * n + s] = 1.0 / n
    return diagonal_operator(w, (n, n))


def classical_choi(weights) -> FactoredOperator:
    """Joint state sum_ij (L[i, j]/n2) e_ii x e_jj of a unital channel.

    Column j carries the conditional distribution of the input letter given
    output letter j, so the marginal on the second (rightmost) factor is
    uniform. Requires unitality.
    """
    w = as_channel(weights)
    if not is_unital(w):
        raise NotUnitalError(f"columns sum to {w.sum(axis=0).tolist()}, expected all 1")
    return diagonal_operator(w / w.shape[1], w.shape)


def classical_teleport(p, perm) -> tuple[np.ndarray, np.ndarray]:
    """Teleport p through the maximally correlated resource of a permutation.

    Projecting the first two slots of rho_A x P_pi onto the diagonal pair
    state and renormalizing leaves Bob with the permuted vector
    bob_i = p[pi^{-1}(i)]; undoing the permutation recovers p. Returns
    (bob, corrected).
    """
    v = as_probability_vector(p)
    s = as_permutation(perm)
    if s.size != v.size:
        raise DimensionMismatchError(f"permutation on {s.size} letters, state on {v.size}")
    inv = permutation_inverse(s)
    bob = v[inv]
    corrected = bob[s]
    return bob, corrected
