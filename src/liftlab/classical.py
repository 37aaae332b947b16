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
from .matcore import PROB_TOL, FactoredOperator, _abs_close, _as_array, _as_matrix, _zeros
from .matcore import diagonal_operator


def _read_probabilities(x: np.ndarray, negative: str, axis=None, sums: str | None = None) -> np.ndarray:
    """x, a float array read by _as_array, clipped at 0 after two checks in
    turn: no entry below -PROB_TOL (NegativeEntryError ``negative``), and
    given ``sums`` each sum over axis within PROB_TOL per entry of 1
    (NotNormalizedError, ``sums`` formatted with the sums)."""
    lo = float(np.minimum.reduce(x, None, initial=0.0))
    if lo < -PROB_TOL:
        raise NegativeEntryError(f"{negative} {lo:.3e}")
    if sums is not None:
        s = x.sum(axis)
        close = abs(s - 1.0) <= PROB_TOL * (x.size // max(s.size, 1))
        if not (close if axis is None else close.all()):  # a vector's one sum: a scalar test
            raise NotNormalizedError(sums.format(s.tolist()))
    return np.maximum(x, 0.0)


def as_probability_vector(p) -> np.ndarray:
    """Validate and return a probability vector as a float array."""
    v = _as_array(p, "probability vector")
    if v.ndim != 1 or v.size == 0:
        raise DimensionMismatchError(f"probability vector must be 1-d and nonempty, got shape {v.shape}")
    return _read_probabilities(v, "probability vector has negative entry", sums="probability vector sums to {}, not 1")


def as_channel(weights) -> np.ndarray:
    """Validate a channel weight matrix: 2-d, real, nonnegative."""
    w = _as_array(weights, "channel weights")
    if w.ndim != 2 or 0 in w.shape:
        raise DimensionMismatchError(f"channel weights must be a nonempty 2-d matrix, got shape {w.shape}")
    return _read_probabilities(w, "channel weights have negative entry")


def as_permutation(perm) -> np.ndarray:
    """Validate a permutation given as the integer array of images of 0..n-1."""
    s = _as_array(perm, "permutation", None)
    if s.ndim != 1 or s.size == 0:
        raise SchemaError(f"permutation must be a nonempty 1-d array, got shape {s.shape}")
    if s.dtype.kind not in "iu":
        raise SchemaError(f"permutation images must be integers, got {s.dtype}")
    if sorted(s.tolist()) != list(range(s.size)):
        raise SchemaError(f"images {s.tolist()} are not a permutation of 0..{s.size - 1}")
    return s


def permutation_inverse(perm) -> np.ndarray:
    return np.argsort(as_permutation(perm))


def is_unital(weights, atol: float = PROB_TOL) -> bool:
    """Columns sum to one (the identity observable is preserved)."""
    w = as_channel(weights)
    return _abs_close(w.sum(0), 1.0, atol)


def is_stochastic(weights, atol: float = PROB_TOL) -> bool:
    """Rows sum to one (the state action preserves total probability)."""
    w = as_channel(weights)
    return _abs_close(w.sum(1), 1.0, atol)


def is_doubly_stochastic(weights, atol: float = PROB_TOL) -> bool:
    return is_unital(weights, atol) and is_stochastic(weights, atol)


def _contract(weights: np.ndarray, x: np.ndarray) -> np.ndarray:
    if x.shape != weights.shape[:1]:
        raise DimensionMismatchError(f"vector of shape {x.shape} does not match channel input size {weights.shape[0]}")
    return weights.T @ x


def apply_to_observable(weights, a) -> np.ndarray:
    """Heisenberg action on a diagonal observable: b_j = sum_i a_i L[i, j]."""
    w = as_channel(weights)
    return _contract(w, _as_array(a, "observable"))


def apply_to_state(weights, p) -> np.ndarray:
    """State action on a probability vector: b_j = sum_i L[i, j] p_i."""
    w = as_channel(weights)
    return _contract(w, as_probability_vector(p))


def kraus_from_channel(weights) -> list[np.ndarray]:
    """Kraus operators K_ij = sqrt(L[i, j]) |f_j><e_i| in (i, j) lex order.

    The principal nonnegative real root is used. The full n1*n2 list of
    read-only views is returned, zero operators included, so ordering is stable.
    """
    w = as_channel(weights)
    n1, n2 = w.shape
    ops = _zeros((n1, n2, n2, n1), "Kraus operator array", complex)
    i, j = np.arange(n1)[:, None], np.arange(n2)[None, :]
    ops[i, j, j, i] = np.sqrt(w)
    ops.setflags(write=False)
    return list(ops.reshape(n1 * n2, n2, n1))


def apply_kraus(ops, rho) -> np.ndarray:
    """Evaluate sum_k K rho K^dagger."""
    rho = _as_matrix(rho, "state")
    # Read and summed one operator at a time: a stacked product would hold
    # several copies of the whole list (kraus_from_channel's may be near 1 GiB).
    ks = [_as_array(k, "Kraus operator", complex) for k in ops]
    if not ks or any(k.shape != ks[0].shape[:1] + rho.shape[:1] for k in ks):
        raise DimensionMismatchError(f"need at least one Kraus operator, all of shape (r, {len(rho)})")
    out = _zeros((len(ks[0]), len(ks[0])), "operator", complex)
    for k in ks:
        out += k @ rho @ k.conj().T
    return out


def permutation_channel(perm) -> np.ndarray:
    """Deterministic channel moving letter i to pi(i): L[i, j] = delta(j, pi(i))."""
    s = as_permutation(perm)
    w = _zeros((s.size, s.size), "channel")
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
    out = _zeros((n, n), "channel")
    np.add.at(out, (np.arange(n)[:, None], s.reshape(n, n) // n), q)
    return out


def max_correlated_state(perm) -> FactoredOperator:
    """Two-party diagonal state (1/n) sum_i e_ii x e_{pi(i) pi(i)}: the
    channel state (:func:`classical_choi`) of the permutation channel."""
    return classical_choi(permutation_channel(perm))


def classical_choi(weights) -> FactoredOperator:
    """Joint state sum_ij (L[i, j]/n2) e_ii x e_jj of a unital channel.

    Column j carries the conditional distribution of the input letter given
    output letter j, so the marginal on the second (rightmost) factor is
    uniform. Requires unitality.
    """
    w = as_channel(weights)
    if not is_unital(w):
        raise NotUnitalError(f"columns sum to {w.sum(0).tolist()}, expected all 1")
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
    bob = v[np.argsort(s)]  # s is read once: argsort is permutation_inverse
    return bob, bob[s]
