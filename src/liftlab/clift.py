"""Classical liftings: one state in, a joint diagonal state out.

A lifting tensor E over (Omega_1, Omega_2) has entries E[i, j, k] with i the
input letter, j the new-factor letter and k the retained letter; each input
slice sums to one. Lifting a probability vector p produces the two-factor
diagonal state with weights w[j, k] = sum_i E[i, j, k] p_i, new factor on
the left. Iterating the same tensor on the rightmost factor builds N-party
liftings; Markov chains arise from the tensors E[i, j, k] = p(j|i) delta_ik.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .classical import _read_probabilities, as_probability_vector
from .errors import (
    DimensionMismatchError,
    IndexOutOfRangeError,
    MapNotPositiveError,
)
from .matcore import (
    _MAX_FACTORS,
    PROB_TOL,
    FactoredOperator,
    _abs_close,
    _as_array,
    _as_matrix,
    _first_non_psd,
    _Fresh,
    _size,
    _zeros,
    check_dense_size,
    diagonal_operator,
)


def as_lifting_tensor(t) -> np.ndarray:
    """Validate a lifting tensor: shape (n1, n2, n1), nonnegative, each
    input slice summing to one."""
    e = _as_array(t, "lifting tensor")
    if e.ndim != 3 or e.shape[0] != e.shape[2]:
        raise DimensionMismatchError(f"lifting tensor must have shape (n1, n2, n1), got {e.shape}")
    return _read_probabilities(e, "lifting tensor has negative entry", (1, 2), "input slices sum to {}, expected all 1")


def pure_tensor(images, n2: int | None = None) -> np.ndarray:
    """Deterministic lifting E[i, j, k] = delta(k, i) delta(j, images[i])
    for integer images in 0..n2-1 (n2 defaults to the largest plus one)."""
    s = _as_array(images, "images", None)
    if s.ndim != 1 or s.size == 0 or s.dtype.kind not in "iu":
        raise DimensionMismatchError(f"images must be a non-empty 1-d array of integers, got {s.dtype} {s.shape}")
    n1 = s.size
    n2 = _size(n2, "n2") if n2 is not None else int(s.max()) + 1
    bad = s[(s < 0) | (s >= n2)]
    if bad.size:
        raise IndexOutOfRangeError(f"image {bad[0]} outside range 0..{n2 - 1}")
    e = _zeros((n1, n2, n1), "lifting tensor")
    i = np.arange(n1)
    e[i, s, i] = 1.0
    return e


def product_tensor(q, n1: int) -> np.ndarray:
    """Constant-output lifting E[i, j, k] = delta(k, i) q_j."""
    v = as_probability_vector(q)
    n1 = _size(n1, "n1")
    e = _zeros((n1, v.size, n1), "lifting tensor")
    i = np.arange(n1)
    e[i, :, i] = v
    return e


def ohya_tensor(n: int) -> np.ndarray:
    """Perfect copy lifting E[i, j, k] = delta(k, i) delta(j, k)."""
    n = _size(n, "n")
    e = _zeros((n, n, n), "lifting tensor")
    i = np.arange(n)
    e[i, i, i] = 1.0
    return e


def markov_tensor(conditional) -> np.ndarray:
    """Markovian lifting E[i, j, k] = p(j|i) delta(k, i) from a
    column-stochastic conditional matrix with entry [j, i] = p(j|i)."""
    c = _as_matrix(conditional, "conditional", float)
    n = c.shape[0]
    e = _zeros((n, n, n), "lifting tensor")
    i = np.arange(n)
    e[i, :, i] = c.T
    return as_lifting_tensor(e)


def lift(t, p) -> FactoredOperator:
    """Apply a lifting tensor to a probability vector: :func:`n_lift` with
    parties = 2.

    Returns the diagonal two-factor state with weight w[j, k] at
    e_jj x e_kk, the new factor leftmost.
    """
    return n_lift(t, p, 2)


def is_nondemolition(t) -> bool:
    """True when summing out the new factor returns the identity:
    sum_j E[i, j, k] = delta(i, k), so the retained marginal equals the
    input for every state. Each sum is held to PROB_TOL per entry summed."""
    e = as_lifting_tensor(t)
    return _abs_close(e.sum(axis=1), np.eye(e.shape[0]), PROB_TOL * max(1, e.shape[1]))


def is_markovian_lifting(t) -> tuple[bool, np.ndarray | None]:
    """Detect the form E[i, j, k] = p(j|i) delta(k, i).

    Returns (True, conditional) with conditional[j, i] = p(j|i) when the
    tensor is Markovian, else (False, None).
    """
    e = as_lifting_tensor(t)
    n1 = e.shape[0]
    off = e.copy()
    off[np.arange(n1), :, np.arange(n1)] = 0.0
    if np.abs(off).max(initial=0.0) > PROB_TOL:
        return False, None
    cond = e[np.arange(n1), :, np.arange(n1)].T.copy()
    return True, cond


def gamma_lifting(gamma, sigma, p) -> FactoredOperator:
    """Lifting assisted by a channel on the joint diagonal algebra.

    Forms the product weights sigma x p (flat index j*n1 + k), pushes them
    through the joint channel in the state picture, and reshapes. The joint
    channel must be nonnegative with rows summing to one.
    """
    g = _as_array(gamma, "joint channel")
    q = as_probability_vector(sigma)
    v = as_probability_vector(p)
    n2, n1 = q.size, v.size
    if g.shape != (n2 * n1, n2 * n1):
        raise DimensionMismatchError(f"joint channel shape {g.shape}, expected {(n2 * n1, n2 * n1)}")
    # Checked only: the weights use g as given, tiny negative entries included.
    _read_probabilities(g, "joint channel has negative entry", 1,
                        "joint channel rows must sum to 1 (trace preservation)")
    w = g.T @ np.outer(q, v).reshape(-1)
    return diagonal_operator(w, (n2, n1))


def _lift_weights(t, p, parties: int) -> np.ndarray:
    """Weights of :func:`n_lift`'s state, as an array of its factor shape
    (n2,) * (parties - 1) + (n1,). They share its size limit
    (check_dense_size)."""
    parties = _size(parties, "parties", 2, _MAX_FACTORS)
    e = as_lifting_tensor(t)
    w = as_probability_vector(p)
    if w.size != e.shape[0]:
        raise DimensionMismatchError(f"state of length {w.size} does not match tensor input size {e.shape[0]}")
    check_dense_size((e.shape[1],) * (parties - 1) + (e.shape[0],))
    for _ in range(parties - 1):
        w = np.einsum("...i,ijk->...jk", w, e)
    return w


def n_lift(t, p, parties: int) -> FactoredOperator:
    """Iterate a lifting tensor to an N-party diagonal state.

    Each stage re-lifts the rightmost (original) factor; new factors stack
    so that the earliest one ends up leftmost. parties counts the total
    number of output factors (parties - 1 applications); parties = 2 is
    :func:`lift`.
    """
    w = _lift_weights(t, p, parties)  # checked for its size
    return diagonal_operator(w, w.shape)


@dataclass(frozen=True, eq=False)
class MarkovSpec:
    """Homogeneous Markov chain data: conditional[j, i] = p(j|i) with unit
    column sums, plus the initial distribution."""

    conditional: np.ndarray
    initial: np.ndarray

    def __post_init__(self):
        p0 = as_probability_vector(self.initial)
        c = _as_matrix(self.conditional, "conditional", float)
        if c.shape[0] != p0.size:
            raise DimensionMismatchError(f"conditional side {c.shape[0]} != initial length {p0.size}")
        c = _read_probabilities(c, "conditional has negative entry", 0, "conditional columns sum to {}, expected all 1")
        c.setflags(write=False)
        p0.setflags(write=False)
        object.__setattr__(self, "conditional", c)
        object.__setattr__(self, "initial", p0)

    @property
    def n(self) -> int:
        return self.initial.size


def markov_weights(spec: MarkovSpec, parties: int) -> np.ndarray:
    """Joint weights W[i_N, ..., i_1] = p(i_N|i_{N-1}) ... p(i_2|i_1) p(i_1).

    They are the diagonal of :func:`markov_state`'s operator, and share its
    size limit (check_dense_size).
    """
    parties = _size(parties, "parties", 1, _MAX_FACTORS)
    check_dense_size((spec.n,) * parties)
    w = spec.initial.copy()
    for _ in range(parties - 1):
        w = np.einsum("ji,i...->ji...", spec.conditional, w)
    return w


def markov_state(spec: MarkovSpec, parties: int) -> FactoredOperator:
    """Diagonal N-party state of a Markov chain, latest index leftmost."""
    w = markov_weights(spec, parties)  # (n,) * parties, checked for its size
    return diagonal_operator(w, w.shape)


def markov_operator(spec: MarkovSpec, a) -> np.ndarray:
    """One-step Heisenberg operator P(a)_j = sum_i p(i|j) a_i."""
    v = _as_array(a, "observable")
    if v.shape != (spec.n,):
        raise DimensionMismatchError(f"observable shape {v.shape}, expected ({spec.n},)")
    return spec.conditional.T @ v


def transition_expectation_sides(spec: MarkovSpec, observables) -> tuple[float, float]:
    """Both sides of the nested transition-expectation identity.

    observables lists the diagonal observables [a_1, ..., a_N] in chain
    order (a_1 acts on the rightmost slot). The left side contracts the
    full joint state; the right side nests X_N = a_N,
    X_k = P(X_{k+1}) * a_k and evaluates <initial, X_1>.
    """
    obs = [_as_array(a, "observable") for a in observables]
    n_parties = len(obs)
    if n_parties < 1:
        raise DimensionMismatchError("need at least one observable")
    for a in obs:
        if a.shape != (spec.n,):
            raise DimensionMismatchError(f"observable shape {a.shape}, expected ({spec.n},)")
    w = markov_weights(spec, n_parties)
    lhs = w
    for a in obs[::-1]:
        lhs = np.tensordot(a, lhs, axes=(0, 0))
    x = obs[-1]
    for k in range(n_parties - 2, -1, -1):
        x = markov_operator(spec, x) * obs[k]
    rhs = float(spec.initial @ x)
    return float(lhs), rhs


def verify_transition_expectation(spec: MarkovSpec, parties: int, observables) -> bool:
    """Check the joint expectation against the nested one-step form, to
    PROB_TOL relative to the larger side (floored at 1)."""
    obs = list(observables)
    if len(obs) != _size(parties, "parties", 1, _MAX_FACTORS):
        raise DimensionMismatchError(f"{len(obs)} observables for {parties} parties")
    lhs, rhs = transition_expectation_sides(spec, obs)
    return abs(lhs - rhs) <= PROB_TOL * max(1.0, abs(lhs), abs(rhs))


def separable_n_state(p, maps) -> FactoredOperator:
    """Separable N-party state sum_i p_i phi_1(e_ii) x ... x phi_N(e_ii).

    Each map is given by its images on diagonal units: maps[k][i] is the
    matrix phi_{k+1}(e_ii), required PSD. maps[0] supplies the leftmost
    factor.
    """
    v = as_probability_vector(p)
    images = [_as_array(m, "map images", complex) for m in maps]
    if not images:
        raise DimensionMismatchError("need at least one map")
    _size(len(images), "parties", 1, _MAX_FACTORS)
    for mi, m in enumerate(images):
        if m.ndim != 3 or m.shape[0] != v.size or m.shape[1] != m.shape[2]:
            raise DimensionMismatchError(
                f"map {mi} images must have shape ({v.size}, d, d), got {m.shape}"
            )
        bad = _first_non_psd(m)
        if bad:
            raise MapNotPositiveError(f"map {mi} sends unit {bad[0]} to eigenvalue {bad[1]:.3e}")
    dims = tuple(m.shape[1] for m in images)
    check_dense_size(dims)
    # The terms p_i phi_1(e_ii) x ... x phi_N(e_ii) are built by broadcasts, a
    # chunk of about max(4096, n) entries (or one term) at a time, and weighted
    # in place. The running sum is added into each chunk's first term before
    # the chunk is summed over axis 0, so the terms are added in unit order,
    # bit for bit as sum(axis=0) of the whole stack adds them; 1 x 1 terms,
    # which that sum adds pairwise, fit one chunk.
    side = prod(dims)
    step = max(1, max(4096, v.size) // max(1, side**2))  # side 0 for a 0 x 0 map
    out = None
    for lo in range(0, v.size, step):
        hi = min(lo + step, v.size)
        terms = images[0][lo:hi]
        for m in images[1:]:
            s = terms.shape[1] * m.shape[1]
            terms = (terms[:, :, None, :, None] * m[lo:hi, None, :, None, :]).reshape(hi - lo, s, s)
        if len(images) > 1:
            np.multiply(v[lo:hi, None, None], terms, out=terms)
        else:  # terms views the caller's images
            terms = v[lo:hi, None, None] * terms
        if out is not None:
            terms[0] += out
            out = None  # freed before the sum allocates the next one
        out = terms.sum(axis=0)
    return FactoredOperator(_Fresh(out), dims)
