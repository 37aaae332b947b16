"""Seeded random draws used by the verification suites and tests.

Everything funnels through numpy's default generator (PCG64), so a fixed
seed reproduces the same objects on any platform. States are squared
Gaussians on the diagonal, conjugated by Haar unitaries obtained from the
QR decomposition of complex Gaussian matrices.

A size whose array would pass matcore.MAX_DENSE_BYTES is a SchemaError,
worded as the constructor the draw feeds words it, before anything is
drawn: a refused call leaves the generator's state as it was.
"""
from __future__ import annotations

import numpy as np

from .circulant import CirculantSpec
from .clift import MarkovSpec, as_lifting_tensor
from .matcore import _check_bytes, _Fresh, _size, check_dense_size
from .qlift import CpMap, cp_from_kraus


def rng(seed=None) -> np.random.Generator:
    """Fresh generator; pass an integer for a reproducible stream."""
    return np.random.default_rng(seed)


def probability_vector(g: np.random.Generator, n: int) -> np.ndarray:
    n = _size(n, "n")
    _check_bytes((n,), "vector", 8)
    v = np.square(g.standard_normal(n))
    return v / v.sum()


def stochastic(g: np.random.Generator, n_in: int, n_out: int) -> np.ndarray:
    """Weight matrix with unit row sums (trace preserving on states)."""
    n_out = _size(n_out, "n_out")
    n_in = _size(n_in, "n_in")
    _check_bytes((n_in, n_out), "channel", 8)
    return np.array([probability_vector(g, n_out) for _ in range(n_in)])


def permutation(g: np.random.Generator, n: int) -> np.ndarray:
    n = _size(n, "n")
    _check_bytes((n,), "vector", 8)
    return g.permutation(n)


def diagonal_observable(g: np.random.Generator, n: int) -> np.ndarray:
    n = _size(n, "n")
    _check_bytes((n,), "vector", 8)
    return g.uniform(-1.0, 1.0, n)


def unitary(g: np.random.Generator, d: int) -> np.ndarray:
    """Haar-distributed unitary from the QR decomposition with the phase
    convention that makes R's diagonal positive."""
    d = _size(d, "d")
    _check_bytes((d, d), "operator")
    z = g.standard_normal((d, d)) + 1j * g.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    diag = r.diagonal()
    return q * (diag / np.abs(diag))


def density(g: np.random.Generator, d: int) -> np.ndarray:
    """Random state: random spectrum conjugated by a Haar unitary."""
    d = _size(d, "d")
    _check_bytes((d, d), "operator")  # before the spectrum is drawn
    w = probability_vector(g, d)
    u = unitary(g, d)
    return (u * w) @ u.conj().T


def faithful_density(g: np.random.Generator, d: int) -> np.ndarray:
    """Full-rank state: a random state and the flat one, mixed 0.95 to 0.05."""
    return 0.95 * density(g, d) + 0.05 * np.eye(d) / d


def unital_cpmap(g: np.random.Generator, d: int) -> CpMap:
    """Unital completely positive map with d Kraus operators from a random
    isometry.

    Stacks the isometry's d x d blocks B_m and uses K_m = B_m^dagger, so
    sum K_m K_m^dagger = V^dagger V = I and the map fixes the identity.
    """
    d = _size(d, "d")
    check_dense_size((d, d))  # cp_from_kraus's refusal, before the draw and the QR
    z = g.standard_normal((d * d, d)) + 1j * g.standard_normal((d * d, d))
    q, _ = np.linalg.qr(z)
    blocks = q.reshape(d, d, d)
    return cp_from_kraus([b.conj().T for b in blocks])


def lifting_tensor(g: np.random.Generator, n1: int, n2: int) -> np.ndarray:
    n1, n2 = _size(n1, "n1"), _size(n2, "n2")
    _check_bytes((n1, n2, n1), "lifting tensor", 8)
    slices = [probability_vector(g, n2 * n1).reshape(n2, n1) for _ in range(n1)]
    return as_lifting_tensor(np.array(slices))


def markov_spec(g: np.random.Generator, n: int) -> MarkovSpec:
    n = _size(n, "n")
    return MarkovSpec(stochastic(g, n, n).T, probability_vector(g, n))


def circulant_spec(g: np.random.Generator, d: int) -> CirculantSpec:
    """Random circulant state; blocks are blended toward their diagonals by
    a random amount so both verdicts of the partial-transpose test occur."""
    d = _size(d, "d")
    _check_bytes((d, d, d), "blocks")
    weights = probability_vector(g, d)
    mix = g.uniform(0.0, 1.0)
    blocks = []
    for alpha in range(d):
        z = g.standard_normal((d, d)) + 1j * g.standard_normal((d, d))
        b = z @ z.conj().T
        b = (1.0 - mix) * b + mix * np.diag(b.diagonal().real)
        b /= b.trace().real
        blocks.append(weights[alpha] * b)
    # checked: each block is a convex mix of PSD matrices with unit trace, times the
    # probability weights[alpha], so it is PSD with trace weights[alpha] and no entry exceeds 1.
    return CirculantSpec(_Fresh(np.array(blocks), checked=True))
