"""Diagonal states built from their weights, and when FactoredOperator copies.

The six diagonal constructors build their d^N x d^N matrix once with
diagonal_operator and check finiteness on the d^N weights; from side
MMAP_DIAGONAL_SIDE up the matrix lies on a private anonymous mmap whose zero
pages are never written. Library constructors hand FactoredOperator arrays they
have just made without a copy; a caller's array is always copied.
"""
import mmap
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liftlab import (
    DimensionMismatchError,
    FactoredOperator,
    SchemaError,
    build_circulant,
    classical_choi,
    gamma_lifting,
    lift,
    markov_state,
    markov_weights,
    max_correlated_state,
    n_compose_qcp,
    n_lift,
    n_nonlinear_lift,
    partial_trace,
    partial_transpose,
    qcp_from_channel,
    tensor,
)
from liftlab.clift import as_lifting_tensor
from liftlab.classical import as_channel, as_permutation, as_probability_vector
from liftlab import matcore
from liftlab.matcore import MMAP_DIAGONAL_SIDE, diagonal_operator
from liftlab.sampling import (
    circulant_spec,
    density,
    faithful_density,
    lifting_tensor,
    markov_spec,
    permutation,
    probability_vector,
    rng,
    stochastic,
    unital_cpmap,
)


def _old_lift(t, p):
    w = np.einsum("ijk,i->jk", as_lifting_tensor(t), as_probability_vector(p))
    return np.diag(w.reshape(-1).astype(complex))


def _old_n_lift(t, p, parties):
    e, w = as_lifting_tensor(t), as_probability_vector(p)
    for _ in range(parties - 1):
        w = np.einsum("...i,ijk->...jk", w, e)
    return np.diag(w.reshape(-1).astype(complex))


def _old_gamma_lifting(gamma, sigma, p):
    w = np.asarray(gamma, dtype=float).T @ np.outer(as_probability_vector(sigma), as_probability_vector(p)).reshape(-1)
    return np.diag(w.astype(complex))


def _old_markov_state(spec, parties):
    return np.diag(markov_weights(spec, parties).reshape(-1).astype(complex))


def _old_classical_choi(weights):
    w = as_channel(weights)
    return np.diag((w / w.shape[1]).reshape(-1).astype(complex))


def _old_max_correlated_state(perm):
    s = as_permutation(perm)
    n = s.size
    pos = np.arange(n) * n + s
    m = np.zeros((n * n, n * n), dtype=complex)
    m[pos, pos] = 1.0 / n
    return m


def _doubly_stochastic(g, n):
    """A convex mix of permutation matrices: unital and stochastic."""
    weights = probability_vector(g, 3)
    return sum(c * np.eye(n)[permutation(g, n)] for c in weights)


def _assert_same(op, old, dims):
    assert op.dims == dims
    assert op.matrix.dtype == old.dtype
    np.testing.assert_array_equal(op.matrix, old)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n1=st.integers(1, 4), n2=st.integers(1, 4), parties=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
def test_diagonal_constructors_equal_their_dense_forms(n1, n2, parties, seed):
    g = rng(seed)
    t, p = lifting_tensor(g, n1, n2), probability_vector(g, n1)
    _assert_same(lift(t, p), _old_lift(t, p), (n2, n1))
    square = lifting_tensor(g, n1, n1)
    _assert_same(n_lift(square, p, parties), _old_n_lift(square, p, parties), (n1,) * parties)
    joint, sigma = stochastic(g, n2 * n1, n2 * n1), probability_vector(g, n2)
    _assert_same(gamma_lifting(joint, sigma, p), _old_gamma_lifting(joint, sigma, p), (n2, n1))
    spec = markov_spec(g, n1)
    _assert_same(markov_state(spec, parties), _old_markov_state(spec, parties), (n1,) * parties)
    unital = _doubly_stochastic(g, n1)
    _assert_same(classical_choi(unital), _old_classical_choi(unital), (n1, n1))
    perm = permutation(g, n2)
    _assert_same(max_correlated_state(perm), _old_max_correlated_state(perm), (n2, n2))


PAST_BOUND = r" must hold finite numbers of modulus at most 2\*\*60$"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.inf), 2.0**61])
def test_non_finite_weights_raise_as_before(bad):
    with pytest.raises(SchemaError, match="^weights" + PAST_BOUND):
        diagonal_operator([0.5, bad], (2,))
    with pytest.raises(SchemaError, match="^matrix" + PAST_BOUND):
        FactoredOperator(np.diag([0.5, bad]))


@pytest.mark.skipif(np.finfo(np.longdouble).max <= np.finfo(float).max, reason="longdouble is double here")
def test_weights_overflowing_to_inf_raise():
    huge = np.longdouble(np.finfo(float).max) * 4
    with np.errstate(over="ignore"), pytest.raises(SchemaError, match="^weights" + PAST_BOUND):
        diagonal_operator(np.array([huge, 0], dtype=np.longdouble), (2,))


def _on_mmap(a) -> bool:
    while isinstance(a, np.ndarray):
        a = a.base
    return isinstance(a.obj if isinstance(a, memoryview) else a, mmap.mmap)


@pytest.mark.parametrize("side", [MMAP_DIAGONAL_SIDE - 1, MMAP_DIAGONAL_SIDE])
def test_diagonal_operator_on_both_sides_of_the_mmap_switch(side):
    w = rng(side).random(side) + 1j * rng(side + 1).random(side)
    want = np.diag(w)
    op = diagonal_operator(w, (side,))
    assert _on_mmap(op.matrix) == (side >= MMAP_DIAGONAL_SIDE)
    assert op.dims == (side,)
    np.testing.assert_array_equal(op.matrix, want)
    assert not op.matrix.flags.writeable
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 1.0
    w[:] = 7.0
    np.testing.assert_array_equal(op.matrix, want)
    w[0] = np.nan
    with pytest.raises(SchemaError, match="^weights" + PAST_BOUND):
        diagonal_operator(w, (side,))


def test_mmap_diagonals_build_the_diagonal_states(monkeypatch):
    g = rng(9)
    t, p, spec = lifting_tensor(g, 2, 2), probability_vector(g, 2), markov_spec(g, 2)
    monkeypatch.setattr(matcore, "MMAP_DIAGONAL_SIDE", 4)
    for op, old in ((n_lift(t, p, 4), _old_n_lift(t, p, 4)),
                    (markov_state(spec, 4), _old_markov_state(spec, 4)),
                    (lift(t, p), _old_lift(t, p)),
                    (max_correlated_state([1, 0]), _old_max_correlated_state([1, 0]))):
        assert _on_mmap(op.matrix)
        _assert_same(op, old, op.dims)
        assert not op.matrix.flags.writeable


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads the Linux /proc/self/status counters")
def test_large_diagonal_state_touches_only_its_diagonal_pages():
    # The n=2, N=12 matrix is 256 MiB; its 4096 diagonal entries sit on 4096
    # pages, 16 MiB, and the interpreter with numpy adds about 40 MiB. The
    # child reports VmHWM, its own peak: a forked child's ru_maxrss starts at
    # the resident size of the parent that forked it. It also reports how
    # much its RssShmem grew: a shared anonymous map would put the 16 MiB of
    # diagonal pages there; the private map puts none. The map is opted out
    # of transparent huge pages, so the peak holds under THP "always" too.
    code = (
        "import numpy as np; from liftlab import n_lift; from liftlab.clift import ohya_tensor; "
        "status = lambda key: int(next(line.split()[1] for line in open('/proc/self/status') "
        "if line.startswith(key + ':'))); "
        "shmem = status('RssShmem'); "
        "op = n_lift(ohya_tensor(2), [0.5, 0.5], 12); "
        "assert op.matrix.nbytes == 1 << 28 and abs(np.trace(op.matrix) - 1) < 1e-12; "
        "print(status('VmHWM'), status('RssShmem') - shmem)"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    peak, shmem_growth = map(int, out.stdout.split())  # KiB
    assert peak < 128 * 1024
    assert shmem_growth < 1024


def test_diagonal_operator_checks_the_weight_count():
    with pytest.raises(DimensionMismatchError, match="weight count is 3"):
        diagonal_operator(np.ones(3) / 3, (2, 2))
    with pytest.raises(DimensionMismatchError, match="must be positive"):
        diagonal_operator(np.ones(0), (2, 0))


def _constructed():
    g = rng(5)
    t, p = lifting_tensor(g, 2, 3), probability_vector(g, 2)
    pi = qcp_from_channel(unital_cpmap(g, 2))
    state = FactoredOperator(density(g, 2), (2,))
    yield lift(t, p)
    yield n_lift(lifting_tensor(g, 2, 2), p, 4)
    yield gamma_lifting(stochastic(g, 6, 6), probability_vector(g, 3), p)
    yield markov_state(markov_spec(g, 3), 3)
    yield classical_choi(np.eye(3))
    yield max_correlated_state([2, 0, 1])
    yield tensor(state, state)
    yield build_circulant(circulant_spec(g, 3))
    yield n_nonlinear_lift(pi, faithful_density(g, 2), 3)
    yield n_compose_qcp([pi, pi])
    composite = n_compose_qcp([pi])
    yield composite
    yield partial_trace(composite, {1})
    yield partial_trace(composite, {1, 2})
    yield partial_transpose(composite, 1)


@pytest.mark.parametrize("op", list(_constructed()), ids=lambda op: f"dims{op.dims}")
def test_constructed_matrices_are_read_only(op):
    assert not op.matrix.flags.writeable
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 1.0


@pytest.mark.parametrize("read_only", [False, True])
@pytest.mark.parametrize("dtype", [complex, float])
def test_caller_arrays_are_copied(dtype, read_only):
    a = np.diag(np.array([0.25, 0.75], dtype=dtype))
    a.setflags(write=not read_only)
    op = FactoredOperator(a, (2,))
    assert not np.shares_memory(op.matrix, a)
    a.setflags(write=True)
    a[0, 0] = 7.0
    np.testing.assert_array_equal(op.matrix, np.diag([0.25, 0.75]))


def test_single_link_chain_does_not_alias_the_callers_matrix():
    pi = qcp_from_channel(unital_cpmap(rng(2), 2)).matrix.copy()
    for op in (n_compose_qcp([pi]), partial_trace(FactoredOperator(pi, (2, 2)), {1, 2})):
        assert not np.shares_memory(op.matrix, pi)


N10_BYTES = 2**20 * 16  # the 1024 x 1024 complex result of n=2, N=10: 16 MiB


@pytest.mark.parametrize("build", ["n_lift", "markov_state"])
def test_diagonal_state_peak_memory_holds_one_copy(build):
    # N=10 stays below MMAP_DIAGONAL_SIDE, on the np.diag path that
    # tracemalloc sees; an mmap is not traced.
    g = rng(0)
    t, p, spec = lifting_tensor(g, 2, 2), probability_vector(g, 2), markov_spec(g, 2)
    run = {"n_lift": lambda: n_lift(t, p, 10), "markov_state": lambda: markov_state(spec, 10)}[build]
    tracemalloc.start()
    try:
        op = run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert op.matrix.nbytes == N10_BYTES
    assert peak < 1.5 * N10_BYTES

