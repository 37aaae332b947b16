"""Tests for classical lifting tensors, Markov chains, and separable states."""
import itertools

import numpy as np
import pytest

from liftlab.errors import (
    DimensionMismatchError,
    IndexOutOfRangeError,
    MapNotPositiveError,
    NegativeEntryError,
    NotNormalizedError,
    SchemaError,
)
from liftlab.clift import (
    MarkovSpec,
    as_lifting_tensor,
    gamma_lifting,
    is_markovian_lifting,
    is_nondemolition,
    lift,
    markov_state,
    markov_tensor,
    markov_weights,
    n_lift,
    ohya_tensor,
    product_tensor,
    pure_tensor,
    separable_n_state,
    transition_expectation_sides,
    verify_transition_expectation,
)
from liftlab import clift, matcore
from liftlab.matcore import partial_trace, trace_out
from liftlab.qlift import ohya_lift
from liftlab.sampling import lifting_tensor, markov_spec, probability_vector, rng


def test_lifting_tensor_validation():
    with pytest.raises(DimensionMismatchError):
        as_lifting_tensor(np.ones((2, 3)))
    with pytest.raises(DimensionMismatchError):
        as_lifting_tensor(np.ones((2, 3, 3)) / 3)
    with pytest.raises(NegativeEntryError):
        e = np.zeros((2, 2, 2))
        e[:, 0, :] = 1.5
        e[:, 1, :] = -0.5
        as_lifting_tensor(e)
    with pytest.raises(NotNormalizedError):
        as_lifting_tensor(np.full((2, 2, 2), 0.4))


def test_lifting_tensor_refuses_non_finite_entries():
    e = ohya_tensor(2)
    e[0, 0, 0] = np.nan
    with pytest.raises(SchemaError, match="^lifting tensor must hold finite numbers of modulus at most 2"):
        as_lifting_tensor(e)


def test_lift_with_product_tensor():
    q = np.array([0.2, 0.8])
    p = np.array([0.6, 0.4])
    op = lift(product_tensor(q, 2), p)
    assert op.dims == (2, 2)
    np.testing.assert_allclose(np.diag(op.matrix).real, np.outer(q, p).reshape(-1), atol=1e-13)


def test_lift_with_ohya_tensor():
    p = np.array([0.6, 0.3, 0.1])
    op = lift(ohya_tensor(3), p)
    expect = np.zeros(9)
    expect[[0, 4, 8]] = p
    np.testing.assert_allclose(np.diag(op.matrix).real, expect, atol=1e-13)


def test_lift_with_pure_tensor():
    op = lift(pure_tensor([1, 0], 2), np.array([0.6, 0.4]))
    got = np.diag(op.matrix).real.reshape(2, 2)
    assert got[1, 0] == pytest.approx(0.6)
    assert got[0, 1] == pytest.approx(0.4)


def test_pure_tensor_checks_its_images():
    np.testing.assert_array_equal(pure_tensor(np.array([1, 0], dtype=np.uint8)), pure_tensor([1, 0], 2))
    for images in ([], [[0, 1]], [0.7, 1.2]):
        with pytest.raises(DimensionMismatchError, match="non-empty 1-d array of integers"):
            pure_tensor(images)
    for images in ([True, False], ["0"], [1, True]):  # not numbers
        with pytest.raises(SchemaError, match="^images must be a rectangular array of numbers$"):
            pure_tensor(images)
    for images, n2 in (([-1, 0], None), ([0, 5], 2), ([0, 1], 1)):
        with pytest.raises(IndexOutOfRangeError, match="outside range"):
            pure_tensor(images, n2)


def test_lift_refuses_oversized_output(monkeypatch):
    monkeypatch.setattr(matcore, "MAX_DENSE_BYTES", 16 * 4 * 4)
    assert lift(ohya_tensor(2), [0.5, 0.5]).dims == (2, 2)
    with pytest.raises(SchemaError, match="limit"):
        lift(product_tensor([0.5, 0.25, 0.25], 2), [0.5, 0.5])


def test_nondemolition_predicate():
    assert is_nondemolition(product_tensor([0.5, 0.5], 3))
    assert is_nondemolition(ohya_tensor(4))
    smeared = np.zeros((3, 2, 3))
    for i in range(3):
        smeared[i, :, (i + 1) % 3] = 0.5
    assert not is_nondemolition(smeared)


def test_nondemolition_means_marginal_preserved():
    g = rng(31)
    draws = []
    for _ in range(40):
        n1, n2 = int(g.integers(2, 5)), int(g.integers(2, 5))
        draws.append((lifting_tensor(g, n1, n2), probability_vector(g, n1)))
    # Draws that are nondemolition, so that the True side is compared as well.
    for n in (2, 3, 4):
        draws.append((markov_tensor(markov_spec(g, n).conditional), probability_vector(g, n)))
        mix = 0.5 * ohya_tensor(n) + 0.5 * product_tensor(probability_vector(g, n), n)
        draws.append((mix, probability_vector(g, n)))
    verdicts = set()
    for e, p in draws:
        kept = trace_out(lift(e, p), {2})
        preserved = np.allclose(np.diag(kept.matrix).real, p, atol=1e-10)
        assert preserved == is_nondemolition(e)
        verdicts.add(preserved)
    assert verdicts == {False, True}


def test_transition_expectation_reads_each_observable_once(monkeypatch):
    # Every observable is within the bound; the nested side's intermediates
    # (2**118 and past) are not re-read as observables.
    spec = MarkovSpec(np.full((2, 2), 0.5), [0.5, 0.5])
    obs = [2.0**59 * np.ones(2)] * 3
    stepped = []
    monkeypatch.setattr(clift, "markov_operator", lambda *a: stepped.append(a))
    lhs, rhs = transition_expectation_sides(spec, obs)
    assert lhs == rhs == 2.0**177
    assert verify_transition_expectation(spec, 3, obs)
    assert stepped == []


def test_markovian_detection():
    ok, cond = is_markovian_lifting(ohya_tensor(3))
    assert ok
    np.testing.assert_allclose(cond, np.eye(3), atol=1e-13)
    ok, cond = is_markovian_lifting(product_tensor([0.3, 0.7], 4))
    assert ok
    np.testing.assert_allclose(cond, np.tile([[0.3], [0.7]], (1, 4)), atol=1e-13)
    ok, cond = is_markovian_lifting(pure_tensor([1, 0], 2))
    assert ok
    np.testing.assert_allclose(cond, [[0.0, 1.0], [1.0, 0.0]], atol=1e-13)


def test_markov_tensor_roundtrip():
    g = rng(32)
    for _ in range(20):
        n = int(g.integers(2, 5))
        spec = markov_spec(g, n)
        ok, cond = is_markovian_lifting(markov_tensor(spec.conditional))
        assert ok
        np.testing.assert_allclose(cond, spec.conditional, atol=1e-12)


def test_non_markovian_tensor():
    e = np.zeros((2, 2, 2))
    e[0, 0, 0] = 0.5
    e[0, 1, 1] = 0.5
    e[1, 1, 0] = 0.5
    e[1, 0, 1] = 0.5
    ok, cond = is_markovian_lifting(e)
    assert not ok
    assert cond is None


def test_gamma_lifting_identity_and_swap():
    sigma = np.array([0.2, 0.8])
    p = np.array([0.6, 0.4])
    ident = gamma_lifting(np.eye(4), sigma, p)
    np.testing.assert_allclose(np.diag(ident.matrix).real, np.outer(sigma, p).reshape(-1), atol=1e-13)
    swap = np.zeros((4, 4))
    for i in range(2):
        for k in range(2):
            swap[i * 2 + k, k * 2 + i] = 1.0
    swapped = gamma_lifting(swap, sigma, p)
    np.testing.assert_allclose(np.diag(swapped.matrix).real, np.outer(p, sigma).reshape(-1), atol=1e-13)


def test_gamma_lifting_requires_stochastic_rows():
    with pytest.raises(NotNormalizedError):
        gamma_lifting(np.full((4, 4), 0.3), [0.5, 0.5], [0.5, 0.5])


def test_gamma_lifting_refuses_non_finite_entries():
    with pytest.raises(SchemaError, match="^joint channel must hold finite numbers of modulus at most 2"):
        gamma_lifting([[np.inf, 0], [0, 1]], [1.0], [0.5, 0.5])


def test_n_lift_ohya_copies():
    p = np.array([0.6, 0.4])
    op = n_lift(ohya_tensor(2), p, 3)
    assert op.dims == (2, 2, 2)
    expect = np.zeros(8)
    expect[0] = 0.6
    expect[7] = 0.4
    np.testing.assert_allclose(np.diag(op.matrix).real, expect, atol=1e-13)


def test_n_lift_product_tensor():
    q = np.array([0.2, 0.8])
    p = np.array([0.6, 0.4])
    op = n_lift(product_tensor(q, 2), p, 3)
    expect = np.einsum("a,b,c->abc", q, q, p).reshape(-1)
    np.testing.assert_allclose(np.diag(op.matrix).real, expect, atol=1e-13)


def test_n_lift_pure_tensor_reads_retained_system():
    s = [1, 2, 0]
    p = np.array([1.0, 0.0, 0.0])
    op = n_lift(pure_tensor(s), p, 3)
    w = np.diag(op.matrix).real.reshape(3, 3, 3)
    assert w[s[0], s[0], 0] == pytest.approx(1.0)
    assert w.sum() == pytest.approx(1.0)


def test_markov_spec_refuses_non_finite_entries():
    with pytest.raises(SchemaError, match="^conditional must hold finite numbers of modulus at most 2"):
        MarkovSpec([[np.nan, 0], [1, 1]], [0.5, 0.5])


def test_markov_weights_match_product_formula():
    spec = MarkovSpec([[0.9, 0.2], [0.1, 0.8]], [0.6, 0.4])
    w = markov_weights(spec, 3)
    c = spec.conditional
    p = spec.initial
    for idx in itertools.product(range(2), repeat=3):
        i3, i2, i1 = idx
        assert w[idx] == pytest.approx(c[i3, i2] * c[i2, i1] * p[i1], abs=1e-13)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)


def test_markov_state_single_party_and_identity_chain():
    p = np.array([0.6, 0.4])
    spec = MarkovSpec(np.eye(2), p)
    one = markov_state(spec, 1)
    np.testing.assert_allclose(np.diag(one.matrix).real, p, atol=1e-13)
    three = markov_state(spec, 3)
    expect = np.zeros(8)
    expect[0] = 0.6
    expect[7] = 0.4
    np.testing.assert_allclose(np.diag(three.matrix).real, expect, atol=1e-13)


def test_markov_tensor_lift_matches_two_party_chain():
    g = rng(33)
    for _ in range(20):
        n = int(g.integers(2, 5))
        spec = markov_spec(g, n)
        chain = markov_state(spec, 2)
        lifted = lift(markov_tensor(spec.conditional), spec.initial)
        np.testing.assert_allclose(chain.matrix, lifted.matrix, atol=1e-12)
        assert chain.dims == lifted.dims


def test_markov_tensor_iteration_reads_retained_system():
    g = rng(37)
    for _ in range(10):
        n = int(g.integers(2, 4))
        spec = markov_spec(g, n)
        c, p = spec.conditional, spec.initial
        lifted = n_lift(markov_tensor(c), p, 3)
        w = np.diag(lifted.matrix).real.reshape(n, n, n)
        expect = np.einsum("ak,jk,k->ajk", c, c, p)
        np.testing.assert_allclose(w, expect, atol=1e-12)


def test_markov_reduction_drops_latest_step():
    g = rng(34)
    for _ in range(20):
        n = int(g.integers(2, 4))
        parties = int(g.integers(2, 5))
        spec = markov_spec(g, n)
        longer = markov_state(spec, parties)
        shorter = markov_state(spec, parties - 1)
        np.testing.assert_allclose(trace_out(longer, {parties}).matrix, shorter.matrix, atol=1e-12)


def test_transition_expectation_identity():
    g = rng(35)
    spec = MarkovSpec([[0.9, 0.2], [0.1, 0.8]], [0.6, 0.4])
    lhs, rhs = transition_expectation_sides(spec, [np.ones(2)] * 4)
    assert lhs == pytest.approx(1.0, abs=1e-12)
    assert rhs == pytest.approx(1.0, abs=1e-12)
    for _ in range(30):
        n = int(g.integers(2, 5))
        parties = int(g.integers(1, 5))
        random_spec = markov_spec(g, n)
        obs = [g.uniform(-1, 1, n) for _ in range(parties)]
        assert verify_transition_expectation(random_spec, parties, obs)


def test_transition_expectation_needs_matching_count():
    spec = MarkovSpec(np.eye(2), [0.5, 0.5])
    with pytest.raises(DimensionMismatchError):
        verify_transition_expectation(spec, 3, [np.ones(2)] * 2)


def test_separable_state_diagonal_images_match_copy_lift():
    p = np.array([0.6, 0.3, 0.1])
    units = np.stack([np.diag(row) for row in np.eye(3)])
    sep = separable_n_state(p, [units, units])
    copied = n_lift(ohya_tensor(3), p, 2)
    np.testing.assert_allclose(sep.matrix, copied.matrix, atol=1e-13)
    assert sep.dims == copied.dims


def test_separable_state_quantum_images():
    p = np.array([0.5, 0.5])
    plus = np.full((2, 2), 0.5, dtype=complex)
    minus = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
    images = np.stack([plus, minus])
    op = separable_n_state(p, [images, images])
    assert op.dims == (2, 2)
    assert op.trace() == pytest.approx(1.0, abs=1e-12)
    left = partial_trace(op, {2}).matrix
    np.testing.assert_allclose(left, np.eye(2) / 2, atol=1e-12)


def test_separable_state_rejects_non_psd_images():
    bad = np.stack([np.diag([1.0, -0.2]), np.eye(2)]).astype(complex)
    with pytest.raises(MapNotPositiveError):
        separable_n_state([0.5, 0.5], [bad])


def test_separable_local_marginals_match_quantum_copy_lift():
    g = rng(36)
    for _ in range(10):
        d = int(g.integers(2, 4))
        p = probability_vector(g, d)
        units = np.stack([np.diag(row).astype(complex) for row in np.eye(d)])
        sep = separable_n_state(p, [units, units, units])
        quantum = ohya_lift(np.diag(p).astype(complex), 3)
        np.testing.assert_allclose(sep.matrix, quantum.matrix, atol=1e-11)
