"""Tests for classical channels, Kraus forms, dilations, and teleportation."""
import itertools

import numpy as np
import pytest

from liftlab.errors import (
    DimensionMismatchError,
    NegativeEntryError,
    NotNormalizedError,
    NotUnitalError,
    SchemaError,
)
from liftlab.classical import (
    apply_kraus,
    apply_to_observable,
    apply_to_state,
    as_channel,
    as_permutation,
    as_probability_vector,
    channel_from_dilation,
    classical_choi,
    classical_teleport,
    is_doubly_stochastic,
    is_stochastic,
    is_unital,
    kraus_from_channel,
    max_correlated_state,
    permutation_channel,
    permutation_inverse,
)
from liftlab.matcore import partial_trace
from liftlab.sampling import probability_vector, rng, stochastic


def test_probability_vector_validation():
    np.testing.assert_allclose(as_probability_vector([0.25, 0.75]), [0.25, 0.75])
    with pytest.raises(NegativeEntryError):
        as_probability_vector([1.2, -0.2])
    with pytest.raises(NotNormalizedError):
        as_probability_vector([0.5, 0.6])


def test_permutation_validation():
    assert as_permutation([2, 0, 1]).tolist() == [2, 0, 1]
    with pytest.raises(SchemaError):
        as_permutation([0, 0, 1])
    with pytest.raises(SchemaError):
        as_permutation([0, 3, 1])
    s = as_permutation([2, 0, 1])
    np.testing.assert_array_equal(s[permutation_inverse(s)], np.arange(3))


def test_stochasticity_predicates():
    w = np.array([[0.5, 0.5], [0.25, 0.75]])
    assert is_stochastic(w)
    assert not is_unital(w)
    assert not is_doubly_stochastic(w)
    assert is_doubly_stochastic(np.array([[0.3, 0.7], [0.7, 0.3]]))


def test_kraus_matches_matrix_action():
    g = rng(21)
    for _ in range(50):
        n1, n2 = int(g.integers(2, 5)), int(g.integers(2, 5))
        w = stochastic(g, n1, n2)
        p = probability_vector(g, n1)
        kraus = kraus_from_channel(w)
        assert len(kraus) == n1 * n2
        direct = apply_to_state(w, p)
        via_kraus = apply_kraus(kraus, np.diag(p))
        np.testing.assert_allclose(np.diag(via_kraus), direct, atol=1e-12)
        np.testing.assert_allclose(via_kraus, np.diag(direct), atol=1e-12)
    with pytest.raises(DimensionMismatchError, match="at least one Kraus operator"):
        apply_kraus([], np.eye(2) / 2)


def test_contraction_duality_and_preservation():
    g = rng(22)
    for _ in range(30):
        n1, n2 = int(g.integers(2, 5)), int(g.integers(2, 5))
        w = stochastic(g, n1, n2)
        p = probability_vector(g, n1)
        a = g.uniform(-1, 1, n2)
        pushed = apply_to_state(w, p)
        assert pushed.sum() == pytest.approx(1.0, abs=1e-12)
        lhs = float(np.dot(a, pushed))
        rhs = float(np.dot(apply_to_observable(w.T, a), p))
        assert lhs == pytest.approx(rhs, abs=1e-12)
        unital = as_channel(stochastic(g, n2, n1).T)
        np.testing.assert_allclose(
            apply_to_observable(unital, np.ones(n1)), np.ones(n2), atol=1e-12
        )


def test_permutation_channel_composition():
    g = rng(23)
    for _ in range(20):
        n = int(g.integers(2, 6))
        s = g.permutation(n)
        t = g.permutation(n)
        ws, wt = permutation_channel(s), permutation_channel(t)
        p = probability_vector(g, n)
        one = apply_to_state(wt, apply_to_state(ws, p))
        two = apply_to_state(ws @ wt, p)
        np.testing.assert_allclose(one, two, atol=1e-13)
        inv = permutation_channel(permutation_inverse(s))
        np.testing.assert_allclose(ws @ inv, np.eye(n), atol=1e-13)


def test_dilation_identity_permutation():
    sigma = np.array([0.7, 0.3])
    w = channel_from_dilation([0, 1, 2, 3], sigma)
    np.testing.assert_allclose(w, np.eye(2), atol=1e-13)


def test_dilation_known_symmetric_channel():
    sigma = np.array([0.7, 0.3])
    w = channel_from_dilation([0, 3, 2, 1], sigma)
    np.testing.assert_allclose(w, [[0.7, 0.3], [0.3, 0.7]], atol=1e-13)
    assert is_doubly_stochastic(w)


def test_dilation_constant_channel():
    sigma = np.array([0.7, 0.3])
    w = channel_from_dilation([0, 2, 1, 3], sigma)
    np.testing.assert_allclose(w, [[0.7, 0.3], [0.7, 0.3]], atol=1e-13)
    assert is_stochastic(w)
    assert not is_doubly_stochastic(w)


def test_dilation_census_for_generic_ancilla():
    sigma = np.array([0.7, 0.3])
    doubly, constant = 0, 0
    for perm in itertools.permutations(range(4)):
        w = channel_from_dilation(list(perm), sigma)
        assert is_stochastic(w)
        if is_doubly_stochastic(w):
            doubly += 1
        else:
            np.testing.assert_allclose(w[0], w[1], atol=1e-13)
            constant += 1
    assert doubly == 16
    assert constant == 8


def test_max_correlated_state():
    s = np.array([1, 2, 0])
    op = max_correlated_state(s)
    assert op.dims == (3, 3)
    m = op.matrix
    assert m.trace() == pytest.approx(1.0)
    for i in range(3):
        assert m[3 * i + s[i], 3 * i + s[i]] == pytest.approx(1 / 3)
    assert np.count_nonzero(m) == 3


def test_classical_choi_weights_and_marginal():
    g = rng(24)
    with pytest.raises(NotUnitalError):
        classical_choi(np.array([[0.5, 0.5], [0.25, 0.75]]))
    for _ in range(20):
        n = int(g.integers(2, 5))
        w = as_channel(stochastic(g, n, n).T)
        if not is_unital(w):
            w = np.eye(n)
        op = classical_choi(w)
        m = op.matrix
        for i in range(n):
            for j in range(n):
                assert m[i * n + j, i * n + j] == pytest.approx(w[i, j] / n)
        rightmost = partial_trace(op, {1}).matrix
        np.testing.assert_allclose(rightmost, np.eye(n) / n, atol=1e-12)


def test_teleport_cycle_example():
    p = np.array([0.5, 0.3, 0.2])
    s = np.array([1, 2, 0])
    bob, corrected = classical_teleport(p, s)
    np.testing.assert_allclose(bob, [0.2, 0.5, 0.3], atol=1e-13)
    np.testing.assert_allclose(corrected, p, atol=1e-13)


def test_teleport_random_roundtrip():
    g = rng(25)
    for _ in range(40):
        n = int(g.integers(2, 6))
        p = probability_vector(g, n)
        s = g.permutation(n)
        bob, corrected = classical_teleport(p, s)
        np.testing.assert_allclose(bob, p[permutation_inverse(s)], atol=1e-13)
        np.testing.assert_allclose(corrected, p, atol=1e-13)
        assert bob.sum() == pytest.approx(1.0, abs=1e-12)


def test_validators_reject_non_finite_entries():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(SchemaError, match="probability vector entries must be finite"):
            as_probability_vector([bad, 1.0])
        with pytest.raises(SchemaError, match="channel weights must be finite"):
            as_channel([[bad, 0.0], [0.0, 1.0]])
