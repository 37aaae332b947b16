"""Tests for factored operators, partial trace/transpose, and PSD helpers."""
import numpy as np
import pytest

from liftlab.errors import (
    DimensionMismatchError,
    EigensolverError,
    IndexOutOfRangeError,
    NotAStateError,
    NotHermitianError,
    NotPSDError,
)
from liftlab.matcore import (
    FactoredOperator,
    check_state,
    herm_sqrt,
    is_psd,
    partial_trace,
    partial_transpose,
    sandwich_right,
    tensor,
    trace_out,
    unit_matrix,
)
from liftlab.circulant import BellSpectrum, CirculantSpec
from liftlab.clift import MarkovSpec
from liftlab.qlift import cp_identity, qcp_from_channel
from liftlab.sampling import density, rng


def test_non_finite_matrices_are_refused_by_the_psd_helpers():
    # LAPACK returns [0, -0] for eigvalsh([[nan, 0], [0, 0.5]]), which would pass as PSD.
    for bad in ([[np.nan, 0], [0, 1]], [[np.inf, 0], [0, 1]], [[1, 1j * np.inf], [0, 1]]):
        for helper in (is_psd, herm_sqrt):
            with pytest.raises(DimensionMismatchError, match="must be finite"):
                helper(np.array(bad, dtype=complex))


def test_factored_operator_validates_shape_and_dims():
    with pytest.raises(DimensionMismatchError):
        FactoredOperator(np.zeros((2, 3)))
    with pytest.raises(DimensionMismatchError):
        FactoredOperator(np.eye(4), (2, 3))
    with pytest.raises(DimensionMismatchError):
        FactoredOperator(np.array([[np.inf, 0], [0, 1]]))
    op = FactoredOperator(np.eye(6), (2, 3))
    assert op.dims == (2, 3)
    assert op.n_factors == 2
    assert op.trace() == pytest.approx(6.0)


def test_factored_operator_defaults_to_single_factor():
    op = FactoredOperator(np.eye(5))
    assert op.dims == (5,)


def test_matrix_is_read_only():
    op = FactoredOperator(np.eye(2))
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 2.0


def test_array_holding_objects_compare_and_hash_by_identity():
    builds = [
        lambda: FactoredOperator(np.eye(2)),
        lambda: cp_identity(2),
        lambda: qcp_from_channel(cp_identity(2)),
        lambda: CirculantSpec(np.stack([np.eye(2) / 4] * 2)),
        lambda: BellSpectrum(np.full((2, 2), 0.25)),
        lambda: MarkovSpec(np.eye(2), [0.5, 0.5]),
    ]
    for build in builds:
        a, b = build(), build()
        assert a == a and a != b and not a == b
        assert hash(a) == hash(a)
        assert len({a, b, a}) == 2 and a in [b, a]


def test_unit_matrix():
    e01 = unit_matrix(3, 0, 1)
    assert e01[0, 1] == 1.0
    assert np.count_nonzero(e01) == 1
    with pytest.raises(IndexOutOfRangeError):
        unit_matrix(3, 3, 0)


def test_partial_trace_of_product_returns_factors():
    g = rng(11)
    for _ in range(25):
        d2, d1 = int(g.integers(2, 5)), int(g.integers(2, 5))
        a, b = density(g, d2), density(g, d1)
        op = tensor(FactoredOperator(a, (d2,)), FactoredOperator(b, (d1,)))
        np.testing.assert_allclose(partial_trace(op, {1}).matrix, b, atol=1e-13)
        np.testing.assert_allclose(partial_trace(op, {2}).matrix, a, atol=1e-13)
        np.testing.assert_allclose(trace_out(op, {2}).matrix, b, atol=1e-13)


def test_partial_trace_keeps_left_to_right_order():
    g = rng(12)
    a = density(g, 2)
    b = density(g, 3)
    c = density(g, 2)
    op = FactoredOperator(np.kron(np.kron(a, b), c), (2, 3, 2))
    kept = partial_trace(op, {1, 3})
    np.testing.assert_allclose(kept.matrix, np.kron(a, c), atol=1e-13)
    assert kept.dims == (2, 2)


def test_partial_trace_matches_stepwise_tracing():
    g = rng(13)
    for _ in range(20):
        dims = tuple(int(g.integers(2, 4)) for _ in range(3))
        side = int(np.prod(dims))
        z = g.standard_normal((side, side)) + 1j * g.standard_normal((side, side))
        op = FactoredOperator(z, dims)
        np.testing.assert_allclose(
            partial_trace(op, {2}).matrix,
            trace_out(trace_out(op, {3}), {1}).matrix,
            atol=1e-12,
        )
        assert partial_trace(op, {2}).trace() == pytest.approx(op.trace(), abs=1e-12)


def test_partial_trace_label_validation():
    op = FactoredOperator(np.eye(4), (2, 2))
    with pytest.raises(IndexOutOfRangeError):
        partial_trace(op, {3})
    with pytest.raises(IndexOutOfRangeError):
        partial_trace(op, set())


def test_partial_transpose_acts_on_one_factor():
    g = rng(14)
    for _ in range(20):
        d2, d1 = int(g.integers(2, 4)), int(g.integers(2, 4))
        za = g.standard_normal((d2, d2)) + 1j * g.standard_normal((d2, d2))
        zb = g.standard_normal((d1, d1)) + 1j * g.standard_normal((d1, d1))
        op = FactoredOperator(np.kron(za, zb), (d2, d1))
        np.testing.assert_allclose(partial_transpose(op, 1).matrix, np.kron(za, zb.T), atol=1e-13)
        np.testing.assert_allclose(partial_transpose(op, 2).matrix, np.kron(za.T, zb), atol=1e-13)
        back = partial_transpose(partial_transpose(op, 1), 1)
        np.testing.assert_allclose(back.matrix, op.matrix, atol=1e-13)


def test_partial_transpose_full_equals_transpose():
    g = rng(15)
    z = g.standard_normal((6, 6)) + 1j * g.standard_normal((6, 6))
    op = FactoredOperator(z, (2, 3))
    both = partial_transpose(partial_transpose(op, 1), 2)
    np.testing.assert_allclose(both.matrix, z.T, atol=1e-13)


def test_is_psd_and_herm_sqrt():
    g = rng(16)
    for _ in range(20):
        d = int(g.integers(2, 6))
        z = g.standard_normal((d, d)) + 1j * g.standard_normal((d, d))
        m = z @ z.conj().T
        ok, lo = is_psd(m)
        assert ok and lo > -1e-9
        s = herm_sqrt(m)
        np.testing.assert_allclose(s @ s, m, atol=1e-10 * max(1, np.abs(m).max()))
    with pytest.raises(NotHermitianError):
        is_psd(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NotPSDError):
        herm_sqrt(np.diag([1.0, -1.0]))
    assert is_psd(np.zeros((0, 0)))[0]
    assert herm_sqrt(np.zeros((0, 0))).shape == (0, 0)


def test_is_psd_flags_negative_eigenvalue():
    ok, lo = is_psd(np.diag([1.0, -0.5]))
    assert not ok
    assert lo == pytest.approx(-0.5)


def test_check_state():
    state = check_state(np.eye(2) / 2)
    assert state.dims == (2,)
    with pytest.raises(NotAStateError):
        check_state(np.diag([1.5, -0.5]))
    with pytest.raises(NotAStateError):
        check_state(np.eye(2))
    with pytest.raises(NotAStateError):
        check_state(np.array([[0.5, 0.5], [0.0, 0.5]]))


def test_sandwich_right_matches_kron_sandwich():
    g = rng(19)
    for side, k in ((6, 3), (8, 4), (12, 2), (5, 5), (4, 1)):
        x = g.standard_normal((side, side)) + 1j * g.standard_normal((side, side))
        r = g.standard_normal((k, k)) + 1j * g.standard_normal((k, k))
        s = np.kron(np.eye(side // k), r)
        np.testing.assert_allclose(sandwich_right(x, r), s @ x @ s, atol=1e-12)
    with pytest.raises(DimensionMismatchError):
        sandwich_right(np.eye(6), np.eye(4))
    with pytest.raises(DimensionMismatchError):
        sandwich_right(np.eye(6), np.ones((3, 2)))


def _no_convergence(*args, **kwargs):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def test_eigensolver_failure_is_a_typed_domain_error(monkeypatch):
    monkeypatch.setattr(np.linalg, "eigh", _no_convergence)
    with pytest.raises(EigensolverError, match="did not converge"):
        herm_sqrt(np.eye(2))
    monkeypatch.setattr(np.linalg, "eigvalsh", _no_convergence)
    with pytest.raises(EigensolverError, match="did not converge"):
        is_psd(np.eye(2))
