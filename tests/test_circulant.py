"""Tests for circulant-supported two-party states and Bell-diagonal liftings."""
import numpy as np
import pytest

from liftlab.errors import (
    BlockNotPSDError,
    DimensionMismatchError,
    IndexOutOfRangeError,
    NotNormalizedError,
    SchemaError,
    TraceNotOneError,
)
from liftlab.circulant import (
    BellSpectrum,
    CirculantSpec,
    assemble_partial_transpose,
    bell_diagonal_lift,
    bell_state,
    bell_unitary,
    build_circulant,
    circulant_lift,
    circulant_lift_isometry,
    circulant_partial_transpose,
    circulant_subspaces,
    is_ppt_circulant,
    _pt_spectra,
    maximally_entangled,
    shift_matrix,
)
from liftlab.matcore import is_psd, partial_transpose
from liftlab.sampling import circulant_spec, density, faithful_density, probability_vector, rng


def test_subspaces_partition_all_pairs():
    for d in (2, 3, 4):
        partners = circulant_subspaces(d)
        assert partners.shape == (d, d)
        seen = {(i, int(partners[alpha, i])) for alpha in range(d) for i in range(d)}
        assert seen == {(i, j) for i in range(d) for j in range(d)}


def test_shift_matrix_powers():
    s = shift_matrix(3)
    np.testing.assert_allclose(np.linalg.matrix_power(s, 3), np.eye(3), atol=1e-13)
    e0 = np.zeros(3)
    e0[0] = 1.0
    np.testing.assert_allclose(s @ e0, [0, 1, 0], atol=1e-13)


def test_circulant_spec_validation():
    good = np.stack([np.eye(2) / 4, np.eye(2) / 4]).astype(complex)
    spec = CirculantSpec(good)
    assert spec.d == 2
    with pytest.raises(BlockNotPSDError):
        CirculantSpec(np.stack([np.diag([0.6, -0.1]), np.eye(2) / 4]).astype(complex))
    with pytest.raises(TraceNotOneError):
        CirculantSpec(np.stack([np.eye(2) / 4, np.eye(2) / 3]).astype(complex))
    with pytest.raises(DimensionMismatchError):
        CirculantSpec(np.eye(4))


def test_circulant_spec_refuses_a_non_finite_block():
    blocks = np.array([np.diag([np.nan, 0.5]), np.diag([0.0, 0.5])], dtype=complex)
    with pytest.raises(SchemaError, match=r"^blocks must hold finite numbers of modulus at most 2\*\*60$"):
        CirculantSpec(blocks)


def test_assemble_partial_transpose_refuses_non_finite_blocks():
    # These blocks are no state's, so only the number policy checks their entries.
    tilde = circulant_partial_transpose(circulant_spec(rng(63), 3).blocks)
    for bad in (np.nan, np.inf, 1j * np.inf, 2.0**61):
        broken = tilde.copy()
        broken[2, 1, 0] = bad
        with pytest.raises(SchemaError, match=r"^blocks must hold finite numbers of modulus at most 2\*\*60$"):
            assemble_partial_transpose(broken)


def test_assembled_states_are_the_scattered_blocks():
    g = rng(64)
    for d in (1, 2, 3, 5):
        spec = circulant_spec(g, d)
        tilde = circulant_partial_transpose(spec.blocks)
        for op, blocks, shift in ((build_circulant(spec), spec.blocks, 1), (assemble_partial_transpose(tilde), tilde, -1)):
            want = np.zeros((d * d, d * d), dtype=complex)
            for alpha in range(d):
                for i in range(d):
                    for j in range(d):
                        want[i * d + (shift * i + alpha) % d, j * d + (shift * j + alpha) % d] = blocks[alpha, i, j]
            np.testing.assert_array_equal(op.matrix, want)
            assert op.dims == (d, d) and not op.matrix.flags.writeable


def test_build_circulant_places_blocks():
    blocks = np.zeros((2, 2, 2), dtype=complex)
    blocks[0] = np.array([[0.3, 0.1], [0.1, 0.3]])
    blocks[1] = np.array([[0.25, 0.05], [0.05, 0.15]])
    spec = CirculantSpec(blocks)
    m = build_circulant(spec).matrix
    assert m[0, 0] == pytest.approx(0.3)
    assert m[0, 3] == pytest.approx(0.1)
    assert m[3, 0] == pytest.approx(0.1)
    assert m[1, 1] == pytest.approx(0.25)
    assert m[1, 2] == pytest.approx(0.05)
    assert m[2, 2] == pytest.approx(0.15)
    assert np.trace(m) == pytest.approx(1.0)
    partners = circulant_subspaces(2)
    for alpha in range(2):
        for i in range(2):
            assert partners[alpha, i] == (i + alpha) % 2
            for j in range(2):
                r = i * 2 + partners[alpha, i]
                c = j * 2 + partners[alpha, j]
                assert m[r, c] == pytest.approx(blocks[alpha][i, j].real)


def test_blockwise_partial_transpose_matches_generic():
    g = rng(61)
    for _ in range(40):
        d = int(g.integers(2, 5))
        spec = circulant_spec(g, d)
        state = build_circulant(spec)
        tilde = circulant_partial_transpose(spec.blocks)
        reassembled = assemble_partial_transpose(tilde)
        generic = partial_transpose(state, 1)
        np.testing.assert_allclose(reassembled.matrix, generic.matrix, atol=1e-13)


def test_partial_transpose_entry_formula():
    g = rng(62)
    d = 3
    spec = circulant_spec(g, d)
    tilde = circulant_partial_transpose(spec.blocks)
    for alpha in range(d):
        for i in range(d):
            for j in range(d):
                assert tilde[alpha, i, j] == pytest.approx(
                    complex(spec.blocks[(alpha - i - j) % d, i, j]), abs=1e-13
                )


def test_ppt_oracle_agreement():
    g = rng(63)
    for _ in range(60):
        d = int(g.integers(2, 5))
        spec = circulant_spec(g, d)
        verdict, lows = is_ppt_circulant(spec)
        pt = partial_transpose(build_circulant(spec), 1)
        full_ok, _ = is_psd(pt.matrix, 1e-9)
        assert verdict == full_ok
        assert lows.shape == (d,)


def test_block_spectra_are_the_dense_partial_transpose_spectrum():
    g = rng(69)
    for d in range(2, 9):
        for _ in range(5):
            spec = circulant_spec(g, d)
            spectra = _pt_spectra(spec.blocks)
            assert spectra.shape == (d, d)
            dense = np.linalg.eigvalsh(partial_transpose(build_circulant(spec), 1).matrix)
            np.testing.assert_allclose(np.sort(spectra.ravel()), dense, rtol=0, atol=1e-12)
            np.testing.assert_array_equal(is_ppt_circulant(spec)[1], spectra[:, 0])


def test_diagonal_blocks_are_always_ppt():
    g = rng(64)
    weights = probability_vector(g, 3)
    blocks = np.stack([np.diag(probability_vector(g, 3)) * w for w in weights]).astype(complex)
    verdict, _ = is_ppt_circulant(CirculantSpec(blocks))
    assert verdict


def test_pure_bell_state_is_not_ppt():
    state, _ = bell_diagonal_lift([1.0, 0.0], np.diag([1.0, 0.0]).astype(complex))
    np.testing.assert_allclose(state.matrix, maximally_entangled(2).matrix, atol=1e-13)
    blocks = np.zeros((2, 2, 2), dtype=complex)
    partners = circulant_subspaces(2)
    for alpha in range(2):
        for i in range(2):
            for j in range(2):
                blocks[alpha, i, j] = state.matrix[i * 2 + partners[alpha, i], j * 2 + partners[alpha, j]]
    verdict, _ = is_ppt_circulant(CirculantSpec(blocks))
    assert not verdict


def test_circulant_lift_structure():
    g = rng(65)
    d = 3
    profiles = np.stack([density(g, d) for _ in range(d)])
    state = density(g, d)
    lifted = circulant_lift(profiles, state)
    m = lifted.matrix
    assert np.trace(m).real == pytest.approx(1.0, abs=1e-12)
    pops = np.diag(state).real
    partners = circulant_subspaces(d)
    for alpha in range(d):
        for i in range(d):
            for j in range(d):
                assert m[i * d + partners[alpha, i], j * d + partners[alpha, j]] == pytest.approx(
                    pops[alpha] * profiles[alpha][i, j], abs=1e-12
                )
    dephased = circulant_lift(profiles, np.diag(np.diag(state)))
    np.testing.assert_allclose(lifted.matrix, dephased.matrix, atol=1e-13)


def test_circulant_lift_rejects_bad_profiles():
    g = rng(66)
    state = density(g, 2)
    bad_trace = np.stack([np.eye(2), np.eye(2)]).astype(complex)
    with pytest.raises(BlockNotPSDError):
        circulant_lift(np.stack([np.diag([1.5, -0.5]), np.eye(2) / 2]).astype(complex), state)
    with pytest.raises(TraceNotOneError):
        circulant_lift(bad_trace, state)


def test_circulant_lift_checks_the_lifted_trace_sum():
    # rho passes check_state (trace 1 + 5e-9 <= 1e-8) but the blocks'
    # traces sum to 1 + 5e-9, beyond the 1e-9 trace-sum tolerance.
    with pytest.raises(TraceNotOneError, match="block traces sum to"):
        circulant_lift([np.eye(2) / 2, np.eye(2) / 2], np.diag([0.6, 0.4 + 5e-9]))
    lifted = circulant_lift([np.eye(2) / 2, np.eye(2) / 2], np.diag([0.6, 0.4 + 5e-10]))
    assert lifted.trace().real == pytest.approx(1.0, abs=1e-9)


def test_isometry_lift():
    g = rng(67)
    for _ in range(20):
        d = int(g.integers(2, 5))
        raw = g.standard_normal((d, d)) + 1j * g.standard_normal((d, d))
        cvecs = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        state = density(g, d)
        lifted, v = circulant_lift_isometry(cvecs, state)
        np.testing.assert_allclose(v.conj().T @ v, np.eye(d), atol=1e-12)
        expect = v @ np.diag(np.diag(state)) @ v.conj().T
        np.testing.assert_allclose(lifted.matrix, expect, atol=1e-12)
        assert lifted.trace().real == pytest.approx(1.0, abs=1e-11)
        rank = np.linalg.matrix_rank(lifted.matrix, tol=1e-10)
        assert rank <= d


def test_isometry_lift_requires_unit_rows():
    with pytest.raises(NotNormalizedError):
        circulant_lift_isometry(np.ones((2, 2)), np.eye(2) / 2)


def test_bell_unitary_family_is_orthogonal():
    for d in (2, 3):
        us = [bell_unitary(m, n, d) for m in range(d) for n in range(d)]
        for a, ua in enumerate(us):
            np.testing.assert_allclose(ua @ ua.conj().T, np.eye(d), atol=1e-12)
            for b, ub in enumerate(us):
                overlap = np.trace(ua @ ub.conj().T) / d
                assert abs(overlap) == pytest.approx(1.0 if a == b else 0.0, abs=1e-12)
    with pytest.raises(IndexOutOfRangeError):
        bell_unitary(2, 0, 2)


def test_bell_states_form_orthonormal_basis():
    for d in (2, 3):
        projs = [bell_state(m, n, d) for m in range(d) for n in range(d)]
        total = sum(p.matrix for p in projs)
        np.testing.assert_allclose(total, np.eye(d * d), atol=1e-12)
        for a, pa in enumerate(projs):
            for b, pb in enumerate(projs):
                overlap = np.trace(pa.matrix @ pb.matrix).real
                assert overlap == pytest.approx(1.0 if a == b else 0.0, abs=1e-12)
    np.testing.assert_allclose(bell_state(0, 0, 3).matrix, maximally_entangled(3).matrix, atol=1e-13)


def test_bell_spectrum_validation():
    s = BellSpectrum(np.array([[0.5, 0.25], [0.25, 0.0]]))
    assert s.d == 2
    with pytest.raises(TraceNotOneError):
        BellSpectrum(np.full((2, 2), 0.3))
    with pytest.raises(BlockNotPSDError):
        BellSpectrum(np.array([[0.75, 0.5], [0.0, -0.25]]))


def test_empty_bell_spectrum_is_a_typed_error():
    with pytest.raises(TraceNotOneError, match=r"^spectrum sums to 0\.0, expected 1$"):
        BellSpectrum(np.zeros((0, 0)))


def test_bell_spectrum_refuses_non_finite_weights():
    for bad in (np.nan, 2.0**61):
        with pytest.raises(SchemaError, match=r"^spectrum must hold finite numbers of modulus at most 2\*\*60$"):
            BellSpectrum([[bad, 0], [0, 1]])


def test_sum_errors_print_plain_floats():
    with pytest.raises(TraceNotOneError, match=r"^profile 1 has trace 1\.5, expected 1$"):
        circulant_lift([np.eye(2) / 2, np.diag([1.0, 0.5])], np.diag([0.6, 0.4]))
    with pytest.raises(NotNormalizedError, match=r"^probability vector sums to 1\.1, not 1$"):
        bell_diagonal_lift([0.5, 0.6], np.diag([0.6, 0.4]))


def test_bell_diagonal_lift_worked_spectrum():
    p = np.array([0.75, 0.25])
    state = np.diag([0.6, 0.4]).astype(complex)
    lifted, spectrum = bell_diagonal_lift(p, state)
    np.testing.assert_allclose(spectrum.p, [[0.45, 0.30], [0.15, 0.10]], atol=1e-13)
    expect = sum(
        spectrum.p[m, n] * bell_state(m, n, 2).matrix for m in range(2) for n in range(2)
    )
    np.testing.assert_allclose(lifted.matrix, expect, atol=1e-12)


def test_bell_diagonal_lift_random_projections():
    g = rng(68)
    for _ in range(25):
        d = int(g.integers(2, 4))
        p = probability_vector(g, d)
        state = faithful_density(g, d)
        lifted, spectrum = bell_diagonal_lift(p, state)
        pops = np.diag(state).real
        for m in range(d):
            for n in range(d):
                proj = bell_state(m, n, d).matrix
                weight = np.trace(proj @ lifted.matrix).real
                assert weight == pytest.approx(p[m] * pops[n], abs=1e-12)
                assert spectrum.p[m, n] == pytest.approx(p[m] * pops[n], abs=1e-12)
        assert is_psd(lifted.matrix, 1e-10)[0]
