"""The vectorized circulant, Kraus, separable-state and chain kernels against their references.

Each circulant, Kraus and separable reference below writes a kernel's
definition as an index loop; the library computes the same with one scatter,
gather or matrix product. Scatters and gathers only move entries, and the
products sum the same terms in another order, so every comparison holds to
1e-13 (times the number of Kraus operators) over seeded d = 1..9 and 16.
channel_from_compound's broadcast product is held to the three-operand
einsum it replaced. The N-party chain reference is the earlier two-product
stage, cur x I_d in a zeroed buffer then _sandwich_right with sqrt(pi); the
library's one-product stages agree with it to 1e-12 at d = 1..5, as real
products up to qlift._REAL_CHAIN_MAX_D and as complex ones above it.
"""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liftlab.circulant import (
    CirculantSpec,
    assemble_partial_transpose,
    bell_diagonal_lift,
    bell_state,
    bell_unitary,
    build_circulant,
    circulant_lift,
    circulant_lift_isometry,
    circulant_partial_transpose,
    maximally_entangled,
    shift_matrix,
)
from liftlab.classical import apply_kraus, kraus_from_channel
from liftlab.clift import separable_n_state
from liftlab.errors import (
    BlockNotPSDError,
    DimensionMismatchError,
    MapNotPositiveError,
    NotHermitianError,
    NotPSDError,
    TraceNotOneError,
)
from liftlab.matcore import _sandwich_right, herm_sqrt, partial_transpose, unit_matrix
from liftlab import qlift
from liftlab.qlift import (
    CpMap,
    channel_from_compound,
    choi_matrix,
    classical_cpmap,
    cp_from_kraus,
    cp_identity,
    n_compose_qcp,
    n_nonlinear_lift,
    nonlinear_lift,
    qcp_from_channel,
)
from liftlab.sampling import (
    circulant_spec,
    density,
    faithful_density,
    markov_spec,
    probability_vector,
    rng,
    unital_cpmap,
)

DIMS = range(1, 10)
ATOL = 1e-13


def _loop_assemble(blocks, row_map, col_map):
    d = blocks.shape[0]
    m = np.zeros((d * d, d * d), dtype=complex)
    for alpha in range(d):
        for i in range(d):
            for j in range(d):
                m[i * d + row_map(i, alpha), j * d + col_map(j, alpha)] += blocks[alpha][i, j]
    return m


def _loop_partial_transpose(b):
    d = b.shape[0]
    out = np.zeros_like(b)
    for alpha in range(d):
        for i in range(d):
            for j in range(d):
                out[alpha, i, j] = b[(alpha - i - j) % d, i, j]
    return out


def _loop_kraus_units(ks):
    d = ks[0].shape[0]
    units = np.zeros((d, d, d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            units[i, j] = sum(k @ unit_matrix(d, i, j) @ k.conj().T for k in ks)
    return units


def _loop_isometry(c):
    d = c.shape[0]
    v = np.zeros((d * d, d), dtype=complex)
    for alpha in range(d):
        for j in range(d):
            v[j * d + (j + alpha) % d, alpha] = c[alpha, j]
    return v


def _loop_bell_unitary(m, n, d):
    u = np.zeros((d, d), dtype=complex)
    for k in range(d):
        u[(k + n) % d, k] = np.exp(2j * np.pi * m * k / d)
    return u


def _kron_bell_state(m, n, d):
    """P_mn as (I x U_mn) P+ (I x U_mn)^dagger, by two d^2 x d^2 products."""
    v = np.eye(d).reshape(d * d)
    u = np.kron(np.eye(d), bell_unitary(m, n, d))
    return u @ (np.outer(v, v) / d).astype(complex) @ u.conj().T


def _loop_shift(d):
    s = np.zeros((d, d), dtype=complex)
    for k in range(d):
        s[(k + 1) % d, k] = 1.0
    return s


def _loop_bell_profile(weights):
    d = weights.size
    phases = np.exp(2j * np.pi * np.outer(np.arange(d), np.arange(d)) / d)
    profile = np.zeros((d, d), dtype=complex)
    for m in range(d):
        profile += weights[m] * np.outer(phases[m], phases[m].conj())
    return profile / d


def _close(got, want):
    np.testing.assert_allclose(got, want, rtol=0, atol=ATOL)


def _blocks(g, d):
    return g.standard_normal((d, d, d)) + 1j * g.standard_normal((d, d, d))


@pytest.mark.parametrize("d", DIMS)
def test_circulant_kernels_match_loops(d):
    g = rng(700 + d)
    spec = circulant_spec(g, d)
    _close(build_circulant(spec).matrix,
           _loop_assemble(spec.blocks, lambda i, a: (i + a) % d, lambda j, a: (j + a) % d))
    raw = _blocks(g, d)
    _close(circulant_partial_transpose(raw), _loop_partial_transpose(raw))
    _close(assemble_partial_transpose(raw).matrix,
           _loop_assemble(raw, lambda i, a: (a - i) % d, lambda j, a: (a - j) % d))
    _close(shift_matrix(d), _loop_shift(d))
    for m in range(d):
        for n in range(d):
            _close(bell_unitary(m, n, d), _loop_bell_unitary(m, n, d))
            np.testing.assert_allclose(bell_state(m, n, d).matrix, _kron_bell_state(m, n, d), rtol=0, atol=2.3e-16)
    want = (np.outer(np.eye(d).ravel(), np.eye(d).ravel()) / d).astype(complex)
    np.testing.assert_array_equal(maximally_entangled(d).matrix.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("d", DIMS)
def test_circulant_lifts_match_loops(d):
    g = rng(720 + d)
    raw = g.standard_normal((d, d)) + 1j * g.standard_normal((d, d))
    cvecs = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    state = density(g, d)
    lifted, v = circulant_lift_isometry(cvecs, state)
    want_v = _loop_isometry(cvecs)
    _close(v, want_v)
    _close(lifted.matrix, want_v @ np.diag(np.diag(state).real) @ want_v.conj().T)
    weights = probability_vector(g, d)
    bell, _ = bell_diagonal_lift(weights, state)
    pops = np.real(np.diag(state))
    profile = _loop_bell_profile(weights)
    want = _loop_assemble(np.array([p * profile for p in pops]),
                          lambda i, a: (i + a) % d, lambda j, a: (j + a) % d)
    np.testing.assert_array_equal(bell.matrix, want)


@pytest.mark.parametrize("d", range(2, 9))
def test_isometry_state_is_the_block_lift_of_its_rank_one_profiles(d):
    g = rng(730 + d)
    raw = g.standard_normal((d, d)) + 1j * g.standard_normal((d, d))
    cvecs = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    state = density(g, d)
    lifted, v = circulant_lift_isometry(cvecs, state)
    profiles = np.stack([np.outer(c, c.conj()) for c in cvecs])
    np.testing.assert_array_equal(lifted.matrix, circulant_lift(profiles, state).matrix)
    np.testing.assert_array_equal(v, _loop_isometry(cvecs))


@pytest.mark.parametrize("d", DIMS)
def test_cp_kernels_match_loops(d):
    g = rng(740 + d)
    for count in (1, 3, d + 1):
        ks = [g.standard_normal((d, d)) + 1j * g.standard_normal((d, d)) for _ in range(count)]
        _close(cp_from_kraus(ks).units, _loop_kraus_units(ks))
    units = cp_identity(d).units
    for i in range(d):
        for j in range(d):
            np.testing.assert_array_equal(units[i, j], unit_matrix(d, i, j))
    cond = markov_spec(g, d).conditional
    want = np.zeros((d, d, d, d), dtype=complex)
    for a in range(d):
        want[a, a] = np.diag(cond[a, :])
    np.testing.assert_array_equal(classical_cpmap(cond).units, want)
    ks = [g.standard_normal((d, d)) + 1j * g.standard_normal((d, d)) for _ in range(2)]
    phi = lambda x: sum(k @ x @ k.conj().T for k in ks)
    choi = sum(np.kron(unit_matrix(d, i, j), phi(unit_matrix(d, i, j))) for i in range(d) for j in range(d))
    np.testing.assert_array_equal(choi_matrix(phi, d).matrix, choi / d)


@pytest.mark.parametrize("d", [1, 2, 5, 16])
def test_cp_from_kraus_product_matches_the_loop(d):
    # One matrix product sums the same K_m[a, i] conj(K_m[b, j]) as the loop,
    # for one, d and d^2 operators. apply_kraus adds its terms in operator
    # order from +0.0, bit for bit.
    g = rng(760 + d)
    rho = density(g, d)
    for count in (1, d, d * d):
        ks = [g.standard_normal((d, d)) + 1j * g.standard_normal((d, d)) for _ in range(count)]
        np.testing.assert_allclose(cp_from_kraus(ks).units, _loop_kraus_units(ks), rtol=0, atol=ATOL * count)
        want = np.zeros((d, d), dtype=complex)
        for k in ks:
            want += k @ rho @ k.conj().T
        np.testing.assert_array_equal(apply_kraus(ks, rho), want)


def test_apply_kraus_holds_one_operator_at_a_time():
    # A 30 x 30 channel's 900 Kraus operators fill 13 MB; a stacked product
    # over them peaked at 52 MB, the per-operator sum near 6 operators.
    ks = kraus_from_channel(np.full((30, 30), 1 / 30))
    rho = np.eye(30) / 30
    tracemalloc.start()
    try:
        apply_kraus(ks, rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * ks[0].nbytes, peak


def test_bell_state_holds_about_one_output():
    # The Kronecker construction peaked at 5.0 times the 1 MiB output.
    bell_state(1, 2, 16)
    tracemalloc.start()
    try:
        out = bell_state(1, 2, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * out.matrix.nbytes, peak / out.matrix.nbytes


@pytest.mark.parametrize("d", [8, 12])
def test_channel_from_compound_matches_the_three_operand_einsum(d):
    g = rng(780 + d)
    rho = faithful_density(g, d)
    theta = nonlinear_lift(qcp_from_channel(unital_cpmap(g, d)), rho)
    w, v = np.linalg.eigh(0.5 * (rho + rho.conj().T))
    inv_s = (v / np.sqrt(w)) @ v.conj().T
    blocks = theta.matrix.reshape(d, d, d, d).transpose(0, 2, 1, 3)
    want = np.einsum("ab,ijbc,cd->ijad", inv_s, blocks, inv_s)
    np.testing.assert_allclose(channel_from_compound(theta, rho).units, want, rtol=0, atol=1e-12)


def test_stacked_checks_name_the_lowest_bad_index():
    d = 4
    blocks = np.stack([np.eye(d) / (d * d)] * d).astype(complex)
    blocks[1] = np.diag([0.2, -0.1, 0.1, 0.05])
    blocks[3] = np.diag([0.2, -0.3, 0.1, 0.05])
    with pytest.raises(BlockNotPSDError, match=r"^block 1 has eigenvalue -1\.000e-01$"):
        CirculantSpec(blocks)
    with pytest.raises(TraceNotOneError):
        CirculantSpec(np.zeros((0, 0, 0)))
    state = np.eye(d) / d
    profiles = np.stack([np.eye(d) / d] * d).astype(complex)
    profiles[2] = np.diag([0.6, -0.1, 0.3, 0.2])
    profiles[3] = np.diag([0.7, -0.2, 0.3, 0.2])
    with pytest.raises(BlockNotPSDError, match=r"^profile 2 has eigenvalue -1\.000e-01$"):
        circulant_lift(profiles, state)
    # A trace failure at a lower index than a PSD failure is reported first.
    profiles[1] = np.eye(d) / 2
    with pytest.raises(TraceNotOneError, match=r"^profile 1 has trace"):
        circulant_lift(profiles, state)
    units = cp_identity(3).units.copy()
    units[2, 1] += np.eye(3)
    units[0, 2] += np.eye(3)
    with pytest.raises(NotHermitianError, match=r"^units\[0,2\]\^dagger differs from units\[2,0\]$"):
        CpMap(units)
    units = cp_identity(3).units.copy()
    units[1, 2] += np.eye(3)
    units[2, 1] += 2 * np.eye(3)
    with pytest.raises(NotHermitianError, match=r"^units\[1,2\]\^dagger differs from units\[2,1\]$"):
        CpMap(units)


def test_cpmap_hermiticity_keeps_allclose_tolerances():
    # Pair (i, j) passes when |a - b| <= 1e-10 + 1e-5 |b|, with a from
    # units[i, j]^dagger and b from units[j, i], as np.allclose(a, b) does.
    units = cp_identity(2).units * 1e3
    units[0, 1, 0, 1] += 5e-3
    CpMap(units)
    units[0, 1, 0, 1] += 1.5e-2
    with pytest.raises(NotHermitianError, match=r"units\[0,1\]"):
        CpMap(units)
    # Only pairs with i <= j are compared: b = 1.000005e-10 against a = 0
    # passes, and the swapped comparison would fail.
    units = cp_identity(2).units.copy()
    units[1, 0, 0, 0] = 1.000005e-10
    CpMap(units)


def test_separable_state_matches_kron_sum():
    g = rng(41)
    for n, dims in ((1, (3,)), (2, (2, 3)), (3, (2, 1, 3)), (4, (3, 2, 2, 2))):
        p = probability_vector(g, n)
        maps = [np.array([density(g, d) for _ in range(n)]) for d in dims]
        want = np.zeros((int(np.prod(dims)),) * 2, dtype=complex)
        for i in range(n):
            term = np.ones((1, 1), dtype=complex)
            for m in maps:
                term = np.kron(term, m[i])
            want += p[i] * term
        got = separable_n_state(p, maps)
        np.testing.assert_array_equal(got.matrix, want)
        assert got.dims == dims


def _stacked_separable(p, maps):
    """The weighted sum as separable_n_state once formed it: every term stacked, weighted, then summed over axis 0."""
    terms = maps[0]
    for m in maps[1:]:
        side = terms.shape[1] * m.shape[1]
        terms = (terms[:, :, None, :, None] * m[:, None, :, None, :]).reshape(len(p), side, side)
    return (p[:, None, None] * terms).sum(axis=0)


def test_separable_state_sums_its_terms_chunk_by_chunk():
    g = rng(42)
    # Chunks of about max(4096, n) entries: one chunk for the small cases and
    # for 1 x 1 terms, several for 3000 maps of side 2 x 2 and for side 64.
    cases = ((1, (1,)), (5, (1, 1)), (5000, (1, 1)), (3, (2,)), (12, (2, 3)), (9, (3, 1, 2)),
             (3000, (2, 2)), (5, (64,)), (32, (8, 8)))
    for n, dims in cases:
        p = probability_vector(g, n)
        maps = [np.array([density(g, d) for _ in range(n)]) for d in dims]
        maps[0][n // 2] *= -0.0  # signed zeros in one term
        got = separable_n_state(p, maps).matrix
        np.testing.assert_array_equal(got.view(np.int64), _stacked_separable(p, maps).view(np.int64))
    with pytest.raises(DimensionMismatchError, match=r"^factor dimensions must be positive, got \(0, 3\)$"):
        separable_n_state([0.5, 0.5], [np.zeros((2, 0, 0)), np.ones((2, 3, 3))])
    # Two parties, 32 maps of side 8: the stack of terms and its weighted copy
    # took 4.3 MB for this 64 KiB output. Two parties, 4 maps of side 16, one
    # term a chunk: the running sum and the weighted term stacked, the term
    # itself and the stack's sum took 5.0 times the 1 MiB output.
    images = np.array([density(g, 16) for _ in range(4)])
    for p, maps, bound in ((p, maps, 6), (probability_vector(g, 4), [images, images], 3)):
        separable_n_state(p, maps)
        tracemalloc.start()
        try:
            out = separable_n_state(p, maps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * out.matrix.nbytes, peak


def test_separable_state_names_the_first_bad_map_and_unit():
    good = np.array([np.eye(2) / 2] * 3, dtype=complex)
    late = good.copy()
    late[2] = np.diag([1.0, -0.5])
    early = good.copy()
    early[1] = np.diag([1.0, -0.25])
    early[2] = np.diag([1.0, -0.5])
    with pytest.raises(MapNotPositiveError, match=r"^map 1 sends unit 1 to eigenvalue -2\.500e-01$"):
        separable_n_state(np.ones(3) / 3, [good, early, late])
    with pytest.raises(MapNotPositiveError, match=r"^map 0 sends unit 2 to eigenvalue -5\.000e-01$"):
        separable_n_state(np.ones(3) / 3, [late, early])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(d=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_blockwise_partial_transpose_property(d, seed):
    spec = circulant_spec(rng(seed), d)
    reassembled = assemble_partial_transpose(circulant_partial_transpose(spec.blocks))
    np.testing.assert_array_equal(reassembled.matrix, partial_transpose(build_circulant(spec), 1).matrix)


def _kron_eye(x, d):
    """x (x) I_d by d strided copies into a zeroed buffer."""
    s = x.shape[0]
    out = np.zeros((s, d, s, d), dtype=complex)
    for k in range(d):
        out[:, k, :, k] = x
    return out.reshape(s * d, s * d)


def _two_product_chain(mats):
    """The composite chained from mats (innermost link first), one stage at
    a time as _sandwich_right(cur x I_d, sqrt(pi))."""
    d = int(round(mats[0].shape[0] ** 0.5))
    cur = mats[-1]
    for m in mats[-2::-1]:
        cur = _sandwich_right(_kron_eye(cur, d), herm_sqrt(m))
    return cur


# Up to the crossover the stages run as real products; the last size is on the complex side.
@pytest.mark.parametrize("d", [1, 2, 3, 4, qlift._REAL_CHAIN_MAX_D + 1])
def test_one_product_chain_matches_two_product_stages(d):
    g = rng(760 + d)
    for parties in range(2, {1: 8, 2: 7, 5: 5}.get(d, 6)):
        pi = qcp_from_channel(unital_cpmap(g, d))
        distinct = [qcp_from_channel(unital_cpmap(g, d)) for _ in range(parties - 1)]
        rho = faithful_density(g, d)
        repeated = _two_product_chain([pi.matrix] * (parties - 1))
        np.testing.assert_allclose(n_compose_qcp([pi] * (parties - 1)).matrix, repeated, rtol=0, atol=1e-12)
        np.testing.assert_allclose(n_compose_qcp(distinct).matrix,
                                   _two_product_chain([p.matrix for p in distinct]), rtol=0, atol=1e-12)
        alternating = [distinct[0], pi] * parties
        np.testing.assert_allclose(n_compose_qcp(alternating[: parties - 1]).matrix,
                                   _two_product_chain([p.matrix for p in alternating[: parties - 1]]),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(n_nonlinear_lift(pi, rho, parties).matrix,
                                   _sandwich_right(repeated, herm_sqrt(rho)), rtol=0, atol=1e-12)
    # One link: the caller's operator, copied; parties=2: the plain sandwich.
    pi, rho = qcp_from_channel(unital_cpmap(g, d)), density(g, d)
    np.testing.assert_array_equal(n_compose_qcp([pi]).matrix, pi.matrix)
    np.testing.assert_array_equal(n_nonlinear_lift(pi, rho, 2).matrix, _sandwich_right(pi.matrix, herm_sqrt(rho)))


def test_chain_roots_still_raise_the_square_root_errors(monkeypatch):
    qcp = qcp_from_channel(unital_cpmap(rng(770), 2))
    pi = qcp.matrix
    skew = pi.copy()
    skew[0, 1] += 0.5
    negative = pi - 2 * np.eye(4)
    for bad, error in ((skew, NotHermitianError), (negative, NotPSDError)):
        with pytest.raises(error):
            n_compose_qcp([bad, pi])
        with pytest.raises(error):
            n_nonlinear_lift(bad, np.eye(2) / 2, 3)
        # The outermost link is checked as well, with the inner link's error.
        with pytest.raises(error):
            n_compose_qcp([pi, bad])
    # A valid outermost link is used as given: no root of it is taken.
    rooted = []
    real = qlift.herm_sqrt
    monkeypatch.setattr(qlift, "herm_sqrt", lambda m: rooted.append(m) or real(m))
    rho = np.eye(2) / 2
    for outer in (pi.copy(), qcp.op, qcp):
        rooted.clear()
        assert n_compose_qcp([pi, outer]).dims == (2, 2, 2)
        assert [id(m) for m in rooted] == [id(pi)]
        rooted.clear()
        nonlinear_lift(outer, rho)
        assert [m.shape for m in rooted] == [(2, 2)]  # sqrt(rho) alone
