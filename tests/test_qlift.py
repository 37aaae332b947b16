"""Tests for quantum conditional probability operators and quantum liftings."""
import warnings

import numpy as np
import pytest

from liftlab import matcore, qlift
from liftlab.errors import (
    DimensionMismatchError,
    NotCompatibleError,
    NotCPError,
    NotFaithfulError,
    NotHermitianError,
    NotUnitalError,
    SchemaError,
)
from liftlab.clift import (
    MarkovSpec,
    markov_state,
    markov_weights,
    n_lift,
    ohya_tensor,
    separable_n_state,
    transition_expectation_sides,
    verify_transition_expectation,
)
from liftlab.matcore import FactoredOperator, herm_sqrt, is_psd, partial_trace, trace_out
from liftlab.qlift import (
    CpMap,
    channel_from_compound,
    choi_matrix,
    classical_cpmap,
    compose_qcp,
    cp_from_kraus,
    cp_identity,
    lifting_assisted_map,
    n_compose_qcp,
    n_nonlinear_lift,
    nonlinear_lift,
    ohya_lift,
    qcp_from_channel,
    robertson_map,
)
from liftlab.circulant import maximally_entangled
from liftlab.classical import classical_choi
from liftlab.sampling import (
    density,
    faithful_density,
    markov_spec,
    rng,
    unital_cpmap,
)
from liftlab.verify import ROBERTSON_CHOI


def test_cpmap_validation_and_properties():
    ident = cp_identity(3)
    assert ident.d == 3
    assert ident.unital
    x = np.arange(9, dtype=complex).reshape(3, 3)
    np.testing.assert_allclose(ident.apply(x), x, atol=1e-13)
    with pytest.raises(DimensionMismatchError):
        CpMap(np.zeros((2, 2, 2, 3)))
    bad = np.zeros((2, 2, 2, 2), dtype=complex)
    bad[0, 1] = np.eye(2)
    with pytest.raises(NotHermitianError):
        CpMap(bad)


def test_cp_from_kraus_matches_direct_sum():
    g = rng(41)
    for _ in range(20):
        d = int(g.integers(2, 5))
        ops = [g.standard_normal((d, d)) + 1j * g.standard_normal((d, d)) for _ in range(3)]
        cp = cp_from_kraus(ops)
        x = g.standard_normal((d, d)) + 1j * g.standard_normal((d, d))
        expect = sum(k @ x @ k.conj().T for k in ops)
        np.testing.assert_allclose(cp.apply(x), expect, atol=1e-11)


def test_unital_sampler_produces_unital_maps():
    g = rng(42)
    for _ in range(20):
        d = int(g.integers(2, 5))
        cp = unital_cpmap(g, d)
        assert cp.unital
        np.testing.assert_allclose(cp.apply(np.eye(d)), np.eye(d), atol=1e-11)


def test_adjoint_duality():
    g = rng(43)
    for _ in range(20):
        d = int(g.integers(2, 4))
        cp = unital_cpmap(g, d)
        x = g.standard_normal((d, d)) + 1j * g.standard_normal((d, d))
        x = x + x.conj().T
        state = density(g, d)
        lhs = np.trace(cp.apply(x) @ state)
        rhs = np.trace(x @ cp.adjoint_apply(state))
        assert lhs == pytest.approx(rhs, abs=1e-11)


def test_qcp_identity_channel():
    pi = qcp_from_channel(cp_identity(2))
    expect = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            e = np.zeros((2, 2), dtype=complex)
            e[i, j] = 1.0
            expect += np.kron(e, e)
    np.testing.assert_allclose(pi.matrix, expect, atol=1e-13)
    assert pi.d == 2


def test_qcp_requires_unital_and_cp():
    collapse_units = np.zeros((2, 2, 2, 2), dtype=complex)
    collapse_units[0, 0, 0, 0] = 1.0
    collapse_units[1, 1, 0, 0] = 1.0
    with pytest.raises(NotUnitalError):
        qcp_from_channel(CpMap(collapse_units))
    swap_units = np.zeros((2, 2, 2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            swap_units[i, j, j, i] = 1.0
    with pytest.raises(NotCPError):
        qcp_from_channel(CpMap(swap_units))


def test_qcp_positivity_and_marginal():
    g = rng(44)
    for _ in range(20):
        d = int(g.integers(2, 5))
        pi = qcp_from_channel(unital_cpmap(g, d))
        ok, lo = is_psd(pi.matrix, 1e-10)
        assert ok, lo
        left = trace_out(pi.op, {2}).matrix
        np.testing.assert_allclose(left, np.eye(d), atol=1e-10)


def test_classical_channel_gives_scaled_diagonal_operator():
    g = rng(45)
    for _ in range(20):
        n = int(g.integers(2, 5))
        cond = markov_spec(g, n).conditional
        pi = qcp_from_channel(classical_cpmap(cond))
        choi = classical_choi(cond)
        np.testing.assert_allclose(pi.matrix, n * choi.matrix, atol=1e-12)


def test_nonlinear_lift_marginals():
    g = rng(46)
    for _ in range(30):
        d = int(g.integers(2, 5))
        cp = unital_cpmap(g, d)
        pi = qcp_from_channel(cp)
        state = density(g, d)
        lifted = nonlinear_lift(pi, state)
        assert lifted.dims == (d, d)
        np.testing.assert_allclose(partial_trace(lifted, {1}).matrix, state, atol=1e-10)
        np.testing.assert_allclose(
            partial_trace(lifted, {2}).matrix, cp.adjoint_apply(state).T, atol=1e-10
        )
        assert is_psd(lifted.matrix, 1e-9)[0]


def test_nonlinear_lift_identity_on_maximally_mixed():
    lifted = nonlinear_lift(qcp_from_channel(cp_identity(2)), np.eye(2) / 2)
    np.testing.assert_allclose(lifted.matrix, maximally_entangled(2).matrix, atol=1e-13)


def test_ohya_lift_marginals_and_pure_case():
    g = rng(47)
    for _ in range(20):
        d = int(g.integers(2, 4))
        parties = int(g.integers(2, 4))
        state = density(g, d)
        lifted = ohya_lift(state, parties)
        assert lifted.dims == (d,) * parties
        for label in range(1, parties + 1):
            keep = partial_trace(lifted, {label}).matrix
            np.testing.assert_allclose(keep, state, atol=1e-10)
    v = np.array([1.0, 1.0]) / np.sqrt(2)
    proj = np.outer(v, v.conj())
    doubled = ohya_lift(proj, 2)
    np.testing.assert_allclose(doubled.matrix, np.kron(proj, proj), atol=1e-12)


def test_compose_qcp_matches_n_compose():
    g = rng(48)
    for _ in range(10):
        d = 2
        pi1 = qcp_from_channel(unital_cpmap(g, d))
        pi2 = qcp_from_channel(unital_cpmap(g, d))
        pair = compose_qcp(pi1, pi2)
        chained = n_compose_qcp([pi1, pi2])
        np.testing.assert_allclose(pair.matrix, chained.matrix, atol=1e-11)
        assert pair.dims == (d, d, d)


def test_compound_chain_peeling():
    g = rng(49)
    d = 2
    pis = [qcp_from_channel(unital_cpmap(g, d)) for _ in range(4)]
    for length in range(2, 5):
        full = n_compose_qcp(pis[:length])
        assert full.n_factors == length + 1
        peeled = trace_out(full, {full.n_factors})
        shorter = n_compose_qcp(pis[: length - 1])
        np.testing.assert_allclose(peeled.matrix, shorter.matrix, atol=1e-9)
        assert is_psd(full.matrix, 1e-9)[0]


def test_n_nonlinear_lift_two_party_case():
    g = rng(50)
    for _ in range(10):
        d = int(g.integers(2, 4))
        pi = qcp_from_channel(unital_cpmap(g, d))
        state = density(g, d)
        two = n_nonlinear_lift(pi, state, 2)
        one = nonlinear_lift(pi, state)
        np.testing.assert_allclose(two.matrix, one.matrix, atol=1e-11)


def test_n_nonlinear_lift_classical_diagonal_matches_markov_chain():
    g = rng(51)
    for _ in range(10):
        n = int(g.integers(2, 4))
        parties = int(g.integers(2, 5))
        spec = markov_spec(g, n)
        pi = qcp_from_channel(classical_cpmap(spec.conditional))
        lifted = n_nonlinear_lift(pi, np.diag(spec.initial).astype(complex), parties)
        chain = markov_state(spec, parties)
        np.testing.assert_allclose(lifted.matrix, chain.matrix, atol=1e-10)


def test_channel_from_compound_roundtrip():
    g = rng(52)
    for _ in range(20):
        d = int(g.integers(2, 4))
        cp = unital_cpmap(g, d)
        state = faithful_density(g, d)
        theta = nonlinear_lift(qcp_from_channel(cp), state)
        recovered = channel_from_compound(theta, state)
        x = g.standard_normal((d, d)) + 1j * g.standard_normal((d, d))
        np.testing.assert_allclose(recovered.apply(x), cp.apply(x), atol=1e-8)


def test_channel_from_compound_requires_faithful_state():
    theta = ohya_lift(np.diag([1.0, 0.0]).astype(complex), 2)
    with pytest.raises(NotFaithfulError):
        channel_from_compound(theta, np.diag([1.0, 0.0]))


def test_channel_from_compound_checks_marginal():
    g = rng(53)
    state = faithful_density(g, 2)
    other = faithful_density(g, 2)
    theta = nonlinear_lift(qcp_from_channel(cp_identity(2)), state)
    with pytest.raises(NotCompatibleError):
        channel_from_compound(theta, other)
    bad = FactoredOperator(np.diag([0.5, -0.1, 0.3, 0.3]).astype(complex), (2, 2))
    with pytest.raises(NotCompatibleError):
        channel_from_compound(bad, np.eye(2) / 2)


def test_channel_from_compound_refuses_malformed_marginal():
    theta = nonlinear_lift(qcp_from_channel(cp_identity(2)), np.eye(2) / 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning on the way to the error
        for bad in (np.inf, np.nan, 2.0**61):
            with pytest.raises(SchemaError, match="^marginal must hold finite numbers"):
                channel_from_compound(theta, [[bad, 0], [0, 0.5]])
        with pytest.raises(NotHermitianError):
            channel_from_compound(theta, [[0.5, 0.3], [0.0, 0.5]])


def test_robertson_map_basics():
    with pytest.raises(DimensionMismatchError):
        robertson_map(np.eye(2))
    np.testing.assert_allclose(robertson_map(np.eye(4)), np.eye(4), atol=1e-13)
    g = rng(54)
    z = g.standard_normal((4, 4)) + 1j * g.standard_normal((4, 4))
    h = z + z.conj().T
    out = robertson_map(h)
    np.testing.assert_allclose(out, out.conj().T, atol=1e-12)


def test_lifting_assisted_map_closed_form():
    g = rng(55)
    for _ in range(30):
        omega = density(g, 2)
        state = density(g, 2)
        phi = lifting_assisted_map(robertson_map, omega)
        got = phi(state)
        expect = 0.5 * np.array(
            [
                [2 * state[1, 1], state[0, 1] + state[1, 0]],
                [state[0, 1] + state[1, 0], 2 * state[0, 0]],
            ]
        )
        np.testing.assert_allclose(got, expect, atol=1e-11)
        assert np.trace(got) == pytest.approx(1.0, abs=1e-11)
        assert is_psd(got, 1e-9)[0]


def test_lifting_assisted_map_is_omega_independent():
    g = rng(56)
    state = density(g, 2)
    outputs = [lifting_assisted_map(robertson_map, density(g, 2))(state) for _ in range(5)]
    for out in outputs[1:]:
        np.testing.assert_allclose(out, outputs[0], atol=1e-11)


def test_choi_matrix_of_identity():
    phi = lambda x: x
    choi = choi_matrix(phi, 2)
    np.testing.assert_allclose(choi.matrix, maximally_entangled(2).matrix, atol=1e-13)


def test_robertson_choi_value():
    phi = lifting_assisted_map(robertson_map, np.eye(2) / 2)
    choi = choi_matrix(phi, 2)
    np.testing.assert_allclose(choi.matrix, ROBERTSON_CHOI, atol=1e-12)
    w = np.linalg.eigvalsh(choi.matrix)
    assert w.min() == pytest.approx(-0.25, abs=1e-12)


def test_positive_map_witnessed_not_cp():
    g = rng(57)
    phi = lifting_assisted_map(robertson_map, np.eye(2) / 2)
    for _ in range(20):
        state = density(g, 2)
        assert is_psd(phi(state), 1e-9)[0]
    assert not is_psd(choi_matrix(phi, 2).matrix, 1e-9)[0]


def _dense_sandwich(x, r):
    """Definitional sandwich: kron(I, r) on both sides of x."""
    s = np.kron(np.eye(x.shape[0] // r.shape[0]), r)
    return s @ x @ s


def _dense_chain(mats):
    """Definitional N-factor composite: each link sandwiches kron(cur, I)
    with kron(I, sqrt(pi)), innermost link first in the list."""
    d = int(round(mats[0].shape[0] ** 0.5))
    cur = mats[-1]
    for m in mats[-2::-1]:
        cur = _dense_sandwich(np.kron(cur, np.eye(d)), herm_sqrt(m))
    return cur


def _dense_ohya(rho, parties):
    """Definitional copy lifting: sum_k w_k (v_k v_k^dagger)^(x parties)."""
    w, v = np.linalg.eigh(rho)
    out = 0.0
    for k in range(w.size):
        proj = np.outer(v[:, k], v[:, k].conj())
        term = np.ones((1, 1))
        for _ in range(parties):
            term = np.kron(term, proj)
        out = out + max(w[k], 0.0) * term
    return out


def _raw_layouts(m):
    """The same matrix as a Fortran-ordered array and as a strided view."""
    wide = np.zeros((2 * m.shape[0], 3 * m.shape[1]), dtype=complex)
    wide[::2, ::3] = m
    return np.asfortranarray(m), wide[::2, ::3]


# Factor sizes up to the crossover run the chain as real products; the last
# one is on the complex side.
CHAIN_DS = [1, 2, 3, 4, qlift._REAL_CHAIN_MAX_D + 1]


@pytest.mark.parametrize("d", CHAIN_DS)
def test_chain_matches_dense_reference(d):
    g = rng(58 + d)
    for parties in range(2, {4: 5, 5: 4}.get(d, 6)):
        pi = qcp_from_channel(unital_cpmap(g, d))
        pis = [qcp_from_channel(unital_cpmap(g, d)) for _ in range(parties - 1)]
        state = density(g, d)
        root = herm_sqrt(state)
        np.testing.assert_allclose(nonlinear_lift(pi, state).matrix, _dense_sandwich(pi.matrix, root), atol=1e-12)
        np.testing.assert_allclose(
            compose_qcp(pi, pis[0]).matrix,
            _dense_sandwich(np.kron(pis[0].matrix, np.eye(d)), herm_sqrt(pi.matrix)),
            atol=1e-12,
        )
        repeated = _dense_chain([pi.matrix] * (parties - 1))
        np.testing.assert_allclose(n_compose_qcp([pi] * (parties - 1)).matrix, repeated, atol=1e-12)
        np.testing.assert_allclose(
            n_compose_qcp(pis).matrix, _dense_chain([p.matrix for p in pis]), atol=1e-12
        )
        # Two objects alternating along the chain: a root or kernel reused
        # across links must belong to the link's own operator.
        mixed = [pis[0].matrix, pi.matrix] * parties
        np.testing.assert_allclose(n_compose_qcp(mixed[: parties - 1]).matrix,
                                   _dense_chain(mixed[: parties - 1]), atol=1e-12)
        # Raw links that are not C-contiguous, the outermost one included.
        for raw in _raw_layouts(pis[-1].matrix):
            links = [p.matrix for p in pis[:-1]] + [raw]
            np.testing.assert_allclose(n_compose_qcp(links).matrix, _dense_chain(links), atol=1e-12)
        for raw in _raw_layouts(pi.matrix):
            np.testing.assert_allclose(n_nonlinear_lift(raw, state, parties).matrix,
                                       _dense_sandwich(repeated, root), atol=1e-12)
        np.testing.assert_allclose(
            n_nonlinear_lift(pi, state, parties).matrix, _dense_sandwich(repeated, root), atol=1e-12
        )
        np.testing.assert_allclose(ohya_lift(state, parties).matrix, _dense_ohya(state, parties), atol=1e-12)


@pytest.mark.parametrize("d", [2, 3])
def test_real_and_complex_stages_agree(d, monkeypatch):
    g = rng(90 + d)
    pis = [qcp_from_channel(unital_cpmap(g, d)) for _ in range(2)] * 2
    state = density(g, d)
    real = n_compose_qcp(pis).matrix, n_nonlinear_lift(pis[0], state, 5).matrix
    monkeypatch.setattr(qlift, "_REAL_CHAIN_MAX_D", 0)
    for got, want in zip(real, (n_compose_qcp(pis).matrix, n_nonlinear_lift(pis[0], state, 5).matrix)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_ohya_lift_rejects_oversized_output():
    with pytest.raises(SchemaError):
        ohya_lift(np.eye(2) / 2, 40)


def test_dense_size_guard_precedes_every_n_party_build(monkeypatch):
    monkeypatch.setattr(matcore, "MAX_DENSE_BYTES", 16 * 8 * 8)
    g = rng(61)
    pi, state, spec = qcp_from_channel(unital_cpmap(g, 2)), density(g, 2), markov_spec(g, 2)
    builds = [
        lambda n: ohya_lift(state, n),
        lambda n: n_compose_qcp([pi] * (n - 1)),
        lambda n: n_nonlinear_lift(pi, state, n),
        lambda n: n_lift(ohya_tensor(2), spec.initial, n),
        lambda n: markov_state(spec, n),
    ]
    for build in builds:
        assert build(3).dims == (2, 2, 2)
        with pytest.raises(SchemaError, match="limit"):
            build(4)


def test_dense_size_guard_covers_weights_and_separable_terms(monkeypatch):
    monkeypatch.setattr(matcore, "MAX_DENSE_BYTES", 16 * 8 * 8)
    spec = markov_spec(rng(62), 2)
    images = np.array([np.eye(2) / 2] * 2, dtype=complex)
    builds = [
        lambda n: markov_weights(spec, n),
        lambda n: transition_expectation_sides(spec, [np.ones(2)] * n),
        lambda n: verify_transition_expectation(spec, n, [np.ones(2)] * n),
        lambda n: separable_n_state([0.5, 0.5], [images] * n),
    ]
    for build in builds:
        build(3)
        with pytest.raises(SchemaError, match="limit"):
            build(4)


def test_party_and_factor_counts_are_bounded_before_any_build():
    one, spec, limit = np.eye(1), MarkovSpec([[1.0]], [1.0]), matcore._MAX_FACTORS
    by_count = [
        lambda n: ohya_lift(one, n),
        lambda n: n_nonlinear_lift(one, one, n),
        lambda n: n_lift(ohya_tensor(1), [1.0], n),
        lambda n: markov_state(spec, n),
        lambda n: markov_weights(spec, n),
        lambda n: verify_transition_expectation(spec, n, [[1.0]] * limit),
    ]
    by_length = [
        lambda n: n_compose_qcp([one] * (n - 1)),
        lambda n: transition_expectation_sides(spec, [[1.0]] * n),
        lambda n: separable_n_state([1.0], [np.ones((1, 1, 1))] * n),
        lambda n: FactoredOperator(one, (1,) * n),
    ]
    for build in by_length:
        build(limit)
        for n in (limit + 1, 70, 20000):
            with pytest.raises(DimensionMismatchError, match=f"at most {limit}"):
                build(n)
    # A count read as an integer is refused before any per-party list is
    # built, and named unless str() would refuse it.
    for build in by_count:
        build(limit)
        for n in (limit + 1, 70, 20000, 10**9):
            with pytest.raises(DimensionMismatchError, match=f"^parties must be at most {limit}, got {n}$"):
                build(n)
        with pytest.raises(DimensionMismatchError, match=f"^parties must be at most {limit}$"):
            build(10**5000)
        with pytest.raises(DimensionMismatchError, match="^parties must be at least [12]$"):
            build(-(10**5000))
    # The operator with the most factors is still traced and transposed.
    op = FactoredOperator(one, (1,) * limit)
    assert partial_trace(op, {1, limit}).dims == (1, 1)
    assert matcore.partial_transpose(op, limit).dims == op.dims


def test_dense_size_verdict_needs_no_huge_integers():
    with pytest.raises(SchemaError, match=r"^dense 16384 x 16384 operator needs 4294967296 bytes, limit is"):
        matcore.check_dense_size((2,) * 14)
    with pytest.raises(SchemaError, match="^dense operator of side over 2\\^64, limit is"):
        matcore.check_dense_size((2,) * 100000)
    for dims in ((10**3000, 3), (3, 10**3000)):  # a huge last factor as well as a huge first one
        with pytest.raises(SchemaError, match="^dense operator of side over 2\\^64, limit is"):
            matcore.check_dense_size(dims)
    matcore.check_dense_size((2,) * 100000 + (0,))
    matcore.check_dense_size((2,) * 13)


def test_cpmap_rejects_non_finite_units():
    for bad in (np.nan, np.inf, 2.0**61):
        units = cp_identity(2).units.copy()
        units[0, 0, 0, 0] = bad
        with pytest.raises(SchemaError, match="^units must hold finite numbers"):
            CpMap(units)


def test_n_party_lift_reads_each_input_once(monkeypatch):
    g = rng(71)
    pi, rho = qcp_from_channel(unital_cpmap(g, 2)), density(g, 2)
    want = n_nonlinear_lift(pi, rho, 6)
    calls = []
    for name in ("_qcp_matrix", "check_dense_size", "check_state"):
        def spy(x, real=getattr(qlift, name), name=name):
            calls.append((name, x))
            return real(x)

        monkeypatch.setattr(qlift, name, spy)
    got = n_nonlinear_lift(pi, rho, 6)
    assert [name for name, _ in calls] == ["_qcp_matrix", "check_dense_size", "check_state"]
    assert calls[0][1] is pi and calls[2][1] is rho
    np.testing.assert_array_equal(got.matrix, want.matrix)
    # Two link objects in a chain are each decoded once, in list order.
    raw = np.array(pi.matrix)
    calls.clear()
    n_compose_qcp([pi, raw, pi, raw])
    assert [id(x) for name, x in calls if name == "_qcp_matrix"] == [id(pi), id(raw)]


@pytest.mark.parametrize("scale", [2.0**40, 2.0**50, 2.0**60])
def test_overflowing_links_fail_the_scan_without_a_numpy_warning(scale):
    # Links within the bound whose chains are past it: the output's bound
    # check refuses them, and no stage overflows on the way.
    big = scale * np.eye(4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SchemaError, match="^matrix must hold finite numbers"):
            n_compose_qcp([big] * 2)
        with pytest.raises(SchemaError, match="^matrix must hold finite numbers"):
            n_nonlinear_lift(big, np.eye(2) / 2, 3)
        # The longest chain: 15 links of side 1 multiply to 2**900, inside the float range.
        with pytest.raises(SchemaError, match="^matrix must hold finite numbers"):
            n_compose_qcp([[[scale]]] * 15)
        with pytest.raises(SchemaError, match="^conditional operator must hold finite numbers"):
            n_compose_qcp([big, np.nextafter(2.0**60, np.inf) * np.eye(4)])
