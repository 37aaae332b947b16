"""The per-call validation helpers against the numpy calls they stand for.

matcore._kron is np.kron for two matrices, matcore._abs_close is
np.allclose(rtol=0) for finite arrays, and CpMap's Hermiticity test is
np.isclose's formula written out. These tests hold them to those calls bit
for bit and verdict for verdict, pin the error type and message of every
check whose code changed, and cover FactoredOperator's integer dims and the
finiteness scan that N-party chains skip only when every link is bounded.
The constructors' positivity gates are held to the eigensolve they skip
when a Cholesky factorization certifies their input. CpMap, its
constructors, the gates and choi_matrix are held to a traced peak, and
CpMap's units and CirculantSpec's blocks to one bound scan unless their
constructor built them checked. Each constructor that hands over a checked
array passes, on its output, the checks that the receiving type then
skips, and unchecked or decoded arrays still raise the same errors. Every constructor whose output outgrows its
input refuses a size past the bound before it allocates, with its message
pinned where the guard is matcore's allocators', and every sampling draw
refuses one before it draws. A lift that a semantic check refuses allocates
none of its output.
"""
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liftlab import circulant, jsonio, matcore, qlift, sampling
from liftlab.circulant import (
    BellSpectrum,
    CirculantSpec,
    assemble_partial_transpose,
    bell_diagonal_lift,
    bell_state,
    circulant_lift,
    circulant_lift_isometry,
    maximally_entangled,
    shift_matrix,
)
from liftlab.classical import as_channel, as_probability_vector, is_stochastic, is_unital
from liftlab.clift import (
    MarkovSpec,
    as_lifting_tensor,
    gamma_lifting,
    is_nondemolition,
    n_lift,
    ohya_tensor,
    separable_n_state,
)
from liftlab.errors import (
    BlockNotPSDError,
    DimensionMismatchError,
    LiftlabError,
    MathDomainError,
    NotAStateError,
    NotHermitianError,
    SchemaError,
    TraceNotOneError,
)
from liftlab.matcore import (
    STRUCT_TOL,
    TOL,
    FactoredOperator,
    _abs_close,
    _check_hermitian,
    _cholesky_certifies,
    _first_non_psd,
    _Fresh,
    _kron,
    _psd_stack,
    check_state,
    diagonal_operator,
    herm_sqrt,
    is_psd,
    partial_trace,
    partial_transpose,
    tensor,
)
from liftlab.qlift import (
    CpMap,
    channel_from_compound,
    choi_matrix,
    classical_cpmap,
    compose_qcp,
    cp_from_kraus,
    cp_identity,
    n_compose_qcp,
    n_nonlinear_lift,
    nonlinear_lift,
    QcpOperator,
    ohya_lift,
    qcp_from_channel,
    robertson_map,
    lifting_assisted_map,
)
from liftlab.sampling import circulant_spec, density, rng, unital_cpmap

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

# Entries that make signed zeros, subnormals and overflow appear in products.
SPECIAL = np.array([0.0, -0.0, 1.0, -1.0, 0.5, 1e-300, -1e-300, 1e300, -1e300, 5e-324])


def _bits(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    return a.view(np.int64).reshape(-1) if a.size else np.zeros(0, dtype=np.int64)


def _draw(g, shape, complex_):
    """Gaussian entries with a share of SPECIAL values, real or complex."""
    def part():
        x = g.standard_normal(shape)
        return np.where(g.random(shape) < 0.3, g.choice(SPECIAL, size=shape), x)
    return part() + 1j * part() if complex_ else part()


@SETTINGS
@given(
    shapes=st.tuples(*[st.integers(0, 4)] * 4),
    kinds=st.sampled_from([(True, True), (False, True), (True, False), (False, False)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_kron_is_np_kron_bit_for_bit(shapes, kinds, seed):
    g = rng(seed)
    p, q, r, s = shapes
    a, b = _draw(g, (p, q), kinds[0]), _draw(g, (r, s), kinds[1])
    with np.errstate(all="ignore"):
        got, want = _kron(a, b), np.kron(a, b)
    assert got.shape == want.shape and got.dtype == want.dtype
    np.testing.assert_array_equal(_bits(got), _bits(want))


@SETTINGS
@given(
    shape=st.sampled_from([(3,), (2, 2), (4, 3), (2, 3, 2)]),
    atol=st.sampled_from([0.0, 1e-12, 1e-10, 1e-9, 0.5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_abs_close_gives_np_allclose_verdicts_on_finite_arrays(shape, atol, seed):
    g = rng(seed)
    b = g.standard_normal(shape)
    steps = g.choice([0.0, 1.0, -1.0, 0.5, 2.0], size=shape)
    # Within, on and beyond the bound, as float sums make them.
    for a in (b + steps * atol, b + atol, b - atol, b + np.nextafter(atol, 1.0), b.copy()):
        assert _abs_close(a, b, atol) == bool(np.allclose(a, b, rtol=0, atol=atol))
        assert _abs_close(a, 1.0, atol) == bool(np.allclose(a, 1.0, rtol=0, atol=atol))
    z = b + 1j * g.standard_normal(shape)
    w = z + atol * np.exp(2j * np.pi * g.random(shape))
    assert _abs_close(w, z, atol) == bool(np.allclose(w, z, rtol=0, atol=atol))


def _head_cpmap_offender(u):
    """The Hermiticity test CpMap ran through np.isclose: the first (i, j),
    i <= j, whose units[i, j]^dagger is not close to units[j, i]."""
    close = np.isclose(u.transpose(0, 1, 3, 2).conj(), u.transpose(1, 0, 2, 3), rtol=1e-5, atol=STRUCT_TOL)
    bad = np.argwhere(np.triu(~close.all(axis=(2, 3))))
    return tuple(int(k) for k in bad[0]) if bad.size else None


@SETTINGS
@given(d=st.integers(1, 4), scale=st.sampled_from([1e-11, 1e-10, 1e-6, 1e-5, 1e-3]), seed=st.integers(0, 2**32 - 1))
def test_cpmap_hermiticity_check_matches_np_isclose(d, scale, seed):
    g = rng(seed)
    u = np.array(unital_cpmap(g, d).units)
    mask = g.random(u.shape) < 0.2
    u = u + mask * scale * (g.standard_normal(u.shape) + 1j * g.standard_normal(u.shape))
    offender = _head_cpmap_offender(u)
    if offender is None:
        CpMap(u)
    else:
        i, j = offender
        with pytest.raises(NotHermitianError) as info:
            CpMap(u)
        assert str(info.value) == f"units[{i},{j}]^dagger differs from units[{j},{i}]"


def test_cpmap_hermiticity_check_keeps_one_by_one_units():
    # At d = 1 the (j, i, l, k) transpose of units is units' own layout; the
    # check must conjugate a copy, not the units themselves.
    with pytest.raises(NotHermitianError, match=r"^units\[0,0\]\^dagger differs from units\[0,0\]$"):
        CpMap(np.full((1, 1, 1, 1), 1 + 1j))
    u = np.full((1, 1, 1, 1), 2.0 + 1e-12j)
    np.testing.assert_array_equal(CpMap(u).units, u)


def _unit_disc(g, shape) -> np.ndarray:
    """Complex entries of modulus at most 1."""
    return np.sqrt(g.random(shape)) * np.exp(2j * np.pi * g.random(shape))


@SETTINGS
@given(d=st.integers(1, 8), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_checked_cpmap_units_pass_the_hermiticity_test_they_skip(d, data, seed):
    # cp_identity, classical_cpmap and cp_from_kraus hand CpMap checked units,
    # so CpMap skips its Hermiticity test: each output must pass it.
    g = rng(seed)
    n = data.draw(st.integers(1, 2 * d), label="Kraus operators")
    for cp in (cp_identity(d), classical_cpmap(g.standard_normal((d, d))), cp_from_kraus(_unit_disc(g, (n, d, d)))):
        assert _head_cpmap_offender(np.array(cp.units)) is None


@SETTINGS
@given(d=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_sampled_circulant_blocks_pass_the_gate_they_skip(d, seed):
    blocks = circulant_spec(rng(seed), d).blocks
    assert _first_non_psd(blocks) is None
    circulant._check_trace_sum(blocks)  # the trace sum within TOL


def _skew_units() -> np.ndarray:
    """Identity units of side 2 with units[0, 1][0, 0] = 1j, so that
    units[0, 1]^dagger differs from units[1, 0]."""
    u = np.array(cp_identity(2).units)
    u[0, 1, 0, 0] = 1j
    return u


def test_checked_units_are_taken_as_they_are():
    u = _skew_units()
    assert CpMap(_Fresh(u, checked=True)).units is u


def test_unchecked_and_decoded_units_raise_one_hermiticity_error():
    doc = jsonio.cpmap_to_json(CpMap(_Fresh(_skew_units(), checked=True)))
    builds = (lambda: CpMap(_Fresh(_skew_units())), lambda: CpMap(_skew_units()), lambda: jsonio.json_to_cpmap(doc))
    for build in builds:
        with pytest.raises(NotHermitianError, match=r"^units\[0,1\]\^dagger differs from units\[1,0\]$"):
            build()


@pytest.mark.parametrize("blocks, error, message", [
    ([[[0.6, 0], [0, -0.1]], [[0.5, 0], [0, 0]]], BlockNotPSDError, "block 0 has eigenvalue -1.000e-01"),
    ([[[0.5, 0], [0, 0]], [[0.4, 0], [0, 0]]], TraceNotOneError, "block traces sum to 0.9, expected 1"),
])
def test_unchecked_and_decoded_blocks_raise_one_error(blocks, error, message):
    blocks = np.array(blocks, dtype=complex)
    assert CirculantSpec(_Fresh(blocks, checked=True)).blocks is blocks
    doc = jsonio.circulant_to_json(CirculantSpec(_Fresh(blocks, checked=True)))
    builds = (lambda: CirculantSpec(_Fresh(blocks.copy())), lambda: CirculantSpec(blocks),
              lambda: jsonio.json_to_circulant(doc))
    for build in builds:
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            build()


def test_sampled_circulant_specs_run_no_gate(monkeypatch):
    gated = []
    monkeypatch.setattr(circulant, "_first_non_psd", lambda ms: gated.append(ms.shape))
    circulant_spec(rng(4), 4)
    assert gated == []
    CirculantSpec(np.array(circulant_spec(rng(4), 4).blocks))  # the spy is live on the public path
    assert gated == [(4, 4, 4)]


@pytest.mark.parametrize("value, count, what", [
    (2.0**40, 1, "units"), (2.0**31, 3, "units"), (np.inf, 1, "Kraus operator"), (np.nan, 1, "Kraus operator"),
    (1e155, 3, "Kraus operator"),
])
def test_kraus_sums_past_the_float_range_end_in_one_typed_error(value, count, what):
    # Kraus operators within the bound whose images are past it, and operators past it.
    ops = [np.full((2, 2), value)] * count
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SchemaError, match=f"^{what} must hold finite numbers of modulus at most 2"):
            cp_from_kraus(ops)


@pytest.mark.parametrize("m", [[[0.5, 1.7e308], [-1.7e308, 0.5]], [[1.7e308 + 1.7e308j, 0], [0, 0.5]]])
def test_states_near_the_float_maximum_end_in_one_typed_error(m):
    # Entries past the bound are refused where the matrix is read, with no warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for check in (FactoredOperator, check_state):
            with pytest.raises(SchemaError, match="^matrix" + PAST_BOUND.replace("*", r"\*") + "$"):
                check(m)


def test_eigenvalues_past_the_float_range_are_a_typed_error():
    # Past the bound the matrix is refused before any eigensolve; at the
    # bound the eigenvalues (0 and 2 * 2**60) are finite.
    for z, refused in ((1.7e308, True), (np.nextafter(2.0**60, np.inf), True), (2.0**60, False)):
        hermitian = [np.array([[z, z], [z, z]]), np.array([[z, 0.5 * z * (1 + 1j)], [0.5 * z * (1 - 1j), z]])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for m in hermitian:
                if refused:
                    for check in (is_psd, herm_sqrt, check_state):
                        with pytest.raises(SchemaError, match="^matrix must hold finite numbers"):
                            check(m)
                    continue
                assert is_psd(m)[0] and np.isfinite(herm_sqrt(m)).all()
                with pytest.raises(NotAStateError, match="^state trace"):
                    check_state(m)


def test_the_bound_holds_each_part_of_a_complex_number():
    b, past = 2.0**60, np.nextafter(2.0**60, np.inf)
    for z, refused in ((b + 1j * b, False), (-b - 1j * b, False), (1 + 1j * past, True), (-past + 0j, True),
                       (complex(1, np.nan), True), (complex(-np.inf, 0), True)):
        m = np.full((3, 4), z)
        # Contiguous; transposed (a float view of its axes in memory order); no
        # dense axis (strided, reversed); 0-d.
        for a in (m, m.T, np.full((2, 3, 2, 3), z).transpose(1, 3, 0, 2), m[:, ::2], m[:, ::-1], np.asarray(z)):
            if refused:
                with pytest.raises(SchemaError, match="^matrix" + PAST_BOUND.replace("*", r"\*") + "$"):
                    matcore._bounded(a)
            else:
                assert matcore._bounded(a) is a


@pytest.mark.parametrize("view", [lambda a: a, lambda a: a.T, lambda a: a.reshape(8, 64, 8, 64).transpose(1, 3, 0, 2),
                                  lambda a: a[:, ::2], lambda a: a.real, lambda a: a.real.astype(np.int64)],
                         ids=["complex", "complex-transposed", "complex-permuted", "complex-strided", "float", "int"])
def test_the_bound_check_makes_no_temporary(view):
    a = view(np.ones((512, 512), complex))
    matcore._bounded(a)
    tracemalloc.start()
    try:
        matcore._bounded(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4096, peak  # against 2 MiB for a float64 modulus of 262144 entries


@pytest.mark.parametrize("build", [cp_identity, maximally_entangled, shift_matrix, ohya_tensor])
def test_negative_sizes_are_typed_errors(build):
    with pytest.raises(DimensionMismatchError, match=r"^(d|n) must be at least 0, got -1$"):
        build(-1)


def test_choi_matrix_refuses_side_zero_before_calling_phi():
    calls = []
    with pytest.raises(DimensionMismatchError, match=r"^d must be at least 1, got 0$"):
        choi_matrix(calls.append, 0)
    assert calls == []


NAN = np.array([[np.nan, 0], [0, 1]])
INF = np.array([[np.inf, 0], [0, 1]])
NON_HERMITIAN = np.array([[0.5, 0.3], [0.1, 0.5]])
SKEW_UNITS = np.eye(4, dtype=complex).reshape(2, 2, 2, 2).copy()
SKEW_UNITS[0, 1, 0, 0] = 0.3

# (check, input, error type name, message), as raised before these checks
# were rewritten without numpy's wrappers; a non-finite entry is refused by
# the number policy where the array is read.
PAST_BOUND = " must hold finite numbers of modulus at most 2**60"
ERRORS = [
    (is_psd, NAN, "SchemaError", "matrix" + PAST_BOUND),
    (herm_sqrt, INF, "SchemaError", "matrix" + PAST_BOUND),
    (is_psd, np.array([[1, 1j * np.inf], [0, 1]]), "SchemaError", "matrix" + PAST_BOUND),
    (check_state, NAN, "SchemaError", "matrix" + PAST_BOUND),
    (FactoredOperator, INF, "SchemaError", "matrix" + PAST_BOUND),
    (lambda x: diagonal_operator(np.diag(x), (2,)), NAN, "SchemaError", "weights" + PAST_BOUND),
    (as_channel, INF, "SchemaError", "channel weights" + PAST_BOUND),
    (is_unital, NAN, "SchemaError", "channel weights" + PAST_BOUND),
    (lambda x: as_probability_vector(x[0]), INF, "SchemaError", "probability vector" + PAST_BOUND),
    (lambda x: as_lifting_tensor(np.stack([x, x])), NAN, "SchemaError", "lifting tensor" + PAST_BOUND),
    (lambda x: is_nondemolition(np.stack([x, x])), INF, "SchemaError", "lifting tensor" + PAST_BOUND),
    (lambda x: MarkovSpec(x, [0.5, 0.5]), NAN, "SchemaError", "conditional" + PAST_BOUND),
    (lambda x: gamma_lifting(np.pad(x, (0, 2)), [0.5, 0.5], [0.5, 0.5]), INF, "SchemaError",
     "joint channel" + PAST_BOUND),
    (lambda x: CpMap(np.kron(x, x).reshape(2, 2, 2, 2)), NAN, "SchemaError", "units" + PAST_BOUND),
    (lambda x: CirculantSpec(np.stack([x, x])), INF, "SchemaError", "blocks" + PAST_BOUND),
    (lambda x: assemble_partial_transpose(np.stack([x, x])), NAN, "SchemaError", "blocks" + PAST_BOUND),
    (lambda x: BellSpectrum(x), INF, "SchemaError", "spectrum" + PAST_BOUND),
    (lambda x: jsonio.json_to_matrix(x.tolist()), NAN, "SchemaError", "matrix" + PAST_BOUND),
    (lambda x: jsonio.json_to_vector(x[0].tolist()), INF, "SchemaError", "vector" + PAST_BOUND),
    (is_psd, NON_HERMITIAN, "NotHermitianError", "deviation from Hermiticity 2.000e-01 exceeds 1.0e-09 * 1.000e+00"),
    (check_state, NON_HERMITIAN, "NotAStateError",
     "state is not Hermitian: deviation from Hermiticity 2.000e-01 exceeds 1.0e-09 * 1.000e+00"),
    (lambda x: CirculantSpec(np.stack([x / 2, x / 2])), NON_HERMITIAN, "NotHermitianError",
     "deviation from Hermiticity 1.000e-01 exceeds 1.0e-09 * 1.000e+00"),
    (lambda x: n_compose_qcp([np.kron(x, x)] * 2), NON_HERMITIAN, "NotHermitianError",
     "deviation from Hermiticity 1.000e-01 exceeds 1.0e-09 * 1.000e+00"),
    (lambda x: as_lifting_tensor(np.stack([x / 2, x / 2])), NON_HERMITIAN, "NotNormalizedError",
     "input slices sum to [0.7, 0.7], expected all 1"),
    (lambda x: MarkovSpec(x, [0.5, 0.5]), NON_HERMITIAN, "NotNormalizedError",
     "conditional columns sum to [0.6, 0.8], expected all 1"),
    (lambda x: gamma_lifting(np.kron(x, x), [0.5, 0.5], [0.5, 0.5]), NON_HERMITIAN, "NotNormalizedError",
     "joint channel rows must sum to 1 (trace preservation)"),
    (lambda x: qcp_from_channel(CpMap(np.kron(x, x).reshape(2, 2, 2, 2))), NON_HERMITIAN, "NotUnitalError",
     "sum of diagonal-unit images differs from the identity"),
    (CpMap, SKEW_UNITS, "NotHermitianError", "units[0,1]^dagger differs from units[1,0]"),
    (lambda x: channel_from_compound(FactoredOperator(np.eye(4) / 4, (2, 2)), x), np.diag([0.6, 0.4]),
     "NotCompatibleError", "first-slot partial trace of the compound state differs from the marginal"),
]


@pytest.mark.parametrize("check, x, kind, message", ERRORS)
def test_changed_checks_raise_as_before(check, x, kind, message):
    with pytest.raises(Exception) as info:
        check(x)
    assert (type(info.value).__name__, str(info.value)) == (kind, message)


def test_sum_checks_keep_their_verdicts():
    assert is_unital([[0.5, 0.5], [0.5, 0.5]]) and is_stochastic([[0.25, 0.75], [1.0, 0.0]])
    assert not is_unital([[1 + 5e-6, 0], [0, 1]])
    assert is_unital([[1 + 5e-13, 0], [0, 1]])
    assert not is_nondemolition(np.full((2, 2, 2), 0.25))
    assert CpMap(np.eye(4).reshape(2, 2, 2, 2)).unital


@pytest.mark.parametrize("dims", [(2.7, 2.2), ("2", 2), (2.0, 2.0), (True, 4), (np.True_, 4), (2, None)])
def test_factored_operator_refuses_non_integer_dims(dims):
    side = 4
    with pytest.raises(DimensionMismatchError, match="factor dimensions must be integers"):
        FactoredOperator(np.eye(side), dims)
    with pytest.raises(DimensionMismatchError, match="factor dimensions must be integers"):
        diagonal_operator(np.ones(side) / side, dims)


def test_factored_operator_takes_integer_like_dims():
    op = FactoredOperator(np.eye(6), (np.int64(2), np.uint8(3)))
    assert op.dims == (2, 3) and all(type(d) is int for d in op.dims)
    assert FactoredOperator(np.eye(6), [2, 3]).dims == (2, 3)
    assert diagonal_operator(np.ones(6) / 6, (np.int32(3), 2)).dims == (3, 2)
    with pytest.raises(DimensionMismatchError, match="factor dimensions must be integers"):
        FactoredOperator(np.eye(4), 4)


def test_json_dims_refuse_booleans():
    doc = {"rows": 1, "cols": 1, "data": [[1.0, 0.0]], "dims": [True]}
    with pytest.raises(SchemaError, match="dims must be a non-empty list of positive integers"):
        jsonio.json_to_factored(doc)


def _constructors():
    g = rng(31)
    pi = qcp_from_channel(unital_cpmap(g, 2))
    rho = density(g, 2)
    a = FactoredOperator(density(g, 3), (3,))
    yield maximally_entangled(3)
    yield bell_state(1, 2, 3)
    yield bell_diagonal_lift([0.5, 0.5], rho)[0]
    yield circulant_lift(np.stack([rho, rho]), rho)
    yield tensor(a, a)
    yield partial_trace(tensor(a, a), {1})
    yield partial_transpose(tensor(a, a), 2)
    yield diagonal_operator([0.5, 0.5], (2,))
    yield nonlinear_lift(pi, rho)
    yield ohya_lift(rho, 3)
    yield compose_qcp(pi, pi)
    yield n_compose_qcp([pi.op, pi.op])
    yield n_nonlinear_lift(pi, rho, 3)
    yield choi_matrix(lifting_assisted_map(robertson_map, np.eye(2) / 2), 2)


@pytest.mark.parametrize("op", list(_constructors()), ids=lambda op: f"dims{op.dims}")
def test_constructors_hand_over_complex_arrays(op):
    assert op.matrix.dtype == np.complex128 and op.matrix.ndim == 2


@pytest.fixture
def bound_scans(monkeypatch):
    """Record every array that the number policy's bound check is asked about,
    in matcore and where qlift looks it up (cp_from_kraus scans its own units)."""
    arrays = []
    real = matcore._bounded

    def spy(a, *args, **kwargs):
        arrays.append(a)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(matcore, "_bounded", spy)
    monkeypatch.setattr(qlift, "_bounded", spy)
    return arrays


def _scanned(a, scans) -> bool:
    return any(x is a for x in scans)


@pytest.mark.parametrize("parties", [2, 3, 5])
def test_bounded_chains_skip_the_output_scan_and_keep_their_bits(parties, bound_scans):
    g = rng(parties)
    pi = qcp_from_channel(unital_cpmap(g, 2))
    rho = density(g, 2)
    links = [pi] * (parties - 1)
    chain, lifted = n_compose_qcp(links), n_nonlinear_lift(pi, rho, parties)
    raw = np.array(pi.matrix)
    raw_chain, raw_lifted = n_compose_qcp([raw] * (parties - 1)), n_nonlinear_lift(raw, rho, parties)
    for out in (chain, lifted, raw_chain, raw_lifted):
        assert not _scanned(out.matrix, bound_scans)
    np.testing.assert_array_equal(_bits(chain.matrix), _bits(raw_chain.matrix))
    np.testing.assert_array_equal(_bits(lifted.matrix), _bits(raw_lifted.matrix))
    # An entry above d = 2 (pi's largest is at least 1/2) turns the scan on.
    big = 10.0 * raw
    scanned = n_compose_qcp([raw] * (parties - 2) + [big])
    assert _scanned(scanned.matrix, bound_scans)
    np.testing.assert_array_equal(_bits(scanned.matrix), _bits(n_compose_qcp(links[1:] + [big]).matrix))


@pytest.mark.parametrize("parties", [2, 3, 5])
def test_copy_lifts_skip_the_output_scan(parties, bound_scans):
    rho = density(rng(parties), 2)
    lifted = ohya_lift(rho, parties)
    assert not _scanned(lifted.matrix, bound_scans)
    assert np.isfinite(lifted.matrix).all()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_unit_permutations_and_bell_projectors_skip_the_output_scan(d, bound_scans):
    # qcp_from_channel permutes the units that CpMap read, choi_matrix
    # divides by d the images that it read itself, and a Bell projector's
    # entries are at most 1/d.
    cp = unital_cpmap(rng(d), d)
    pi = qcp_from_channel(cp)
    choi = choi_matrix(cp.apply, d)
    for out in (pi.matrix, choi.matrix, bell_state(d - 1, d // 2, d).matrix, maximally_entangled(d).matrix):
        assert not _scanned(out, bound_scans)
    units = np.array(cp.units)
    np.testing.assert_array_equal(_bits(pi.matrix), _bits(units.transpose(0, 2, 1, 3).reshape(d * d, d * d)))
    images = np.array([[cp.apply(e) for e in row] for row in np.eye(d * d, dtype=complex).reshape(d, d, d, d)])
    np.testing.assert_array_equal(_bits(choi.matrix), _bits(images.transpose(0, 2, 1, 3).reshape(d * d, d * d) / d))


def _cpmap_builds(d: int) -> dict:
    """CpMap of a caller's array and every constructor of a CpMap in the
    package, at side d, with their inputs built here, outside any trace."""
    g = rng(d)
    cp = unital_cpmap(g, d)
    units = np.array(cp.units)
    rho = density(g, d)
    theta = nonlinear_lift(qcp_from_channel(cp), rho)
    doc = jsonio.cpmap_to_json(cp)
    kraus = [np.eye(d, dtype=complex) / np.sqrt(d)] * d
    conditional = np.eye(d)
    return {
        "CpMap": lambda: CpMap(units),
        "cp_identity": lambda: cp_identity(d),
        "classical_cpmap": lambda: classical_cpmap(conditional),
        "cp_from_kraus": lambda: cp_from_kraus(kraus),
        "channel_from_compound": lambda: channel_from_compound(theta, rho),
        "json_to_cpmap": lambda: jsonio.json_to_cpmap(doc),
    }


def _traced_peak(call) -> int:
    """The traced peak of call(), after one untraced warm-up call."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


CPMAP_BUILDS = _cpmap_builds(16)
STATE_256 = density(rng(256), 256)
CPMAP_16 = unital_cpmap(rng(16), 16)


@pytest.mark.parametrize("name", CPMAP_BUILDS)
def test_cpmaps_are_built_within_two_and_three_quarters_their_units(name):
    # Copying a constructor's own units, and holding the Hermiticity test's
    # complex difference beside its float arrays, took 3.13 to 4.19 times
    # the 1 MiB of units at d = 16.
    peak = _traced_peak(CPMAP_BUILDS[name])
    assert peak < 2.75 * 16**4 * 16, peak / 16**4 / 16


GATES = {"check_state": lambda: check_state(STATE_256), "qcp_from_channel": lambda: qcp_from_channel(CPMAP_16)}


@pytest.mark.parametrize("name", GATES)
def test_positivity_gates_certify_within_three_and_three_quarters_their_operator(name):
    # A copy of the Hermitian part for the Cholesky shift took 4.06 times
    # the 1 MiB operator.
    peak = _traced_peak(GATES[name])
    assert peak < 3.75 * 256**2 * 16, peak / 256**2 / 16


def test_choi_matrix_holds_its_images_and_one_transposed_copy():
    # The unit matrices, the images, their transposed copy and its quotient
    # by d took 4.00 times the 1 MiB output.
    peak = _traced_peak(lambda: choi_matrix(CPMAP_16.apply, 16))
    assert peak < 3.25 * 256**2 * 16, peak / 256**2 / 16


@pytest.mark.parametrize("name, scans", [
    ("CpMap", 1), ("cp_identity", 0), ("classical_cpmap", 0), ("json_to_cpmap", 1), ("cp_from_kraus", 1),
    ("channel_from_compound", 1),
])
def test_cpmap_units_are_scanned_once_unless_bounded(name, scans, bound_scans):
    # Identity and classical units hold 0, 1 and read probabilities, and come
    # checked. Decoded JSON units are never trusted, so CpMap scans them;
    # cp_from_kraus scans its product itself, as Kraus products may pass the
    # bound, and compound products are scanned by CpMap.
    build = _cpmap_builds(2)[name]
    bound_scans.clear()
    cp = build()
    assert sum(x is cp.units for x in bound_scans) == scans


@pytest.mark.parametrize("name", CPMAP_BUILDS)
def test_cpmap_units_are_read_only(name):
    assert not _cpmap_builds(2)[name]().units.flags.writeable


def test_cpmap_copies_a_callers_units():
    u = np.array(cp_identity(2).units)
    cp = CpMap(u)
    u[0, 0, 0, 0] = 7.0
    assert cp.units[0, 0, 0, 0] == 1.0


def _circulant_json(d: int) -> dict:
    return jsonio.circulant_to_json(circulant_spec(rng(d), d))


CIRCULANT_JSON_16 = _circulant_json(16)


def test_decoded_circulant_blocks_are_held_within_four_and_a_half_times():
    # A copy of the decoded blocks on top of the stack took 5.04 times them.
    peak = _traced_peak(lambda: jsonio.json_to_circulant(CIRCULANT_JSON_16))
    assert peak < 4.5 * 16**3 * 16, peak / 16**3 / 16


def test_circulant_blocks_are_scanned_once_unless_sampled(bound_scans):
    # circulant_spec hands over checked blocks, whose entries are at most 1.
    # json_to_circulant's blocks are decoded wire data, never trusted, so
    # CirculantSpec scans the stack once more; a caller's array is scanned as
    # it is copied.
    obj = _circulant_json(3)
    bound_scans.clear()
    circulant_spec(rng(3), 3)
    assert [x.shape for x in bound_scans if x.ndim == 3] == []
    jsonio.json_to_circulant(obj)
    assert [x.shape for x in bound_scans if x.ndim == 3] == [(3, 3, 3)]
    blocks = np.array(jsonio.json_to_circulant(obj).blocks)
    bound_scans.clear()
    CirculantSpec(blocks)
    assert [x.shape for x in bound_scans] == [(3, 3, 3)]


def test_circulant_blocks_are_read_only_and_copied_from_a_caller():
    blocks = np.array(circulant_spec(rng(3), 3).blocks)
    spec = CirculantSpec(blocks)
    assert not spec.blocks.flags.writeable
    assert not jsonio.json_to_circulant(_circulant_json(3)).blocks.flags.writeable
    kept = np.array(spec.blocks)
    blocks[0, 0, 0] = 7.0
    np.testing.assert_array_equal(spec.blocks, kept)


def test_links_near_overflow_still_fail_the_scan():
    # Links within the bound whose chain is past it.
    big = 2.0**50 * np.eye(4)
    hand_built = QcpOperator(FactoredOperator(big, (2, 2)), unital_cpmap(rng(4), 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for links in ([big, big], [FactoredOperator(big, (2, 2))] * 3, [hand_built] * 2):
            with pytest.raises(SchemaError, match="^matrix" + PAST_BOUND.replace("*", r"\*") + "$"):
                n_compose_qcp(links)


def test_overflowing_hermitian_parts_end_in_one_typed_error():
    # Entries near the float maximum are refused where they are read, so no
    # Hermitian part, trace or chain stage overflows, and no warning shows.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SchemaError, match="^matrix must hold finite numbers"):
            check_state(1.7e308 * np.eye(2))
        with pytest.raises(SchemaError, match="^conditional operator must hold finite numbers"):
            n_compose_qcp([1.7e308 * np.eye(4)] * 2)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    out = subprocess.run(
        [sys.executable, "-m", "liftlab.cli", "lift", "ohya", "--rho", "[[1.7e308,0],[0,1.7e308]]"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
    )
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == "error: matrix must hold finite numbers of modulus at most 2**60\n"


@SETTINGS
@given(
    n=st.integers(1, 4),
    values=st.sampled_from([SPECIAL, np.array([2.0**60, -(2.0**60), 0.0, -0.0, 1.0])]),
    seed=st.integers(0, 2**32 - 1),
)
def test_hermitian_part_of_a_hermitian_matrix_is_itself(n, values, seed):
    # The part is summed, then halved: exact for subnormal entries, and for
    # entries at the readers' bound the sum stays far inside the float range.
    g = rng(seed)

    def part():
        return np.where(g.random((n, n)) < 0.5, g.choice(values, (n, n)), g.standard_normal((n, n)))

    upper = np.triu(part() + 1j * part(), 1)
    m = upper + upper.conj().T + np.diag(part().diagonal())
    np.testing.assert_array_equal(_bits(_check_hermitian(m)), _bits(m))


def test_zero_dimensional_links_are_refused():
    for call in (lambda: n_compose_qcp([5.0]), lambda: nonlinear_lift(5.0, np.eye(1))):
        with pytest.raises(DimensionMismatchError, match=r"conditional operator must be d\^2 x d\^2, got shape \(\)"):
            call()


# Lowest eigenvalues around the two thresholds: the Cholesky certificate
# passes above -TOL / 2, is_psd above -TOL * scale (scale 1 or 1e3 below).
LOWS = [0.0, 1e-3, -1e-3, -0.4 * TOL, -0.6 * TOL, -1.01 * TOL, -0.99e-6, -1.01e-6]


def _spectra(g, k, n, low, zeros, scale, total):
    """(k, n) spectra with rows summing to total: a random nonempty set of
    rows has the eigenvalue low, each row has up to ``zeros`` zero
    eigenvalues but keeps a positive one, and with scale > 1 the largest
    eigenvalue of every row is scale."""
    w = g.random((k, n)) + 0.1
    w[:, 1 : 1 + min(zeros, n - 2)] = 0.0
    if k and n:
        w *= total / w.sum(axis=1, keepdims=True)
        rows = g.random(k) < 0.5
        rows[g.integers(k)] = True
        w[rows, 0] = low
    if n > 1:
        w[:, 1:] *= (total - w[:, :1]) / w[:, 1:].sum(axis=1, keepdims=True)
        if scale > 1:
            w[:, -1] = scale
    return w


def _unitaries(g, k, n):
    return np.linalg.qr(g.standard_normal((k, n, n)) + 1j * g.standard_normal((k, n, n)))[0]


def _with_spectra(g, w):
    """The (k, n, n) stack U diag(w[i]) U^dagger, with random unitaries U."""
    u = _unitaries(g, *w.shape)
    return (u * w[:, None, :]) @ u.conj().swapaxes(-1, -2)


def _outcome(call):
    """(shape, bytes) of every array a constructor returns, or its error type and text."""
    try:
        out = call()
    except LiftlabError as exc:
        return type(exc), str(exc)
    arrays = [getattr(x, f) for x in (out if isinstance(out, tuple) else (out,))
              for f in ("matrix", "units", "blocks", "p") if hasattr(x, f)]
    return [(a.shape, np.ascontiguousarray(a).tobytes()) for a in arrays]


@pytest.mark.parametrize("low", LOWS)
@settings(SETTINGS, max_examples=25)
@given(
    scale=st.sampled_from([1.0, 1e3]),
    k=st.integers(0, 3),
    d=st.integers(0, 4),
    zeros=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_psd_certificate_gives_the_eigensolve_outcomes(low, scale, k, d, zeros, seed):
    g = rng(seed)
    stack = _with_spectra(g, _spectra(g, k, d, low, zeros, scale, 1.0))
    ok, lows = _psd_stack(stack)
    first = None if ok.all() else (int(np.argmin(ok)), lows.flat[int(np.argmin(ok))])
    assert _first_non_psd(stack) == first
    if _cholesky_certifies(_check_hermitian(stack)):
        assert first is None

    rho = np.eye(d) / max(d, 1)
    state = _with_spectra(g, _spectra(g, 1, d, low, zeros, scale, 1.0))[0]
    blocks = _with_spectra(g, _spectra(g, d, d, low, zeros, scale, 1.0 / max(d, 1)))
    profiles = _with_spectra(g, _spectra(g, d, d, low, zeros, scale, 1.0))
    images = _with_spectra(g, _spectra(g, k, d, low, zeros, scale, 1.0))
    p = g.random(d)
    p[: min(zeros, d - 1)] = 0.0
    p /= p.sum() if d else 1.0
    # pi = (U1 x V) diag(w) (U1 x V)^dagger with sum_i w[i, a] = 1: unital, with the spectrum w.
    w = _spectra(g, d, d, low, zeros, scale, 1.0).T
    u = _kron(*_unitaries(g, 2, d))
    pi = (u * w.reshape(-1)) @ u.conj().T
    units = pi.reshape(d, d, d, d).transpose(0, 2, 1, 3)
    theta = _with_spectra(g, _spectra(g, 1, d * d, low, zeros, scale, 1.0))[0]

    def compound():
        t = FactoredOperator(theta, (d, d))
        return channel_from_compound(t, partial_trace(t, {1}).matrix)

    calls = [
        lambda: check_state(state),
        lambda: qcp_from_channel(CpMap(units)),
        compound,
        lambda: CirculantSpec(blocks),
        lambda: circulant_lift(profiles, rho),
        lambda: bell_diagonal_lift(p, rho),
        lambda: separable_n_state(np.full(k, 1.0 / max(k, 1)), [images, images]),
    ]
    certified = [_outcome(call) for call in calls]
    with mock.patch.object(matcore, "_cholesky_certifies", lambda h: False):
        solved = [_outcome(call) for call in calls]
    assert certified == solved
    if low >= 0 and scale == 1 and d >= 2:
        assert all(isinstance(o, list) for o in certified[:6]), certified


@pytest.fixture
def eigensolves(monkeypatch):
    """Record the shape of every stack np.linalg.eigvalsh is asked about."""
    shapes = []
    real = np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return shapes


def test_gates_on_valid_input_run_no_eigensolve(eigensolves, monkeypatch):
    g = rng(17)
    cp = unital_cpmap(g, 4)
    rho = density(g, 8)
    profiles = np.array([density(g, 8) for _ in range(8)])
    p = np.full(8, 1 / 8)
    eigensolves.clear()
    check_state(rho)
    qcp_from_channel(cp)
    circulant_lift(profiles, rho)
    bell_diagonal_lift(p, rho)
    assert eigensolves == []
    # bell_diagonal_lift certifies only rho: its profile has no gate, since
    # the profile's eigenvalues are the weights p, already validated.
    checked = []
    real = matcore._cholesky_certifies
    monkeypatch.setattr(matcore, "_cholesky_certifies", lambda h: checked.append(h.shape) or real(h))
    bell_diagonal_lift(p, rho)
    assert checked == [(8, 8)]


def _guarded_cases():
    """(callable, arguments, output bytes) for every constructor whose output
    outgrows its input: outputs of 64 KiB to 4 MiB from inputs of a few KiB
    (gamma_lifting's joint channel is half its output), built here so that
    their allocations are not traced."""
    import liftlab as L

    u16 = np.full(16, 1 / 16)
    eye16, eye64 = np.eye(16), np.eye(64)
    blocks = np.stack([np.eye(16) / 256] * 16).astype(complex)
    rho16 = np.diag(u16)
    big = 16**4 * 16  # a 256 x 256 complex operator
    return {
        "tensor": (L.tensor, (FactoredOperator(eye16), FactoredOperator(eye16)), big),
        "diagonal_operator": (diagonal_operator, (np.full(256, 1 / 256), (16, 16)), big),
        "classical_choi": (L.classical_choi, (eye16,), big),
        "max_correlated_state": (L.max_correlated_state, (np.arange(16),), big),
        "gamma_lifting": (L.gamma_lifting, (eye64, np.full(8, 1 / 8), np.full(8, 1 / 8)), 64**2 * 16),
        "unit_matrix": (L.unit_matrix, (512, 0, 0), 512**2 * 16),
        "kraus_from_channel": (L.kraus_from_channel, (np.full((16, 16), 1 / 16),), big),
        "permutation_channel": (L.permutation_channel, (np.arange(512),), 512**2 * 8),
        "pure_tensor": (L.pure_tensor, ([0, 2**15],), 2 * (2**15 + 1) * 2 * 8),
        "product_tensor": (L.product_tensor, (np.full(4, 1 / 4), 256), 256 * 4 * 256 * 8),
        "ohya_tensor": (L.ohya_tensor, (64,), 64**3 * 8),
        "markov_tensor": (L.markov_tensor, (eye64,), 64**3 * 8),
        "cp_identity": (L.cp_identity, (16,), big),
        "cp_from_kraus": (L.cp_from_kraus, ([eye16],), big),
        "classical_cpmap": (L.classical_cpmap, (eye16,), big),
        "choi_matrix": (L.choi_matrix, (lambda x: x, 16), big),
        "build_circulant": (L.build_circulant, (L.CirculantSpec(blocks),), big),
        "assemble_partial_transpose": (L.assemble_partial_transpose, (blocks,), big),
        "circulant_lift": (L.circulant_lift, (blocks * 16, rho16), big),
        "bell_diagonal_lift": (L.bell_diagonal_lift, (u16, rho16), big),
        "circulant_lift_isometry": (L.circulant_lift_isometry, (eye16, rho16), big),
        "maximally_entangled": (L.maximally_entangled, (16,), big),
        "bell_state": (L.bell_state, (0, 0, 16), big),
        "bell_unitary": (L.bell_unitary, (0, 0, 512), 512**2 * 16),
        "shift_matrix": (L.shift_matrix, (512,), 512**2 * 16),
        "circulant_subspaces": (L.circulant_subspaces, (512,), 512**2 * 8),
        "apply_kraus": (L.apply_kraus, ([np.ones((512, 1))], [[1.0]]), 512**2 * 16),
        "lifting_assisted_map": (L.lifting_assisted_map(lambda x: x, eye16 / 16), (eye16 / 16,), big),
    }


GUARDED = _guarded_cases()


@pytest.mark.parametrize("name", GUARDED)
def test_constructors_refuse_outputs_past_the_bound_before_allocating(name, monkeypatch):
    # With the bound at 4 KiB each call ends in SchemaError, and the traced
    # peak stays below its output's size, so the output was never allocated.
    fn, args, out_bytes = GUARDED[name]
    monkeypatch.setattr(matcore, "MAX_DENSE_BYTES", 4096)
    tracemalloc.start()
    try:
        with pytest.raises(SchemaError, match=r"^dense .*, limit is 4096$"):
            fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < out_bytes, (peak, out_bytes)


# Each constructor whose guard is now the one in matcore._zeros or _kron
# keeps its own guard's message byte for byte; apply_kraus and
# lifting_assisted_map's map had no guard.
_OPERATOR_256 = "dense 256 x 256 operator needs 1048576 bytes"
_OPERATOR_512 = "dense 512 x 512 operator needs 4194304 bytes"
_TENSOR_64 = "dense 64 x 64 x 64 lifting tensor needs 2097152 bytes"
GUARD_MESSAGES = {
    "tensor": _OPERATOR_256,
    "unit_matrix": _OPERATOR_512,
    "bell_unitary": _OPERATOR_512,
    "build_circulant": _OPERATOR_256,
    "assemble_partial_transpose": _OPERATOR_256,
    "circulant_lift": _OPERATOR_256,
    "kraus_from_channel": "dense 16 x 16 x 16 x 16 Kraus operator array needs 1048576 bytes",
    "permutation_channel": "dense 512 x 512 channel needs 2097152 bytes",
    "pure_tensor": "dense 2 x 32769 x 2 lifting tensor needs 1048608 bytes",
    "product_tensor": "dense 256 x 4 x 256 lifting tensor needs 2097152 bytes",
    "ohya_tensor": _TENSOR_64,
    "markov_tensor": _TENSOR_64,
    "classical_cpmap": _OPERATOR_256,
    "apply_kraus": _OPERATOR_512,
    "lifting_assisted_map": _OPERATOR_256,
}


@pytest.mark.parametrize("name", GUARD_MESSAGES)
def test_allocator_guards_word_each_constructors_refusal(name, monkeypatch):
    fn, args, _ = GUARDED[name]
    monkeypatch.setattr(matcore, "MAX_DENSE_BYTES", 4096)
    with pytest.raises(SchemaError) as exc:
        fn(*args)
    assert str(exc.value) == f"{GUARD_MESSAGES[name]}, limit is 4096"



# A few KiB past a 4 KiB bound, each draw is refused with the wording of the
# constructor it feeds; density, faithful_density and markov_spec make no
# draw of their own before it.
_OPERATOR_32 = "dense 32 x 32 operator needs 16384 bytes"
_VECTOR_1024 = "dense 1024 vector needs 8192 bytes"
_CHANNEL_32 = "dense 32 x 32 channel needs 8192 bytes"
DRAW_GUARDS = {
    "probability_vector": (sampling.probability_vector, (1024,), _VECTOR_1024),
    "permutation": (sampling.permutation, (1024,), _VECTOR_1024),
    "diagonal_observable": (sampling.diagonal_observable, (1024,), _VECTOR_1024),
    "stochastic": (sampling.stochastic, (32, 32), _CHANNEL_32),
    "markov_spec": (sampling.markov_spec, (32,), _CHANNEL_32),
    "unitary": (sampling.unitary, (32,), _OPERATOR_32),
    "density": (sampling.density, (32,), _OPERATOR_32),
    "faithful_density": (sampling.faithful_density, (32,), _OPERATOR_32),
    "unital_cpmap": (sampling.unital_cpmap, (5,), "dense 25 x 25 operator needs 10000 bytes"),
    "lifting_tensor": (sampling.lifting_tensor, (8, 16), "dense 8 x 16 x 8 lifting tensor needs 8192 bytes"),
    "circulant_spec": (sampling.circulant_spec, (8,), "dense 8 x 8 x 8 blocks needs 8192 bytes"),
}


@pytest.mark.parametrize("name", DRAW_GUARDS)
def test_sampling_draws_refuse_sizes_past_the_bound_before_drawing(name, monkeypatch):
    fn, args, message = DRAW_GUARDS[name]
    monkeypatch.setattr(matcore, "MAX_DENSE_BYTES", 4096)
    g = rng(0)
    with pytest.raises(SchemaError) as exc:
        fn(g, *args)
    assert str(exc.value) == f"{message}, limit is 4096"
    assert g.bit_generator.state == rng(0).bit_generator.state

def test_zeros_charges_its_dtypes_entry_size(monkeypatch):
    monkeypatch.setattr(matcore, "MAX_DENSE_BYTES", 8192)
    assert matcore._zeros((32, 32), "operator").dtype == np.float64
    with pytest.raises(SchemaError, match="^dense 32 x 32 operator needs 16384 bytes, limit is 8192$"):
        matcore._zeros((32, 32), "operator", complex)


def test_bell_profile_is_refused_before_its_cubes():
    # The profile's (d, d, d) phase products took 56 MB at d = 120 before
    # the dense-size guard refused the 14400 x 14400 output.
    p, rho = np.full(120, 1 / 120), np.eye(120) / 120
    message = r"^dense 14400 x 14400 operator needs 3317760000 bytes, limit is 1073741824$"
    tracemalloc.start()
    try:
        with pytest.raises(SchemaError, match=message):
            bell_diagonal_lift(p, rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000, peak


def _not_a_state(d: int) -> np.ndarray:
    rho = np.zeros((d, d))
    rho[0, 0], rho[1, 1] = 1.5, -0.5
    return rho


def _refused_bell():
    rho = np.eye(64) / 64
    rho[0, 0] += 5e-10  # check_state and circulant_lift accept it; BellSpectrum's sum does not
    return bell_diagonal_lift, (np.full(64, 1 / 64), rho)


def _refused_circulant():
    profiles = np.stack([np.eye(64, dtype=complex) / 64] * 64)
    profiles[-1] *= -1
    return circulant_lift, (profiles, np.eye(64) / 64)


def _refused_isometry():
    cvecs = np.eye(64)
    cvecs[-1] *= 1.1
    return circulant_lift_isometry, (cvecs, np.eye(64) / 64)


def _refused_gamma():
    gamma = np.eye(46 * 46)
    gamma[-1, -1] = 0.5
    return gamma_lifting, (gamma, np.full(46, 1 / 46), np.full(46, 1 / 46))


def _refused_separable():
    images = np.stack([np.eye(16)] * 4)
    bad = images.copy()
    bad[-1, 0, 0] = -1.0
    return separable_n_state, (np.full(4, 1 / 4), [images, images, bad])


# name: (builder of (lift, arguments), output bytes). One argument fails a
# semantic check; the output would be a 4096- or 2116-sided complex matrix.
REFUSED_LIFTS = {
    "circulant_lift": (_refused_circulant, 64**4 * 16),
    "circulant_lift_isometry": (_refused_isometry, 64**4 * 16),
    "bell_diagonal_lift": (_refused_bell, 64**4 * 16),
    "nonlinear_lift": (lambda: (nonlinear_lift, (np.eye(46 * 46, dtype=complex), _not_a_state(46))), 46**4 * 16),
    "n_nonlinear_lift": (lambda: (n_nonlinear_lift, (np.eye(256, dtype=complex), _not_a_state(16), 3)), 16**6 * 16),
    "ohya_lift": (lambda: (ohya_lift, (_not_a_state(16), 3)), 16**6 * 16),
    "n_lift": (lambda: (n_lift, (ohya_tensor(4), [1.5, -0.5, 0.0, 0.0], 6)), 4**12 * 16),
    "gamma_lifting": (_refused_gamma, 46**4 * 16),
    "separable_n_state": (_refused_separable, 16**6 * 16),
}


@pytest.mark.parametrize("name", REFUSED_LIFTS)
def test_refused_lifts_allocate_none_of_their_output(name):
    # Every check runs before the output is allocated. A refused d = 64
    # bell_diagonal_lift, whose spectrum was checked after its state was
    # built, peaked at 266 MiB.
    build, out_bytes = REFUSED_LIFTS[name]
    fn, args = build()  # untraced
    tracemalloc.start()
    try:
        with pytest.raises(MathDomainError):
            fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < out_bytes / 8, (peak, out_bytes)
