"""The error contract for the library: a result or a LiftlabError.

Every callable in liftlab.__all__ but the exception classes, plus CpMap's
two actions and the map that lifting_assisted_map returns, is called with
near-valid arguments:
each argument is a valid value or an edge variant of it. Arrays become a
0-d number, an empty array, a copy with one entry NaN or +-1.7e308, an
array full of +-1.7e308 or of 1e155 (past the square root of the float
maximum, so that two such arguments overflow a product), one of another
rank, a shifted or complex copy, or nested lists with one entry 10**400
(past the float range), a string or a bool, or ragged; sizes and indices
become -1, 0, 2.5, True, a numpy integer or np.eye(2); lists of arrays lose
their entries or get one edge entry; callables return a number, NaN or a
ragged list. Warnings are errors. Each call must return or raise a
LiftlabError; a TypeError is allowed only when an argument is None, the
wrong Python type. Tolerance arguments keep their defaults. Arrays have side at most 4 and sizes at
most 3, so no call allocates more than a few KiB.
"""
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import liftlab
from liftlab import jsonio
from liftlab import (
    FactoredOperator,
    circulant_partial_transpose,
    kraus_from_channel,
    lifting_assisted_map,
    nonlinear_lift,
    qcp_from_channel,
)
from liftlab.errors import LiftlabError
from liftlab.sampling import (
    circulant_spec,
    density,
    faithful_density,
    lifting_tensor,
    markov_spec,
    probability_vector,
    rng,
    stochastic,
    unital_cpmap,
)

BIG = 1.7e308
ROOT_BIG = 1e155  # its square is past the float range
PAST_BOUND = " must hold finite numbers of modulus at most 2**60"
NOT_NUMBERS = " must be a rectangular array of numbers"
# Argument kinds: an array, a size, an index (or factor label), a tuple of
# sizes or labels, a list of arrays, a callable, and a fixed object.
ARRAY, SIZE, INDEX, DIMS, ARRAYS, FUNC, FIXED = "array", "size", "index", "dims", "arrays", "func", "fixed"


def _cases():
    """name -> (callable, [(kind, valid value), ...])."""
    g = rng(7)
    rho = density(g, 2)
    p = probability_vector(g, 2)
    w = stochastic(g, 2, 2)
    cp = unital_cpmap(g, 2)
    pi = qcp_from_channel(cp)
    spec = markov_spec(g, 2)
    cspec = circulant_spec(g, 2)
    theta = nonlinear_lift(pi, faithful_density(g, 2))
    op = FactoredOperator(np.kron(rho, rho), (2, 2))
    t = lifting_tensor(g, 2, 2)
    obs = np.array([0.3, -0.2])
    perm = np.array([1, 0])
    unital = np.full((2, 2), 0.5)
    cvecs = np.eye(2)
    gamma = stochastic(g, 4, 4)
    images = np.stack([density(g, 2), density(g, 2)])

    def identity(m):
        return m

    cases = {
        "BellSpectrum": [(ARRAY, np.outer(p, p))],
        "Check": [(FIXED, "c"), (FIXED, True), (ARRAY, np.array(0.0)), (ARRAY, np.array(1e-9)), (FIXED, "a")],
        "CirculantSpec": [(ARRAY, cspec.blocks)],
        "CpMap": [(ARRAY, cp.units)],
        "FactoredOperator": [(ARRAY, op.matrix), (DIMS, (2, 2))],
        "MarkovSpec": [(ARRAY, spec.conditional), (ARRAY, spec.initial)],
        "QcpOperator": [(FIXED, pi.op), (FIXED, cp)],
        "VerificationReport": [(FIXED, "all"), (FIXED, ()), (SIZE, 0), (FIXED, "t")],
        "apply_kraus": [(ARRAYS, [np.eye(2)]), (ARRAY, rho)],
        "apply_to_observable": [(ARRAY, w), (ARRAY, obs)],
        "apply_to_state": [(ARRAY, w), (ARRAY, p)],
        "as_channel": [(ARRAY, w)],
        "as_lifting_tensor": [(ARRAY, t)],
        "as_permutation": [(ARRAY, perm)],
        "as_probability_vector": [(ARRAY, p)],
        "assemble_partial_transpose": [(ARRAY, circulant_partial_transpose(cspec.blocks))],
        "bell_diagonal_lift": [(ARRAY, p), (ARRAY, rho)],
        "bell_state": [(INDEX, 1), (INDEX, 0), (SIZE, 2)],
        "bell_unitary": [(INDEX, 1), (INDEX, 1), (SIZE, 2)],
        "build_circulant": [(FIXED, cspec)],
        "channel_from_compound": [(FIXED, theta), (ARRAY, liftlab.partial_trace(theta, {1}).matrix)],
        "channel_from_dilation": [(ARRAY, np.array([0, 3, 2, 1])), (ARRAY, p)],
        "check_state": [(ARRAY, rho)],
        "choi_matrix": [(FUNC, identity), (SIZE, 2)],
        "circulant_lift": [(ARRAY, np.stack([rho, rho])), (ARRAY, rho)],
        "circulant_lift_isometry": [(ARRAY, cvecs), (ARRAY, rho)],
        "circulant_partial_transpose": [(ARRAY, cspec.blocks)],
        "circulant_subspaces": [(SIZE, 2)],
        "classical_choi": [(ARRAY, unital)],
        "classical_cpmap": [(ARRAY, unital)],
        "classical_teleport": [(ARRAY, p), (ARRAY, perm)],
        "compose_qcp": [(ARRAY, pi.matrix), (ARRAY, pi.matrix)],
        "cp_from_kraus": [(ARRAYS, kraus_from_channel(unital))],
        "cp_identity": [(SIZE, 2)],
        "gamma_lifting": [(ARRAY, gamma), (ARRAY, p), (ARRAY, p)],
        "herm_sqrt": [(ARRAY, rho)],
        "is_doubly_stochastic": [(ARRAY, unital)],
        "is_markovian_lifting": [(ARRAY, t)],
        "is_nondemolition": [(ARRAY, t)],
        "is_ppt_circulant": [(FIXED, cspec)],
        "is_psd": [(ARRAY, rho)],
        "is_stochastic": [(ARRAY, w)],
        "is_unital": [(ARRAY, unital)],
        "kraus_from_channel": [(ARRAY, w)],
        "lift": [(ARRAY, t), (ARRAY, p)],
        "lifting_assisted_map": [(FUNC, identity), (ARRAY, rho)],
        "markov_operator": [(FIXED, spec), (ARRAY, obs)],
        "markov_state": [(FIXED, spec), (SIZE, 3)],
        "markov_tensor": [(ARRAY, spec.conditional)],
        "markov_weights": [(FIXED, spec), (SIZE, 3)],
        "max_correlated_state": [(ARRAY, perm)],
        "maximally_entangled": [(SIZE, 2)],
        "n_compose_qcp": [(ARRAYS, [pi.matrix, pi.matrix])],
        "n_lift": [(ARRAY, t), (ARRAY, p), (SIZE, 3)],
        "n_nonlinear_lift": [(ARRAY, pi.matrix), (ARRAY, rho), (SIZE, 3)],
        "nonlinear_lift": [(ARRAY, pi.matrix), (ARRAY, rho)],
        "ohya_lift": [(ARRAY, rho), (SIZE, 3)],
        "ohya_tensor": [(SIZE, 2)],
        "partial_trace": [(FIXED, op), (DIMS, (1,))],
        "partial_transpose": [(FIXED, op), (INDEX, 1)],
        "permutation_channel": [(ARRAY, perm)],
        "permutation_inverse": [(ARRAY, perm)],
        "product_tensor": [(ARRAY, p), (SIZE, 2)],
        "pure_tensor": [(ARRAY, perm), (SIZE, 2)],
        "qcp_from_channel": [(FIXED, cp)],
        "robertson_map": [(ARRAY, np.kron(rho, rho))],
        "run_suite": [(FIXED, "classical"), (SIZE, 0), (SIZE, 1)],
        "separable_n_state": [(ARRAY, p), (ARRAYS, [images, images])],
        "shift_matrix": [(SIZE, 2)],
        "tensor": [(FIXED, op), (FIXED, op)],
        "trace_out": [(FIXED, op), (DIMS, (1,))],
        "transition_expectation_sides": [(FIXED, spec), (ARRAYS, [obs, obs])],
        "unit_matrix": [(SIZE, 2), (INDEX, 0), (INDEX, 1)],
        "verify_transition_expectation": [(FIXED, spec), (SIZE, 2), (ARRAYS, [obs, obs])],
    }
    calls = {name: (getattr(liftlab, name), args) for name, args in cases.items()}
    calls["CpMap.apply"] = (cp.apply, [(ARRAY, rho)])
    calls["CpMap.adjoint_apply"] = (cp.adjoint_apply, [(ARRAY, rho)])
    calls["lifting_assisted_map(...)"] = (
        lambda psi, omega, m: lifting_assisted_map(psi, omega)(m),
        [(FUNC, identity), (ARRAY, rho), (ARRAY, rho)],
    )
    return calls


CASES = _cases()

# None marks an argument of the wrong Python type.
WRONG_TYPE = None


def _with_entry(v, value, k):
    out = v.astype(complex if v.dtype.kind == "c" else float)
    out.flat[k] = value
    return out


def _listed(v, value, k):
    """v as nested lists, with entry k replaced by value."""
    out = v.astype(object)
    out.flat[k] = value
    return out.tolist()


def _ragged(v):
    """v as nested lists whose first entry is doubled into a pair: ragged when v has two or more rows."""
    out = v.tolist()
    if v.ndim and v.size:
        out[0] = [out[0], out[0]]
    return out


def _array(v):
    v = np.asarray(v)
    real = v.real.astype(float)
    edges = st.sampled_from([
        v, v, v, v, 5.0, np.zeros((0,) * max(v.ndim, 1)), np.zeros(0), np.full(v.shape, BIG),
        np.full(v.shape, -BIG), np.full(v.shape, ROOT_BIG), v[None], v.reshape(-1), v[..., 0] if v.ndim else v,
        real + 0.5, v + 0.5j,
        _ragged(v), WRONG_TYPE,
    ])
    if not v.size:
        return edges
    # 10**400, a string and a bool fit no float array, so they come as nested lists.
    one_entry = st.tuples(st.sampled_from([np.nan, BIG, -BIG, 10**400, "a", True]), st.integers(0, v.size - 1))
    return edges | one_entry.map(lambda t: (_with_entry if isinstance(t[0], float) else _listed)(v, *t))


def _size(k):
    return st.sampled_from([k, k, k, -1, 0, 2.5, True, np.int64(k), np.eye(2), WRONG_TYPE])


def _index(k):
    return st.sampled_from([k, k, -1, 3, 2.5, True, np.int64(k), np.eye(2), WRONG_TYPE])


def _dims(dims):
    return st.sampled_from([dims, dims, dims[:1], (), (-1,) + dims[1:], (2.5,) + dims[1:], (True,) + dims[1:],
                            (np.eye(2),), np.array(dims), dims * 2, WRONG_TYPE])


def _arrays(items):
    one = st.integers(0, len(items) - 1).flatmap(
        lambda k: _array(items[k]).map(lambda a: items[:k] + [a] + items[k + 1:]))
    return st.sampled_from([list(items), list(items), [], WRONG_TYPE]) | one


def _func(f):
    return st.sampled_from([f, f, lambda m: 5.0, lambda m: np.full(np.shape(m), np.nan), lambda m: [[1], [1, 2]],
                            WRONG_TYPE])


KINDS = {ARRAY: _array, SIZE: _size, INDEX: _index, DIMS: _dims, ARRAYS: _arrays, FUNC: _func, FIXED: st.just}
ARGUMENTS = {name: st.tuples(*[KINDS[kind](valid) for kind, valid in params]) for name, (_, params) in CASES.items()}


def test_every_public_callable_is_covered():
    public = {name: getattr(liftlab, name) for name in liftlab.__all__}
    exceptions = {name for name, obj in public.items() if isinstance(obj, type) and issubclass(obj, Exception)}
    callables = {name for name, obj in public.items() if callable(obj)}
    assert callables - exceptions <= set(CASES), sorted(callables - exceptions - set(CASES))


@pytest.mark.parametrize("name", sorted(CASES))
@settings(max_examples=50, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_call_returns_or_raises_a_liftlab_error(name, data):
    args = data.draw(ARGUMENTS[name])
    wrong_type = any(a is WRONG_TYPE for a in args)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            CASES[name][0](*args)
        except LiftlabError:
            pass
        except TypeError:
            if not wrong_type:
                raise


I2 = np.eye(2)
TENSOR = np.full((1, 2, 1), 0.5)
# (call, error type name, message): edge inputs that each reader must turn
# into one typed error, with no numpy warning and no truncated value.
NAMED = [
    (lambda: liftlab.n_lift(TENSOR, [1.0], np.eye(2)), "DimensionMismatchError", "parties must be an integer"),
    (lambda: liftlab.n_lift(TENSOR, [1.0], True), "DimensionMismatchError", "parties must be an integer"),
    (lambda: liftlab.ohya_tensor(np.eye(2)), "DimensionMismatchError", "n must be an integer"),
    (lambda: liftlab.maximally_entangled(2.5), "DimensionMismatchError", "d must be an integer"),
    (lambda: liftlab.circulant_subspaces(0), "DimensionMismatchError", "d must be at least 1, got 0"),
    (lambda: liftlab.unit_matrix(3, 1.5, 0), "DimensionMismatchError", "i must be an integer"),
    (lambda: liftlab.is_psd(5.0), "DimensionMismatchError", "matrix must be square, got shape ()"),
    (lambda: liftlab.herm_sqrt(5.0), "DimensionMismatchError", "matrix must be square, got shape ()"),
    (lambda: liftlab.apply_to_observable(I2, 5.0), "DimensionMismatchError",
     "vector of shape () does not match channel input size 2"),
    (lambda: liftlab.apply_kraus([I2], [0.5, 0.5]), "DimensionMismatchError", "state must be square, got shape (2,)"),
    (lambda: liftlab.apply_kraus([I2], 5.0), "DimensionMismatchError", "state must be square, got shape ()"),
    (lambda: liftlab.apply_kraus([np.eye(3)], I2 / 2), "DimensionMismatchError",
     "need at least one Kraus operator, all of shape (r, 2)"),
    (lambda: liftlab.as_permutation([1.5, 0.2]), "SchemaError", "permutation images must be integers, got float64"),
    (lambda: liftlab.permutation_channel([1.7, 0.2]), "SchemaError",
     "permutation images must be integers, got float64"),
    (lambda: liftlab.as_permutation(["1", "0"]), "SchemaError", "permutation" + NOT_NUMBERS),
    (lambda: liftlab.as_permutation([True, False]), "SchemaError", "permutation" + NOT_NUMBERS),
    (lambda: liftlab.as_permutation([1, True]), "SchemaError", "permutation" + NOT_NUMBERS),
    (lambda: liftlab.as_permutation([np.nan, 1]), "SchemaError", "permutation" + PAST_BOUND),
    (lambda: liftlab.as_permutation([1e30, 0]), "SchemaError", "permutation" + PAST_BOUND),
    (lambda: liftlab.BellSpectrum(BIG * I2), "SchemaError", "spectrum" + PAST_BOUND),
    (lambda: liftlab.as_probability_vector([BIG, BIG]), "SchemaError", "probability vector" + PAST_BOUND),
    (lambda: liftlab.as_lifting_tensor(np.full((1, 2, 1), BIG)), "SchemaError", "lifting tensor" + PAST_BOUND),
    (lambda: liftlab.MarkovSpec(BIG * np.ones((2, 2)), [0.5, 0.5]), "SchemaError", "conditional" + PAST_BOUND),
    (lambda: liftlab.gamma_lifting(BIG * np.ones((4, 4)), [0.5, 0.5], [0.5, 0.5]), "SchemaError",
     "joint channel" + PAST_BOUND),
    (lambda: liftlab.classical_choi(BIG * np.ones((2, 2))), "SchemaError", "channel weights" + PAST_BOUND),
    (lambda: liftlab.as_probability_vector([0.5 + 0.5j, 0.5]), "SchemaError",
     "probability vector must be real, got a complex array"),
    (lambda: liftlab.robertson_map(BIG * np.ones((4, 4))), "SchemaError", "input" + PAST_BOUND),
    (lambda: liftlab.as_probability_vector([10**400, 0]), "SchemaError", "probability vector" + PAST_BOUND),
    (lambda: jsonio.vector_to_json(np.array([1 + 1j])), "SchemaError", "vector must be real, got a complex array"),
    (lambda: liftlab.FactoredOperator([[10**400]]), "SchemaError", "matrix" + PAST_BOUND),
    (lambda: liftlab.CpMap([[[[10**400]]]]), "SchemaError", "units" + PAST_BOUND),
    # Two arguments whose product passed the float range with a numpy warning.
    (lambda: liftlab.tensor(FactoredOperator([[1e200]]), FactoredOperator([[1e200]])), "SchemaError",
     "matrix" + PAST_BOUND),
    (lambda: liftlab.separable_n_state([1.0], [[[[1e200]]], [[[1e200]]]]), "SchemaError", "map images" + PAST_BOUND),
    # A product of bounded operands past the bound.
    (lambda: liftlab.tensor(FactoredOperator([[2.0**40]]), FactoredOperator([[2.0**40]])), "SchemaError",
     "matrix" + PAST_BOUND),
    (lambda: liftlab.cp_from_kraus([np.full((2, 2), 2.0**40)]), "SchemaError", "units" + PAST_BOUND),
    # Strings and booleans are not numbers.
    (lambda: liftlab.as_probability_vector(["0.5", "0.5"]), "SchemaError", "probability vector" + NOT_NUMBERS),
    (lambda: liftlab.check_state([["1"]]), "SchemaError", "matrix" + NOT_NUMBERS),
    (lambda: liftlab.as_probability_vector([0.5, True]), "SchemaError", "probability vector" + NOT_NUMBERS),
    (lambda: liftlab.check_state(np.eye(2, dtype=bool)), "SchemaError", "matrix" + NOT_NUMBERS),
    (lambda: jsonio.json_to_vector([1, True]), "SchemaError", "vector must be a list of numbers"),
    # A list of arrays: each array is judged by its dtype, the rest entry by entry.
    (lambda: liftlab.separable_n_state([0.5, 0.5], [[I2 / 2, np.eye(2, dtype=bool)]]), "SchemaError",
     "map images" + NOT_NUMBERS),
    (lambda: liftlab.separable_n_state([0.5, 0.5], [[I2 / 2, [[True, False], [False, True]]]]), "SchemaError",
     "map images" + NOT_NUMBERS),
    (lambda: liftlab.as_probability_vector([np.array(0.5), True]), "SchemaError", "probability vector" + NOT_NUMBERS),
    (lambda: jsonio.json_to_vector(["0.5", "0.5"]), "SchemaError", "vector must be a list of numbers"),
    (lambda: liftlab.CirculantSpec([[["a"]]]), "SchemaError", "blocks must be a rectangular array of numbers"),
    (lambda: liftlab.separable_n_state([1.0], [[I2, np.eye(3)]]), "SchemaError",
     "map images must be a rectangular array of numbers"),
    (lambda: liftlab.as_probability_vector([[1], [1, 2]]), "SchemaError",
     "probability vector must be a rectangular array of numbers"),
    (lambda: liftlab.as_permutation([[1], [1, 2]]), "SchemaError", "permutation must be a rectangular array of numbers"),
    (lambda: liftlab.choi_matrix(lambda m: [[1], [1, 2]], 2), "SchemaError",
     "phi images must be a rectangular array of numbers"),
    # Size mismatches between arguments.
    (lambda: liftlab.channel_from_dilation([0, 1, 2], [0.5, 0.5]), "DimensionMismatchError",
     "permutation acts on 3 labels, expected n^2 = 4"),
    (lambda: liftlab.classical_teleport([0.5, 0.5], [0, 1, 2]), "DimensionMismatchError",
     "permutation on 3 letters, state on 2"),
    (lambda: liftlab.separable_n_state([1.0], []), "DimensionMismatchError", "need at least one map"),
    (lambda: liftlab.separable_n_state([1.0], [I2]), "DimensionMismatchError",
     "map 0 images must have shape (1, d, d), got (2, 2)"),
    (lambda: liftlab.n_compose_qcp([FactoredOperator(np.eye(6), (2, 3))]), "DimensionMismatchError",
     "conditional operator needs dims (d, d), got (2, 3)"),
    (lambda: liftlab.n_compose_qcp([np.eye(4) / 2, np.eye(9) / 3]), "DimensionMismatchError",
     "conditional operators must share one factor size"),
    (lambda: liftlab.nonlinear_lift(np.eye(4) / 2, np.eye(3) / 3), "DimensionMismatchError",
     "state side 3 != conditional side 2"),
    (lambda: liftlab.channel_from_compound(np.eye(4) / 4, I2 / 2), "DimensionMismatchError",
     "compound state must be a FactoredOperator with dims (d, d)"),
    (lambda: probability_vector(rng(0), -1), "DimensionMismatchError", "n must be at least 0, got -1"),
    (lambda: stochastic(rng(0), 2, -1), "DimensionMismatchError", "n_out must be at least 0, got -1"),
    (lambda: density(rng(0), 2.5), "DimensionMismatchError", "d must be an integer"),
]


@pytest.mark.parametrize("call, kind, message", NAMED)
def test_named_edge_cases_end_in_one_typed_error(call, kind, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LiftlabError) as info:
            call()
    assert (type(info.value).__name__, str(info.value)) == (kind, message)


def test_channel_sums_of_bounded_weights_are_not_one():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not liftlab.is_unital(2.0**60 * np.ones((2, 2)))
        assert not liftlab.is_stochastic(2.0**60 * np.ones((2, 2)))


@pytest.mark.parametrize("dtype", [float, complex])
def test_library_arrays_hold_numbers_up_to_the_bound(dtype):
    bound = 2.0**60
    past = np.nextafter(bound, np.inf)
    np.testing.assert_array_equal(FactoredOperator(np.array([[bound]], dtype)).matrix, [[bound]])
    np.testing.assert_array_equal(FactoredOperator([[-bound]]).matrix, [[-bound]])
    # A complex number is held to the bound part by part.
    np.testing.assert_array_equal(FactoredOperator([[complex(bound, -bound)]]).matrix, [[complex(bound, -bound)]])
    for bad in (past, -past, complex(1, past)):
        with pytest.raises(LiftlabError, match="^matrix" + PAST_BOUND.replace("*", r"\*") + "$"):
            FactoredOperator(np.array([[bad]], dtype if isinstance(bad, float) else complex))
    # A product of two bounded operators past the bound is refused where it is built.
    half = FactoredOperator([[2.0**30]])
    np.testing.assert_array_equal(liftlab.tensor(half, half).matrix, [[bound]])
    with pytest.raises(LiftlabError, match="^matrix" + PAST_BOUND.replace("*", r"\*") + "$"):
        liftlab.tensor(half, FactoredOperator([[np.nextafter(2.0**30, np.inf)]]))
