"""Tests for the JSON wire formats and argument loading."""
import io
import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liftlab import jsonio
from liftlab.circulant import bell_diagonal_lift
from liftlab.errors import BlockNotPSDError, NotHermitianError, SchemaError
from liftlab.jsonio import (
    bell_spectrum_to_json,
    canonical_dumps,
    circulant_to_json,
    cpmap_to_json,
    factored_to_json,
    json_to_circulant,
    json_to_cpmap,
    json_to_factored,
    json_to_matrix,
    json_to_permutation,
    json_to_tensor_data,
    json_to_vector,
    lifting_tensor_to_json,
    load_argument,
    matrix_to_json,
    vector_to_json,
)
from liftlab.matcore import FactoredOperator
from liftlab.sampling import (
    circulant_spec,
    density,
    lifting_tensor,
    probability_vector,
    rng,
    unital_cpmap,
)

PAST_BOUND = r" must hold finite numbers of modulus at most 2\*\*60$"


def test_matrix_roundtrip_complex():
    g = rng(71)
    for _ in range(20):
        d = int(g.integers(1, 6))
        m = g.standard_normal((d, d + 1)) + 1j * g.standard_normal((d, d + 1))
        back = json_to_matrix(matrix_to_json(m))
        np.testing.assert_allclose(back, m, atol=1e-15)


def test_matrix_accepts_plain_nested_lists():
    np.testing.assert_allclose(json_to_matrix([[1, 2], [3, 4]]), [[1, 2], [3, 4]])
    np.testing.assert_allclose(
        json_to_matrix({"rows": 1, "cols": 2, "data": [[1, 0.5], [2, 0]]}),
        [[1 + 0.5j, 2 + 0j]],
    )


def test_matrix_schema_errors():
    with pytest.raises(SchemaError):
        json_to_matrix({"rows": 2, "cols": 2, "data": [[1, 0]]})
    with pytest.raises(SchemaError):
        json_to_matrix({"rows": 2, "data": [[1, 0]] * 4})
    with pytest.raises(SchemaError):
        json_to_matrix({"rows": 1, "cols": 1, "data": [["x", 0]]})
    with pytest.raises(SchemaError):
        json_to_matrix([[1, 2], [3]])
    with pytest.raises(SchemaError):
        json_to_matrix("nope")


def test_factored_roundtrip():
    g = rng(72)
    op = FactoredOperator(np.kron(density(g, 2), density(g, 3)), (2, 3))
    back = json_to_factored(factored_to_json(op))
    np.testing.assert_allclose(back.matrix, op.matrix, atol=1e-15)
    assert back.dims == (2, 3)
    with pytest.raises(SchemaError):
        json_to_factored({"rows": 2, "cols": 2, "data": [[1, 0]] * 4, "dims": [3]})


def test_vector_and_permutation():
    g = rng(73)
    v = g.standard_normal(5)
    np.testing.assert_allclose(json_to_vector(vector_to_json(v)), v, atol=1e-15)
    np.testing.assert_array_equal(json_to_permutation([2, 0, 1]), [2, 0, 1])
    with pytest.raises(SchemaError):
        json_to_vector("oops")
    with pytest.raises(SchemaError):
        json_to_permutation([0, 0, 1])
    with pytest.raises(SchemaError):
        json_to_permutation([0.5, 1.5])


def test_permutation_images_are_json_integers():
    for bad in ([1.5, 0], [1.0, 0], [1, 0.0], [True, 0], [1, True], [0, "a"], ["1", 0], [[0, 1]], [None], {}, 3):
        with pytest.raises(SchemaError, match="^permutation must be a list of integer images$"):
            json_to_permutation(bad)
    images = json_to_permutation([1, 2, 0])
    assert images.dtype.kind == "i"
    np.testing.assert_array_equal(images, [1, 2, 0])


def test_lifting_tensor_roundtrip():
    g = rng(74)
    for _ in range(10):
        e = lifting_tensor(g, int(g.integers(2, 4)), int(g.integers(2, 4)))
        back = json_to_tensor_data(lifting_tensor_to_json(e))
        np.testing.assert_allclose(back, e, atol=1e-12)
    with pytest.raises(SchemaError):
        json_to_tensor_data({"n1": 2, "n2": 2, "data": [1.0] * 7})


def test_cpmap_roundtrip():
    g = rng(76)
    cp = unital_cpmap(g, 3)
    back = json_to_cpmap(cpmap_to_json(cp))
    np.testing.assert_allclose(back.units, cp.units, atol=1e-15)
    with pytest.raises(SchemaError):
        json_to_cpmap({"d": 2, "units": [matrix_to_json(np.eye(2))] * 3})


def test_circulant_roundtrip():
    g = rng(77)
    spec = circulant_spec(g, 3)
    back = json_to_circulant(circulant_to_json(spec))
    np.testing.assert_allclose(back.blocks, spec.blocks, atol=1e-15)
    with pytest.raises(SchemaError):
        json_to_circulant({"d": 2, "blocks": [matrix_to_json(np.eye(2) / 4)]})


def test_canonical_dumps_is_stable():
    one = canonical_dumps({"b": 1, "a": [1.5, 2]})
    two = canonical_dumps({"a": [1.5, 2], "b": 1})
    assert one == two
    assert one.endswith("\n")
    assert json.loads(one) == {"a": [1.5, 2], "b": 1}
    assert one == '{\n  "a": [\n    1.5,\n    2\n  ],\n  "b": 1\n}\n'


def test_load_argument_inline_and_file(tmp_path):
    assert load_argument("[1, 2, 3]") == [1, 2, 3]
    path = tmp_path / "payload.json"
    path.write_text('{"rows": 1, "cols": 1, "data": [[2.5, 0]]}')
    obj = load_argument(f"@{path}")
    np.testing.assert_allclose(json_to_matrix(obj), [[2.5]])
    with pytest.raises(SchemaError):
        load_argument("{not json")
    with pytest.raises(SchemaError):
        load_argument(f"@{tmp_path / 'missing.json'}")


def test_load_argument_rejects_non_finite_constants(tmp_path):
    for text in ("[NaN, 1]", "[[Infinity, 0], [0, 1]]", '{"x": -Infinity}'):
        with pytest.raises(SchemaError, match="not a finite number"):
            load_argument(text)
    path = tmp_path / "nan.json"
    path.write_text("[0.5, NaN]")
    with pytest.raises(SchemaError):
        load_argument(f"@{path}")


def test_canonical_dumps_rejects_non_finite():
    for bad in (float("nan"), float("inf")):
        with pytest.raises(SchemaError):
            canonical_dumps({"value": [1.0, bad]})


def test_decoders_pass_math_domain_errors_through():
    e01 = matrix_to_json(np.array([[0.0, 1.0], [0.0, 0.0]]))
    units = [matrix_to_json(np.eye(2)), e01, e01, matrix_to_json(np.eye(2))]
    with pytest.raises(NotHermitianError):
        json_to_cpmap({"d": 2, "units": units})
    blocks = [matrix_to_json(np.diag([0.6, -0.1])), matrix_to_json(np.diag([0.25, 0.25]))]
    with pytest.raises(BlockNotPSDError):
        json_to_circulant({"d": 2, "blocks": blocks})
    half = {"n1": 2, "n2": 2, "data": [0.5, 0, 0, 0, 0, 0, 0, 0.5]}
    np.testing.assert_allclose(json_to_tensor_data(half).sum(axis=(1, 2)), [0.5, 0.5])


def test_decoders_reject_numbers_that_overflow_to_infinity():
    # JSON reads 1e999 as inf without calling parse_constant.
    with pytest.raises(SchemaError, match="^matrix" + PAST_BOUND):
        json_to_matrix(load_argument("[[1e999, 0], [0, 1]]"))
    with pytest.raises(SchemaError, match="^matrix" + PAST_BOUND):
        json_to_matrix(load_argument('{"rows": 1, "cols": 1, "data": [[0, -1e999]]}'))
    with pytest.raises(SchemaError, match="^vector" + PAST_BOUND):
        json_to_vector(load_argument("[1e999, 0]"))
    with pytest.raises(SchemaError, match="^lifting tensor" + PAST_BOUND):
        json_to_tensor_data(load_argument('{"n1": 1, "n2": 1, "data": [1e999]}'))


def test_decoders_read_numbers_up_to_the_bound():
    bound = 2.0**60
    past = np.nextafter(bound, np.inf)
    for read in (json_to_vector, lambda v: json_to_matrix([v]).real, lambda v: json_to_matrix(
            {"rows": 1, "cols": 1, "data": [v]}).view(float), lambda v: json_to_tensor_data(
            {"n1": 1, "n2": 2, "data": v})):
        np.testing.assert_array_equal(np.ravel(read([bound, -bound])), [bound, -bound])
        np.testing.assert_array_equal(np.ravel(read([2**60, -(2**60)])), [bound, -bound])
        for bad in ([past, 0.0], [0.0, -past], [2**61, 0]):
            with pytest.raises(SchemaError, match=PAST_BOUND):
                read(bad)


def test_nested_matrix_rejects_non_numeric_entries():
    for bad in ([["0.5", "0.5"], ["0.25", "0.75"]], [[0.5, "0.5"], [0.25, 0.75]], [[0.5, None], [0, 1]],
                [[0.5, [0.5]], [0, 1]], [[0.5, {}], [0, 1]]):
        with pytest.raises(SchemaError, match="not numeric"):
            json_to_matrix(bad)
    np.testing.assert_array_equal(json_to_matrix([[1, 0.5], [0, 2**60]]), [[1, 0.5], [0, 2.0**60]])
    with pytest.raises(SchemaError, match="^matrix" + PAST_BOUND):
        json_to_matrix([[1, 0.5], [0, 2**64]])


HUGE = 10**400  # a JSON integer too large for a float


def test_decoders_reject_integers_too_large_for_their_type():
    with pytest.raises(SchemaError, match="^matrix" + PAST_BOUND):
        json_to_matrix([[HUGE, 0], [0, 1]])
    with pytest.raises(SchemaError, match="^matrix" + PAST_BOUND):
        json_to_matrix({"rows": 1, "cols": 1, "data": [[HUGE, 0]]})
    with pytest.raises(SchemaError, match="^vector" + PAST_BOUND):
        json_to_vector([HUGE, 0])
    with pytest.raises(SchemaError, match="^lifting tensor" + PAST_BOUND):
        json_to_tensor_data({"n1": 1, "n2": 1, "data": [HUGE]})
    with pytest.raises(SchemaError, match="^permutation" + PAST_BOUND):
        json_to_permutation([HUGE, 0])
    # Integers beyond 64 bits that a float holds are past the bound too.
    with pytest.raises(SchemaError, match="^matrix" + PAST_BOUND):
        json_to_matrix({"rows": 1, "cols": 2, "data": [[10**30, 0], [2**64, -1]]})


def test_decoders_reject_all_boolean_lists():
    with pytest.raises(SchemaError, match="not numeric"):
        json_to_matrix([[True, False], [False, True]])
    with pytest.raises(SchemaError, match=r"\[re, im\] pairs"):
        json_to_matrix({"rows": 1, "cols": 1, "data": [[True, False]]})
    with pytest.raises(SchemaError, match="vector must be a list of numbers"):
        json_to_vector([True, False])
    with pytest.raises(SchemaError, match="data must be a list of numbers"):
        json_to_tensor_data({"n1": 1, "n2": 1, "data": [True]})


def test_arguments_holding_booleans_are_refused():
    # load_argument only parses; the list readers refuse a mixed-in boolean.
    for text, decode, message in (
        ("[1, true]", json_to_vector, "vector must be a list of numbers"),
        ("[[0.5, false]]", json_to_matrix, "matrix rows are not numeric"),
        ('{"rows": 1, "cols": 2, "data": [[1, 0], [true, 0]]}', json_to_matrix,
         r"data entries must be \[re, im\] pairs"),
        ('{"n1": 1, "n2": 2, "data": [0.5, true]}', json_to_tensor_data, "data must be a list of numbers"),
        ("[1, 0, true]", json_to_permutation, "permutation must be a list of integer images"),
    ):
        with pytest.raises(SchemaError, match=f"^{message}$"):
            decode(load_argument(text))
    assert load_argument('[1, 0.5e-3]') == [1, 0.0005]
    np.testing.assert_array_equal(json_to_vector([1, 0.5]), [1.0, 0.5])


def test_decoders_reject_negative_sizes():
    for bad in ({"rows": -1, "cols": -1, "data": [[1, 0]]}, {"rows": -1, "cols": 0, "data": []}):
        with pytest.raises(SchemaError, match="rows must be at least 0"):
            json_to_matrix(bad)
    with pytest.raises(SchemaError, match="cols must be at least 0"):
        json_to_matrix({"rows": 0, "cols": -2, "data": []})
    with pytest.raises(SchemaError, match="n1 must be at least 0"):
        json_to_tensor_data({"n1": -1, "n2": 1, "data": [1.0]})
    with pytest.raises(SchemaError, match="n2 must be at least 0"):
        json_to_tensor_data({"n1": 1, "n2": -1, "data": []})
    with pytest.raises(SchemaError, match="d must be at least 0"):
        json_to_cpmap({"d": -1, "units": [matrix_to_json(np.eye(1))]})


def test_pair_data_is_checked_in_bulk():
    for data in (
        [[1]],  # short pair
        [[1, 0, 0]],  # long pair
        [1, 0],  # bare numbers
        [["x", 0]],
        [["1.5", 0]],
        [[None, 0]],
        [[{}, 0]],
        [{"re": 1, "im": 0}],
        [[[1, 0]]],  # one level too deep
    ):
        with pytest.raises(SchemaError, match=r"\[re, im\] pairs"):
            json_to_matrix({"rows": 1, "cols": len(data), "data": data})
    with pytest.raises(SchemaError, match=r"\[re, im\] pairs"):
        json_to_matrix({"rows": 2, "cols": 1, "data": [[1, 0], [1]]})  # ragged
    with pytest.raises(SchemaError, match="expected 4"):
        json_to_matrix({"rows": 2, "cols": 2, "data": [[1, 0]] * 3})
    with pytest.raises(SchemaError, match=r"\[re, im\] pairs"):  # a boolean is not a number
        json_to_matrix({"rows": 1, "cols": 2, "data": [[True, 0], [2, -0.5]]})
    np.testing.assert_array_equal(json_to_matrix({"rows": 1, "cols": 2, "data": [[1, 0], [2, -0.5]]}),
                                  [[1, 2 - 0.5j]])
    assert json_to_matrix({"rows": 0, "cols": 3, "data": []}).shape == (0, 3)


EDGE_FLOATS = [-0.0, 0.0, 1e-05, 1e-07, 0.1, 1e16, 1e22, 123456789.0, 5e-324,
               2.2250738585072014e-308, 1.5e-310, sys.float_info.max, -sys.float_info.max]
FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)
# The numbers a FactoredOperator holds: the writers take any finite float, the readers at most 2**60.
BOUNDED_FLOATS = st.floats(-(2.0**59), 2.0**59) | st.sampled_from([x for x in EDGE_FLOATS if abs(x) <= 2.0**59])


@st.composite
def complex_matrices(draw, rows=st.integers(0, 4), cols=None, floats=FLOATS):
    r = draw(rows)
    c = r if cols is None else draw(cols)
    parts = draw(st.lists(floats, min_size=2 * r * c, max_size=2 * r * c))
    return np.array(parts, dtype=float).view(complex).reshape(r, c)


def _as_json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=True, allow_nan=False) + "\n"


def _assert_same_text(got: str, want: str):
    """got == want, reported by the first difference: pytest's own diff of
    two texts of megabytes would take minutes."""
    if got != want:
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        pytest.fail(f"texts differ at {at} (lengths {len(got)}, {len(want)}): "
                    f"{got[max(at - 40, 0):at + 40]!r} against {want[max(at - 40, 0):at + 40]!r}")


@st.composite
def few_valued_matrices(draw):
    """Matrices whose doubles repeat: at most four distinct values, signed zeros included."""
    values = draw(st.lists(FLOATS, min_size=1, max_size=4)) + [-0.0, 0.0]
    r, c = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    parts = draw(st.lists(st.sampled_from(values), min_size=2 * r * c, max_size=2 * r * c))
    return np.array(parts, dtype=float).view(complex).reshape(r, c)


SIGNED_ZEROS = np.array([-0.0, 0.0, 0.0, -0.0, -0.0, -0.0, 0.0, 0.0]).view(complex).reshape(2, 2)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(m=complex_matrices(cols=st.integers(0, 4)), sq=complex_matrices(rows=st.integers(1, 3)),
       op=complex_matrices(rows=st.integers(1, 3), floats=BOUNDED_FLOATS),
       few=few_valued_matrices(), extra=st.lists(FLOATS, max_size=3), seed=st.integers(0, 2**32 - 1))
def test_canonical_dumps_matches_json_dumps(m, sq, op, few, extra, seed):
    g = rng(seed)
    d = int(g.integers(1, 4))
    state, spectrum = bell_diagonal_lift(probability_vector(g, d), density(g, d))
    docs = (
        matrix_to_json(m),
        matrix_to_json(m[:1, :1]),
        {"empty": matrix_to_json(np.zeros((0, 0)))},
        {"state": factored_to_json(FactoredOperator(np.kron(op, np.eye(2)), (op.shape[0], 2)))},
        {"kraus": [matrix_to_json(sq), matrix_to_json(m)], "self_check": {"max_deviation": extra}},
        cpmap_to_json(unital_cpmap(g, d)),
        {"state": factored_to_json(state), "spectrum": bell_spectrum_to_json(spectrum)},
        [[matrix_to_json(sq)], {"z": matrix_to_json(sq), "a": [matrix_to_json(m), 1, None, True, "s"]}],
        {"few": [matrix_to_json(few), matrix_to_json(few.T)], "zeros": matrix_to_json(SIGNED_ZEROS)},
    )
    # Chunks of one and three pairs put chunk boundaries inside and at the
    # end of these small matrices; the real chunk size holds them whole.
    expected = [_as_json_dumps(doc) for doc in docs]
    with pytest.MonkeyPatch.context() as mp:
        for chunk in (1, 3, jsonio._CHUNK):
            mp.setattr(jsonio, "_CHUNK", chunk)
            for doc, want in zip(docs, expected):
                _assert_same_text(canonical_dumps(doc), want)


@pytest.mark.parametrize("pairs", [jsonio._CHUNK, jsonio._CHUNK + 1])
def test_canonical_dumps_matches_json_dumps_across_chunks(pairs):
    g = rng(pairs)
    values = np.array([0.0, -0.0, 0.5, -1e-300, 1 / 3, 1e22])
    m = g.choice(values, size=2 * pairs).view(complex).reshape(1, pairs)
    m[0, -1] = complex(g.standard_normal(), -0.0)  # one distinct value, at the very end
    doc = {"a": 1, "state": {"rows": 1, "data": matrix_to_json(m)}}
    _assert_same_text(canonical_dumps(doc), _as_json_dumps(doc))


def test_canonical_pieces_are_the_document_in_chunks():
    m = np.resize(np.arange(7.0), 6 * jsonio._CHUNK + 6).view(complex).reshape(-1, 1)
    doc = {"first": matrix_to_json(m[:3]), "second": matrix_to_json(m)}
    pieces = list(jsonio.canonical_pieces(doc))
    _assert_same_text("".join(pieces), canonical_dumps(doc))
    assert len(pieces) > 4 and max(map(len, pieces)) < len(canonical_dumps(doc)) / 3


def test_matrix_to_json_is_written_by_the_stock_encoders():
    g = rng(78)
    for m in (g.standard_normal((3, 4)) + 1j * g.standard_normal((3, 4)), SIGNED_ZEROS,
              np.zeros((0, 2)), density(g, 5)):
        doc = matrix_to_json(m)
        pairs = np.ascontiguousarray(m, dtype=complex).view(float).reshape(-1, 2).tolist()
        assert doc["data"] == pairs and not doc["data"] != pairs and repr(doc["data"]) == repr(pairs)
        fh = io.StringIO()
        json.dump(doc, fh)  # the pure-Python encoder, which a file write uses
        for text in (json.dumps(doc), fh.getvalue()):  # json.dumps with no indent is the C encoder
            back = json_to_matrix(json.loads(text))
            assert back.shape == m.shape
            np.testing.assert_array_equal(back.view(np.int64), np.asarray(m, dtype=complex).view(np.int64))


def test_matrix_to_json_keeps_the_values_it_was_given():
    m = np.eye(2, dtype=complex)
    doc = matrix_to_json(m)
    m[0, 0] = 5.0
    assert doc["data"][0] == [1.0, 0.0] and doc["data"][-1:] == [[1.0, 0.0]]
    np.testing.assert_array_equal(json_to_matrix(doc), np.eye(2))


def test_canonical_dumps_rejects_non_finite_matrices():
    for bad in (np.inf, -np.inf, np.nan):
        for m in (np.array([[1.0, bad]]), np.array([[1.0, 1j * bad]])):
            with pytest.raises(SchemaError, match="not finite"):
                canonical_dumps({"state": matrix_to_json(m)})
