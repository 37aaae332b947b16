"""Tests for the JSON wire formats and argument loading."""
import json

import numpy as np
import pytest

from liftlab.errors import BlockNotPSDError, NotHermitianError, SchemaError
from liftlab.jsonio import (
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
    rng,
    unital_cpmap,
)


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
    with pytest.raises(SchemaError, match="matrix entries must be finite"):
        json_to_matrix(load_argument("[[1e999, 0], [0, 1]]"))
    with pytest.raises(SchemaError, match="matrix entries must be finite"):
        json_to_matrix(load_argument('{"rows": 1, "cols": 1, "data": [[0, -1e999]]}'))
    with pytest.raises(SchemaError, match="vector entries must be finite"):
        json_to_vector(load_argument("[1e999, 0]"))
    with pytest.raises(SchemaError, match="lifting tensor entries must be finite"):
        json_to_tensor_data(load_argument('{"n1": 1, "n2": 1, "data": [1e999]}'))
