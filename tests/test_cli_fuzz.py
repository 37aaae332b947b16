"""The exit-code contract under random input.

Every subcommand is fed random JSON values (huge integers, non-finite
numbers, strings, ragged and nested lists, dicts with missing or extra keys,
@paths that do not exist) and near-valid payloads that reach the library's
mathematical checks. Each call must end in one of three ways: exit 0 with
valid JSON on stdout; exit 1, only from `verify` or `channel kraus
--verify`, also with valid JSON; or exit 2 or 3 with exactly one `error:`
line on stderr and nothing on stdout. An exception that escapes main fails
the test. Sizes are bounded so that no call allocates more than a few MiB:
random lists hold at most 4 entries, near-valid matrices have side at most
3, and --parties is at most 4 or else 40, 70 or 20000, which the factor-count
bound refuses before any per-party list or allocation.
"""
import contextlib
import io
import json
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from liftlab import cli, verify

KEYS = ["rows", "cols", "data", "dims", "n1", "n2", "d", "units", "blocks", "p"]

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([10**400, -(10**30), 2**63, -1, 0])
    | st.floats()  # NaN and Infinity are written as such, and must be refused
    | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3), children, max_size=4),
    max_leaves=10,
)

numbers = st.sampled_from([0, 1, 0.5, 0.25, 0.75, -0.5, 1e-13, -1e-13, 2, 1.7e308, -1.7e308]) | st.floats(-2, 2)


def square(n):
    return st.lists(st.lists(numbers, min_size=n, max_size=n), min_size=n, max_size=n)


def _diagonal(weights):
    total = sum(weights) or 1.0
    return [[weights[i] / total if i == j else 0.0 for j in range(len(weights))] for i in range(len(weights))]


sides = st.integers(1, 3)
matrices = sides.flatmap(square)
weights = st.lists(st.integers(1, 4) | st.just(0), min_size=1, max_size=3)
states = weights.map(_diagonal) | matrices
pair_matrices = matrices.map(
    lambda m: {"rows": len(m), "cols": len(m), "data": [[x, 0] for row in m for x in row]}
)
vectors = st.lists(numbers, min_size=1, max_size=4)
distributions = weights.map(lambda w: [x / (sum(w) or 1) for x in w])
permutations = sides.flatmap(lambda n: st.permutations(range(n)) | st.permutations(range(n * n)))
tensors = st.tuples(st.integers(0, 2), st.integers(0, 3)).flatmap(
    lambda s: st.fixed_dictionaries(
        {"n1": st.just(s[0]), "n2": st.just(s[1]), "data": st.lists(
            numbers, min_size=s[0] * s[1] * s[0], max_size=s[0] * s[1] * s[0])}
    )
)


def _unit(d, i, j):
    return [[float((a, b) == (i, j)) for b in range(d)] for a in range(d)]


def _units(d, transpose=False):
    """Images of the units e_ij under the identity channel on M_d, or the transpose."""
    return [_unit(d, j, i) if transpose else _unit(d, i, j) for i in range(d) for j in range(d)]


# The identity and transpose channels on M_1 and M_2, or random unit images.
channels = st.integers(1, 2).flatmap(
    lambda d: st.fixed_dictionaries({
        "d": st.just(d),
        "units": st.lists(square(d), min_size=d * d, max_size=d * d)
        | st.sampled_from([_units(d), _units(d, transpose=True)]),
    })
)
# Profiles of one side, or of mixed sides.
profiles = (sides.flatmap(lambda n: st.lists(square(n), min_size=1, max_size=n))
            | st.lists(states, min_size=1, max_size=3))

KINDS = {
    "matrix": matrices | pair_matrices,
    "state": states | pair_matrices,
    "vector": vectors | distributions,
    "perm": permutations,
    "tensor": tensors,
    "channel": channels,
    "profiles": profiles,
}

IDENTITY = {"d": 2, "units": _units(2)}
RHO = [[0.6, 0], [0, 0.4]]
P = [0.75, 0.25]
TENSOR = {"n1": 2, "n2": 2, "data": [0.2, 0.8, 0, 0, 0, 0, 0.2, 0.8]}

# (argv prefix, JSON-valued flags as (flag, kind, a valid value), other flags
# drawn so that argparse accepts them).
parties = st.sampled_from(["-1", "0", "1", "2", "3", "4", "40", "70", "20000"])
small_ints = st.integers(-1, 3).map(str)
COMMANDS = [
    (["channel", "kraus"], [("--matrix", "matrix", [[0.5, 0.5], [0.25, 0.75]])],
     st.lists(st.sampled_from(["--verify"]), max_size=1).flatmap(
        lambda v: st.tuples(small_ints, small_ints).map(lambda t: [*v, "--seed", t[0], "--trials", t[1]]))),
    (["channel", "dilate"], [("--perm", "perm", [0, 3, 2, 1]), ("--sigma", "vector", [0.7, 0.3])],
     st.sampled_from(["2", "2", "3", "-1"]).map(lambda n: ["--n", n])),
    (["channel", "apply"], [("--matrix", "matrix", [[0.9, 0.1], [0.3, 0.7]]),
                            ("--state", "vector", [0.5, 0.5])], st.just([])),
    (["lift", "classical"], [("--tensor", "tensor", TENSOR), ("--p", "vector", P)], st.just([])),
    (["lift", "ohya"], [("--rho", "state", RHO)], parties.map(lambda n: ["--parties", n])),
    (["lift", "qcp"], [("--channel", "channel", IDENTITY)], st.just([])),
    (["lift", "nonlinear"], [("--channel", "channel", IDENTITY), ("--rho", "state", RHO)], st.just([])),
    (["lift", "circulant"], [("--profiles", "profiles", [[[0.5, 0.5], [0.5, 0.5]], [[1, 0], [0, 0]]]),
                             ("--rho", "state", RHO)], st.just([])),
    (["lift", "bell"], [("--p", "vector", P), ("--rho", "state", RHO)], st.just([])),
    (["lift", "nlift"], [("--tensor", "tensor", TENSOR), ("--p", "vector", P)],
     parties.map(lambda n: ["--parties", n])),
    (["verify"], [], st.tuples(st.sampled_from(verify.SUITE_NAMES), small_ints, st.sampled_from(["0", "1"]),
                               st.sampled_from([[], ["--tol", "0"], ["--tol", "-1"], ["--tol", "nan"]])).map(
        lambda t: [t[0], "--seed", t[1], "--trials", t[2], *t[3]])),
    (["teleport"], [("--p", "vector", [0.5, 0.3, 0.2]), ("--perm", "perm", [1, 2, 0])], st.just([])),
]

# How an argument travels: inline JSON, an @file that holds it, or an @path that does not exist.
MODES = st.sampled_from(["inline", "inline", "file", "missing"])


def calls(command):
    prefix, flags, extra = command
    args = [st.tuples(st.just(flag), MODES, st.just(valid) | KINDS[kind] | json_values)
            for flag, kind, valid in flags]
    return st.tuples(st.just(prefix), st.tuples(*args), extra)


def _reject(token):
    raise AssertionError(f"non-finite token {token} on stdout")


@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: " ".join(c[0]))
@settings(max_examples=15, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_outcome_is_json_or_one_error_line(command, tmp_path_factory, data):
    prefix, args, extra = data.draw(calls(command))
    workdir = tmp_path_factory.getbasetemp()
    argv = list(prefix)
    for k, (flag, mode, value) in enumerate(args):
        text = json.dumps(value)
        if mode == "file":
            path = os.path.join(workdir, f"arg{k}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            text = "@" + path
        elif mode == "missing":
            text = "@" + os.path.join(workdir, "no-such-dir", "arg.json")
        argv.append(f"{flag}={text}")  # "=" keeps a leading "-" from reading as a flag
    argv += extra
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    out, err = out.getvalue(), err.getvalue()
    if code in (0, 1):
        json.loads(out, parse_constant=_reject)
        assert err == ""
        if code == 1:
            assert prefix == ["verify"] or "--verify" in extra
    else:
        assert code in (2, 3), code
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
