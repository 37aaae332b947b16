"""End-to-end tests of the command line interface via its main() entry point."""
import importlib
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from liftlab import cli, matcore
from liftlab.clift import ohya_tensor
from liftlab.jsonio import json_to_factored, json_to_matrix, lifting_tensor_to_json


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_the_console_script_is_cli_run():
    # pyproject.toml's [project.scripts], read by pattern (no tomllib on Python 3.10).
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), encoding="utf-8") as fh:
        text = fh.read()
    section = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    scripts = dict(re.findall(r'^(\S+)\s*=\s*"([^"]*)"', section, re.M))
    assert scripts == {"liftlab": "liftlab.cli:run"}
    module, attr = scripts["liftlab"].split(":")
    assert getattr(importlib.import_module(module), attr) is cli.run

def test_channel_apply_identity(capsys):
    code, blob = run_cli(
        capsys, "channel", "apply", "--matrix", "[[1,0],[0,1]]", "--state", "[0.3,0.7]"
    )
    assert code == 0
    assert blob["state"] == [0.3, 0.7]


def test_channel_apply_transposes_weights(capsys):
    code, blob = run_cli(
        capsys, "channel", "apply", "--matrix", "[[0.5,0.5],[0,1]]", "--state", "[0.4,0.6]"
    )
    assert code == 0
    np.testing.assert_allclose(blob["state"], [0.2, 0.8], atol=1e-12)


def test_channel_kraus_verify_passes(capsys):
    code, blob = run_cli(
        capsys,
        "channel", "kraus",
        "--matrix", "[[0.5,0.5],[0.25,0.75]]",
        "--verify", "--seed", "9", "--trials", "10",
    )
    assert code == 0
    assert len(blob["kraus"]) == 4
    assert blob["self_check"]["passed"] is True
    assert blob["self_check"]["max_deviation"] <= blob["self_check"]["tolerance"]


def test_channel_dilate_known_values(capsys):
    code, blob = run_cli(
        capsys,
        "channel", "dilate", "--n", "2", "--perm", "[0,3,2,1]", "--sigma", "[0.7,0.3]",
    )
    assert code == 0
    np.testing.assert_allclose(json_to_matrix(blob["weights"]).real, [[0.7, 0.3], [0.3, 0.7]], atol=1e-12)
    assert blob["doubly_stochastic"] is True

    code, blob = run_cli(
        capsys,
        "channel", "dilate", "--n", "2", "--perm", "[0,2,1,3]", "--sigma", "[0.7,0.3]",
    )
    assert code == 0
    np.testing.assert_allclose(json_to_matrix(blob["weights"]).real, [[0.7, 0.3], [0.7, 0.3]], atol=1e-12)
    assert blob["doubly_stochastic"] is False


@pytest.mark.parametrize("n, perm, sigma", [("-1", "[0]", "[1]"), ("-2", "[0,1,2,3]", "[0.5,0.5]")])
def test_channel_dilate_refuses_a_negative_size(capsys, n, perm, sigma):
    # n * n matches the permutation's size, so only reading n as a size refuses it.
    assert cli.main(["channel", "dilate", "--n", n, "--perm", perm, "--sigma", sigma]) == 2
    assert capsys.readouterr() == ("", f"error: n must be at least 1, got {n}\n")


def test_lift_classical_copying_tensor(capsys):
    tensor = {"n1": 2, "n2": 2, "data": [1, 0, 0, 0, 0, 0, 0, 1]}
    code, blob = run_cli(
        capsys, "lift", "classical", "--tensor", json.dumps(tensor), "--p", "[0.6,0.4]"
    )
    assert code == 0
    op = json_to_factored(blob["state"])
    assert op.dims == (2, 2)
    np.testing.assert_allclose(np.diag(op.matrix).real, [0.6, 0, 0, 0.4], atol=1e-12)


def test_lift_nlift_two_parties_matches_classical(capsys):
    """The two commands write the same stdout, stderr and exit code."""
    square = json.dumps({"n1": 2, "n2": 2, "data": [0.2, 0.8, 0, 0, 0, 0, 0.2, 0.8]})
    wide = json.dumps({"n1": 2, "n2": 3, "data": [0.1, 0.2, 0.3, 0.1, 0.2, 0.1, 0.3, 0.1, 0.1, 0.2, 0.2, 0.1]})
    half = json.dumps({"n1": 2, "n2": 2, "data": [0.5, 0, 0, 0, 0, 0, 0, 1]})
    for flags, code in ((["--tensor", square, "--p", "[0.5,0.5]"], 0),
                        (["--tensor", wide, "--p", "[0.25,0.75]"], 0),
                        (["--tensor", half, "--p", "[0.6,0.4]"], 3),
                        (["--tensor", wide, "--p", "[0.2,0.3,0.5]"], 2)):
        assert cli.main(["lift", "classical", *flags]) == code
        one = capsys.readouterr()
        assert cli.main(["lift", "nlift", *flags, "--parties", "2"]) == code
        assert capsys.readouterr() == one
        assert bool(one.out) == (code == 0) and bool(one.err) == (code != 0)


def test_lift_ohya_three_parties(capsys):
    code, blob = run_cli(
        capsys, "lift", "ohya", "--rho", "[[0.6,0],[0,0.4]]", "--parties", "3"
    )
    assert code == 0
    op = json_to_factored(blob["state"])
    assert op.dims == (2, 2, 2)
    expect = np.zeros(8)
    expect[0], expect[7] = 0.6, 0.4
    np.testing.assert_allclose(np.diag(op.matrix).real, expect, atol=1e-12)


def _identity_units():
    """The JSON units of the identity channel on M_2."""
    return [
        {"rows": 2, "cols": 2, "data": [[1, 0], [0, 0], [0, 0], [0, 0]]},
        {"rows": 2, "cols": 2, "data": [[0, 0], [1, 0], [0, 0], [0, 0]]},
        {"rows": 2, "cols": 2, "data": [[0, 0], [0, 0], [1, 0], [0, 0]]},
        {"rows": 2, "cols": 2, "data": [[0, 0], [0, 0], [0, 0], [1, 0]]},
    ]


def test_lift_qcp_identity_channel(capsys):
    units = _identity_units()
    code, blob = run_cli(
        capsys, "lift", "qcp", "--channel", json.dumps({"d": 2, "units": units})
    )
    assert code == 0
    op = json_to_factored(blob["operator"])
    expect = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            e = np.zeros((2, 2))
            e[i, j] = 1
            expect += np.kron(e, e)
    np.testing.assert_allclose(op.matrix.real, expect, atol=1e-12)


def test_lift_nonlinear_identity_gives_maximally_entangled(capsys):
    units = _identity_units()
    code, blob = run_cli(
        capsys,
        "lift", "nonlinear",
        "--channel", json.dumps({"d": 2, "units": units}),
        "--rho", "[[0.5,0],[0,0.5]]",
    )
    assert code == 0
    op = json_to_factored(blob["state"])
    expect = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            expect[i * 2 + i, j * 2 + j] = 0.5
    np.testing.assert_allclose(op.matrix.real, expect, atol=1e-12)


def test_lift_circulant(capsys):
    profiles = [[[0.5, 0.5], [0.5, 0.5]], [[1, 0], [0, 0]]]
    code, blob = run_cli(
        capsys,
        "lift", "circulant", "--profiles", json.dumps(profiles), "--rho", "[[0.6,0],[0,0.4]]",
    )
    assert code == 0
    op = json_to_factored(blob["state"])
    m = op.matrix.real
    assert m[0, 0] == pytest.approx(0.3)
    assert m[0, 3] == pytest.approx(0.3)
    assert m[1, 1] == pytest.approx(0.4)
    assert np.trace(m) == pytest.approx(1.0)


def test_lift_bell_worked_example(capsys):
    code, blob = run_cli(
        capsys, "lift", "bell", "--p", "[0.75,0.25]", "--rho", "[[0.6,0],[0,0.4]]"
    )
    assert code == 0
    assert blob["spectrum"]["d"] == 2
    np.testing.assert_allclose(blob["spectrum"]["p"], [[0.45, 0.30], [0.15, 0.10]], atol=1e-12)
    op = json_to_factored(blob["state"])
    assert op.trace().real == pytest.approx(1.0, abs=1e-12)


def test_channel_off_hermitian_gets_the_pi_gates_refusal(capsys):
    # units[0, 1][0, 1] of the identity channel 1e-7 off: the decoder's CpMap
    # refuses it with the line that QcpOperator's gate gives its pi.
    units = _identity_units()
    units[1]["data"][1] = [1 + 1e-7, 0]
    channel = json.dumps({"d": 2, "units": units})
    for argv in (["lift", "qcp", "--channel", channel],
                 ["lift", "nonlinear", "--channel", channel, "--rho", "[[0.5,0],[0,0.5]]"]):
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: deviation from Hermiticity 1.000e-07 exceeds 1.0e-09 * 1.000e+00\n")


def test_lift_bell_accepts_a_state_that_check_state_accepts(capsys):
    # rho's trace is 1 + 5e-10, within TRACE_TOL, and so is the spectrum's sum.
    code, blob = run_cli(capsys, "lift", "bell", "--p", "[0.75,0.25]", "--rho", "[[0.6,0],[0,0.4000000005]]")
    assert code == 0
    assert np.sum(blob["spectrum"]["p"]) == pytest.approx(1 + 5e-10, abs=1e-15)


def test_teleport_transcript(capsys):
    code, blob = run_cli(
        capsys, "teleport", "--p", "[0.5,0.3,0.2]", "--perm", "[1,2,0]"
    )
    assert code == 0
    np.testing.assert_allclose(blob["bob_state"], [0.2, 0.5, 0.3], atol=1e-12)
    np.testing.assert_allclose(blob["corrected"], [0.5, 0.3, 0.2], atol=1e-12)
    np.testing.assert_allclose(
        json_to_matrix(blob["channel"]).real, [[0, 1, 0], [0, 0, 1], [1, 0, 0]], atol=1e-12
    )


def test_verify_exit_code_and_determinism(capsys, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    code = cli.main(["verify", "matcore", "--seed", "4", "--trials", "3"])
    first = capsys.readouterr().out
    assert code == 0
    code = cli.main(["verify", "matcore", "--seed", "4", "--trials", "3"])
    second = capsys.readouterr().out
    assert code == 0
    assert first == second
    blob = json.loads(first)
    assert blob["passed"] is True
    assert blob["seed"] == 4


def test_verify_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("LIFTLAB_SEED", "123")
    code, blob = run_cli(capsys, "verify", "classical", "--trials", "2")
    assert code == 0
    assert blob["seed"] == 123
    monkeypatch.setenv("LIFTLAB_SEED", "not-an-int")
    assert cli.main(["verify", "classical", "--trials", "2"]) == 2
    capsys.readouterr()


def test_negative_seed_exits_two(capsys, monkeypatch):
    assert cli.main(["verify", "matcore", "--seed", "-1"]) == 2
    kraus = ["channel", "kraus", "--matrix", "[[1,0],[0,1]]", "--verify"]
    assert cli.main(kraus + ["--seed", "-2"]) == 2
    monkeypatch.setenv("LIFTLAB_SEED", "-4")
    assert cli.main(["verify", "classical"]) == 2
    assert cli.main(kraus) == 2
    assert capsys.readouterr().out == ""


def test_verify_tol_override(capsys):
    assert cli.main(["verify", "matcore", "--trials", "2", "--tol", "nan"]) == 2
    assert cli.main(["verify", "matcore", "--trials", "2", "--tol", "-1"]) == 2
    assert capsys.readouterr().out == ""
    code, blob = run_cli(capsys, "verify", "matcore", "--seed", "1", "--trials", "2", "--tol", "0")
    assert code == 1
    assert {c["tolerance"] for c in blob["checks"]} == {0.0}


def test_kraus_self_check_needs_a_trial(capsys):
    code = cli.main(["channel", "kraus", "--matrix", "[[1,0],[0,1]]", "--verify", "--trials", "0"])
    assert code == 2
    assert capsys.readouterr().out == ""


def test_kraus_reads_trials_and_seed_before_the_library(capsys, monkeypatch):
    # A negative weight is a math fault (exit 3) that kraus_from_channel finds;
    # a bad --trials or LIFTLAB_SEED is malformed input, reported first.
    negative = ["channel", "kraus", "--matrix", "[[-1,2],[0,1]]", "--verify"]
    _assert_error_exit(capsys, negative + ["--trials", "0"], 2)
    monkeypatch.setenv("LIFTLAB_SEED", "x")
    assert cli.main(negative + ["--trials", "0"]) == 2
    assert capsys.readouterr().err == "error: trials must be at least 1, got 0\n"
    assert cli.main(negative) == 2
    assert capsys.readouterr().err == "error: LIFTLAB_SEED must be an integer, got 'x'\n"
    monkeypatch.delenv("LIFTLAB_SEED")
    _assert_error_exit(capsys, negative, 3)


def test_kraus_array_past_the_bound_exits_two(capsys, monkeypatch):
    # With the bound at 4 KiB, a 5 x 5 channel's 5^4 complex Kraus entries
    # (10000 bytes) are refused before kraus_from_channel allocates them.
    monkeypatch.setattr(matcore, "MAX_DENSE_BYTES", 4096)
    w = json.dumps([[0.2] * 5] * 5)
    _assert_error_exit(capsys, ["channel", "kraus", "--matrix", w], 2)


def test_kraus_document_holds_the_operator_array_once():
    # The document's matrices are kraus_from_channel's read-only views; a
    # copy of each would hold a 30 x 30 channel's 13 MB Kraus array twice.
    args = cli.build_parser().parse_args(["channel", "kraus", "--matrix", "[[1]]"])
    args.matrix = np.full((30, 30), 1 / 30)
    tracemalloc.start()
    try:
        document, code = args.func(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and len(document["kraus"]) == 900
    assert peak < 1.2 * 30**4 * 16, peak


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    code = cli.main(
        ["channel", "apply", "--matrix", "[[1,0],[0,1]]", "--state", "[1,0]", "--out", str(target)]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    blob = json.loads(target.read_text())
    assert blob["state"] == [1.0, 0.0]


def test_non_finite_result_writes_nothing(tmp_path, capsys, monkeypatch):
    # The first Kraus operator is finite and the second is not, so a writer
    # that checked each matrix as it went would already have written one.
    target = tmp_path / "result.json"
    monkeypatch.setattr(cli, "kraus_from_channel", lambda w: [np.eye(2), np.diag([1.0, np.nan])])
    kraus = ["channel", "kraus", "--matrix", "[[1,0],[0,1]]"]
    monkeypatch.setattr(cli, "apply_to_state", lambda w, p: np.array([np.inf, 0.0]))
    apply = ["channel", "apply", "--matrix", "[[1,0],[0,1]]", "--state", "[1,0]"]
    for argv in (kraus, kraus + ["--out", str(target)], apply, apply + ["--out", str(target)]):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: result is not finite JSON")
        assert not target.exists()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads the Linux /proc/self/status peak")
def test_large_lift_is_written_in_bounded_memory(tmp_path):
    # The n=2, N=11 state is a 2048 x 2048 matrix, 64 MiB, and its document
    # 176 MB. The output is written chunk by chunk; held as text, as it once
    # was, it took this call to a 1162 MiB peak. The child reports VmHWM, its
    # own peak: a forked child's ru_maxrss starts at its parent's.
    tensor = tmp_path / "tensor.json"
    tensor.write_text(json.dumps(lifting_tensor_to_json(ohya_tensor(2))))
    target = tmp_path / "state.json"
    code = (
        "import sys; from liftlab.cli import main; code = main(sys.argv[1:]); "
        "print(next(line.split()[1] for line in open('/proc/self/status') if line.startswith('VmHWM:'))); "
        "sys.exit(code)"
    )
    argv = ["lift", "nlift", "--tensor", f"@{tensor}", "--p", "[0.5, 0.5]", "--parties", "11", "--out", str(target)]
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    try:
        out = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, check=True)
        assert int(out.stdout) < 256 * 1024  # KiB
        with open(target, "rb") as fh:
            head = fh.read(128)
            fh.seek(-64, os.SEEK_END)
            tail = fh.read()
        assert head.startswith(b'{\n  "state": {\n    "cols": 2048,\n    "data": [\n      [\n        0.5,')
        assert tail.endswith(b"\n    ],\n    \"rows\": 2048\n  }\n}\n")
    finally:
        target.unlink(missing_ok=True)


def test_malformed_json_exits_two(capsys):
    assert cli.main(["channel", "apply", "--matrix", "{broken", "--state", "[1,0]"]) == 2
    capsys.readouterr()
    assert cli.main(["lift", "classical", "--tensor", "[1,2]", "--p", "[1,0]"]) == 2
    capsys.readouterr()


def test_domain_error_exits_three(capsys):
    code = cli.main(["lift", "ohya", "--rho", "[[0.8,0.5],[0.5,0.2]]", "--parties", "2"])
    assert code == 3
    capsys.readouterr()
    code = cli.main(["channel", "apply", "--matrix", "[[1,0],[0,1]]", "--state", "[0.5,0.6]"])
    assert code == 3
    capsys.readouterr()


def test_unknown_suite_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "bogus"])
    assert exc.value.code == 2
    capsys.readouterr()


def _assert_error_exit(capsys, argv, code):
    assert cli.main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_oversized_output_exits_two(capsys):
    _assert_error_exit(capsys, ["lift", "ohya", "--rho", "[[0.6,0],[0,0.4]]", "--parties", "40"], 2)


def test_party_counts_past_any_dense_size_exit_two_at_once(capsys):
    tensor = json.dumps({"n1": 2, "n2": 2, "data": [0.2, 0.8, 0, 0, 0, 0, 0.2, 0.8]})
    probes = [
        ["lift", "ohya", "--rho", "[[0.5,0],[0,0.5]]", "--parties", "14"],  # the dense-size guard
        ["lift", "ohya", "--rho", "[[0.5,0],[0,0.5]]", "--parties", "20000"],
        ["lift", "nlift", "--tensor", tensor, "--p", "[0.5,0.5]", "--parties", "20000"],
        ["lift", "nlift", "--tensor", tensor, "--p", "[0.5,0.5]", "--parties", "1000000"],
        ["lift", "nlift", "--tensor", '{"n1":1,"n2":1,"data":[1]}', "--p", "[1]", "--parties", "70"],
        ["lift", "ohya", "--rho", "[[1]]", "--parties", "17"],
    ]
    for argv in probes:
        start = time.perf_counter()
        _assert_error_exit(capsys, argv, 2)
        assert time.perf_counter() - start < 1.0, argv


def test_non_finite_json_exits_two(capsys):
    _assert_error_exit(capsys, ["channel", "apply", "--matrix", "[[1,0],[0,1]]", "--state", "[NaN, 1]"], 2)
    _assert_error_exit(capsys, ["channel", "kraus", "--matrix", "[[Infinity,0],[0,1]]"], 2)


def test_unnormalized_lifting_tensor_exits_three(capsys):
    half = json.dumps({"n1": 2, "n2": 2, "data": [0.5, 0, 0, 0, 0, 0, 0, 0.5]})
    _assert_error_exit(capsys, ["lift", "classical", "--tensor", half, "--p", "[0.6,0.4]"], 3)
    _assert_error_exit(capsys, ["lift", "nlift", "--tensor", half, "--p", "[0.6,0.4]", "--parties", "3"], 3)


def test_overflowing_numbers_exit_two(capsys):
    inf_matrix = "[[1e999,0],[0,1]]"
    for argv in (["channel", "apply", "--matrix", inf_matrix, "--state", "[0.5,0.5]"],
                 ["channel", "kraus", "--matrix", inf_matrix]):
        _assert_error_exit(capsys, argv, 2)
        assert cli.main(argv) == 2
        assert "matrix must hold finite numbers of modulus at most 2**60" in capsys.readouterr().err


def test_integers_too_large_for_a_float_exit_two(capsys):
    big = "1" + "0" * 400
    tensor = '{"n1":1,"n2":1,"data":[1.0]}'
    for argv in (
        ["channel", "apply", "--matrix", f"[[{big},0],[0,1]]", "--state", "[0.5,0.5]"],
        ["channel", "apply", "--matrix", f'{{"rows":1,"cols":1,"data":[[{big},0]]}}', "--state", "[1]"],
        ["channel", "apply", "--matrix", "[[1,0],[0,1]]", "--state", f"[{big},0]"],
        ["lift", "classical", "--tensor", f'{{"n1":1,"n2":1,"data":[{big}]}}', "--p", "[1]"],
        ["lift", "classical", "--tensor", tensor, "--p", f"[{big}]"],
        ["teleport", "--p", "[0.5,0.5]", "--perm", f"[{big},0]"],
    ):
        _assert_error_exit(capsys, argv, 2)


def test_negative_sizes_exit_two(capsys):
    for argv in (
        ["channel", "apply", "--matrix", '{"rows":-1,"cols":-1,"data":[[1,0]]}', "--state", "[1]"],
        ["lift", "classical", "--tensor", '{"n1":-1,"n2":1,"data":[1.0]}', "--p", "[1]"],
        ["lift", "nlift", "--tensor", '{"n1":1,"n2":-1,"data":[]}', "--p", "[1]", "--parties", "2"],
    ):
        _assert_error_exit(capsys, argv, 2)
        assert cli.main(argv) == 2
        assert "must be at least 0" in capsys.readouterr().err


def test_empty_channel_matrix_exits_two(capsys):
    _assert_error_exit(capsys, ["channel", "kraus", "--matrix", "[[]]"], 2)
    _assert_error_exit(
        capsys, ["channel", "apply", "--matrix", '{"rows":0,"cols":0,"data":[]}', "--state", "[]"], 2
    )


def test_string_matrix_entries_exit_two(capsys):
    for matrix in ('[["0.5","0.5"],["0.25","0.75"]]', '[[0.5,"0.5"],[0.25,0.75]]'):
        _assert_error_exit(capsys, ["channel", "apply", "--matrix", matrix, "--state", "[0.5,0.5]"], 2)


def test_booleans_are_not_numbers(capsys, tmp_path):
    # np.array reads [1, true] as [1.0, 1.0]; an argument holding true or false exits 2.
    identity = "[[1,0],[0,1]]"
    path = tmp_path / "state.json"
    path.write_text("[1, false]")
    for argv in (
        ["channel", "apply", "--matrix", "[[true,false],[false,true]]", "--state", "[true,false]"],
        ["channel", "apply", "--matrix", "[[1,false],[0,1]]", "--state", "[0.5,0.5]"],
        ["channel", "apply", "--matrix", '{"rows":1,"cols":1,"data":[[true,false]]}', "--state", "[1]"],
        ["channel", "apply", "--matrix", '{"rows":1,"cols":1,"data":[[true,0]]}', "--state", "[1]"],
        ["channel", "apply", "--matrix", identity, "--state", "[true,false]"],
        ["channel", "apply", "--matrix", identity, "--state", "[1,false]"],
        ["channel", "apply", "--matrix", identity, "--state", f"@{path}"],
        ["lift", "nlift", "--tensor", '{"n1":1,"n2":1,"data":[true]}', "--p", "[1]", "--parties", "2"],
        ["lift", "nlift", "--tensor", '{"n1":1,"n2":2,"data":[0.5,true]}', "--p", "[1]", "--parties", "2"],
    ):
        _assert_error_exit(capsys, argv, 2)


def test_eigensolver_failure_exits_three(capsys, monkeypatch):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    ohya = ["lift", "ohya", "--rho", "[[0.6,0],[0,0.4]]", "--parties", "2"]
    monkeypatch.setattr(np.linalg, "eigh", no_convergence)  # ohya_lift's spectral decomposition
    _assert_error_exit(capsys, ohya, 3)
    monkeypatch.undo()
    # check_state's PSD test: a lowest eigenvalue of -6e-10 is within the
    # tolerance but below the Cholesky certificate's -5e-10, so it is solved for.
    near = ["lift", "ohya", "--rho", "[[1.0000000006,0],[0,-6e-10]]", "--parties", "2"]
    assert cli.main(near) == 0
    capsys.readouterr()
    monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
    _assert_error_exit(capsys, near, 3)


def test_malformed_argument_is_reported_before_a_math_fault(capsys):
    # The CLI decodes every argument before the library checks any of them.
    _assert_error_exit(capsys, ["teleport", "--p", "[0.5,0.3,0.3]", "--perm", "[1,2,2]"], 2)
    assert cli.main(["teleport", "--p", "[0.5,0.3,0.3]", "--perm", "[1,2,2]"]) == 2
    assert "not a permutation" in capsys.readouterr().err
    dilate = ["channel", "dilate", "--n", "3", "--perm", "[0,3,2,1]", "--sigma", "[0.7,0.4]"]
    _assert_error_exit(capsys, dilate, 2)
    assert cli.main(dilate) == 2
    assert "expected 9" in capsys.readouterr().err


def test_library_faults_keep_the_library_order(capsys):
    # Both faults are found by bell_diagonal_lift, which checks --p first.
    bell = ["lift", "bell", "--p", "[0.75,0.35]", "--rho", "[[0.6,0,0],[0,0.4,0]]"]
    _assert_error_exit(capsys, bell, 3)
    assert cli.main(bell) == 3
    assert "probability vector sums to 1.1, not 1" in capsys.readouterr().err


def test_quantum_lifts_check_the_state_once(capsys, monkeypatch):
    import liftlab.matcore
    import liftlab.qlift

    calls = []

    def counted(check):
        def wrapper(rho):
            calls.append(rho)
            return check(rho)
        return wrapper

    for module in (liftlab.qlift, liftlab.matcore):  # ohya_lift's check_state, and _read_state's
        monkeypatch.setattr(module, "check_state", counted(module.check_state))
    identity = {"d": 2, "units": [{"rows": 2, "cols": 2, "data": [[float(k == u), 0] for k in range(4)]}
                                  for u in range(4)]}
    rho = "[[0.6,0],[0,0.4]]"
    for argv in (
        ["lift", "ohya", "--rho", rho],
        ["lift", "nonlinear", "--channel", json.dumps(identity), "--rho", rho],
        ["lift", "circulant", "--profiles", "[[[0.5,0.5],[0.5,0.5]],[[1,0],[0,0]]]", "--rho", rho],
        ["lift", "bell", "--p", "[0.75,0.25]", "--rho", rho],
    ):
        calls.clear()
        assert cli.main(argv) == 0
        assert len(calls) == 1, argv
    capsys.readouterr()


def test_every_subcommand_offers_out(capsys):
    for argv in (["channel", "kraus"], ["channel", "dilate"], ["channel", "apply"], ["lift", "classical"],
                 ["lift", "ohya"], ["lift", "qcp"], ["lift", "nonlinear"], ["lift", "circulant"],
                 ["lift", "bell"], ["lift", "nlift"], ["verify"], ["teleport"]):
        with pytest.raises(SystemExit):
            cli.main([*argv, "--help"])
        assert "--out OUT" in capsys.readouterr().out


def test_profiles_of_mixed_sides_exit_two(capsys):
    rho = "[[0.6,0],[0,0.4]]"
    for profiles, message in (
        ("[]", "profiles must be a non-empty JSON list of matrices"),
        ("[[[1]],[[1,0],[0,0]]]", "profile 0 has shape (1, 1), expected (2, 2)"),
        ("[[[0.5,0.5],[0.5,0.5]],[[1,0,0],[0,0,0]]]", "profile 1 has shape (2, 3), expected (2, 2)"),
        ("[[[1,0],[0,0]]]", "profile 0 has shape (2, 2), expected (1, 1)"),
    ):
        assert cli.main(["lift", "circulant", "--profiles", profiles, "--rho", rho]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (["channel", "apply", "--matrix", '{"rows":1,"cols":1,"data":[[1,0.5]]}', "--state", "[1]"],
     "channel matrix must be real"),
    (["teleport", "--p", "[0.5,0.5]", "--perm", "[0,1,2]"], "permutation on 3 letters, state on 2"),
])
def test_mismatched_arguments_exit_two_with_one_error_line(capsys, argv, message):
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_empty_lifting_tensor_exits_two(capsys):
    empty = '{"n1":0,"n2":0,"data":[]}'
    _assert_error_exit(capsys, ["lift", "classical", "--tensor", empty, "--p", "[1]"], 2)
    _assert_error_exit(capsys, ["lift", "nlift", "--tensor", empty, "--p", "[1]", "--parties", "2"], 2)


def test_numbers_past_the_bound_write_one_error_line():
    # A number of modulus past 2**60 is refused where it is read (exit 2),
    # before any sum of such numbers, with no numpy warning on stderr before
    # the error line.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    big = "[1.7e308,1.7e308]"
    for argv, message in (
        (["channel", "apply", "--matrix", "[[0.5,0.5],[0.5,0.5]]", "--state", big], "vector"),
        (["lift", "bell", "--p", big, "--rho", "[[0.5,0],[0,0.5]]"], "vector"),
        (["lift", "nlift", "--tensor", '{"n1":1,"n2":2,"data":%s}' % big, "--p", "[1]", "--parties", "2"],
         "lifting tensor"),
    ):
        out = subprocess.run([sys.executable, "-m", "liftlab.cli", *argv], env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True)
        want = f"error: {message} must hold finite numbers of modulus at most 2**60\n"
        assert (out.returncode, out.stdout, out.stderr) == (2, "", want), argv


def test_the_bound_itself_is_a_number(capsys):
    # 2**60 is read and written back; the next float up is refused (exit 2).
    for value, code in ((2.0**60, 0), (float(np.nextafter(2.0**60, np.inf)), 2)):
        argv = ["channel", "apply", "--matrix", f"[[{value!r}]]", "--state", "[1]"]
        assert cli.main(argv) == code
        out, err = capsys.readouterr()
        if code == 0:
            assert json.loads(out) == {"state": [value]} and err == ""
        else:
            assert (out, err) == ("", "error: matrix must hold finite numbers of modulus at most 2**60\n")


# The process entry point, cli.run, ends with os._exit once stdout and stderr
# are flushed. Its children run with block-buffered stdout, Python's default
# for a pipe or a file, so whatever main leaves unflushed would be lost.
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
NLIFT_9 = ["lift", "nlift", "--tensor", json.dumps(lifting_tensor_to_json(ohya_tensor(2))),
           "--p", "[0.5, 0.5]", "--parties", "9"]


def _process(*args, extra_env=(), **kwargs):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1", **dict(extra_env))
    return subprocess.run([sys.executable, *args], env=env, timeout=120, **kwargs)


def _in_process(capsys, argv):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    out, err = capsys.readouterr()
    return code, out.encode(), err.encode()


@pytest.mark.parametrize("argv", [
    ["teleport", "--p", "[0.5,0.5]", "--perm", "[1,0]"],
    ["verify", "matcore", "--trials", "2", "--tol", "0"],
    ["channel", "apply", "--matrix", "{broken", "--state", "[1,0]"],
    ["lift", "ohya", "--rho", "[[0.8,0.5],[0.5,0.2]]", "--parties", "2"],
    ["verify", "bogus"],
], ids=["exit0", "exit1", "exit2", "exit3", "usage"])
def test_process_exits_with_mains_code_and_streams(capsys, monkeypatch, argv):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    code, out, err = _in_process(capsys, argv)
    proc = _process("-m", "liftlab.cli", *argv, capture_output=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


def test_process_writes_a_large_document_through_a_pipe_whole(capsys):
    code, out, err = _in_process(capsys, NLIFT_9)
    assert (code, err) == (0, b"") and len(out) > 1 << 20
    proc = _process("-m", "liftlab.cli", *NLIFT_9, capture_output=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, b"")


# Each case runs with stdout block-buffered, and again unbuffered, where
# argparse's own writer used to drop a failed --help write (exit 0, no output).
_TO_FULL = {"small": ["teleport", "--p", "[0.5,0.5]", "--perm", "[1,0]"], "large": NLIFT_9,
            "help": ["--help"], "lift-help": ["lift", "--help"], "ohya-help": ["lift", "ohya", "--help"]}


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv, extra_env", [
    pytest.param(argv, env, id=name + suffix)
    for suffix, env in (("", {}), ("-unbuffered", {"PYTHONUNBUFFERED": "1"}))
    for name, argv in _TO_FULL.items()
])
def test_failed_stdout_write_exits_two_with_one_error_line(argv, extra_env):
    with open("/dev/full", "wb") as full:
        proc = _process("-m", "liftlab.cli", *argv, extra_env=extra_env, stdout=full, stderr=subprocess.PIPE)
    assert proc.returncode == 2
    assert proc.stderr == b"error: [Errno 28] No space left on device\n"


# A schema error, a math-domain error and a usage error, each with stderr
# unwritable: the error line is lost, its exit code is not.
_ERR_TO_FULL = {"schema": (["lift", "ohya", "--rho", "[[1"], 2),
                "math-domain": (["lift", "ohya", "--rho", "[[2,0],[0,0]]"], 3),
                "usage": (["lift", "ohya", "--bogus"], 2)}


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv, code, extra_env", [
    pytest.param(argv, code, env, id=name + suffix)
    for suffix, env in (("", {}), ("-unbuffered", {"PYTHONUNBUFFERED": "1"}))
    for name, (argv, code) in _ERR_TO_FULL.items()
])
def test_failed_stderr_write_keeps_the_exit_code(argv, code, extra_env):
    with open("/dev/full", "wb") as full:
        proc = _process("-m", "liftlab.cli", *argv, extra_env=extra_env, stdout=subprocess.PIPE, stderr=full)
    assert (proc.returncode, proc.stdout) == (code, b"")


def test_process_skips_the_interpreter_teardown():
    # An exit handler would run in the teardown that os._exit skips.
    code = ("import atexit, sys; from liftlab import cli; atexit.register(print, 'teardown'); "
            "sys.argv[1:] = ['teleport', '--p', '[0.5,0.5]', '--perm', '[1,0]']; cli.run()")
    proc = _process("-c", code, capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stderr == ""
    assert json.loads(proc.stdout)["bob_state"] == [0.5, 0.5]
