"""Command-line front end.

All inputs and outputs are JSON: flag values hold inline JSON or @path to a
file, and every command prints one canonical JSON document (or writes it
with --out), piece by piece once every check has passed. Exit codes: 0
success, 1 failed verification check, 2 usage or schema problem, 3
math-domain problem (non-positive state, non-unital channel, and so on).
LIFTLAB_SEED supplies the seed when --seed is absent. main returns the exit
code; run, the process entry point, ends the process with it by os._exit
once stdout and stderr are flushed.

build_parser declares each JSON flag with its wire decoder, and main decodes
every such flag, in declaration order, before the command runs. The command
then checks its other flags (channel dilate's --n, a size of at least 1,
then against the permutation; channel kraus's --trials, then the seed),
calls the library, which checks each input once, and returns its document
and exit code for main to write.
So malformed input (exit 2) is reported before any math fault (exit 3).
"""
from __future__ import annotations

import argparse
import os
import sys
from contextlib import suppress

import numpy as np

from . import jsonio, sampling, verify
from .circulant import bell_diagonal_lift, circulant_lift
from .classical import (
    apply_to_state,
    channel_from_dilation,
    is_doubly_stochastic,
    kraus_from_channel,
    _kraus_deviation,
    permutation_channel,
    classical_teleport,
)
from .clift import n_lift
from .errors import MathDomainError, SchemaError
from .qlift import nonlinear_lift, ohya_lift, qcp_from_channel
from .matcore import TOL, _size


def _seed_value(args) -> int:
    seed = getattr(args, "seed", None)
    if seed is None:
        env = os.environ.get("LIFTLAB_SEED")
        if env is None:
            return 0
        try:
            seed = int(env)
        except ValueError:
            raise SchemaError(f"LIFTLAB_SEED must be an integer, got {env!r}") from None
    return _size(seed, "seed")


def _real_matrix(obj) -> np.ndarray:
    """The channel-matrix decoder: a wire matrix, which must be real."""
    m = jsonio.json_to_matrix(obj)
    if np.abs(m.imag).max(initial=0.0) > 0.0:
        raise SchemaError("channel matrix must be real")
    return m.real


def cmd_channel_kraus(args) -> tuple[dict, int]:
    w = args.matrix
    if args.verify:
        _size(args.trials, "trials", 1)
        g = sampling.rng(_seed_value(args))
    ops = kraus_from_channel(w)
    document = {"kraus": [jsonio.matrix_to_json(k) for k in ops]}
    if not args.verify:
        return document, 0
    dev = 0.0
    for _ in range(args.trials):
        dev = max(dev, _kraus_deviation(ops, w, sampling.probability_vector(g, w.shape[0])))
    passed = dev <= TOL
    document["self_check"] = {"max_deviation": dev, "tolerance": TOL, "passed": passed}
    return document, 0 if passed else 1


def cmd_channel_dilate(args) -> tuple[dict, int]:
    n = _size(args.n, "n", 1)
    if n * n != args.perm.size:
        raise SchemaError(f"permutation has {args.perm.size} images, expected {n * n}")
    w = channel_from_dilation(args.perm, args.sigma)
    return {"weights": jsonio.matrix_to_json(w), "doubly_stochastic": is_doubly_stochastic(w, TOL)}, 0


def cmd_channel_apply(args) -> tuple[dict, int]:
    return {"state": jsonio.vector_to_json(apply_to_state(args.matrix, args.state))}, 0


def cmd_lift_ohya(args) -> tuple[dict, int]:
    return {"state": jsonio.factored_to_json(ohya_lift(args.rho, args.parties))}, 0


def cmd_lift_qcp(args) -> tuple[dict, int]:
    return {"operator": jsonio.factored_to_json(qcp_from_channel(args.channel).op)}, 0


def cmd_lift_nonlinear(args) -> tuple[dict, int]:
    state = nonlinear_lift(qcp_from_channel(args.channel), args.rho)
    return {"state": jsonio.factored_to_json(state)}, 0


def cmd_lift_circulant(args) -> tuple[dict, int]:
    return {"state": jsonio.factored_to_json(circulant_lift(args.profiles, args.rho))}, 0


def cmd_lift_bell(args) -> tuple[dict, int]:
    state, spectrum = bell_diagonal_lift(args.p, args.rho)
    return {
        "state": jsonio.factored_to_json(state),
        "spectrum": jsonio.bell_spectrum_to_json(spectrum),
    }, 0


def cmd_lift_nlift(args) -> tuple[dict, int]:
    return {"state": jsonio.factored_to_json(n_lift(args.tensor, args.p, args.parties))}, 0


def cmd_verify(args) -> tuple[dict, int]:
    report = verify.run_suite(args.suite, _seed_value(args), args.trials, args.tol)
    return report.to_json(), 0 if report.passed else 1


def cmd_teleport(args) -> tuple[dict, int]:
    bob, corrected = classical_teleport(args.p, args.perm)
    return {
        # corrected is rho_a itself, as the library validated it
        "rho_a": jsonio.vector_to_json(corrected),
        "channel": jsonio.matrix_to_json(permutation_channel(args.perm)),
        "bob_state": jsonio.vector_to_json(bob),
        "corrected": jsonio.vector_to_json(corrected),
    }, 0


class _Parser(argparse.ArgumentParser):
    """argparse's parser, except that --help writes and flushes its text
    itself, so a failed write raises its OSError inside main (exit 2) in
    either stdout buffering mode, where argparse's _print_message drops it.
    Only print_help is replaced: usage errors still go through
    _print_message, which drops a failed stderr write, so they exit 2
    whether or not stderr can be written. Subparsers are made of this class
    too."""

    def print_help(self, file=None):
        file = file or sys.stdout
        file.write(self.format_help())
        file.flush()


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="liftlab",
        description="Classical and quantum liftings: channels, compound states, and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def json_flag(command, flag: str, decode, **kwargs) -> None:
        """A required flag of inline JSON or @path, which main decodes by ``decode``."""
        dest = command.add_argument(flag, required=True, **kwargs).dest
        command.set_defaults(decoders=(command.get_default("decoders") or ()) + ((dest, decode),))

    channel = sub.add_parser("channel", help="classical channels and their representations")
    chsub = channel.add_subparsers(dest="subcommand", required=True)

    kraus = chsub.add_parser("kraus", help="operator decomposition of a weight matrix")
    json_flag(kraus, "--matrix", _real_matrix, help="channel weights (JSON or @path)")
    kraus.add_argument("--verify", action="store_true", help="self-check the action on random states")
    kraus.add_argument("--seed", type=int, default=None)
    kraus.add_argument("--trials", type=int, default=20)

    dilate = chsub.add_parser("dilate", help="channel from an ancilla permutation dilation")
    dilate.add_argument("--n", type=int, required=True, help="system size")
    json_flag(dilate, "--perm", jsonio.json_to_permutation, help="permutation images on the n*n joint space")
    json_flag(dilate, "--sigma", jsonio.json_to_vector, help="ancilla distribution")

    apply_p = chsub.add_parser("apply", help="push a distribution through a channel")
    json_flag(apply_p, "--matrix", _real_matrix)
    json_flag(apply_p, "--state", jsonio.json_to_vector)

    lift_p = sub.add_parser("lift", help="classical and quantum liftings")
    lsub = lift_p.add_subparsers(dest="subcommand", required=True)

    lcl = lsub.add_parser("classical", help="two-party lifting from a tensor")
    json_flag(lcl, "--tensor", jsonio.json_to_tensor_data, help='{"n1", "n2", "data"} (JSON or @path)')
    json_flag(lcl, "--p", jsonio.json_to_vector, help="input distribution")
    lcl.set_defaults(parties=2)  # the two-party case of nlift

    loh = lsub.add_parser("ohya", help="spectral copying lift of a state")
    json_flag(loh, "--rho", jsonio.json_to_matrix, help="input state matrix")
    loh.add_argument("--parties", type=int, default=2)

    lqcp = lsub.add_parser("qcp", help="two-slot operator of a unital channel")
    json_flag(lqcp, "--channel", jsonio.json_to_cpmap, help='{"d", "units"} (JSON or @path)')

    lnl = lsub.add_parser("nonlinear", help="compound state of a channel over an input state")
    json_flag(lnl, "--channel", jsonio.json_to_cpmap)
    json_flag(lnl, "--rho", jsonio.json_to_matrix)

    lci = lsub.add_parser("circulant", help="block lifting along fixed profiles")
    json_flag(lci, "--profiles", jsonio.json_to_profiles, help="JSON list of unit-trace PSD matrices")
    json_flag(lci, "--rho", jsonio.json_to_matrix)

    lbe = lsub.add_parser("bell", help="lifting with a Bell-diagonal output")
    json_flag(lbe, "--p", jsonio.json_to_vector, help="phase weights")
    json_flag(lbe, "--rho", jsonio.json_to_matrix)

    lnn = lsub.add_parser("nlift", help="iterated lifting to N parties")
    json_flag(lnn, "--tensor", jsonio.json_to_tensor_data)
    json_flag(lnn, "--p", jsonio.json_to_vector)
    lnn.add_argument("--parties", type=int, required=True)

    ver = sub.add_parser("verify", help="run invariant suites and report")
    ver.add_argument("suite", choices=list(verify.SUITE_NAMES))
    ver.add_argument("--seed", type=int, default=None)
    ver.add_argument("--trials", type=int, default=100)
    ver.add_argument("--tol", type=float, default=None, help="override every check tolerance")

    tel = sub.add_parser("teleport", help="permutation teleportation transcript")
    json_flag(tel, "--p", jsonio.json_to_vector, help="distribution to send")
    json_flag(tel, "--perm", jsonio.json_to_permutation, help="shared permutation")

    # One --out for every command, added after its own flags: usage lines list it last.
    for command, func in (
        (kraus, cmd_channel_kraus), (dilate, cmd_channel_dilate), (apply_p, cmd_channel_apply),
        (lcl, cmd_lift_nlift), (loh, cmd_lift_ohya), (lqcp, cmd_lift_qcp),
        (lnl, cmd_lift_nonlinear), (lci, cmd_lift_circulant), (lbe, cmd_lift_bell),
        (lnn, cmd_lift_nlift), (ver, cmd_verify), (tel, cmd_teleport),
    ):
        command.add_argument("--out", default=None, help="write the JSON document here instead of stdout")
        command.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        for dest, decode in getattr(args, "decoders", ()):  # verify declares none
            setattr(args, dest, decode(jsonio.load_argument(getattr(args, dest))))
        document, code = args.func(args)
        pieces = jsonio.canonical_pieces(document)  # every check runs here
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.writelines(pieces)
        else:
            sys.stdout.writelines(pieces)
            sys.stdout.flush()  # a failed write is reported here, as exit 2
        return code
    except (SchemaError, OSError, MathDomainError) as exc:
        with suppress(OSError):  # an unwritable stderr keeps the exit code
            print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, MathDomainError) else 2


def run() -> None:
    """The process entry point (``liftlab`` and ``python -m liftlab.cli``):
    main's exit code, with argparse's for usage errors and --help, then
    os._exit once stderr is flushed: main and --help flush what they write
    to stdout. A stderr that cannot be written keeps the exit code. The
    interpreter's teardown, 24-28 ms with numpy loaded, is skipped; nothing
    is left to release.
    """
    try:
        code = main()
    except SystemExit as exc:
        code = exc.code
    with suppress(OSError):
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
