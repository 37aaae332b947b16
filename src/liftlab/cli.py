"""Command-line front end.

All inputs and outputs are JSON: flag values hold inline JSON or @path to a
file, and every command prints one canonical JSON document (or writes it
with --out), piece by piece once every check has passed. Exit codes: 0
success, 1 failed verification check, 2 usage or schema problem, 3
math-domain problem (non-positive state, non-unital channel, and so on).
LIFTLAB_SEED supplies the seed when --seed is absent.

Each command decodes all of its arguments, then calls the library, which
checks each input once, and returns its document and exit code for main to
write. So malformed input (exit 2) is reported before any math fault (exit 3).
"""
from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import jsonio, sampling, verify
from .circulant import bell_diagonal_lift, circulant_lift
from .classical import (
    apply_to_state,
    channel_from_dilation,
    is_doubly_stochastic,
    kraus_from_channel,
    apply_kraus,
    permutation_channel,
    classical_teleport,
)
from .clift import n_lift
from .errors import MathDomainError, SchemaError
from .qlift import nonlinear_lift, ohya_lift, qcp_from_channel
from .matcore import TOL


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
    if seed < 0:
        raise SchemaError(f"seed must be at least 0, got {seed}")
    return seed


def _load(decode, text: str):
    """Decode one argument: inline JSON or @path, then its wire format."""
    return decode(jsonio.load_argument(text))


def _real_matrix(text: str, what: str) -> np.ndarray:
    m = _load(jsonio.json_to_matrix, text)
    if np.abs(m.imag).max(initial=0.0) > 0.0:
        raise SchemaError(f"{what} must be real")
    return m.real


def cmd_channel_kraus(args) -> tuple[dict, int]:
    w = _real_matrix(args.matrix, "channel matrix")
    ops = kraus_from_channel(w)
    document = {"kraus": [jsonio.matrix_to_json(k) for k in ops]}
    if not args.verify:
        return document, 0
    if args.trials < 1:
        raise SchemaError(f"trials must be at least 1, got {args.trials}")
    g = sampling.rng(_seed_value(args))
    dev = 0.0
    for _ in range(args.trials):
        p = sampling.probability_vector(g, w.shape[0])
        via_kraus = np.diag(apply_kraus(ops, np.diag(p.astype(complex)))).real
        dev = max(dev, float(np.abs(via_kraus - apply_to_state(w, p)).max()))
    passed = dev <= TOL
    document["self_check"] = {"max_deviation": dev, "tolerance": TOL, "passed": passed}
    return document, 0 if passed else 1


def cmd_channel_dilate(args) -> tuple[dict, int]:
    perm = _load(jsonio.json_to_permutation, args.perm)
    sigma = _load(jsonio.json_to_vector, args.sigma)
    if args.n * args.n != perm.size:
        raise SchemaError(f"permutation has {perm.size} images, expected {args.n * args.n}")
    w = channel_from_dilation(perm, sigma)
    return {"weights": jsonio.matrix_to_json(w), "doubly_stochastic": is_doubly_stochastic(w, TOL)}, 0


def cmd_channel_apply(args) -> tuple[dict, int]:
    w = _real_matrix(args.matrix, "channel matrix")
    p = _load(jsonio.json_to_vector, args.state)
    return {"state": jsonio.vector_to_json(apply_to_state(w, p))}, 0


def cmd_lift_ohya(args) -> tuple[dict, int]:
    rho = _load(jsonio.json_to_matrix, args.rho)
    return {"state": jsonio.factored_to_json(ohya_lift(rho, args.parties))}, 0


def cmd_lift_qcp(args) -> tuple[dict, int]:
    q = qcp_from_channel(_load(jsonio.json_to_cpmap, args.channel))
    return {"operator": jsonio.factored_to_json(q.op)}, 0


def cmd_lift_nonlinear(args) -> tuple[dict, int]:
    cp = _load(jsonio.json_to_cpmap, args.channel)
    rho = _load(jsonio.json_to_matrix, args.rho)
    state = nonlinear_lift(qcp_from_channel(cp), rho)
    return {"state": jsonio.factored_to_json(state)}, 0


def cmd_lift_circulant(args) -> tuple[dict, int]:
    profiles = _load(jsonio.json_to_profiles, args.profiles)
    rho = _load(jsonio.json_to_matrix, args.rho)
    return {"state": jsonio.factored_to_json(circulant_lift(profiles, rho))}, 0


def cmd_lift_bell(args) -> tuple[dict, int]:
    p = _load(jsonio.json_to_vector, args.p)
    rho = _load(jsonio.json_to_matrix, args.rho)
    state, spectrum = bell_diagonal_lift(p, rho)
    return {
        "state": jsonio.factored_to_json(state),
        "spectrum": jsonio.bell_spectrum_to_json(spectrum),
    }, 0


def cmd_lift_nlift(args) -> tuple[dict, int]:
    tensor = _load(jsonio.json_to_tensor_data, args.tensor)
    p = _load(jsonio.json_to_vector, args.p)
    return {"state": jsonio.factored_to_json(n_lift(tensor, p, args.parties))}, 0


def cmd_verify(args) -> tuple[dict, int]:
    report = verify.run_suite(args.suite, _seed_value(args), args.trials, args.tol)
    return report.to_json(), 0 if report.passed else 1


def cmd_teleport(args) -> tuple[dict, int]:
    p = _load(jsonio.json_to_vector, args.p)
    perm = _load(jsonio.json_to_permutation, args.perm)
    bob, corrected = classical_teleport(p, perm)
    return {
        # corrected is rho_a itself, as the library validated it
        "rho_a": jsonio.vector_to_json(corrected),
        "channel": jsonio.matrix_to_json(permutation_channel(perm)),
        "bob_state": jsonio.vector_to_json(bob),
        "corrected": jsonio.vector_to_json(corrected),
    }, 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liftlab",
        description="Classical and quantum liftings: channels, compound states, and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    channel = sub.add_parser("channel", help="classical channels and their representations")
    chsub = channel.add_subparsers(dest="subcommand", required=True)

    kraus = chsub.add_parser("kraus", help="operator decomposition of a weight matrix")
    kraus.add_argument("--matrix", required=True, help="channel weights (JSON or @path)")
    kraus.add_argument("--verify", action="store_true", help="self-check the action on random states")
    kraus.add_argument("--seed", type=int, default=None)
    kraus.add_argument("--trials", type=int, default=20)

    dilate = chsub.add_parser("dilate", help="channel from an ancilla permutation dilation")
    dilate.add_argument("--n", type=int, required=True, help="system size")
    dilate.add_argument("--perm", required=True, help="permutation images on the n*n joint space")
    dilate.add_argument("--sigma", required=True, help="ancilla distribution")

    apply_p = chsub.add_parser("apply", help="push a distribution through a channel")
    apply_p.add_argument("--matrix", required=True)
    apply_p.add_argument("--state", required=True)

    lift_p = sub.add_parser("lift", help="classical and quantum liftings")
    lsub = lift_p.add_subparsers(dest="subcommand", required=True)

    lcl = lsub.add_parser("classical", help="two-party lifting from a tensor")
    lcl.add_argument("--tensor", required=True, help='{"n1", "n2", "data"} (JSON or @path)')
    lcl.add_argument("--p", required=True, help="input distribution")
    lcl.set_defaults(parties=2)  # the two-party case of nlift

    loh = lsub.add_parser("ohya", help="spectral copying lift of a state")
    loh.add_argument("--rho", required=True, help="input state matrix")
    loh.add_argument("--parties", type=int, default=2)

    lqcp = lsub.add_parser("qcp", help="two-slot operator of a unital channel")
    lqcp.add_argument("--channel", required=True, help='{"d", "units"} (JSON or @path)')

    lnl = lsub.add_parser("nonlinear", help="compound state of a channel over an input state")
    lnl.add_argument("--channel", required=True)
    lnl.add_argument("--rho", required=True)

    lci = lsub.add_parser("circulant", help="block lifting along fixed profiles")
    lci.add_argument("--profiles", required=True, help="JSON list of unit-trace PSD matrices")
    lci.add_argument("--rho", required=True)

    lbe = lsub.add_parser("bell", help="lifting with a Bell-diagonal output")
    lbe.add_argument("--p", required=True, help="phase weights")
    lbe.add_argument("--rho", required=True)

    lnn = lsub.add_parser("nlift", help="iterated lifting to N parties")
    lnn.add_argument("--tensor", required=True)
    lnn.add_argument("--p", required=True)
    lnn.add_argument("--parties", type=int, required=True)

    ver = sub.add_parser("verify", help="run invariant suites and report")
    ver.add_argument("suite", choices=list(verify.SUITE_NAMES))
    ver.add_argument("--seed", type=int, default=None)
    ver.add_argument("--trials", type=int, default=100)
    ver.add_argument("--tol", type=float, default=None, help="override every check tolerance")

    tel = sub.add_parser("teleport", help="permutation teleportation transcript")
    tel.add_argument("--p", required=True, help="distribution to send")
    tel.add_argument("--perm", required=True, help="shared permutation")

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
    args = build_parser().parse_args(argv)
    try:
        document, code = args.func(args)
        pieces = jsonio.canonical_pieces(document)  # every check runs here
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.writelines(pieces)
        else:
            sys.stdout.writelines(pieces)
        return code
    except (SchemaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MathDomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
