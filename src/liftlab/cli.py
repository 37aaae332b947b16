"""Command-line front end.

All inputs and outputs are JSON: flag values hold inline JSON or @path to a
file, and every command prints one canonical JSON document (or writes it
with --out). Exit codes: 0 success, 1 failed verification check, 2 usage or
schema problem, 3 math-domain problem (non-positive state, non-unital
channel, and so on). LIFTLAB_SEED supplies the seed when --seed is absent.
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
    as_channel,
    as_permutation,
    as_probability_vector,
    channel_from_dilation,
    is_doubly_stochastic,
    kraus_from_channel,
    apply_kraus,
    permutation_channel,
    classical_teleport,
)
from .clift import lift, n_lift
from .errors import MathDomainError, SchemaError
from .qlift import nonlinear_lift, ohya_lift, qcp_from_channel
from .matcore import TOL, check_state


def _emit(payload: dict, out_path: str | None):
    text = jsonio.canonical_dumps(payload)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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


def _real_matrix(text: str, what: str) -> np.ndarray:
    m = jsonio.json_to_matrix(jsonio.load_argument(text))
    if np.abs(m.imag).max(initial=0.0) > 0.0:
        raise SchemaError(f"{what} must be real")
    return m.real


def _vector(text: str) -> np.ndarray:
    return jsonio.json_to_vector(jsonio.load_argument(text))


def _permutation(text: str) -> np.ndarray:
    return as_permutation(jsonio.json_to_permutation(jsonio.load_argument(text)))


def _state_matrix(text: str) -> np.ndarray:
    m = jsonio.json_to_matrix(jsonio.load_argument(text))
    return check_state(m).matrix


def cmd_channel_kraus(args) -> int:
    w = as_channel(_real_matrix(args.matrix, "channel matrix"))
    ops = kraus_from_channel(w)
    payload = {"kraus": [jsonio.matrix_to_json(k) for k in ops]}
    code = 0
    if args.verify:
        if args.trials < 1:
            raise SchemaError(f"trials must be at least 1, got {args.trials}")
        g = sampling.rng(_seed_value(args))
        dev = 0.0
        for _ in range(args.trials):
            p = sampling.probability_vector(g, w.shape[0])
            via_kraus = np.diag(apply_kraus(ops, np.diag(p.astype(complex)))).real
            dev = max(dev, float(np.abs(via_kraus - apply_to_state(w, p)).max()))
        passed = dev <= TOL
        payload["self_check"] = {
            "max_deviation": dev,
            "tolerance": TOL,
            "passed": passed,
        }
        code = 0 if passed else 1
    _emit(payload, args.out)
    return code


def cmd_channel_dilate(args) -> int:
    perm = _permutation(args.perm)
    sigma = as_probability_vector(_vector(args.sigma))
    if args.n * args.n != perm.size:
        raise SchemaError(f"permutation has {perm.size} images, expected {args.n * args.n}")
    w = channel_from_dilation(perm, sigma)
    _emit({
        "weights": jsonio.matrix_to_json(w),
        "doubly_stochastic": is_doubly_stochastic(w, TOL),
    }, args.out)
    return 0


def cmd_channel_apply(args) -> int:
    w = as_channel(_real_matrix(args.matrix, "channel matrix"))
    p = as_probability_vector(_vector(args.state))
    _emit({"state": jsonio.vector_to_json(apply_to_state(w, p))}, args.out)
    return 0


def cmd_lift_classical(args) -> int:
    tensor = jsonio.json_to_tensor_data(jsonio.load_argument(args.tensor))
    p = as_probability_vector(_vector(args.p))
    _emit({"state": jsonio.factored_to_json(lift(tensor, p))}, args.out)
    return 0


def cmd_lift_ohya(args) -> int:
    rho = _state_matrix(args.rho)
    state = ohya_lift(rho, args.parties)
    _emit({"state": jsonio.factored_to_json(state)}, args.out)
    return 0


def cmd_lift_qcp(args) -> int:
    cp = jsonio.json_to_cpmap(jsonio.load_argument(args.channel))
    q = qcp_from_channel(cp)
    _emit({"operator": jsonio.factored_to_json(q.op)}, args.out)
    return 0


def cmd_lift_nonlinear(args) -> int:
    cp = jsonio.json_to_cpmap(jsonio.load_argument(args.channel))
    rho = _state_matrix(args.rho)
    state = nonlinear_lift(qcp_from_channel(cp), rho)
    _emit({"state": jsonio.factored_to_json(state)}, args.out)
    return 0


def cmd_lift_circulant(args) -> int:
    raw = jsonio.load_argument(args.profiles)
    if not isinstance(raw, list) or not raw:
        raise SchemaError("profiles must be a non-empty JSON list of matrices")
    profiles = np.stack([jsonio.json_to_matrix(b) for b in raw])
    rho = _state_matrix(args.rho)
    _emit({"state": jsonio.factored_to_json(circulant_lift(profiles, rho))}, args.out)
    return 0


def cmd_lift_bell(args) -> int:
    p = as_probability_vector(_vector(args.p))
    rho = _state_matrix(args.rho)
    state, spectrum = bell_diagonal_lift(p, rho)
    _emit({
        "state": jsonio.factored_to_json(state),
        "spectrum": jsonio.bell_spectrum_to_json(spectrum),
    }, args.out)
    return 0


def cmd_lift_nlift(args) -> int:
    tensor = jsonio.json_to_tensor_data(jsonio.load_argument(args.tensor))
    p = as_probability_vector(_vector(args.p))
    _emit({"state": jsonio.factored_to_json(n_lift(tensor, p, args.parties))}, args.out)
    return 0


def cmd_verify(args) -> int:
    report = verify.run_suite(args.suite, _seed_value(args), args.trials, args.tol)
    _emit(report.to_json(), args.out)
    return 0 if report.passed else 1


def cmd_teleport(args) -> int:
    p = as_probability_vector(_vector(args.p))
    perm = _permutation(args.perm)
    bob, corrected = classical_teleport(p, perm)
    _emit({
        "rho_a": jsonio.vector_to_json(p),
        "channel": jsonio.matrix_to_json(permutation_channel(perm)),
        "bob_state": jsonio.vector_to_json(bob),
        "corrected": jsonio.vector_to_json(corrected),
    }, args.out)
    return 0


def _add_out(parser: argparse.ArgumentParser):
    parser.add_argument("--out", default=None, help="write the JSON document here instead of stdout")


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
    _add_out(kraus)
    kraus.set_defaults(func=cmd_channel_kraus)

    dilate = chsub.add_parser("dilate", help="channel from an ancilla permutation dilation")
    dilate.add_argument("--n", type=int, required=True, help="system size")
    dilate.add_argument("--perm", required=True, help="permutation images on the n*n joint space")
    dilate.add_argument("--sigma", required=True, help="ancilla distribution")
    _add_out(dilate)
    dilate.set_defaults(func=cmd_channel_dilate)

    apply_p = chsub.add_parser("apply", help="push a distribution through a channel")
    apply_p.add_argument("--matrix", required=True)
    apply_p.add_argument("--state", required=True)
    _add_out(apply_p)
    apply_p.set_defaults(func=cmd_channel_apply)

    lift_p = sub.add_parser("lift", help="classical and quantum liftings")
    lsub = lift_p.add_subparsers(dest="subcommand", required=True)

    lcl = lsub.add_parser("classical", help="two-party lifting from a tensor")
    lcl.add_argument("--tensor", required=True, help='{"n1", "n2", "data"} (JSON or @path)')
    lcl.add_argument("--p", required=True, help="input distribution")
    _add_out(lcl)
    lcl.set_defaults(func=cmd_lift_classical)

    loh = lsub.add_parser("ohya", help="spectral copying lift of a state")
    loh.add_argument("--rho", required=True, help="input state matrix")
    loh.add_argument("--parties", type=int, default=2)
    _add_out(loh)
    loh.set_defaults(func=cmd_lift_ohya)

    lqcp = lsub.add_parser("qcp", help="two-slot operator of a unital channel")
    lqcp.add_argument("--channel", required=True, help='{"d", "units"} (JSON or @path)')
    _add_out(lqcp)
    lqcp.set_defaults(func=cmd_lift_qcp)

    lnl = lsub.add_parser("nonlinear", help="compound state of a channel over an input state")
    lnl.add_argument("--channel", required=True)
    lnl.add_argument("--rho", required=True)
    _add_out(lnl)
    lnl.set_defaults(func=cmd_lift_nonlinear)

    lci = lsub.add_parser("circulant", help="block lifting along fixed profiles")
    lci.add_argument("--profiles", required=True, help="JSON list of unit-trace PSD matrices")
    lci.add_argument("--rho", required=True)
    _add_out(lci)
    lci.set_defaults(func=cmd_lift_circulant)

    lbe = lsub.add_parser("bell", help="lifting with a Bell-diagonal output")
    lbe.add_argument("--p", required=True, help="phase weights")
    lbe.add_argument("--rho", required=True)
    _add_out(lbe)
    lbe.set_defaults(func=cmd_lift_bell)

    lnn = lsub.add_parser("nlift", help="iterated lifting to N parties")
    lnn.add_argument("--tensor", required=True)
    lnn.add_argument("--p", required=True)
    lnn.add_argument("--parties", type=int, required=True)
    _add_out(lnn)
    lnn.set_defaults(func=cmd_lift_nlift)

    ver = sub.add_parser("verify", help="run invariant suites and report")
    ver.add_argument("suite", choices=list(verify.SUITE_NAMES))
    ver.add_argument("--seed", type=int, default=None)
    ver.add_argument("--trials", type=int, default=100)
    ver.add_argument("--tol", type=float, default=None, help="override every check tolerance")
    _add_out(ver)
    ver.set_defaults(func=cmd_verify)

    tel = sub.add_parser("teleport", help="permutation teleportation transcript")
    tel.add_argument("--p", required=True, help="distribution to send")
    tel.add_argument("--perm", required=True, help="shared permutation")
    _add_out(tel)
    tel.set_defaults(func=cmd_teleport)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MathDomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
