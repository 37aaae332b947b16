"""The four workloads: seeded inputs, the ops of one pass, and per-op checks.

A workload is built once per worker from the benchmark seed. Every pass runs
the same multiset of ops (the sizes below are fixed ladders) in an order
shuffled from the seed; the seed sets the matrix contents, the op order and,
in `cli_mix`, which error classes are drawn. Fixing the ladder keeps the
latency distribution the same from seed to seed, so runs with different
seeds are comparable.

Each op's `run` is the timed call. Its `check` runs after the timer stops
and raises `CheckFailed` when the output is wrong; the checks recompute the
identities with plain numpy rather than with liftlab.
"""
from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from math import prod
from typing import Callable

import numpy as np

import liftlab
from liftlab import jsonio, sampling

HERE = os.path.dirname(os.path.abspath(__file__))
TOL = 1e-9
VERIFY_TRIALS = 40
VERIFY_CHECKS = 34

# Wall seconds of one pass when the benchmark was added (one BLAS thread, 2-core
# x86-64). A run makes round(seconds / nominal) passes, so both sides of a
# comparison time exactly the same ops.
NOMINAL_PASS_S = {"cli_mix": 8.0, "verify_all": 0.55, "pair_kernels": 0.45, "chain_parties": 3.6}


class CheckFailed(Exception):
    """An op's output, exit code or stream contents is wrong."""


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]
    error_class: str | None = None
    bytes_in: int = 0
    child: dict = field(default_factory=dict)


def _close(got, want, what: str, tol: float = TOL):
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        raise CheckFailed(f"{what}: shape {got.shape}, expected {want.shape}")
    dev = float(np.abs(got - want).max(initial=0.0))
    if not dev <= tol:
        raise CheckFailed(f"{what}: deviation {dev:.3e} above {tol:.0e}")


def keep_right(m: np.ndarray, dims, k: int) -> np.ndarray:
    """Trace out every slot but the k rightmost."""
    left, right = prod(dims[:-k]), prod(dims[-k:])
    return np.einsum("aiaj->ij", np.asarray(m).reshape(left, right, left, right))


def marginal(m: np.ndarray, dims, pos: int) -> np.ndarray:
    """Single-slot marginal at 0-based position pos, counted from the left."""
    left, d, right = prod(dims[:pos]), dims[pos], prod(dims[pos + 1:])
    return np.einsum("aibajb->ij", np.asarray(m).reshape(left, d, right, left, d, right))


def transpose_right(m: np.ndarray, d: int) -> np.ndarray:
    return np.asarray(m).reshape(d, d, d, d).transpose(0, 3, 2, 1).reshape(d * d, d * d)


def subspace_rows(d: int, alpha: int) -> np.ndarray:
    """Row indices of e_i x e_{i+alpha}."""
    i = np.arange(d)
    return i * d + (i + alpha) % d


def check_bell(state: np.ndarray, p: np.ndarray, rho: np.ndarray):
    """The lift is diagonal in the Bell basis with eigenvalue p_m rho_nn on
    (I x U_mn)|Phi+>, whose support is e_i x e_{i+n} with amplitude
    lambda^{mi}/sqrt(d)."""
    d = p.size
    i = np.arange(d)
    amp = np.exp(2j * np.pi * np.outer(i, i) / d) / np.sqrt(d)  # amp[i, m]
    diag = np.real(np.diag(rho))
    for n in range(d):
        rows = subspace_rows(d, n)
        image = state[:, rows] @ amp
        want = np.zeros_like(image)
        want[rows] = amp * (p * diag[n])
        _close(image, want, f"Bell eigenvector n={n}")


def check_blocks(state: np.ndarray, blocks: np.ndarray):
    d = blocks.shape[0]
    for alpha in range(d):
        rows = subspace_rows(d, alpha)
        _close(state[np.ix_(rows, rows)], blocks[alpha], f"block {alpha}")
    _close(np.trace(state), 1.0, "trace")


def _shuffled(ops: list[Op], rng: random.Random) -> list[Op]:
    out = list(ops)
    rng.shuffle(out)
    return out


class InProcess:
    """Base for workloads whose ops call liftlab in this process."""

    def __init__(self, seed: int):
        self.g = sampling.rng(seed)
        self.order = random.Random(seed)
        self.ops: list[Op] = []

    def pass_ops(self, index: int) -> list[Op]:
        return _shuffled(self.ops, self.order)

    def warm_ops(self) -> list[Op]:
        return self.pass_ops(-1)


class VerifyAll(InProcess):
    """One op is `verify.run_suite("all", seed_k, VERIFY_TRIALS)` with a
    fresh seed per op."""

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed)
        self.seed = seed

    def pass_ops(self, index: int) -> list[Op]:
        seed_k = self.seed * 100_003 + index

        def check(report):
            if len(report.checks) != VERIFY_CHECKS:
                raise CheckFailed(f"{len(report.checks)} checks, expected {VERIFY_CHECKS}")
            failed = [c.name for c in report.checks if not c.passed]
            if failed:
                raise CheckFailed(f"checks failed: {', '.join(failed)}")

        def run():
            return liftlab.run_suite("all", seed_k, VERIFY_TRIALS)

        return [Op(f"verify all trials={VERIFY_TRIALS}", run, check)]


class PairKernels(InProcess):
    """Two-party constructions swept in d."""

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed)
        g = self.g
        for d in (16, 24, 32):
            self._circulant(g, d)
            self._bell(g, d)
            self._circulant_lift(g, d)
        for d in (8, 10, 16):
            self._kraus(g, d)
        for d in (8, 12, 16):
            self._nonlinear(g, d)
        # The ladders are set so that the median of the 17 kinds is
        # partial_transpose d=32, at least 1.1x from both neighbours. Its
        # copy-bound cost drifts least with the shared machine's speed, and
        # a median that falls between two near-equal kinds would swap
        # between them from run to run.
        self._partial(g, 32)

    def _circulant(self, g, d):
        spec = sampling.circulant_spec(g, d)
        blocks = np.asarray(spec.blocks)

        def check(out):
            state, (_ok, lows) = out
            check_blocks(state.matrix, blocks)
            if d <= 16:
                lo = np.linalg.eigvalsh(transpose_right(state.matrix, d))[0]
                _close(float(np.min(lows)), lo, "PPT block minimum vs generic partial transpose")

        self.ops.append(Op(f"circulant+ppt d={d}",
                           lambda: (liftlab.build_circulant(spec), liftlab.is_ppt_circulant(spec)), check))

    def _bell(self, g, d):
        p, rho = sampling.probability_vector(g, d), sampling.density(g, d)

        def check(out):
            state, spectrum = out
            _close(spectrum.p, np.outer(p, np.real(np.diag(rho))), "Bell spectrum")
            check_bell(state.matrix, p, rho)

        self.ops.append(Op(f"bell_lift d={d}", lambda: liftlab.bell_diagonal_lift(p, rho), check))

    def _circulant_lift(self, g, d):
        profiles = np.array([sampling.density(g, d) for _ in range(d)])
        rho = sampling.density(g, d)
        blocks = np.real(np.diag(rho))[:, None, None] * profiles
        self.ops.append(Op(f"circulant_lift d={d}", lambda: liftlab.circulant_lift(profiles, rho),
                           lambda out: check_blocks(out.matrix, blocks)))

    def _kraus(self, g, d):
        v = sampling.unitary(g, d * d)[:, :d]
        ks = [b.conj().T for b in v.reshape(d, d, d)]
        want = np.einsum("kai,kbj->ijab", ks, np.conj(ks))
        self.ops.append(Op(f"cp_from_kraus d={d}", lambda: liftlab.cp_from_kraus(ks),
                           lambda out: _close(out.units, want, "unit images")))

    def _nonlinear(self, g, d):
        cp, rho = sampling.unital_cpmap(g, d), sampling.faithful_density(g, d)
        self.ops.append(Op(f"qcp+nonlinear d={d}",
                           lambda: liftlab.nonlinear_lift(liftlab.qcp_from_channel(cp), rho),
                           lambda out: _close(keep_right(out.matrix, out.dims, 1), rho, "right marginal")))

    def _partial(self, g, d):
        profiles = np.array([sampling.density(g, d) for _ in range(d)])
        state = liftlab.circulant_lift(profiles, sampling.density(g, d))
        m = state.matrix
        self.ops.append(Op(f"partial_transpose d={d}", lambda: liftlab.partial_transpose(state, 1),
                           lambda out: _close(out.matrix, transpose_right(m, d), "partial transpose")))
        self.ops.append(Op(f"partial_trace d={d}", lambda: liftlab.partial_trace(state, {1}),
                           lambda out: _close(out.matrix, keep_right(m, (d, d), 1), "partial trace")))


class ChainParties(InProcess):
    """N-party constructions swept in N."""

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed)
        g = self.g
        for d, parties in ((2, (7, 8, 9, 10)), (3, (5, 6))):
            pi = liftlab.qcp_from_channel(sampling.unital_cpmap(g, d))
            rho = sampling.faithful_density(g, d)
            for n in parties:
                self._chain(pi, rho, n)
        # Second inputs at the bottom of both ladders put 13 of the 27 kinds
        # below n_nonlinear_lift d=2 N=8 and 13 above it, so the median op
        # (op_p50_s) is the middle of that kind's samples: a compute-bound
        # kind 1.3x above its lower neighbour and 3x below its upper one.
        # Without them the median falls among the N=11 n_lift and markov_state
        # ops, whose allocation cost moves on its own from run to run.
        for d, n in ((2, 7), (3, 5)):
            pi, rho = liftlab.qcp_from_channel(sampling.unital_cpmap(g, d)), sampling.faithful_density(g, d)
            self._chain(pi, rho, n, tag=" (second input)")
        # Two more inputs for the slowest op. A 22-s run then holds 18 of its
        # samples, and the eleventh-slowest op of the run (the tail) sits in
        # their middle: a statistic over the whole run, away from the edges
        # where the page-fault-bound N=12 ops (0.2 s or 0.4 s, bimodal)
        # overlap it.
        for tag in (" (second input)", " (third input)"):
            pi, rho = liftlab.qcp_from_channel(sampling.unital_cpmap(g, 2)), sampling.faithful_density(g, 2)
            self._chain(pi, rho, 10, compose=False, tag=tag)
        tensor, p = sampling.lifting_tensor(g, 2, 2), sampling.probability_vector(g, 2)
        spec = sampling.markov_spec(g, 2)
        for n in (10, 11, 12):
            self.ops.append(Op(f"n_lift N={n}", lambda n=n: liftlab.n_lift(tensor, p, n), self._weights))
            self.ops.append(Op(f"markov_state N={n}", lambda n=n: liftlab.markov_state(spec, n), self._weights))
        rho2 = sampling.density(g, 2)
        for n in (8, 9, 10):
            self.ops.append(Op(f"ohya_lift N={n}", lambda n=n: liftlab.ohya_lift(rho2, n),
                               lambda out: self._marginals(out, rho2)))

    def _chain(self, pi, rho, n, compose=True, tag=""):
        d = pi.d
        self.ops.append(Op(f"n_nonlinear_lift d={d} N={n}{tag}", lambda: liftlab.n_nonlinear_lift(pi, rho, n),
                           lambda out: _close(keep_right(out.matrix, out.dims, 1), rho, "right marginal")))
        if compose:
            self.ops.append(Op(f"n_compose_qcp d={d} N={n}{tag}", lambda: liftlab.n_compose_qcp([pi] * (n - 1)),
                               lambda out: _close(keep_right(out.matrix, out.dims, 2), pi.matrix,
                                                  "innermost link")))

    def warm_ops(self) -> list[Op]:
        """One op of each function, at the bottom of its ladder. A full pass
        takes about 4 s, and a run sets up three times."""
        seen: set[str] = set()
        warm = []
        for op in self.ops:
            name = op.kind.split()[0]
            if name not in seen:
                seen.add(name)
                warm.append(op)
        return warm

    @staticmethod
    def _weights(out):
        w = np.real(np.diagonal(out.matrix))
        _close(w.sum(), 1.0, "weight sum")
        if w.min() < -TOL:
            raise CheckFailed(f"negative weight {w.min():.3e}")

    @staticmethod
    def _marginals(out, rho):
        for pos in range(len(out.dims)):
            _close(marginal(out.matrix, out.dims, pos), rho, f"marginal {pos}")


# ---- cli_mix ---------------------------------------------------------------

def strict_json(text: str):
    def reject(token):
        raise CheckFailed(f"non-finite token {token} in output")

    try:
        return json.loads(text, parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"invalid JSON on stdout: {exc}") from None


def decode_matrix(obj) -> np.ndarray:
    a = np.asarray(obj["data"], dtype=float).reshape(-1, 2)
    return (a[:, 0] + 1j * a[:, 1]).reshape(obj["rows"], obj["cols"])


# README exit-code classes: 2 malformed input, 3 outside the math domain.
ERROR_CLASSES = {
    "bad JSON": 2, "wrong shape": 2, "unreadable file": 2, "usage error": 2,
    "not a state": 3, "not PSD": 3, "not normalized": 3,
}


class CliMix:
    """Cold `python -m liftlab.cli` calls on @file inputs written at set-up."""

    # With two error-path requests (about 0.2 s each) a pass has 18 calls: 8
    # faster than `channel apply n=384 nested` and `lift qcp d=10`, which
    # swap places from run to run, and 8 slower. So op_p50_s is the middle
    # of those two kinds' samples, about 1.2x from the calls on either side.
    ERRORS_PER_PASS = 2

    def __init__(self, seed: int, workdir: str, launcher: bool = False):
        self.g = sampling.rng(seed)
        self.order = random.Random(seed)
        self.dir = os.path.join(workdir, "inputs")
        os.makedirs(self.dir)
        self.launcher = launcher
        self.ops: list[Op] = []
        self.errors: dict[str, list[Op]] = {name: [] for name in ERROR_CLASSES}
        self._build()

    # -- inputs --
    def _file(self, name: str, obj) -> str:
        path = os.path.join(self.dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            if isinstance(obj, str):
                fh.write(obj)
            else:
                json.dump(obj, fh)
        return path

    def _op(self, kind, argv, check, error_class=None):
        size = sum(os.path.getsize(a[1:]) if a.startswith("@") and os.path.isfile(a[1:]) else len(a) for a in argv)
        op = Op(kind, None, None, error_class, size)
        op.run = lambda: self.call(op, argv)
        op.check = check
        if error_class is None:
            self.ops.append(op)
        else:
            self.errors[error_class].append(op)

    def call(self, op: Op, argv: list[str]):
        if self.launcher:
            spans = os.path.join(self.dir, "spans.json")
            if os.path.exists(spans):
                os.remove(spans)
            cmd = [sys.executable, os.path.join(HERE, "launcher.py"), spans, *argv]
        else:
            cmd = [sys.executable, "-m", "liftlab.cli", *argv]
        proc = subprocess.run(cmd, capture_output=True, timeout=120)
        if self.launcher:
            with open(spans, encoding="utf-8") as fh:
                op.child["spans"] = json.load(fh)
        op.child["bytes_out"] = len(proc.stdout)
        return proc

    def _build(self):
        g = self.g
        f, mj = self._file, jsonio.matrix_to_json

        # small calls
        n = 8
        p8, perm8 = sampling.probability_vector(g, n), sampling.permutation(g, n)
        self._op("teleport", ["teleport", "--p", "@" + f("p8.json", p8.tolist()),
                              "--perm", "@" + f("perm8.json", perm8.tolist())],
                 self._ok(lambda o: self._teleport(o, p8)))
        w8, q8 = sampling.stochastic(g, n, n), sampling.probability_vector(g, n)
        self._op("channel apply n=8", ["channel", "apply", "--matrix", "@" + f("w8.json", w8.tolist()),
                                       "--state", "@" + f("q8.json", q8.tolist())],
                 self._ok(lambda o: _close(o["state"], w8.T @ q8, "pushed state")))
        w4 = sampling.stochastic(g, 4, 4)
        kraus_seed = str(int(g.integers(1 << 30)))
        self._op("channel kraus n=4", ["channel", "kraus", "--matrix", "@" + f("w4.json", w4.tolist()),
                                       "--verify", "--seed", kraus_seed, "--trials", "20"],
                 self._ok(lambda o: self._kraus(o, w4)))
        perm9, sigma3 = sampling.permutation(g, 9), sampling.probability_vector(g, 3)
        self._op("channel dilate n=3", ["channel", "dilate", "--n", "3",
                                        "--perm", "@" + f("perm9.json", perm9.tolist()),
                                        "--sigma", "@" + f("sigma3.json", sigma3.tolist())],
                 self._ok(lambda o: self._dilate(o, perm9, sigma3)))

        # encode-heavy calls
        for d in (16, 24):
            p, rho = sampling.probability_vector(g, d), sampling.density(g, d)
            self._op(f"lift bell d={d}", ["lift", "bell", "--p", "@" + f(f"bp{d}.json", p.tolist()),
                                          "--rho", "@" + f(f"brho{d}.json", mj(rho))],
                     self._ok(lambda o, p=p, rho=rho: self._bell(o, p, rho)))
        for d in (16, 20):
            profiles = np.array([sampling.density(g, d) for _ in range(d)])
            rho = sampling.density(g, d)
            blocks = np.real(np.diag(rho))[:, None, None] * profiles
            self._op(f"lift circulant d={d}",
                     ["lift", "circulant", "--profiles", "@" + f(f"prof{d}.json", [mj(b) for b in profiles]),
                      "--rho", "@" + f(f"crho{d}.json", mj(rho))],
                     self._ok(lambda o, blocks=blocks: check_blocks(decode_matrix(o["state"]), blocks)))
        for d in (8, 12):
            cp, rho = sampling.unital_cpmap(g, d), sampling.faithful_density(g, d)
            chan = "@" + f(f"chan{d}.json", jsonio.cpmap_to_json(cp))
            self._op(f"lift nonlinear d={d}", ["lift", "nonlinear", "--channel", chan,
                                               "--rho", "@" + f(f"nrho{d}.json", mj(rho))],
                     self._ok(lambda o, rho=rho: self._right_marginal(o["state"], rho, 1)))
        cp10 = sampling.unital_cpmap(g, 10)
        self._op("lift qcp d=10", ["lift", "qcp", "--channel", "@" + f("chan10.json", jsonio.cpmap_to_json(cp10))],
                 self._ok(lambda o: self._right_marginal(o["operator"], np.eye(10), 1)))
        tensor, pt = sampling.lifting_tensor(g, 2, 2), sampling.probability_vector(g, 2)
        tfile, pfile = "@" + f("tensor.json", jsonio.lifting_tensor_to_json(tensor)), "@" + f("pt.json", pt.tolist())
        for parties in (6, 8):
            self._op(f"lift nlift N={parties}", ["lift", "nlift", "--tensor", tfile, "--p", pfile,
                                                 "--parties", str(parties)],
                     self._ok(self._weights))
        rho3 = sampling.density(g, 3)
        self._op("lift ohya d=3 N=5", ["lift", "ohya", "--rho", "@" + f("orho.json", mj(rho3)), "--parties", "5"],
                 self._ok(lambda o: self._marginals(o["state"], rho3)))

        # decode-heavy calls: large channel matrix in, one vector out
        big = 384
        wb, qb = sampling.stochastic(g, big, big), sampling.probability_vector(g, big)
        qfile = "@" + f("qbig.json", qb.tolist())
        for fmt, payload in (("pairs", mj(wb)), ("nested", wb.tolist())):
            self._op(f"channel apply n={big} {fmt}",
                     ["channel", "apply", "--matrix", "@" + f(f"wbig_{fmt}.json", payload), "--state", qfile],
                     self._ok(lambda o: _close(o["state"], wb.T @ qb, "pushed state")))

        self._build_errors(g)

    def _build_errors(self, g):
        mj = jsonio.matrix_to_json

        def at(name, obj):
            return "@" + self._file(name, obj)

        def err(cls, kind, argv):
            self._op(kind, argv, self._fails(ERROR_CLASSES[cls]), cls)

        n = int(g.integers(2, 5))
        w, q = sampling.stochastic(g, n, n), sampling.probability_vector(g, n)
        wfile, qfile = at("ew.json", w.tolist()), at("eq.json", q.tolist())
        rfile = at("erho.json", mj(sampling.density(g, 2)))
        text = json.dumps(w.tolist())
        inf = text.replace(repr(float(w[0, 0])), "Infinity", 1)
        p3 = sampling.probability_vector(g, 3).tolist()
        twice = 2.0 * sampling.density(g, 2)
        identity = jsonio.cpmap_to_json(liftlab.cp_identity(2))
        bad_profiles = [mj(sampling.density(g, 2)), mj(np.array([[0.5, 0.7], [0.7, 0.5]]))]
        e = np.eye(2)
        transpose = {"d": 2, "units": [mj(np.outer(e[j], e[i])) for i in range(2) for j in range(2)]}
        half_tensor = jsonio.lifting_tensor_to_json(sampling.lifting_tensor(g, 2, 2) * 0.5)
        p2 = sampling.probability_vector(g, 2).tolist()

        apply = ["channel", "apply", "--matrix"]
        err("bad JSON", "truncated matrix", [*apply, at("trunc.json", text[: len(text) // 2]), "--state", qfile])
        err("bad JSON", "NaN in state", [*apply, wfile, "--state", at("nan.json", "[NaN" + ", 0.5" * (n - 1) + "]")])
        err("bad JSON", "Infinity in matrix", ["channel", "kraus", "--matrix", at("inf.json", inf)])
        err("wrong shape", "state longer than channel", [*apply, wfile, "--state", at("qlong.json", [*q.tolist(), 0.0])])
        err("wrong shape", "weights longer than rho", ["lift", "bell", "--rho", rfile, "--p", at("p3.json", p3)])
        err("unreadable file", "missing file", [*apply, "@" + os.path.join(self.dir, "missing.json"), "--state", qfile])
        err("unreadable file", "directory", ["lift", "ohya", "--rho", "@" + self.dir])
        err("usage error", "missing flag", [*apply, wfile])
        err("usage error", "unknown command", ["channel", "squash", "--matrix", wfile])
        err("not a state", "trace two", ["lift", "ohya", "--rho", at("twice.json", mj(twice))])
        err("not a state", "negative eigenvalue", ["lift", "nonlinear", "--channel", at("ident.json", identity),
                                                   "--rho", at("neg.json", mj(np.diag([1.2, -0.2])))])
        err("not PSD", "circulant profile", ["lift", "circulant", "--profiles", at("badprof.json", bad_profiles),
                                             "--rho", rfile])
        err("not PSD", "transpose map", ["lift", "qcp", "--channel", at("transpose.json", transpose)])
        err("not normalized", "state sums to 0.7", [*apply, wfile, "--state", at("half.json", (q * 0.7).tolist())])
        err("not normalized", "tensor slices sum to 0.5", ["lift", "classical", "--tensor", at("halftensor.json", half_tensor),
                                                          "--p", at("pt2.json", p2)])

    def warm_ops(self) -> list[Op]:
        return self.ops[:1]

    def pass_ops(self, index: int) -> list[Op]:
        picks = []
        for _ in range(self.ERRORS_PER_PASS):
            cls = self.order.choice(sorted(self.errors))
            picks.append(self.order.choice(self.errors[cls]))
        return _shuffled(self.ops + picks, self.order)

    # -- checks --
    @staticmethod
    def _ok(body):
        def check(proc):
            if proc.returncode != 0:
                raise CheckFailed(f"exit {proc.returncode}: {proc.stderr.decode(errors='replace')[-300:]}")
            body(strict_json(proc.stdout.decode()))
        return check

    @staticmethod
    def _fails(code):
        def check(proc):
            if proc.returncode != code:
                raise CheckFailed(f"exit {proc.returncode}, expected {code}")
            if b"Traceback" in proc.stderr:
                raise CheckFailed("traceback on stderr")
            if proc.stdout.strip():
                raise CheckFailed("output on stdout")
        return check

    @staticmethod
    def _teleport(o, p):
        _close(o["corrected"], p, "corrected state")
        _close(sorted(o["bob_state"]), sorted(p), "Bob's state is a permutation of p")

    @staticmethod
    def _kraus(o, w):
        ks = np.array([decode_matrix(k) for k in o["kraus"]])
        q = np.arange(1.0, w.shape[0] + 1) / (w.shape[0] * (w.shape[0] + 1) / 2)
        rho = np.einsum("kai,i,kbi->ab", ks, q, ks.conj())
        _close(np.real(np.diag(rho)), w.T @ q, "Kraus action")
        if not o["self_check"]["passed"]:
            raise CheckFailed("self check failed")

    @staticmethod
    def _dilate(o, perm, sigma):
        n = sigma.size
        want = np.zeros((n, n))
        for j in range(n):
            for k in range(n):
                want[j, perm[j * n + k] // n] += sigma[k]
        _close(np.real(decode_matrix(o["weights"])), want, "dilated channel")
        if o["doubly_stochastic"] != bool(np.allclose(want.sum(axis=0), 1.0, atol=1e-9)):
            raise CheckFailed("doubly_stochastic flag disagrees with column sums")

    @staticmethod
    def _bell(o, p, rho):
        _close(np.array(o["spectrum"]["p"]), np.outer(p, np.real(np.diag(rho))), "Bell spectrum")
        check_bell(decode_matrix(o["state"]), p, rho)

    @staticmethod
    def _right_marginal(obj, want, k):
        _close(keep_right(decode_matrix(obj), obj["dims"], k), want, "right marginal")

    @staticmethod
    def _weights(o):
        w = np.real(np.diagonal(decode_matrix(o["state"])))
        _close(w.sum(), 1.0, "weight sum")
        if w.min() < -TOL:
            raise CheckFailed(f"negative weight {w.min():.3e}")

    @staticmethod
    def _marginals(obj, rho):
        m = decode_matrix(obj)
        for pos in range(len(obj["dims"])):
            _close(marginal(m, obj["dims"], pos), rho, f"marginal {pos}")


WORKLOADS = {
    "cli_mix": CliMix,
    "verify_all": VerifyAll,
    "pair_kernels": PairKernels,
    "chain_parties": ChainParties,
}
