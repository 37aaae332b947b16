"""Invariant suites behind the verify command.

A check is one registered per-trial function: it draws random objects from
the module's seeded generator and returns the deviation of a library
identity (or one deviation per output, when several checks share a draw).
One driver repeats it, keeps the worst deviation, and compares that with
the check's tolerance. Check names are "module.property"; reports list them
sorted by name.

Registration order within a module is its draw order. Append a new check at
the end of its module so existing seeds keep their measured values. With a
fixed seed (an integer >= 0) measured values are reproducible; set
SOURCE_DATE_EPOCH to pin the timestamp and make the serialized report byte
identical across runs. A tolerance override must be finite and >= 0.
"""
from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import asdict, dataclass
from datetime import datetime, timezone

import numpy as np

from . import sampling
from .circulant import (
    assemble_partial_transpose,
    bell_diagonal_lift,
    bell_state,
    build_circulant,
    circulant_lift,
    circulant_lift_isometry,
    circulant_partial_transpose,
    circulant_subspaces,
    is_ppt_circulant,
)
from .classical import (
    _kraus_deviation,
    apply_to_state,
    channel_from_dilation,
    classical_choi,
    classical_teleport,
    kraus_from_channel,
    permutation_channel,
    permutation_inverse,
)
from .clift import (
    is_markovian_lifting,
    is_nondemolition,
    gamma_lifting,
    lift,
    markov_state,
    markov_tensor,
    n_lift,
    ohya_tensor,
    separable_n_state,
    transition_expectation_sides,
)
from .errors import SchemaError
from .matcore import (
    FactoredOperator,
    _kron,
    _size,
    is_psd,
    herm_sqrt,
    partial_trace,
    partial_transpose,
    trace_out,
)
from .qlift import (
    channel_from_compound,
    choi_matrix,
    classical_cpmap,
    lifting_assisted_map,
    n_compose_qcp,
    nonlinear_lift,
    ohya_lift,
    qcp_from_channel,
    robertson_map,
)

ROBERTSON_CHOI = 0.25 * np.array(
    [[0, 0, 0, 1], [0, 2, 1, 0], [0, 1, 2, 0], [1, 0, 0, 0]], dtype=complex
)


@dataclass(frozen=True)
class Check:
    """One verified identity: worst measured deviation against a tolerance."""

    name: str
    passed: bool
    measured: float
    tolerance: float
    anchor: str

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    checks: tuple
    seed: int
    timestamp: str

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {**asdict(self), "passed": self.passed, "checks": [c.to_json() for c in self.checks]}


def _timestamp() -> str:
    stamp = os.environ.get("SOURCE_DATE_EPOCH")
    if stamp is not None:
        try:
            moment = datetime.fromtimestamp(int(stamp), tz=timezone.utc)
        except (ValueError, OverflowError, OSError):
            raise SchemaError(f"SOURCE_DATE_EPOCH must be an epoch integer, got {stamp!r}") from None
    else:
        moment = datetime.now(timezone.utc)
    return moment.strftime("%Y-%m-%dT%H:%M:%SZ")




def _dev(a, b) -> float:
    return float(np.maximum.reduce(np.abs(np.asarray(a) - np.asarray(b)), axis=None))


def _every(trials: int) -> int:
    return trials


def _at_most_20(trials: int) -> int:
    return min(trials, 20)


def _fifth(trials: int) -> int:
    return max(trials // 5, 3)


def _once(trials: int) -> int:
    return 1


_TABLE: dict[str, list] = {}


def _check(*outputs: tuple[str, str, float], repeat=_every):
    """Register a per-trial function `g -> deviation` under its module.

    Each output is (name, anchor, default tolerance); a function with several
    outputs returns one deviation per output from a single draw. `repeat`
    maps the requested trial count to the number of calls.
    """
    def register(trial):
        _TABLE.setdefault(outputs[0][0].split(".")[0], []).append((outputs, repeat, trial))
        return trial
    return register


@_check(("matcore.product-marginals", "partial trace of a product state returns each factor", 1e-12))
def _product_marginals(g):
    d2, d1 = int(g.integers(2, 4)), int(g.integers(2, 4))
    r2, r1 = sampling.density(g, d2), sampling.density(g, d1)
    op = FactoredOperator(_kron(r2, r1), (d2, d1))
    return max(_dev(partial_trace(op, {1}).matrix, r1), _dev(partial_trace(op, {2}).matrix, r2))


@_check(("matcore.trace-iteration", "tracing factors one at a time matches the joint partial trace", 1e-12))
def _trace_iteration(g):
    dims = tuple(int(g.integers(2, 4)) for _ in range(3))
    side = int(np.prod(dims))
    z = g.standard_normal((side, side)) + 1j * g.standard_normal((side, side))
    op = FactoredOperator(z / side, dims)
    once = partial_trace(op, {2})
    twice = trace_out(trace_out(op, {3}), {1})
    return max(_dev(once.matrix, twice.matrix), abs(op.trace() - once.trace()))


@_check((
    "matcore.transpose-involution",
    "partial transposition squares to the identity and keeps the trace",
    1e-12,
))
def _transpose_involution(g):
    d2, d1 = int(g.integers(2, 4)), int(g.integers(2, 4))
    side = d2 * d1
    z = g.standard_normal((side, side)) + 1j * g.standard_normal((side, side))
    op = FactoredOperator(z / side, (d2, d1))
    devs = []
    for factor in (1, 2):
        back = partial_transpose(partial_transpose(op, factor), factor)
        devs.append(_dev(back.matrix, op.matrix))
        devs.append(abs(partial_transpose(op, factor).trace() - op.trace()))
    return max(devs)


@_check(("matcore.sqrt-square", "the Hermitian square root squares back to its argument", 1e-12))
def _sqrt_square(g):
    d = int(g.integers(2, 6))
    z = g.standard_normal((d, d)) + 1j * g.standard_normal((d, d))
    m = z @ z.conj().T
    m /= np.trace(m).real
    s = herm_sqrt(m)
    return _dev(s @ s, m)


@_check(("matcore.psd-witness", "the positivity test accepts Gram matrices and rejects shifted ones", 1e-9))
def _psd_witness(g):
    d = int(g.integers(2, 6))
    z = g.standard_normal((d, d)) + 1j * g.standard_normal((d, d))
    m = z @ z.conj().T
    ok_pos, lo = is_psd(m)
    h = (z + z.conj().T) / 2
    top = float(np.linalg.eigvalsh(h).max())
    ok_neg, _ = is_psd(h - (top + 1.0) * np.eye(d))
    wrong_verdict = 1.0 if not ok_pos or ok_neg else 0.0
    return max(wrong_verdict, -min(lo, 0.0))


@_check(("classical.kraus-action", "the Kraus form reproduces the weight-matrix action on states", 1e-12))
def _kraus_action(g):
    n1, n2 = int(g.integers(2, 5)), int(g.integers(2, 5))
    w = sampling.stochastic(g, n1, n2)
    p = sampling.probability_vector(g, n1)
    return _kraus_deviation(kraus_from_channel(w), w, p)


@_check(
    ("classical.dilation-stochastic", "every dilated channel preserves total probability", 1e-12),
    repeat=_at_most_20,
)
def _dilation_stochastic(g):
    sigma = sampling.probability_vector(g, 2)
    return max(
        _dev(channel_from_dilation(perm, sigma).sum(axis=1), 1.0)
        for perm in itertools.permutations(range(4))
    )


@_check(
    (
        "classical.dilation-classified",
        "ancilla-controlled dilations are doubly stochastic, the others constant",
        1e-12,
    ),
    repeat=_at_most_20,
)
def _dilation_classified(g):
    u = float(g.uniform(0.05, 0.45))
    sigma = np.array([u, 1.0 - u])
    devs = []
    doubly = 0
    for perm in itertools.permutations(range(4)):
        w = channel_from_dilation(perm, sigma)
        ds = _dev(w.sum(axis=0), 1.0)
        const = _dev(w[0], w[1])
        if ds < 1e-6:
            doubly += 1
        devs.append(min(ds, const))
    return max(*devs, float(abs(doubly - 16)))


@_check((
    "classical.permutation-roundtrip",
    "a permutation channel composed with its inverse is the identity",
    1e-12,
))
def _permutation_roundtrip(g):
    n = int(g.integers(2, 6))
    s = sampling.permutation(g, n)
    p = sampling.probability_vector(g, n)
    w = permutation_channel(s)
    w_inv = permutation_channel(permutation_inverse(s))
    return _dev(apply_to_state(w_inv, apply_to_state(w, p)), p)


@_check(("classical.teleport-roundtrip", "the corrected teleported state equals the input", 1e-12))
def _teleport_roundtrip(g):
    n = int(g.integers(2, 6))
    s = sampling.permutation(g, n)
    p = sampling.probability_vector(g, n)
    bob, corrected = classical_teleport(p, s)
    return max(_dev(corrected, p), _dev(bob, p[permutation_inverse(s)]))


@_check((
    "classical.choi-uniform-marginal",
    "channel states of unital channels have a flat output marginal",
    1e-12,
))
def _choi_uniform_marginal(g):
    n = int(g.integers(2, 5))
    w = sampling.stochastic(g, n, n).T
    state = classical_choi(w)
    marg = partial_trace(state, {1}).matrix
    return max(_dev(marg, np.eye(n) / n), abs(state.trace() - 1.0))


@_check(("clift.lift-normalization", "liftings send states to unit-trace states", 1e-12))
def _lift_normalization(g):
    n1, n2 = int(g.integers(2, 5)), int(g.integers(2, 5))
    e = sampling.lifting_tensor(g, n1, n2)
    p = sampling.probability_vector(g, n1)
    return abs(lift(e, p).trace() - 1.0)


@_check((
    "clift.nondemolition-marginal",
    "non-demolition liftings keep the retained marginal equal to the input",
    1e-12,
))
def _nondemolition_marginal(g):
    n = int(g.integers(2, 5))
    spec = sampling.markov_spec(g, n)
    e = markov_tensor(spec.conditional)
    misclassified = 0.0 if is_nondemolition(e) else 1.0
    p = sampling.probability_vector(g, n)
    retained = trace_out(lift(e, p), {2}).matrix
    return max(misclassified, _dev(retained, np.diag(p)))


@_check(("clift.markov-detect", "Markovian tensors are recognized and their conditionals recovered", 1e-12))
def _markov_detect(g):
    n = int(g.integers(2, 5))
    spec = sampling.markov_spec(g, n)
    flag, cond = is_markovian_lifting(markov_tensor(spec.conditional))
    return _dev(cond, spec.conditional) if flag else 1.0


@_check(("clift.transition-expectation", "joint chain expectations match the nested one-step form", 1e-12))
def _transition_expectation(g):
    n = int(g.integers(2, 4))
    parties = int(g.integers(2, 5))
    spec = sampling.markov_spec(g, n)
    obs = [sampling.diagonal_observable(g, n) for _ in range(parties)]
    lhs, rhs = transition_expectation_sides(spec, obs)
    return abs(lhs - rhs)


@_check(
    ("clift.markov-reduction", "dropping the latest step of a chain state leaves the shorter chain", 1e-12),
)
def _markov_reduction(g):
    n = int(g.integers(2, 4))
    parties = int(g.integers(2, 5))
    spec = sampling.markov_spec(g, n)
    reduced = trace_out(markov_state(spec, parties), {parties})
    return _dev(reduced.matrix, markov_state(spec, parties - 1).matrix)


@_check(("clift.ohya-cloning", "iterated copying reproduces the input in every slot", 1e-12))
def _ohya_cloning(g):
    n = int(g.integers(2, 5))
    parties = int(g.integers(2, 5))
    p = sampling.probability_vector(g, n)
    state = n_lift(ohya_tensor(n), p, parties)
    return max(_dev(partial_trace(state, {k}).matrix, np.diag(p)) for k in range(1, parties + 1))


@_check(("clift.gamma-product", "channel-assisted lifting with identity or swap gives product states", 1e-12))
def _gamma_product(g):
    n = int(g.integers(2, 4))
    sigma = sampling.probability_vector(g, n)
    p = sampling.probability_vector(g, n)
    ident = np.eye(n * n)
    same = _dev(gamma_lifting(ident, sigma, p).matrix, np.diag(np.kron(sigma, p).astype(complex)))
    swap = np.eye(n * n)[np.arange(n * n).reshape(n, n).T.ravel()]
    swapped = _dev(gamma_lifting(swap, sigma, p).matrix, np.diag(np.kron(p, sigma).astype(complex)))
    return max(same, swapped)


@_check(
    ("clift.separable-psd", "mixtures of product images are positive unit-trace states", 1e-9),
    repeat=_fifth,
)
def _separable_psd(g):
    n = int(g.integers(2, 4))
    parties = int(g.integers(2, 4))
    p = sampling.probability_vector(g, n)
    maps = [np.stack([sampling.density(g, 2) for _ in range(n)]) for _ in range(parties)]
    state = separable_n_state(p, maps)
    _, lo = is_psd(state.matrix)
    return max(-min(lo, 0.0), abs(state.trace() - 1.0))


@_check(
    ("qlift.qcp-positive", "complete positivity makes the channel operator positive", 1e-9),
    ("qlift.qcp-unital-marginal", "unital channels give an identity marginal on the output slot", 1e-10),
)
def _qcp_unital(g):
    d = int(g.integers(2, 4))
    q = qcp_from_channel(sampling.unital_cpmap(g, d))
    _, lo = is_psd(q.matrix)
    return -min(lo, 0.0), _dev(partial_trace(q, {1}).matrix, np.eye(d))


@_check(
    ("qlift.classical-consistency", "diagonal channels embed as rescaled classical channel states", 1e-12),
)
def _classical_consistency(g):
    n = int(g.integers(2, 4))
    spec = sampling.markov_spec(g, n)
    pi = qcp_from_channel(classical_cpmap(spec.conditional))
    return _dev(pi.matrix, n * classical_choi(spec.conditional).matrix)


@_check(("qlift.nonlinear-marginals", "compound marginals recover the input state and its dual image", 1e-10))
def _nonlinear_marginals(g):
    d = int(g.integers(2, 5))
    cp = sampling.unital_cpmap(g, d)
    pi = qcp_from_channel(cp)
    rho = sampling.density(g, d)
    theta = nonlinear_lift(pi, rho)
    return max(
        _dev(partial_trace(theta, {1}).matrix, rho),
        _dev(partial_trace(theta, {2}).matrix, cp.adjoint_apply(rho).T),
    )


@_check(
    (
        "qlift.chain-peeling",
        "tracing the newest slot of a composite channel operator removes its last stage",
        1e-9,
    ),
    repeat=_fifth,
)
def _chain_peeling(g):
    d = 2
    parties = int(g.integers(3, 5))
    pis = [qcp_from_channel(sampling.unital_cpmap(g, d)) for _ in range(parties - 1)]
    devs = []
    for k in range(2, parties):
        chain = n_compose_qcp(pis[:k])
        _, lo = is_psd(chain.matrix)
        devs.append(-min(lo, 0.0))
        peeled = trace_out(chain, {chain.n_factors})
        shorter = n_compose_qcp(pis[:k - 1])
        devs.append(_dev(peeled.matrix, shorter.matrix))
    return max(devs)


@_check(("qlift.ohya-marginals", "spectral copying reproduces the input state in every slot", 1e-9))
def _ohya_marginals(g):
    d = int(g.integers(2, 4))
    parties = int(g.integers(2, 5))
    rho = sampling.density(g, d)
    state = ohya_lift(rho, parties)
    return max(_dev(partial_trace(state, {k}).matrix, rho) for k in range(1, parties + 1))


@_check((
    "qlift.robertson-closed-form",
    "the assisted qubit map has a closed form independent of the ancilla state",
    1e-12,
))
def _robertson_closed_form(g):
    omega1 = sampling.density(g, 2)
    omega2 = sampling.density(g, 2)
    rho = sampling.density(g, 2)
    phi1 = lifting_assisted_map(robertson_map, omega1)
    phi2 = lifting_assisted_map(robertson_map, omega2)
    closed = 0.5 * np.array(
        [[2 * rho[1, 1], rho[0, 1] + rho[1, 0]],
         [rho[0, 1] + rho[1, 0], 2 * rho[0, 0]]]
    )
    return max(_dev(phi1(rho), closed), _dev(phi1(rho), phi2(rho)))


@_check(
    (
        "qlift.robertson-choi",
        "the assisted qubit map is positive yet its channel matrix has eigenvalue -1/4",
        1e-12,
    ),
    repeat=_once,
)
def _robertson_choi(g):
    phi = lifting_assisted_map(robertson_map, np.eye(2) / 2)
    choi = choi_matrix(phi, 2)
    return max(
        _dev(choi.matrix, ROBERTSON_CHOI),
        abs(float(np.linalg.eigvalsh(choi.matrix).min()) + 0.25),
    )


@_check(("qlift.compound-roundtrip", "a compound state over a full-rank input determines its channel", 1e-8))
def _compound_roundtrip(g):
    d = int(g.integers(2, 4))
    cp = sampling.unital_cpmap(g, d)
    rho = sampling.faithful_density(g, d)
    theta = nonlinear_lift(qcp_from_channel(cp), rho)
    recovered = channel_from_compound(theta, rho)
    return _dev(recovered.units, cp.units)


@_check((
    "circulant.pt-entrywise",
    "the blockwise formula reproduces the partial transpose entry by entry",
    1e-12,
))
def _pt_entrywise(g):
    d = int(g.integers(2, 5))
    spec = sampling.circulant_spec(g, d)
    blockwise = assemble_partial_transpose(circulant_partial_transpose(spec.blocks))
    generic = partial_transpose(build_circulant(spec), 1)
    return _dev(blockwise.matrix, generic.matrix)


@_check(("circulant.ppt-oracle-agreement", "block positivity decides the partial-transpose test", 1e-9))
def _ppt_oracle_agreement(g):
    d = int(g.integers(2, 5))
    spec = sampling.circulant_spec(g, d)
    flag, lows = is_ppt_circulant(spec)
    full_flag, full_lo = is_psd(partial_transpose(build_circulant(spec), 1).matrix)
    disagree = 1.0 if flag != full_flag else 0.0
    return max(disagree, abs(float(lows.min()) - full_lo))


@_check(("circulant.lift-diagonal-profile", "the block lifting reads only the diagonal of its input", 1e-12))
def _lift_diagonal_profile(g):
    d = int(g.integers(2, 5))
    profiles = np.stack([sampling.density(g, d) for _ in range(d)])
    rho = sampling.density(g, d)
    state = circulant_lift(profiles, rho)
    devs = [abs(state.trace() - 1.0)]
    diag = np.diag(rho).real
    rows = np.arange(d) * d + circulant_subspaces(d)
    for alpha in range(d):
        block = state.matrix[np.ix_(rows[alpha], rows[alpha])]
        devs.append(_dev(block, diag[alpha] * profiles[alpha]))
    dephased = circulant_lift(profiles, np.diag(np.diag(rho)))
    devs.append(_dev(state.matrix, dephased.matrix))
    return max(devs)


@_check(("circulant.isometry-form", "the isometry form of the lifting matches the block form", 1e-12))
def _isometry_form(g):
    d = int(g.integers(2, 5))
    z = g.standard_normal((d, d)) + 1j * g.standard_normal((d, d))
    cvecs = z / np.linalg.norm(z, axis=1, keepdims=True)
    rho = sampling.density(g, d)
    state, v = circulant_lift_isometry(cvecs, rho)
    dense = v @ np.diag(np.diag(rho).real.astype(complex)) @ v.conj().T
    return max(_dev(v.conj().T @ v, np.eye(d)), _dev(dense, state.matrix))


@functools.cache
def _bell_projectors(d: int) -> tuple[np.ndarray, ...]:
    """The d^2 Bell projectors, m-major. They depend on d alone, and their
    matrices are read-only, so every trial shares them."""
    return tuple(bell_state(m, n, d).matrix for m in range(d) for n in range(d))


@_check(
    ("circulant.bell-spectrum", "the lifted spectrum factorizes into input weight and state diagonal", 1e-12),
)
def _bell_spectrum(g):
    d = int(g.integers(2, 4))
    p = sampling.probability_vector(g, d)
    rho = sampling.density(g, d)
    state, spectrum = bell_diagonal_lift(p, rho)
    expected = np.outer(p, np.diag(rho).real)
    devs = [_dev(spectrum.p, expected)]
    for projector, value in zip(_bell_projectors(d), expected.flat):
        weight = np.trace(projector @ state.matrix).real
        devs.append(abs(weight - value))
    return max(devs)


@_check(
    ("circulant.bell-orthonormal", "the shifted-phase projectors form a complete orthogonal family", 1e-12),
    repeat=_once,
)
def _bell_orthonormal(g):
    devs = []
    for d in (2, 3):
        projectors = _bell_projectors(d)
        devs.append(_dev(sum(projectors), np.eye(d * d)))
        for a, pa in enumerate(projectors):
            for b, pb in enumerate(projectors):
                overlap = np.trace(pa @ pb).real
                devs.append(abs(overlap - (1.0 if a == b else 0.0)))
    return max(devs)


SUITE_NAMES = tuple(_TABLE) + ("all",)


def _run_module(module: str, g: np.random.Generator, trials: int, tol: float | None) -> list[Check]:
    """Repeat each of a module's per-trial functions and keep each output's worst deviation."""
    checks = []
    for outputs, repeat, trial in _TABLE[module]:
        worst = [0.0] * len(outputs)
        for _ in range(repeat(trials)):
            devs = trial(g)
            worst = list(map(max, worst, devs if len(outputs) > 1 else (devs,)))
        for (name, anchor, default), measured in zip(outputs, worst):
            limit = default if tol is None else tol
            m = float(measured)
            checks.append(Check(
                name=name, passed=bool(m <= limit), measured=m, tolerance=float(limit), anchor=anchor,
            ))
    return checks


def run_suite(suite: str, seed: int, trials: int = 100, tol: float | None = None) -> VerificationReport:
    """Run one module's checks, or all of them, from a fixed seed.

    Each module gets its own generator seeded identically, so a module's
    results are the same whether it runs alone or inside "all".
    """
    if suite not in SUITE_NAMES:
        raise SchemaError(f"unknown suite {suite!r}, expected one of {', '.join(SUITE_NAMES)}")
    trials, seed = _size(trials, "trials", 1), _size(seed, "seed")
    if tol is not None and not (math.isfinite(tol) and tol >= 0.0):
        raise SchemaError(f"tol must be finite and at least 0, got {tol}")
    modules = tuple(_TABLE) if suite == "all" else (suite,)
    checks = []
    for module in modules:
        checks.extend(_run_module(module, sampling.rng(seed), trials, tol))
    checks.sort(key=lambda c: c.name)
    return VerificationReport(suite=suite, checks=tuple(checks), seed=seed, timestamp=_timestamp())
