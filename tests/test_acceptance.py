"""Acceptance suite: one test per numbered criterion, each printing a verdict line.

Every test checks an exact finite-dimensional identity at desk scale and
enforces the stated runtime budget. Oracles are independent of the code
under test: brute-force contractions over all index tuples, direct
eigendecompositions, or frozen matrices recorded in the test body.
"""
import itertools
import time
from fractions import Fraction

import numpy as np

from liftlab.circulant import (
    assemble_partial_transpose,
    bell_diagonal_lift,
    bell_state,
    build_circulant,
    circulant_partial_transpose,
    is_ppt_circulant,
)
from liftlab.classical import (
    apply_kraus,
    apply_to_state,
    channel_from_dilation,
    classical_teleport,
    is_doubly_stochastic,
    kraus_from_channel,
    permutation_inverse,
)
from liftlab.clift import (
    markov_weights,
    n_lift,
    ohya_tensor,
    transition_expectation_sides,
)
from liftlab.matcore import is_psd, partial_trace, partial_transpose, trace_out
from liftlab.qlift import (
    choi_matrix,
    lifting_assisted_map,
    n_compose_qcp,
    nonlinear_lift,
    ohya_lift,
    qcp_from_channel,
    robertson_map,
)
from liftlab.sampling import (
    circulant_spec,
    density,
    faithful_density,
    markov_spec,
    probability_vector,
    rng,
    stochastic,
    unital_cpmap,
)


def report(number: int, passed: bool, detail: str = ""):
    tag = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number:02d}] {tag}{suffix}")


class Budget:
    """Wall-clock guard: entering starts the clock, seconds() reads it."""

    def __init__(self, limit: float):
        self.limit = limit
        self.start = time.perf_counter()

    def seconds(self) -> float:
        return time.perf_counter() - self.start

    def check(self):
        elapsed = self.seconds()
        assert elapsed < self.limit, f"runtime {elapsed:.2f}s exceeds budget {self.limit}s"


def test_criterion_01_dilation_channels_complete_census():
    budget = Budget(1.0)
    sigma = np.array([0.7, 0.3])
    known = {
        "swap-free identity": np.eye(2),
        "bit flip": np.array([[0.0, 1.0], [1.0, 0.0]]),
        "symmetric 0.7/0.3 mix": np.array([[0.7, 0.3], [0.3, 0.7]]),
        "symmetric 0.3/0.7 mix": np.array([[0.3, 0.7], [0.7, 0.3]]),
    }
    channels = {}
    not_doubly = {}
    for perm in itertools.permutations(range(4)):
        w = channel_from_dilation(list(perm), sigma)
        channels[perm] = w
        if not is_doubly_stochastic(w, 1e-12):
            not_doubly[perm] = w
    found = {
        label: any(np.allclose(w, target, atol=1e-12) for w in channels.values())
        for label, target in known.items()
    }
    all_four_present = all(found.values())
    all_doubly = not not_doubly
    passed = all_doubly and all_four_present
    report(1, passed, f"doubly stochastic {24 - len(not_doubly)}/24")
    budget.check()
    assert all_four_present, f"missing named channels: {[k for k, v in found.items() if not v]}"
    counterexample = min(not_doubly) if not_doubly else None
    assert all_doubly, (
        f"{len(not_doubly)} of 24 ancilla-permutation channels are not doubly stochastic; "
        f"each is a constant map onto the ancilla distribution, e.g. permutation "
        f"{list(counterexample)} gives rows {not_doubly[counterexample].tolist()}"
    )


def test_criterion_02_kraus_action_equals_matrix_action():
    budget = Budget(1.0)
    g = rng(2026)
    worst = 0.0
    for _ in range(200):
        n1, n2 = int(g.integers(2, 5)), int(g.integers(2, 5))
        w = stochastic(g, n1, n2)
        ops = kraus_from_channel(w)
        p = probability_vector(g, n1)
        via_kraus = np.diag(apply_kraus(ops, np.diag(p.astype(complex)))).real
        worst = max(worst, float(np.abs(via_kraus - apply_to_state(w, p)).max()))
    passed = worst < 1e-12
    report(2, passed, f"max deviation {worst:.2e}")
    budget.check()
    assert passed


def brute_force_teleport(p: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Contract the 27-dimensional three-party state against the projector.

    The joint weights are q[a, b, c] = p[a] * (1/3) * [c == s[b]]; pairing
    them with the diagonal projector weights (1/3 on a == b cells) and
    rescaling by 3^2 returns Bob's distribution without the library's
    teleportation code. Exact rational arithmetic keeps the cancellation
    of the 1/3 factors exact, so the result matches the floats of p bit
    for bit.
    """
    n = p.size
    q = {}
    for a in range(n):
        for b in range(n):
            key = (a, b, int(s[b]))
            q[key] = q.get(key, Fraction(0)) + Fraction(float(p[a])) * Fraction(1, n)
    bob = np.zeros(n)
    for c in range(n):
        total = sum(q.get((a, a, c), Fraction(0)) * Fraction(1, n) for a in range(n))
        bob[c] = float(total * n * n)
    return bob


def test_criterion_03_teleportation_roundtrip():
    budget = Budget(1.0)
    g = rng(303)
    worst = 0.0
    for perm in itertools.permutations(range(3)):
        s = np.array(perm)
        for _ in range(50):
            p = probability_vector(g, 3)
            bob, corrected = classical_teleport(p, s)
            oracle = brute_force_teleport(p, s)
            worst = max(worst, float(np.abs(bob - oracle).max()))
            worst = max(worst, float(np.abs(bob - p[permutation_inverse(s)]).max()))
            worst = max(worst, float(np.abs(corrected - p).max()))
    passed = worst == 0.0
    report(3, passed, f"max deviation {worst:.2e}")
    budget.check()
    assert passed, f"teleportation deviated by {worst:.3e}"


def test_criterion_04_transition_expectation_identity():
    budget = Budget(5.0)
    g = rng(404)
    worst = 0.0
    for _ in range(100):
        n = int(g.integers(2, 4))
        parties = int(g.integers(1, 5))
        spec = markov_spec(g, n)
        obs = [g.uniform(-1, 1, n) for _ in range(parties)]
        lhs, rhs = transition_expectation_sides(spec, obs)
        worst = max(worst, abs(lhs - rhs))
        joint = markov_weights(spec, parties)
        direct = 0.0
        for idx in itertools.product(range(n), repeat=parties):
            term = joint[idx]
            for slot, a in enumerate(reversed(obs)):
                term *= a[idx[slot]]
            direct += term
        worst = max(worst, abs(lhs - direct))
    passed = worst < 1e-12
    report(4, passed, f"max deviation {worst:.2e}")
    budget.check()
    assert passed


def test_criterion_05_nonlinear_lift_marginals():
    budget = Budget(5.0)
    g = rng(505)
    worst = 0.0
    for _ in range(100):
        d = int(g.integers(2, 5))
        cp = unital_cpmap(g, d)
        state = density(g, d)
        lifted = nonlinear_lift(qcp_from_channel(cp), state)
        kept_right = partial_trace(lifted, {1}).matrix
        kept_left = partial_trace(lifted, {2}).matrix
        worst = max(worst, float(np.abs(kept_right - state).max()))
        worst = max(worst, float(np.abs(kept_left - cp.adjoint_apply(state).T).max()))
    passed = worst < 1e-10
    report(5, passed, f"max deviation {worst:.2e}")
    budget.check()
    assert passed


def test_criterion_06_composition_chain_peeling():
    budget = Budget(5.0)
    g = rng(606)
    worst = 0.0
    psd_ok = True
    for _ in range(10):
        pis = [qcp_from_channel(unital_cpmap(g, 2)) for _ in range(3)]
        for length in range(2, 4):
            composite = n_compose_qcp(pis[:length])
            psd_ok = psd_ok and is_psd(composite.matrix)[0]
            peeled = trace_out(composite, {composite.n_factors})
            shorter = n_compose_qcp(pis[: length - 1])
            worst = max(worst, float(np.abs(peeled.matrix - shorter.matrix).max()))
        base = trace_out(n_compose_qcp(pis[:2]), {3})
        worst = max(worst, float(np.abs(base.matrix - pis[0].matrix).max()))
    passed = worst < 1e-9 and psd_ok
    report(6, passed, f"max deviation {worst:.2e}")
    budget.check()
    assert psd_ok, "a composite operator was not PSD"
    assert worst < 1e-9


def test_criterion_07_lifting_assisted_map():
    budget = Budget(1.0)
    g = rng(707)
    worst = 0.0
    for _ in range(100):
        omega = density(g, 2)
        state = density(g, 2)
        phi = lifting_assisted_map(robertson_map, omega)
        got = phi(state)
        expect = 0.5 * np.array(
            [
                [2 * state[1, 1], state[0, 1] + state[1, 0]],
                [state[0, 1] + state[1, 0], 2 * state[0, 0]],
            ]
        )
        worst = max(worst, float(np.abs(got - expect).max()))
    frozen = 0.25 * np.array(
        [[0, 0, 0, 1], [0, 2, 1, 0], [0, 1, 2, 0], [1, 0, 0, 0]], dtype=complex
    )
    choi = choi_matrix(lifting_assisted_map(robertson_map, np.eye(2) / 2), 2).matrix
    choi_dev = float(np.abs(choi - frozen).max())
    min_eig = float(np.linalg.eigvalsh(choi).min())
    passed = worst < 1e-12 and choi_dev == 0.0 and abs(min_eig + 0.25) <= 1e-12
    report(7, passed, f"closed form {worst:.2e}, min eigenvalue {min_eig:+.12f}")
    budget.check()
    assert worst < 1e-12
    assert choi_dev == 0.0, f"Choi matrix deviates by {choi_dev:.3e}"
    assert abs(min_eig + 0.25) <= 1e-12


def test_criterion_08_circulant_partial_transpose_and_ppt():
    budget = Budget(10.0)
    g = rng(808)
    worst = 0.0
    agreements = 0
    for k in range(1000):
        d = 2 + k % 3
        spec = circulant_spec(g, d)
        state = build_circulant(spec)
        tilde = circulant_partial_transpose(spec.blocks)
        rebuilt = assemble_partial_transpose(tilde).matrix
        generic = partial_transpose(state, 1).matrix
        worst = max(worst, float(np.abs(rebuilt - generic).max()))
        block_verdict, _ = is_ppt_circulant(spec)
        full_verdict, _ = is_psd(generic)
        agreements += int(block_verdict == full_verdict)
    passed = worst < 1e-12 and agreements == 1000
    report(8, passed, f"entrywise {worst:.2e}, oracle agreement {agreements}/1000")
    budget.check()
    assert worst < 1e-12
    assert agreements == 1000


def test_criterion_09_bell_diagonal_spectrum():
    budget = Budget(2.0)
    g = rng(909)
    worst = 0.0
    for _ in range(100):
        d = int(g.integers(2, 4))
        p = probability_vector(g, d)
        state = faithful_density(g, d)
        lifted, spectrum = bell_diagonal_lift(p, state)
        pops = np.diag(state).real
        for m in range(d):
            for n in range(d):
                projected = np.trace(bell_state(m, n, d).matrix @ lifted.matrix).real
                worst = max(worst, abs(projected - p[m] * pops[n]))
                worst = max(worst, abs(spectrum.p[m, n] - p[m] * pops[n]))
    _, worked = bell_diagonal_lift([0.75, 0.25], np.diag([0.6, 0.4]).astype(complex))
    frozen_dev = float(np.abs(worked.p - [[0.45, 0.30], [0.15, 0.10]]).max())
    passed = worst < 1e-12 and frozen_dev < 1e-12
    report(9, passed, f"projection residual {worst:.2e}")
    budget.check()
    assert worst < 1e-12
    assert frozen_dev < 1e-12


def test_criterion_10_copying_lifts_preserve_marginals():
    budget = Budget(2.0)
    g = rng(1010)
    worst = 0.0
    for _ in range(25):
        n = int(g.integers(2, 4))
        parties = int(g.integers(2, 5))
        p = probability_vector(g, n)
        copied = n_lift(ohya_tensor(n), p, parties)
        for label in range(1, parties + 1):
            kept = np.diag(partial_trace(copied, {label}).matrix).real
            worst = max(worst, float(np.abs(kept - p).max()))
        state = density(g, n)
        quantum = ohya_lift(state, parties)
        for label in range(1, parties + 1):
            kept = partial_trace(quantum, {label}).matrix
            worst = max(worst, float(np.abs(kept - state).max()))
    passed = worst < 1e-10
    report(10, passed, f"max marginal deviation {worst:.2e}")
    budget.check()
    assert passed
