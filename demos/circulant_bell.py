"""Walk through circulant-supported states, their PPT test, and Bell-diagonal liftings.

Run with: python3 demos/circulant_bell.py
"""
import numpy as np

from liftlab import (
    CirculantSpec,
    bell_diagonal_lift,
    bell_state,
    build_circulant,
    circulant_lift,
    circulant_lift_isometry,
    circulant_partial_transpose,
    circulant_subspaces,
    is_ppt_circulant,
    partial_transpose,
)

np.set_printoptions(precision=4, suppress=True)

print("=== Circulant subspaces of a two-qutrit space ===")
for alpha, partners in enumerate(circulant_subspaces(3)):
    cells = [(i, int(j)) for i, j in enumerate(partners)]
    print(f"subspace {alpha}: spanned by e_i x e_j for (i, j) in {cells}")

print()
print("=== A state supported on those subspaces, block by block ===")
blocks = np.array([
    [[0.20, 0.05], [0.05, 0.20]],
    [[0.35, 0.10], [0.10, 0.25]],
], dtype=complex)
spec = CirculantSpec(blocks)
state = build_circulant(spec)
print(state.matrix.real)

print()
print("=== The partial transpose permutes and reindexes the blocks ===")
tilde = circulant_partial_transpose(spec.blocks)
print("transformed blocks a~[alpha][i, j] = a[alpha - i - j][i, j]:")
for alpha in range(2):
    print(f"  a~[{alpha}] =", tilde[alpha].real.tolist())
verdict, lows = is_ppt_circulant(spec)
print("block test says PPT:", verdict, " lowest eigenvalue per block:", lows)
full = partial_transpose(state, 1)
print("matches the dense partial transpose:",
      bool(np.linalg.eigvalsh(full.matrix).min() >= -1e-12) == verdict)

print()
print("=== Lifting a state along circulant profiles ===")
rho = np.array([[0.6, 0.1], [0.1, 0.4]], dtype=complex)
profiles = np.stack([
    np.full((2, 2), 0.5, dtype=complex),
    np.diag([1.0, 0.0]).astype(complex),
])
lifted = circulant_lift(profiles, rho)
print("only the diagonal of rho enters; block traces are its populations:")
print(lifted.matrix.real)

cvecs = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
iso_state, v = circulant_lift_isometry(cvecs, rho)
print("isometry form: V*V == I is", np.allclose(v.conj().T @ v, np.eye(2)))

print()
print("=== Bell-diagonal liftings ===")
p = np.array([0.75, 0.25])
lifted, spectrum = bell_diagonal_lift(p, np.diag([0.6, 0.4]).astype(complex))
print("output spectrum over the generalized Bell basis (rows m, columns n):")
print(spectrum.p)
print("reading it back by projection:")
for m in range(2):
    for n in range(2):
        weight = np.trace(bell_state(m, n, 2).matrix @ lifted.matrix).real
        print(f"  <P_{m}{n}> = {weight:.4f} = p_{m} * rho_{n}{n}")
