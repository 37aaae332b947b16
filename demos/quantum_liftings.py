"""Walk through quantum liftings: conditional operators, compound states, positive maps.

Run with: python3 demos/quantum_liftings.py
"""
import numpy as np

from liftlab import (
    channel_from_compound,
    choi_matrix,
    cp_from_kraus,
    cp_identity,
    is_psd,
    lifting_assisted_map,
    n_compose_qcp,
    n_nonlinear_lift,
    nonlinear_lift,
    ohya_lift,
    partial_trace,
    qcp_from_channel,
    robertson_map,
    trace_out,
)

np.set_printoptions(precision=4, suppress=True)

print("=== The conditional operator of a unital channel ===")
h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
rotate = cp_from_kraus([h])
pi = qcp_from_channel(rotate)
print("for the Hadamard rotation the 4 x 4 operator is PSD with unit left marginal:")
print(pi.matrix.real)
print("left marginal:", np.diag(trace_out(pi, {2}).matrix).real)

print()
print("=== Compound state of a channel over an input state ===")
rho = np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex)
theta = nonlinear_lift(pi, rho)
print("sandwiching with sqrt(rho) yields a state with the right marginals:")
print("  rightmost marginal == rho:", np.allclose(partial_trace(theta, {1}).matrix, rho))
print("  leftmost marginal (transposed output):")
print(partial_trace(theta, {2}).matrix.real)

print()
print("=== Recovering the channel from the compound state ===")
recovered = channel_from_compound(theta, rho)
probe = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
print("recovered map on the flip observable:")
print(recovered.apply(probe).real)
print("original map on the flip observable:")
print(rotate.apply(probe).real)

print()
print("=== Chains of conditional operators peel one slot at a time ===")
chain = n_compose_qcp([pi, qcp_from_channel(cp_identity(2)), pi])
print("four-slot composite is PSD:", is_psd(chain.matrix)[0])
peeled = trace_out(chain, {4})
shorter = n_compose_qcp([pi, qcp_from_channel(cp_identity(2))])
print("tracing the newest slot removes the last stage:",
      np.allclose(peeled.matrix, shorter.matrix))

print()
print("=== Many-party compound states ===")
three = n_nonlinear_lift(pi, rho, 3)
print("three-party sandwich state, dims", three.dims, "trace", three.trace().real)
copies = ohya_lift(rho, 3)
print("spectral copying lift preserves every single-party marginal:",
      all(np.allclose(partial_trace(copies, {k}).matrix, rho) for k in (1, 2, 3)))

print()
print("=== A positive but not completely positive map from a lifting ===")
omega = np.eye(2) / 2
phi = lifting_assisted_map(robertson_map, omega)
sample = np.array([[0.8, 0.1 + 0.2j], [0.1 - 0.2j, 0.2]], dtype=complex)
print("phi keeps states positive:", is_psd(phi(sample))[0])
choi = choi_matrix(phi, 2)
print("but its two-party structure matrix has a negative eigenvalue:")
print(np.linalg.eigvalsh(choi.matrix))
