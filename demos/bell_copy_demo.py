# Two orthogonal Bell states can be copied onto a shared blank pair by
# purely local unitaries, one on Alice's particles and one on Bob's.
# This builds the protocol for the |Phi+>, |Psi+> pair and checks it by
# the closed-form four-party overlap <psi psi| A^13 B^24 |psi blank> on
# the dense A and B (the brute-force four-particle simulation that this
# overlap is tested against lives in tests/oracles.py).

import numpy as np

from loccopy import (
    from_unitary,
    max_entangled,
    orthogonality,
    pair_operator,
    run_copy,
    spectral_verdict,
    synthesize_protocol,
)

# |Phi+> corresponds to the identity, |Psi+> to sigma_x.

phi_plus = max_entangled(2)
psi_plus = from_unitary(np.array([[0, 1], [1, 0]], dtype=complex))

t = pair_operator(phi_plus, psi_plus)
print("pair operator T:")
print(np.round(t.real, 6))
print("orthogonality:", orthogonality(t))

report = spectral_verdict(t)
print("eigenphases:", np.round(report.eigenphases, 6))
print("copyable:", report.copyable, "with M =", report.detected_m)
print()

# Synthesis returns the two local unitaries plus the phase each state
# picks up; the constructor verifies them by simulation before handing
# them back.

protocol = synthesize_protocol(phi_plus, psi_plus, max_entangled(2))

for name, state in (("Phi+", phi_plus), ("Psi+", psi_plus)):
    fidelity, theta = run_copy(protocol, state)
    print(f"copy of {name}: fidelity = {fidelity:.15f}, theta = {theta:+.6f}")

# A state the protocol was not designed for is not copied.

bystander = from_unitary(np.array([[1, 0], [0, 1j]], dtype=complex))
fidelity, _ = run_copy(protocol, bystander)
print(f"copy of an undesigned state: fidelity = {fidelity:.6f}")
