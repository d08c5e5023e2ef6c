# Whether an orthogonal pair of maximally entangled states can be
# copied is decided entirely by the spectrum of the pair operator
# T = U1 U2^dag: the eigenvalues must be the Mth roots of unity, all
# with the same multiplicity, after removing a global rotation.

import numpy as np

from loccopy import (
    copyable_unitary,
    degeneracy_form_check,
    nonprime_unitary,
    spectral_verdict,
    synthesize_a,
)

# A planted example at D = 6 with M = 3: eigenvalues are the cube roots
# of unity, each twice, behind a random global phase and a random basis.

t = copyable_unitary(6, m=3, seed=1)
report = spectral_verdict(t)
print("planted D=6, M=3 operator")
print("  eigenphases:", np.round(report.eigenphases, 4))
print("  rotation removed:", round(report.rotation, 4))
print("  clusters:", [(round(rep, 4), mult) for rep, mult in report.clusters])
print("  copyable:", report.copyable, " detected M:", report.detected_m)

# The synthesized A conjugates T~ (x) 1 into T~ (x) T~ exactly.  The
# first factor varies fastest, so op1 (x) op2 is np.kron(op2, op1).

a = synthesize_a(t)
t_rot = np.exp(1j * report.rotation) * t
residual = np.linalg.norm(a @ np.kron(np.eye(6), t_rot) @ a.conj().T - np.kron(t_rot, t_rot))
print("  defining-relation residual:", f"{residual:.3e}")
print()

# At composite D the condition is fragile: spreading the eigenvalues by
# any 0 < delta < 2 pi / D keeps the pair orthogonal but breaks the
# equal spacing, and away from both ends of that interval (by more than
# 2 PHASE_TOL / (d2 - 1)) no protocol exists.

t_bad = nonprime_unitary(2, 2, delta=0.4, seed=2)
report_bad = spectral_verdict(t_bad)
print("composite D = 2*2 counterexample, delta = 0.4")
print("  |trace|:", f"{abs(np.trace(t_bad)):.3e}", "(orthogonal pair)")
print("  eigenphases:", np.round(report_bad.eigenphases, 4))
print("  copyable:", report_bad.copyable)
print()

# The same verdict in integer arithmetic: the quadratic degeneracy form
# holds exactly when all root multiplicities are equal.

print("degeneracy form at D = 12, M = 3:")
for mult in ([4, 4, 4], [6, 3, 3], [5, 4, 3], [10, 1, 1]):
    print(f"  multiplicities {mult}: {degeneracy_form_check(mult, 3, 12)}")
