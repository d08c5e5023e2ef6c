# Copying a partially entangled state costs entanglement, and a blank
# that cannot be upgraded to the target by local operations alone can
# sometimes still be upgraded when the original sits alongside it as a
# catalyst.  This walks through the classic five-level example.

import numpy as np

from loccopy import (
    SchmidtVector,
    catalytic_copy_check,
    find_catalytic_pair,
    majorizes,
    nielsen_transformable,
    partial_sums,
)

psi = SchmidtVector([0.39, 0.26, 0.18, 0.17, 0.0])
blank = SchmidtVector([0.32, 0.28, 0.24, 0.085, 0.075])

print("psi   =", psi.probs)
print("blank =", blank.probs)
print()

# The bare blank -> psi conversion is blocked: the third partial sum of
# the blank (0.84) exceeds that of psi (0.83), so psi does not majorize
# the blank and Nielsen's theorem forbids the move.

print("partial sums (descending):")
sums_blank, sums_psi, holds = partial_sums(blank, psi)
for r in range(5):
    mark = "ok" if holds[r] else "BLOCKED"
    print(f"  r={r + 1}:  blank {sums_blank[r]:.3f}  vs  psi {sums_psi[r]:.3f}  {mark}")
print()
print("nielsen_transformable(blank -> psi):", nielsen_transformable(blank, psi))

# Tensoring both sides with psi unblocks it: psi x blank is majorized by
# psi x psi, so the copy succeeds with the original acting as a catalyst.

joint_src = np.outer(psi.probs, blank.probs).ravel()
joint_dst = np.outer(psi.probs, psi.probs).ravel()
print("majorizes(psi x psi over psi x blank):", majorizes(joint_dst, joint_src))
print("catalytic_copy_check verdict:", catalytic_copy_check(psi, blank))
print()

# Such pairs are rare under random sampling; a seeded search finds one.

found = find_catalytic_pair(5, attempts=4000, seed=42)
if found is None:
    print("no catalytic pair found in 4000 attempts")
else:
    psi_r, blank_r = found
    print("random catalytic pair found:")
    print("  psi   =", np.round(psi_r.probs, 4))
    print("  blank =", np.round(blank_r.probs, 4))
    print("  verdict:", catalytic_copy_check(psi_r, blank_r))
