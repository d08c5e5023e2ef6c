# How often is a RANDOM orthogonal pair of maximally entangled states
# copyable?  At D = 2 and D = 3 the answer is always: tracelessness
# forces the spectrum onto the roots of unity.  From D = 4 on there is
# room to be orthogonal without being copyable, and random pairs
# essentially never are.

import numpy as np

from loccopy import ORTHOGONAL, orthogonal_pair, orthogonality, pair_operator, spectral_verdict

SAMPLES = 60

print(f"{'d':>3}  {'orthogonal':>10}  {'copyable':>8}")
for d in range(2, 9):
    orthogonal = copyable = 0
    for k in range(SAMPLES):
        seed = int(np.random.SeedSequence((d, k)).generate_state(1)[0])
        psi1, psi2 = orthogonal_pair(d, seed)
        t = pair_operator(psi1, psi2)
        report = spectral_verdict(t)
        orthogonal += orthogonality(t) == ORTHOGONAL
        copyable += report.copyable
    print(f"{d:>3}  {orthogonal / SAMPLES:>10.3f}  {copyable / SAMPLES:>8.3f}")

print()
print("every pair is orthogonal by construction; only d = 2 and d = 3")
print("make every orthogonal pair copyable")
