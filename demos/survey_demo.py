# How often is a RANDOM orthogonal pair of maximally entangled states
# copyable?  At D = 2 and D = 3 the answer is always: tracelessness
# forces the spectrum onto the roots of unity.  From D = 4 on there is
# room to be orthogonal without being copyable, and random pairs
# essentially never are.

from loccopy import survey

SAMPLES = 60

print(f"{'d':>3}  {'orthogonal':>10}  {'copyable':>8}")
for row in survey(range(2, 9), SAMPLES, seed=0):
    print(f"{row['d']:>3}  {row['orthogonal_fraction']:>10.3f}  {row['copyable_fraction']:>8.3f}")

print()
print("every pair is orthogonal by construction; only d = 2 and d = 3")
print("make every orthogonal pair copyable")
