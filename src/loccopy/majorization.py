"""Majorization tests, Nielsen transformability, and the catalytic-copy
criterion for Schmidt probability vectors.

For sorted probability vectors, w majorizes v (v -< w) when every
partial sum of w dominates that of v (the totals agree: SchmidtVector
divides by the sum).  Nielsen's theorem: |phi_src> -> |phi_dst> is
possible by deterministic LOCC iff lambda_src -< lambda_dst.  Copying
psi onto a blank b with psi itself present is possible iff
lambda_psi (x) lambda_b -< lambda_psi (x) lambda_psi, which can hold
even when lambda_b -< lambda_psi fails: the retained copy acts as its
own catalyst.
"""
from __future__ import annotations

import numpy as np

from .config import SUM_TOL, check_dense_bytes
from .states import SchmidtVector

DIRECT = "direct"
CATALYTIC = "catalytic"
IMPOSSIBLE = "impossible"


def _probs(v) -> np.ndarray:
    """The probabilities of a SchmidtVector, or of an array-like that
    passes SchmidtVector's checks (finite, non-negative, summing to 1
    within NORM_TOL); raises ValueError otherwise."""
    return (v if isinstance(v, SchmidtVector) else SchmidtVector(v)).probs


def _partial_sums(v: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Partial sums of v and w, each sorted descending and zero-padded
    to the longer length n, and whether each of the n conditions of
    "w majorizes v", sum_v[r] <= sum_w[r] + SUM_TOL, holds; the last is
    the equal totals of two distributions, up to cumsum roundoff."""
    a = np.sort(v)[::-1]
    b = np.sort(w)[::-1]
    n = max(a.size, b.size)
    sums_v = np.cumsum(np.pad(a, (0, n - a.size)))
    sums_w = np.cumsum(np.pad(b, (0, n - b.size)))
    return sums_v, sums_w, sums_v <= sums_w + SUM_TOL


def partial_sums(v, w) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The partial sums of v and w and whether each condition of "w
    majorizes v" holds, as majorizes decides them (the last condition
    is the totals); inputs are checked as in majorizes."""
    return _partial_sums(_probs(v), _probs(w))


def majorizes(w, v) -> bool:
    """True iff w majorizes v: partial sums of w dominate.

    Inputs may be SchmidtVector or array-like; an array-like is checked
    and divided by its sum as a SchmidtVector is, and raises ValueError
    when it is not finite, has a negative entry or does not sum to 1
    within NORM_TOL.  partial_sums gives each condition.
    """
    return bool(partial_sums(v, w)[2].all())


def nielsen_transformable(src, dst) -> bool:
    """True iff |phi_src> -> |phi_dst> is possible by deterministic LOCC."""
    return majorizes(dst, src)


def _catalysis(
    p: np.ndarray, b: np.ndarray
) -> tuple[str, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """catalytic_copy_check on validated probabilities, and the partial
    sums of psi (x) blank -< psi (x) psi as _partial_sums gives them,
    computed even when the direct check decides the verdict, once the
    budget admits their six float arrays (outer products, sorts, cumsums)."""
    check_dense_bytes(f"catalysis of {p.size} and {b.size} entries",
                      48 * p.size * max(p.size, b.size))
    tensored = _partial_sums(np.outer(p, b).ravel(), np.outer(p, p).ravel())
    if _partial_sums(b, p)[2].all():
        return DIRECT, tensored
    return (CATALYTIC if tensored[2].all() else IMPOSSIBLE), tensored


def catalytic_copy_check(psi, blank) -> str:
    """Classify copying of psi onto blank: direct, catalytic, or impossible.

    "direct" when blank -< psi already (plain Nielsen conversion of the
    blank into a second copy); "catalytic" when only the tensored
    relation psi (x) blank -< psi (x) psi holds, every one of its
    partial-sum conditions as partial_sums decides them; "impossible"
    otherwise.  Array-like inputs are checked as in majorizes.
    """
    return _catalysis(_probs(psi), _probs(blank))[0]


def find_catalytic_pair(
    d: int, attempts: int, seed: int
) -> tuple[SchmidtVector, SchmidtVector] | None:
    """Random search for a (psi, blank) pair with a "catalytic" verdict.

    Samples probability vectors by normalizing squared standard normals.
    Each attempt uses its own seed derived from (seed, attempt index),
    so the result is a pure function of (d, attempts, seed).  Returns
    None when the budget is exhausted; catalytic pairs need at least 4
    components to exist, so small d searches are expected to fail.
    """
    for k in range(attempts):
        rng = np.random.default_rng((seed, k))
        psi = rng.standard_normal(d) ** 2
        psi /= psi.sum()
        blank = rng.standard_normal(d) ** 2
        blank /= blank.sum()
        if catalytic_copy_check(psi, blank) == CATALYTIC:
            return SchmidtVector(psi), SchmidtVector(blank)
    return None
