"""Majorization tests, Nielsen transformability, and the catalytic-copy
criterion for Schmidt probability vectors.

For sorted probability vectors, w majorizes v (v -< w) when every
partial sum of w dominates the corresponding partial sum of v and the
totals agree.  Nielsen's theorem: |phi_src> -> |phi_dst> is possible by
deterministic LOCC iff lambda_src -< lambda_dst.  Copying psi onto a
blank b with psi itself present is possible iff
lambda_psi (x) lambda_b -< lambda_psi (x) lambda_psi, which can hold
even when lambda_b -< lambda_psi fails: the retained copy acts as its
own catalyst.
"""
from __future__ import annotations

import numpy as np

from .config import DEFAULT, NumericConfig
from .states import SchmidtVector

DIRECT = "direct"
CATALYTIC = "catalytic"
IMPOSSIBLE = "impossible"


def _probs(v) -> np.ndarray:
    return np.asarray(getattr(v, "probs", v), dtype=float)


def _partial_sums(v, w) -> tuple[np.ndarray, np.ndarray]:
    """Partial sums of v and w, each sorted descending and zero-padded
    to the longer length; w majorizes v when the second dominates."""
    a = np.sort(_probs(v))[::-1]
    b = np.sort(_probs(w))[::-1]
    n = max(a.size, b.size)
    return np.cumsum(np.pad(a, (0, n - a.size))), np.cumsum(np.pad(b, (0, n - b.size)))


def majorizes(w, v, config: NumericConfig | None = None) -> bool:
    """True iff w majorizes v: partial sums of w dominate, totals equal.

    Inputs may be SchmidtVector or array-like; they are sorted descending
    and zero-padded to equal length internally.  Partial sums compare
    one-sided with slack sum_tol; totals must agree within sum_tol.
    """
    cfg = config or DEFAULT
    ca, cb = _partial_sums(v, w)
    if abs(ca[-1] - cb[-1]) > cfg.sum_tol:
        return False
    return bool(np.all(ca <= cb + cfg.sum_tol))


def nielsen_transformable(src, dst, config: NumericConfig | None = None) -> bool:
    """True iff |phi_src> -> |phi_dst> is possible by deterministic LOCC."""
    return majorizes(dst, src, config)


def catalytic_copy_check(psi, blank, config: NumericConfig | None = None) -> str:
    """Classify copying of psi onto blank: direct, catalytic, or impossible.

    "direct" when blank -< psi already (plain Nielsen conversion of the
    blank into a second copy); "catalytic" when only the tensored
    relation psi (x) blank -< psi (x) psi holds; "impossible" otherwise.
    """
    cfg = config or DEFAULT
    p = _probs(psi)
    b = _probs(blank)
    if majorizes(p, b, cfg):
        return DIRECT
    src = np.outer(p, b).ravel()
    dst = np.outer(p, p).ravel()
    if majorizes(dst, src, cfg):
        return CATALYTIC
    return IMPOSSIBLE


def find_catalytic_pair(
    d: int, attempts: int, seed: int, config: NumericConfig | None = None
) -> tuple[SchmidtVector, SchmidtVector] | None:
    """Random search for a (psi, blank) pair with a "catalytic" verdict.

    Samples probability vectors by normalizing squared standard normals.
    Each attempt uses its own seed derived from (seed, attempt index),
    so the result is a pure function of (d, attempts, seed).  Returns
    None when the budget is exhausted; catalytic pairs need at least 4
    components to exist, so small d searches are expected to fail.
    """
    cfg = config or DEFAULT
    for k in range(attempts):
        rng = np.random.default_rng((seed, k))
        psi = rng.standard_normal(d) ** 2
        psi /= psi.sum()
        blank = rng.standard_normal(d) ** 2
        blank /= blank.sum()
        if catalytic_copy_check(psi, blank, cfg) == CATALYTIC:
            return SchmidtVector(psi), SchmidtVector(blank)
    return None
