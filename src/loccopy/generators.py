"""Deterministic random constructors for test families.

Every generator is a pure function of its parameters and an integer
seed.  Paired-state generators plant a known pair operator: the planted
unitary is recoverable as <family>_unitary(... same seed ...), and the
returned states satisfy pair_operator(psi1, psi2) == planted operator,
because psi1 = (T (x) 1)|psi2> by construction.
"""
from __future__ import annotations

import numpy as np

from .config import PHASE_TOL, TAU, check_dense_bytes, int_text, pair_bytes
from .states import BipartiteState, from_unitary


def _haar(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: QR of a Ginibre matrix with the R
    diagonal's phases folded back into Q."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    ph = np.diag(r).copy()
    ph /= np.abs(ph)
    return q * ph


def _check_dimension(d: int) -> None:
    """Refuse a subsystem dimension below 2, or one whose pair, as
    pair_bytes counts it, exceeds DENSE_BYTES, before any generator draws
    or allocates."""
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    check_dense_bytes(f"a pair at d = {int_text(d)}", pair_bytes(d))


def _delta_interval(d: int, d2: int) -> tuple[float, float]:
    """The open interval of the deltas nonprime_unitary admits at D = d."""
    bound = 2.0 * PHASE_TOL / (d2 - 1)
    return bound, TAU / d - bound


def _draw_delta(rng: np.random.Generator, d: int, d2: int) -> float:
    """Draw delta uniformly from (0, 2 pi / d), redrawn until it lies
    inside the interval that nonprime_unitary admits."""
    low, high = _delta_interval(d, d2)
    delta = 0.0
    while not low < delta < high:
        delta = float(rng.uniform(0.0, TAU / d))
    return delta


def haar_unitary(d: int, seed: int) -> np.ndarray:
    """Haar-random d x d unitary, deterministic per seed."""
    if d < 1:
        raise ValueError(f"dimension must be at least 1, got {d}")
    return _haar(d, np.random.default_rng(seed))


def _conjugate(eigenvalues: np.ndarray, v: np.ndarray) -> np.ndarray:
    return v @ np.diag(eigenvalues) @ v.conj().T


def _traceless_spectrum(d: int, rng: np.random.Generator) -> np.ndarray:
    """Unit-modulus eigenvalues summing exactly to zero.

    Balanced subconfigurations rotated independently: antipodal pairs,
    plus one equilateral triple when d is odd.  Each rotation moves
    within the zero-sum manifold, so no rejection is needed.
    """
    lam = []
    pairs, triples = (d // 2, 0) if d % 2 == 0 else ((d - 3) // 2, 1)
    for _ in range(pairs):
        alpha = rng.uniform(0.0, TAU)
        lam.extend([np.exp(1j * alpha), -np.exp(1j * alpha)])
    for _ in range(triples):
        alpha = rng.uniform(0.0, TAU)
        lam.extend(np.exp(1j * (alpha + TAU * k / 3)) for k in range(3))
    return np.array(lam)


def traceless_unitary(d: int, seed: int) -> np.ndarray:
    """Random unitary with exactly vanishing trace (orthogonal-pair planter).

    The spectrum is not drawn from all traceless spectra: it is made of
    antipodal pairs plus at most one equilateral triple (for odd d),
    each rotated independently, in a Haar-random eigenbasis.  For d >= 5
    spectra such as the regular pentagon, the 5th roots of unity
    (copyable with M = 5), are therefore never drawn.
    """
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    rng = np.random.default_rng(seed)
    return _conjugate(_traceless_spectrum(d, rng), _haar(d, rng))


def copyable_unitary(d: int, m: int, seed: int) -> np.ndarray:
    """Random unitary whose spectrum is the Mth roots of unity, each
    repeated d/m times, under a random global phase: copyable by design."""
    if m < 2:
        raise ValueError(f"m must be at least 2, got {m}")
    if d % m != 0:
        raise ValueError(f"m={m} does not divide d={d}")
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(m), d // m)
    phi = rng.uniform(0.0, TAU)
    lam = np.exp(1j * (TAU * labels / m + phi))
    return _conjugate(lam, _haar(d, rng))


def nonprime_unitary(d1: int, d2: int, delta: float, seed: int) -> np.ndarray:
    """Traceless unitary with spectrum e^{2 pi i (j-1)/d1} e^{i (j'-1) delta}.

    For composite D = d1*d2 and 0 < delta < 2 pi / D the eigenvalues are
    distinct and not equally spaced, so the planted pair is orthogonal.
    It is copyable iff (d2 - 1) min(delta, 2 pi / D - delta) <= 2 PHASE_TOL,
    and such a delta raises ValueError, which names the admitted interval.
    """
    if d1 < 2 or d2 < 2:
        raise ValueError(f"factors must be at least 2, got {d1} and {d2}")
    d = d1 * d2
    low, high = _delta_interval(d, d2)
    if not low < delta < high:
        raise ValueError(f"delta must lie strictly inside ({low:.6g}, {high:.6f}) "
                         f"for D={d} and d2={d2}, got {delta}")
    rng = np.random.default_rng(seed)
    lam = np.array([
        np.exp(1j * (TAU * j / d1 + jp * delta))
        for j in range(d1)
        for jp in range(d2)
    ])
    return _conjugate(lam, _haar(d, rng))


def _pair_from_planted(t: np.ndarray, seed: int) -> tuple[BipartiteState, BipartiteState]:
    d = t.shape[0]
    u2 = _haar(d, np.random.default_rng((seed, 1)))
    return from_unitary(t @ u2), from_unitary(u2)


def orthogonal_pair(d: int, seed: int) -> tuple[BipartiteState, BipartiteState]:
    """Random orthogonal pair of maximally entangled states.

    Plants traceless_unitary(d, seed) as the pair operator, so the
    overlap vanishes exactly up to roundoff.  Its spectrum is antipodal
    pairs plus at most one equilateral triple, so this family covers
    only part of the orthogonal pairs: for d >= 5 it never yields, for
    example, the regular-pentagon spectrum, which is copyable with M = 5.
    """
    return _pair_from_planted(traceless_unitary(d, seed), seed)


def copyable_pair(d: int, m: int, seed: int) -> tuple[BipartiteState, BipartiteState]:
    """Random orthogonal pair that is copyable with detected M == m.

    Plants copyable_unitary(d, m, seed); the root sums vanish for
    m >= 2, so the pair is always orthogonal.
    """
    return _pair_from_planted(copyable_unitary(d, m, seed), seed)


def nonprime_counterexample(
    d1: int, d2: int, delta: float, seed: int
) -> tuple[BipartiteState, BipartiteState]:
    """Orthogonal pair at composite D = d1*d2 that is never copyable.

    Plants nonprime_unitary(d1, d2, delta, seed).
    """
    return _pair_from_planted(nonprime_unitary(d1, d2, delta, seed), seed)
