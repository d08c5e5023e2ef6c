"""Bipartite pure states and the unitary parameterization of maximally
entangled ones.

A state |psi> = sum_ij c_ij |x_i> (x) |x_j> is stored as its d x d
amplitude grid.  A maximally entangled state is exactly one whose grid
is U/sqrt(d) for a unitary U acting on the first factor; the two
representations convert via from_unitary and unitary_of_state, which is
also the one check that a state is maximally entangled.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import MAX_ENT_TOL, NORM_TOL, UNITARITY_TOL, PreconditionError


@dataclass
class BipartiteState:
    """Pure state of two d-dimensional subsystems; treated as immutable."""

    grid: np.ndarray  # c[i, j] is the amplitude of |x_i> (x) |x_j>

    def __post_init__(self) -> None:
        self.grid = np.asarray(self.grid, dtype=complex)
        if self.grid.ndim != 2 or self.grid.shape[0] != self.grid.shape[1]:
            raise ValueError(f"amplitude grid must be square, got {self.grid.shape}")
        if self.grid.shape[0] < 2:
            raise ValueError("subsystem dimension must be at least 2")
        parts = (self.grid.real, self.grid.imag)
        if not all(np.all(np.isfinite(x)) for x in parts):
            raise ValueError("amplitudes must be finite")
        # no part of a normalized state's amplitude exceeds 1; bounding the
        # parts keeps |c|^2 below from overflowing
        if any(np.abs(x).max() > 1.0 + NORM_TOL for x in parts):
            raise ValueError("amplitudes must be at most 1 in magnitude")
        norm2 = float(np.sum(np.abs(self.grid) ** 2))
        if abs(norm2 - 1.0) > NORM_TOL:
            raise ValueError(f"state is not normalized: sum |c|^2 = {norm2!r}")

    @property
    def d(self) -> int:
        return self.grid.shape[0]

    def vector(self) -> np.ndarray:
        """Flat amplitudes in the mu = i + d*(j-1) convention."""
        return self.grid.flatten(order="F")


@dataclass
class SchmidtVector:
    """Schmidt probabilities (squared Schmidt coefficients), descending, divided by their sum."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise ValueError(f"probs must be a nonempty 1-d array, got shape {p.shape}")
        if not np.all(np.isfinite(p)):
            raise ValueError("probs must be finite")
        if np.any(p < -NORM_TOL):
            raise ValueError(f"probs must be non-negative, got min {float(p.min())!r}")
        if np.any(p > 1.0 + NORM_TOL):  # before the sum, which could overflow
            raise ValueError(f"probs must be at most 1, got max {float(p.max())!r}")
        total = float(p.sum())
        if abs(total - 1.0) > NORM_TOL:
            raise ValueError(f"probs must sum to 1, got {total!r}")
        p = np.clip(p, 0.0, None)
        self.probs = np.sort(p / math.fsum(p))[::-1]  # by the correctly rounded sum


def max_entangled(d: int) -> BipartiteState:
    """The reference maximally entangled state, c_ij = delta_ij / sqrt(d)."""
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    return BipartiteState(np.eye(d) / np.sqrt(d))


def from_unitary(u: np.ndarray) -> BipartiteState:
    """The maximally entangled state (U (x) 1)|psi_max>, grid U/sqrt(d)."""
    u = np.asarray(u, dtype=complex)
    assert_unitary(u, "from_unitary input")
    return BipartiteState(u / np.sqrt(u.shape[0]))


def unitary_of_state(s: BipartiteState, what: str = "state") -> np.ndarray:
    """Recover U with from_unitary(U) == s; inverse of from_unitary.

    The one validation of a maximally entangled state: PreconditionError,
    naming what, unless every Schmidt probability p_i of s is 1/d within
    MAX_ENT_TOL.  The p_i are the eigenvalues of C^dag C, so with
    U = sqrt(d) C the defect E = U^dag U - I has the eigenvalues d p_i - 1
    and spectral norm d max|p_i - 1/d|.  The spectral norm is at most the
    Frobenius norm, so ||E||_F <= d MAX_ENT_TOL certifies the state from
    one d x d Gram matrix.  Above that bound, which deviations spread over
    many p_i can exceed while each stays within MAX_ENT_TOL, the exact
    spread is taken from an SVD, with the same threshold.

    U is then sqrt(d) C after one Newton-Schulz step U (3I - U^dag U) / 2
    toward the nearest unitary, taken as U - U E / 2 from the defect E.
    A deviation e of U's singular values from 1 shrinks to about 3e^2/2,
    so U is unitary to roundoff although MAX_ENT_TOL allows e to exceed
    UNITARITY_TOL; for a state made by from_unitary, U is returned to
    roundoff.
    """
    u = s.grid * math.sqrt(s.d)
    e = _gram_defect(u)
    bound = s.d * MAX_ENT_TOL
    if np.vdot(e, e).real > bound * bound:
        probs = np.linalg.svd(s.grid, compute_uv=False) ** 2
        spread = float(np.max(np.abs(probs - 1.0 / s.d)))
        if spread > MAX_ENT_TOL:
            raise PreconditionError(
                f"{what} is not maximally entangled: Schmidt probs deviate from 1/{s.d} "
                f"by up to {spread:.3e}"
            )
    return u - 0.5 * (u @ e)


def assert_unitary(u: np.ndarray, what: str = "matrix") -> None:
    """Raise PreconditionError unless ||U^dag U - I||_F <= UNITARITY_TOL;
    a NaN residual fails.  A non-square or empty U raises ValueError."""
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"{what} must be square, got shape {u.shape}")
    if u.size == 0:
        raise ValueError(f"{what} must not be empty, got shape {u.shape}")
    e = _gram_defect(u)
    residual = math.sqrt(np.vdot(e, e).real)
    if not residual <= UNITARITY_TOL:
        raise PreconditionError(f"{what} is not unitary: ||U^dag U - I|| = {residual:.3e}")


def _gram_defect(f: np.ndarray) -> np.ndarray:
    """E = F^dag F - I, with I subtracted from the Gram matrix entrywise
    (as an integer, so that an integer F keeps its dtype)."""
    e = f.conj().T @ f
    # a strided view of the diagonal, far cheaper than fancy indexing;
    # matmul returns a new C-contiguous array, so reshape does not copy
    e.reshape(-1)[:: e.shape[0] + 1] -= 1
    return e


def overlap(a: BipartiteState, b: BipartiteState) -> complex:
    """Inner product <a|b> = sum_ij conj(a.c_ij) b.c_ij."""
    if a.d != b.d:
        raise ValueError(f"dimension mismatch: {a.d} vs {b.d}")
    return complex(np.vdot(a.grid, b.grid))
