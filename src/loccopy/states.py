"""Bipartite pure states and the unitary parameterization of maximally
entangled ones.

A state |psi> = sum_ij c_ij |x_i> (x) |x_j> is stored as its d x d
amplitude grid.  A maximally entangled state is exactly one whose grid
is U/sqrt(d) for a unitary U acting on the first factor; the two
representations convert via from_unitary and unitary_of_state.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT, NORM_TOL, NumericConfig, PreconditionError


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
        if not np.all(np.isfinite(self.grid.real)) or not np.all(np.isfinite(self.grid.imag)):
            raise ValueError("amplitudes must be finite")
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
    """Schmidt probabilities (squared Schmidt coefficients), descending."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise ValueError(f"probs must be a nonempty 1-d array, got shape {p.shape}")
        if np.any(p < -NORM_TOL):
            raise ValueError(f"probs must be non-negative, got min {p.min()!r}")
        total = float(p.sum())
        if abs(total - 1.0) > NORM_TOL:
            raise ValueError(f"probs must sum to 1, got {total!r}")
        self.probs = np.sort(np.clip(p, 0.0, None))[::-1]


def max_entangled(d: int) -> BipartiteState:
    """The reference maximally entangled state, c_ij = delta_ij / sqrt(d)."""
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    return BipartiteState(np.eye(d) / np.sqrt(d))


def from_unitary(u: np.ndarray, config: NumericConfig | None = None) -> BipartiteState:
    """The maximally entangled state (U (x) 1)|psi_max>, grid U/sqrt(d)."""
    cfg = config or DEFAULT
    u = np.asarray(u, dtype=complex)
    assert_unitary(u, cfg, "from_unitary input")
    return BipartiteState(u / np.sqrt(u.shape[0]))


def unitary_of_state(s: BipartiteState, config: NumericConfig | None = None) -> np.ndarray:
    """Recover U with from_unitary(U) == s; inverse of from_unitary.

    Requires s maximally entangled: its Schmidt probabilities must all
    equal 1/d within max_ent_tol.
    """
    cfg = config or DEFAULT
    assert_max_entangled(s, cfg)
    return s.grid * np.sqrt(s.d)


def assert_max_entangled(s: BipartiteState, config: NumericConfig | None = None) -> None:
    cfg = config or DEFAULT
    probs = np.linalg.svd(s.grid, compute_uv=False) ** 2
    spread = float(np.max(np.abs(probs - 1.0 / s.d)))
    if spread > cfg.max_ent_tol:
        raise PreconditionError(
            f"state is not maximally entangled: Schmidt probs deviate from 1/{s.d} "
            f"by up to {spread:.3e}"
        )


def assert_unitary(u: np.ndarray, config: NumericConfig | None = None, what: str = "matrix") -> None:
    cfg = config or DEFAULT
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"{what} must be square, got shape {u.shape}")
    residual = float(np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0])))
    if residual > cfg.unitarity_tol:
        raise PreconditionError(f"{what} is not unitary: ||U^dag U - I|| = {residual:.3e}")


def schmidt(s: BipartiteState) -> tuple[SchmidtVector, np.ndarray, np.ndarray]:
    """Schmidt decomposition via SVD of the amplitude grid.

    Returns (probs, left, right) with probs the squared singular values
    in descending order, left basis vectors as columns, right basis
    vectors as rows: |psi> = sum_k sqrt(probs[k]) left[:,k] (x) right[k,:].
    """
    u, sv, vh = np.linalg.svd(s.grid)
    return SchmidtVector(sv**2), u, vh


def overlap(a: BipartiteState, b: BipartiteState) -> complex:
    """Inner product <a|b> = sum_ij conj(a.c_ij) b.c_ij."""
    if a.d != b.d:
        raise ValueError(f"dimension mismatch: {a.d} vs {b.d}")
    return complex(np.vdot(a.grid, b.grid))
