"""Brute-force reference implementations the package is tested against.

The package verifies protocols by the closed-form four-party overlap
(simulator.run_copy) and builds pair operators by the formula
D C1 C2^dag (copying.pair_operator).  The routines here compute the
same quantities the long way: assemble and apply_local build the whole
four-particle state and re-wire its factor order through the (1,3,2,4)
permutation and back, and partial_trace_second traces out the second
factor of a dense operator.  They live with the tests, as oracles, and
no package path calls them.

Particles are ordered (1,2,3,4): the state to copy lives on (1,2), the
blank on (3,4); A acts on (1,3) and B on (2,4).  Flat vectors follow the
package's index convention, first factor fastest (see loccopy.tensor).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from loccopy.config import NORM_TOL
from loccopy.states import BipartiteState, assert_unitary

WIRING = (1, 3, 2, 4)  # self-inverse factor permutation pairing A and B slots


def partial_trace_second(m: np.ndarray, d1: int, d2: int) -> np.ndarray:
    """Trace out the second factor of an operator on a d1*d2 dimensional space.

    Returns the d1 x d1 matrix with entries sum_k m[(i,k),(i',k)].
    """
    m = np.asarray(m)
    n = d1 * d2
    if m.shape != (n, n):
        raise ValueError(f"expected a {n} x {n} matrix for d1={d1}, d2={d2}, got {m.shape}")
    # row mu = i + d1*k (0-based), so a C-order reshape exposes [k, i, k', i']
    m4 = m.reshape(d2, d1, d2, d1)
    return np.einsum("kikj->ij", m4)


def permute_factors(v: np.ndarray, dims: list[int], perm: tuple[int, ...]) -> np.ndarray:
    """Reorder the tensor factors of a flat state vector.

    ``perm`` is 1-based: output factor position k carries input factor
    perm[k-1].  The amplitude at multi-index (i_perm(1), ..., i_perm(n))
    of the output equals the amplitude at (i_1, ..., i_n) of the input.
    """
    v = np.asarray(v)
    n = len(dims)
    if int(np.prod(dims)) != v.size:
        raise ValueError(f"product of dims {dims} != vector size {v.size}")
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError(f"perm {perm} is not a permutation of 1..{n}")
    axes = [p - 1 for p in perm]
    grid = v.reshape(dims, order="F")
    out = grid.transpose(axes)
    return out.flatten(order="F")


@dataclass
class FourPartyState:
    """Pure state of four d-dimensional particles as a flat D^4 vector."""

    d: int
    vector: np.ndarray  # particle order (1,2,3,4), first factor fastest

    def __post_init__(self) -> None:
        self.vector = np.asarray(self.vector, dtype=complex)
        if self.vector.shape != (self.d**4,):
            raise ValueError(
                f"expected a flat vector of length {self.d**4}, got {self.vector.shape}"
            )
        norm = float(np.linalg.norm(self.vector))
        if not abs(norm - 1.0) <= NORM_TOL:
            raise ValueError(f"state is not normalized: 2-norm = {norm!r}")


def assemble(psi: BipartiteState, blank: BipartiteState) -> FourPartyState:
    """|psi^12> (x) |blank^34> in particle order (1,2,3,4)."""
    if psi.d != blank.d:
        raise ValueError(f"dimension mismatch: {psi.d} vs {blank.d}")
    grid = np.einsum("ab,cd->abcd", psi.grid, blank.grid)
    return FourPartyState(psi.d, grid.flatten(order="F"))


def apply_local(state: FourPartyState, a_op: np.ndarray, b_op: np.ndarray) -> FourPartyState:
    """Apply A on particles (1,3) and B on particles (2,4).

    Equivalent to permuting factors (1,2,3,4) -> (1,3,2,4), applying
    a_op (x) b_op, and permuting back, but without materializing the
    D^4 x D^4 product: after the permutation the vector is a matrix with
    the (1,3) pair indexing rows and (2,4) columns, so the two operators
    act as a left and a (transposed) right factor.
    """
    d = state.d
    n = d * d
    a_op = np.asarray(a_op, dtype=complex)
    b_op = np.asarray(b_op, dtype=complex)
    if a_op.shape != (n, n) or b_op.shape != (n, n):
        raise ValueError(
            f"operators must be {n} x {n}, got {a_op.shape} and {b_op.shape}"
        )
    assert_unitary(a_op, "A operator")
    assert_unitary(b_op, "B operator")

    dims = [d] * 4
    v = permute_factors(state.vector, dims, WIRING)
    grid = v.reshape((n, n), order="F")  # rows: (1,3) pair index, cols: (2,4)
    out = a_op @ grid @ b_op.T
    v = permute_factors(out.flatten(order="F"), dims, WIRING)
    return FourPartyState(d, v)
