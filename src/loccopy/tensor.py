"""Dense complex linear algebra primitives shared by every module.

Index convention, fixed globally: a product state |x_i> (x) |x_j> of two
factors with dimensions (d1, d2) sits at flat index mu = i + d1*(j - 1)
in 1-based terms, so the FIRST factor varies fastest.  Consequences used
throughout the package:

  * the matrix of op1 (x) op2 is numpy's ``np.kron(op2, op1)``;
  * a d1 x d2 amplitude grid c[i, j] flattens with ``order='F'``;
  * reshaping a flat vector back to factors uses ``order='F'`` as well.
"""
from __future__ import annotations

import numpy as np

from .config import MAX_DIM, NORMALITY_TOL, PreconditionError


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product of two operators, first factor fastest.

    Returns the matrix of a (x) b in the mu = i + d1*(j-1) convention,
    which is np.kron(b, a).
    """
    a = np.asarray(a)
    b = np.asarray(b)
    rows = a.shape[0] * b.shape[0]
    cols = a.shape[1] * b.shape[1]
    if max(rows, cols) > MAX_DIM:
        raise ValueError(f"kron result is {rows} x {cols}, exceeds max dimension {MAX_DIM}")
    return np.kron(b, a)


def _kron_sum(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """sum_s kron(first[s], second[s]) as a new array, for two (M, d, d)
    stacks of factors, at O(M d^4).

    Row i + d*p, column j + d*q of the sum is
    sum_s second[s, p, q] first[s, i, j].  For each p that is one product
    of inner dimension M, whose d^3 result is written straight into the
    rows i + d*p, so no d^2 x d^2 temporary is formed.
    """
    m, d, _ = first.shape
    out = np.empty((d * d, d * d), dtype=np.result_type(first, second))
    blocks = out.reshape(d, d, d, d)  # [p, i, q, j]
    flat = first.reshape(m, d * d)
    for p in range(d):
        blocks[p] = (second[:, p, :].T @ flat).reshape(d, d, d).transpose(1, 0, 2)
    return out


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


def eig_normal(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a normal matrix with orthonormal eigenvectors.

    A general eigensolver returns eigenvectors that are orthogonal across
    distinct eigenvalues of a normal matrix but only linearly independent
    inside a degenerate eigenspace.  A QR factorization of the eigenvector
    matrix keeps each column inside the span of itself and the columns
    before it, so it orthonormalizes every eigenspace without mixing two
    of them.  The residual ||m V - V diag(lam)||_F, relative to
    max(1, ||m||_F), must then stay within NORMALITY_TOL; a non-normal
    matrix fails it because no unitary V diagonalizes it.  Returns
    (eigenvalues, eigenvector columns), unsorted; m @ V == V @ diag(lam).
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    lam, vecs = np.linalg.eig(m)
    v, _ = np.linalg.qr(vecs)
    residual = float(np.linalg.norm(m @ v - v * lam))
    if not residual <= NORMALITY_TOL * max(1.0, float(np.linalg.norm(m))):
        raise PreconditionError(
            f"matrix is not normal: eigenvector residual {residual:.3e}"
        )
    return lam, v
