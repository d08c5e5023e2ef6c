"""Dense complex linear algebra for synthesis: the sum of Kronecker
products that assembles a protocol's A and B, and the eigendecomposition
of a normal matrix with orthonormal eigenvectors.

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

from .config import NORMALITY_TOL, PreconditionError


def _kron_sum(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """sum_s first[s] (x) second[s] as a new array, for two (M, d, d)
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
