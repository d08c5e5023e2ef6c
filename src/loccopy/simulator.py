"""Copying protocols and their verification by the four-party overlap.

Particles are ordered (1,2,3,4): the state to copy lives on (1,2), the
blank on (3,4).  A CopyProtocol's operators act across that split, A on
(1,3) and B on (2,4), the one wiring CopyProtocol.wiring names.  run_copy
evaluates <psi psi| A^13 B^24 |psi blank> in closed form on the dense A
and B of any protocol, a loaded one included: _simulate applies the
Kronecker products of the amplitude grids, without forming them, by
np.matmul calls that write into three reused d^2 x d^2 arrays.  Synthesis
builds a CopyProtocol and verifies it on both of its states with one
call of the same routine, so copying imports this module, which never
imports copying.  The brute-force four-particle simulation it is
tested against lives in tests/oracles.py.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .states import BipartiteState, assert_unitary, unitary_of_state


@dataclass
class CopyProtocol:
    """Local unitaries copying two designed states onto a blank.

    A acts on particles (1,3), B on particles (2,4); the transformation
    achieved is A^13 (x) B^24 |psi_j^12>|b^34> = e^{i theta_j}
    |psi_j^12>|psi_j^34> for j in {1, 2}.
    """

    d: int
    blank: BipartiteState
    a_op: np.ndarray
    b_op: np.ndarray
    phases: tuple[float, float]
    wiring: ClassVar[str] = "A:(1,3) B:(2,4)"  # the one wiring; not a field

    def __post_init__(self) -> None:
        if self.blank.d != self.d:
            raise ValueError(f"blank has d={self.blank.d}, but the protocol has d={self.d}")
        n = self.d * self.d
        self.a_op = np.asarray(self.a_op, dtype=complex)
        self.b_op = np.asarray(self.b_op, dtype=complex)
        if self.a_op.shape != (n, n) or self.b_op.shape != (n, n):
            raise ValueError(
                f"operators must be {n} x {n} for d={self.d}, "
                f"got {self.a_op.shape} and {self.b_op.shape}"
            )


def run_copy(protocol: CopyProtocol, psi: BipartiteState) -> tuple[float, float]:
    """Simulate the protocol on psi; return (fidelity, recovered theta).

    Fidelity is |<target|output>|^2 against target = |psi^12>|psi^34>,
    quotienting out the global phase; theta = arg<target|output> is the
    phase the protocol attaches to this state.  Checks psi and the
    operators, then evaluates the closed-form overlap at O(d^5) in three
    d^2 x d^2 work arrays of its own.
    """
    if psi.d != protocol.d:
        raise ValueError(f"dimension mismatch: state {psi.d} vs protocol {protocol.d}")
    unitary_of_state(psi)
    assert_unitary(protocol.a_op, "A operator")
    assert_unitary(protocol.b_op, "B operator")
    return _simulate(protocol, (psi,))[0]


def _simulate(
    protocol: CopyProtocol, states: Sequence[BipartiteState]
) -> list[tuple[float, float]]:
    """run_copy on each of states, on inputs already validated: every state
    maximally entangled of dimension d, A and B unitary.

    With the (1,3) particle pair indexing rows and (2,4) columns, first
    factor fastest, |psi^12>|b^34> is the d^2 x d^2 matrix X = kron(psi, b)
    of amplitude grids, |psi^12>|psi^34> is Y = kron(psi, psi), and
    A^13 B^24 maps X to A X B^T.  The overlap is therefore
    sum(conj(Y) * (A X B^T)) = sum((A X) * (conj(Y) B)), at O(d^5).
    A X = (A kron(1, b)) kron(psi, 1), so the blank's factor is applied
    to A once for all states, and psi's as one product with A kron(1, b)
    cut into rows of d.  conj(Y) B = kron(c, c) B with c = conj(psi) takes
    two products: row i + d*j of B is index (i, j), so B reshapes to
    (d, d, d^2), and c acts on its middle axis, then on its first.  The
    work runs in three d^2 x d^2 arrays, allocated once and reused for
    every state.
    """
    d = protocol.d
    n = d * d
    x, y, z = (np.empty((n, n), dtype=complex) for _ in range(3))
    # column i + d*l of A kron(1, b) sums b[k, l] over column i + d*k of A
    ab = np.matmul(protocol.blank.grid.T, protocol.a_op.reshape(n, d, d),
                   out=x.reshape(n, d, d))
    results = []
    for psi in states:
        c = psi.grid
        cc = c.conj()
        np.matmul(cc, protocol.b_op.reshape(d, d, n), out=z.reshape(d, d, n))
        yb = np.matmul(cc, z.reshape(d, d * n), out=y.reshape(d, d * n))  # conj(Y) B
        ax = np.matmul(ab.reshape(n * d, d), c, out=z.reshape(n * d, d))  # A X
        ip = complex(np.dot(ax.ravel(), yb.ravel()))
        results.append((abs(ip) ** 2, float(np.angle(ip))))
    return results
