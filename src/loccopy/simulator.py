"""Verification of copying protocols by the four-party overlap.

Particles are ordered (1,2,3,4): the state to copy lives on (1,2), the
blank on (3,4).  Protocol operators act across that split, A on (1,3)
and B on (2,4), the one wiring CopyProtocol.wiring names.  run_copy
evaluates <psi psi| A^13 B^24 |psi blank> in closed form on the dense A
and B of any protocol, a loaded one included: _simulate applies the
Kronecker products of the amplitude grids, without forming them, by
np.matmul calls that write into three reused d^2 x d^2 arrays.  Synthesis
verifies the A and B it returns on both of its states with one call of
the same routine.  The brute-force four-particle simulation it is tested
against lives in tests/oracles.py.
"""
from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .copying import CopyProtocol
from .states import BipartiteState, assert_max_entangled, assert_unitary


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
    assert_max_entangled(psi)
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


def emit_locc_transcript(protocol: CopyProtocol) -> str:
    """Human-readable LOCC transcript for a synthesized protocol.

    Synthesis always yields a single unitary Kraus branch (K = 1 with
    weight 1), so the shared-randomness implementation degenerates to
    one local unitary per party and no classical communication.
    """
    lines = [
        f"LOCC copying protocol, d = {protocol.d}",
        f"wiring: {protocol.wiring}",
        "branches: K = 1 (single unitary branch, weight 1)",
        "round 1: Alice applies A to her particles (1,3)",
        "round 1: Bob applies B to his particles (2,4)",
        "classical communication rounds required: 0",
        f"state phases theta_j: {protocol.phases[0]:+.9f}, {protocol.phases[1]:+.9f}",
    ]
    return "\n".join(lines)
