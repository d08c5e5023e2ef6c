"""Numeric tolerances, constants and error types, in one place.

The paper's copyability condition has no free parameter, so the
tolerances below only absorb floating-point roundoff.  They are module
constants, read where they are used; no argument, flag or environment
variable sets them; DENSE_BYTES is read by check_dense_bytes alone.
"""
from __future__ import annotations

import math

TAU = 2.0 * math.pi

NORM_TOL = 1e-10        # |norm - 1| bound when constructing a state or probability vector
UNITARITY_TOL = 1e-9    # ||U^dag U - I||_F bound, certified from factors for C1 and A
NORMALITY_TOL = 1e-8    # ||M V - V diag(lam)||_F / max(1, ||M||_F) bound in eig_normal
PHASE_TOL = 1e-7        # largest distance of an eigenphase from its rotated root, radians;
                        # clusters are cut at twice it; also the |Tr T|/d bound for orthogonality
SUM_TOL = 1e-10         # one-sided slack on majorization partial sums
MAX_ENT_TOL = 1e-8      # max deviation of Schmidt probs from 1/d
FIDELITY_TOL = 1e-9     # copy verification: require f >= 1 - FIDELITY_TOL
DENSE_BYTES = 2**31     # bytes of dense arrays one call may hold; a protocol's five admit d <= 71


def protocol_bytes(d: int) -> int:
    """A, B and simulator._simulate's three work arrays: five complex d^2 x d^2."""
    return 5 * 16 * d**4


def int_text(n: int) -> str:
    """n in decimal, or, past 14000 bits, whose decimal could pass Python's
    4300-digit int-to-str limit, as at least a power of two."""
    bits = n.bit_length()
    return str(n) if bits <= 14000 else f"at least 2**{bits - 1}"


def check_dense_bytes(what: str, needed: int) -> None:
    """ValueError when needed, the exact bytes of a call's dense arrays, exceeds DENSE_BYTES."""
    if needed > DENSE_BYTES:
        raise ValueError(f"{what} needs {int_text(needed)} bytes, over the budget of {DENSE_BYTES} bytes")


class PreconditionError(ValueError):
    """An input violates an operation's mathematical precondition."""


class NotCopyableError(PreconditionError):
    """The pair is valid input, but no local copying protocol exists for it."""


class SynthesisError(RuntimeError):
    """A synthesized operator failed its own verification; signals a tolerance bug."""
