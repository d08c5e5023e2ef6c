"""Centralized numeric tolerances, constants and error types."""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

TAU = 2.0 * math.pi

NORM_TOL = 1e-10  # |norm - 1| bound when constructing a state or probability vector


@dataclass(frozen=True)
class NumericConfig:
    """All tolerances used across the package.

    Every comparison against an analytic identity goes through one of
    these fields, so batch drivers and the CLI can tighten or relax them
    in a single place.
    """

    unitarity_tol: float = 1e-9         # ||U^dag U - I||_F bound, certified from factors for C1 and A; also C1's relation residual
    normality_tol: float = 1e-8         # ||M V - V diag(lam)||_F / max(1, ||M||_F) bound in eig_normal
    phase_tol: float = 1e-7             # eigenphase clustering gap cut, radians
    ortho_tol: float = 1e-9             # relative trace threshold for orthogonality
    sum_tol: float = 1e-10              # one-sided slack on majorization partial sums
    max_ent_tol: float = 1e-8           # max deviation of Schmidt probs from 1/d
    fidelity_tol: float = 1e-9          # copy verification: require f >= 1 - fidelity_tol
    max_dim: int = 20736                # largest dense matrix dimension (12^4)

    def __post_init__(self) -> None:
        for f in fields(self):
            if f.name.endswith("_tol"):
                value = getattr(self, f.name)
                if not (math.isfinite(value) and value > 0.0):
                    raise ValueError(f"{f.name} must be positive and finite, got {value!r}")


DEFAULT = NumericConfig()


class PreconditionError(ValueError):
    """An input violates an operation's mathematical precondition."""


class AmbiguityError(ValueError):
    """Eigenphase clustering is ill-conditioned at the configured tolerance."""


class SynthesisError(RuntimeError):
    """A synthesized operator failed its own verification; signals a tolerance bug."""
