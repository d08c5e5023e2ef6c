"""LOCC copying of orthogonal maximally entangled bipartite states.

Decides when a pair of orthogonal maximally entangled states can be
copied by local operations with a maximally entangled blank state,
synthesizes the two local unitaries that do it, and verifies protocols
by the closed-form four-party overlap on the dense A and B, with a
brute-force four-particle simulator kept as its oracle.  Includes the majorization machinery
(Nielsen transformability and catalytic copying of partially entangled
states) and deterministic generators for test families.
"""
from .config import AmbiguityError, PreconditionError, SynthesisError
from .copying import (
    IDENTICAL,
    NEITHER,
    ORTHOGONAL,
    CopyProtocol,
    SpectrumReport,
    degeneracy_form_check,
    orthogonality,
    pair_operator,
    spectral_verdict,
    synthesize_a,
    synthesize_protocol,
)
from .generators import (
    copyable_pair,
    copyable_unitary,
    haar_unitary,
    nonprime_counterexample,
    nonprime_unitary,
    orthogonal_pair,
    traceless_unitary,
)
from .majorization import (
    CATALYTIC,
    DIRECT,
    IMPOSSIBLE,
    catalytic_copy_check,
    find_catalytic_pair,
    majorizes,
    nielsen_transformable,
)
from .simulator import (
    FourPartyState,
    apply_local,
    assemble,
    emit_locc_transcript,
    run_copy,
)
from .states import (
    BipartiteState,
    SchmidtVector,
    from_unitary,
    max_entangled,
    overlap,
    schmidt,
    unitary_of_state,
)
from .tensor import eig_normal, kron, partial_trace_second, permute_factors

__version__ = "0.1.0"

__all__ = [
    "AmbiguityError",
    "BipartiteState",
    "CATALYTIC",
    "CopyProtocol",
    "DIRECT",
    "FourPartyState",
    "IDENTICAL",
    "IMPOSSIBLE",
    "NEITHER",
    "ORTHOGONAL",
    "PreconditionError",
    "SchmidtVector",
    "SpectrumReport",
    "SynthesisError",
    "apply_local",
    "assemble",
    "catalytic_copy_check",
    "copyable_pair",
    "copyable_unitary",
    "degeneracy_form_check",
    "eig_normal",
    "emit_locc_transcript",
    "find_catalytic_pair",
    "from_unitary",
    "haar_unitary",
    "kron",
    "majorizes",
    "max_entangled",
    "nielsen_transformable",
    "nonprime_counterexample",
    "nonprime_unitary",
    "orthogonal_pair",
    "orthogonality",
    "overlap",
    "pair_operator",
    "partial_trace_second",
    "permute_factors",
    "run_copy",
    "schmidt",
    "spectral_verdict",
    "synthesize_a",
    "synthesize_protocol",
    "traceless_unitary",
    "unitary_of_state",
]
