"""LOCC copying of orthogonal maximally entangled bipartite states.

Decides when a pair of orthogonal maximally entangled states can be
copied by local operations with a maximally entangled blank state,
synthesizes the two local unitaries that do it, and verifies protocols
by the closed-form four-party overlap on the dense A and B.  Includes
the majorization machinery (Nielsen transformability and catalytic
copying of partially entangled states) and deterministic generators for
test families.  The brute-force oracle lives in tests/oracles.py.

Importing the package imports nothing else, numpy included.  Each name
in __all__ is looked up in its home module on every access
(``loccopy.spectral_verdict`` is ``loccopy.copying.spectral_verdict``
at the time of the access), importing that module the first time, so
``python -m loccopy.cli --help`` never loads numpy.  The lookup stores
nothing in the package namespace: a name replaced in its home module,
as by ``monkeypatch.setattr(loccopy.copying, ...)``, is seen here too.
Submodules such as ``loccopy.serialization`` import on first access.
"""
from __future__ import annotations

import importlib
import sys

__version__ = "0.1.0"

_HOMES = {
    "config": ("NotCopyableError", "PreconditionError", "SynthesisError"),
    "copying": (
        "IDENTICAL", "NEITHER", "ORTHOGONAL", "SpectrumReport",
        "degeneracy_form_check", "orthogonality", "pair_operator", "spectral_verdict",
        "survey", "synthesize_a", "synthesize_protocol",
    ),
    "generators": (
        "copyable_pair", "copyable_unitary", "haar_unitary", "nonprime_counterexample",
        "nonprime_unitary", "orthogonal_pair", "traceless_unitary",
    ),
    "majorization": (
        "CATALYTIC", "DIRECT", "IMPOSSIBLE", "catalytic_copy_check",
        "find_catalytic_pair", "majorizes", "nielsen_transformable", "partial_sums",
    ),
    "simulator": ("CopyProtocol", "run_copy"),
    "states": (
        "BipartiteState", "SchmidtVector", "from_unitary", "max_entangled", "overlap",
        "unitary_of_state",
    ),
    "tensor": ("eig_normal",),
}
_SUBMODULES = frozenset(_HOMES) | {"cli", "serialization"}
_HOME_OF = {name: f"{__name__}.{module}" for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME_OF)


def __getattr__(name: str):
    home = _HOME_OF.get(name)
    if home is not None:
        module = sys.modules.get(home) or importlib.import_module(home)
        return getattr(module, name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
