"""JSON formats for states, Schmidt vectors, protocols, and reports.

Complex data is serialized as [re, im] pairs.  State amplitudes are
listed in the flat mu = i + d*(j-1) order; matrices are row-major over
the same basis.  All loaders validate structure and raise ValueError
with the offending key named: a value that is not a JSON object, a
missing key, a "d" that is not an integer, and a protocol's "phases"
that are not two numbers or "wiring" that is not the one
CopyProtocol.wiring.
"""
from __future__ import annotations

import numpy as np

from .copying import CopyProtocol, SpectrumReport
from .states import BipartiteState, SchmidtVector


def _complex_to_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _complex_to_pairs(values: np.ndarray) -> list[list[float]]:
    """[re, im] pairs of values in row-major order, as _complex_to_pair gives
    them one by one; one tolist call instead of a Python loop."""
    flat = np.asarray(values, dtype=complex).ravel(order="C")
    return np.stack((flat.real, flat.imag), axis=-1).tolist()


def _pairs_to_array(pairs, what: str) -> np.ndarray:
    try:
        arr = np.asarray(pairs, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what} must be a list of [re, im] pairs: {exc}") from None
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"{what} must be a list of [re, im] pairs, got shape {arr.shape}")
    return arr[:, 0] + 1j * arr[:, 1]


def _require(obj: dict, key: str, what: str, kind: type | None = None):
    """obj[key], raising ValueError when obj is not a JSON object, key is
    missing, or the value is not of type kind (when given)."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(obj).__name__}")
    if key not in obj:
        raise ValueError(f"{what} is missing required key {key!r}")
    value = obj[key]
    if kind is not None and not isinstance(value, kind):
        raise ValueError(f"{what} key {key!r} must be {kind.__name__}, got {value!r}")
    return value


def state_to_json(s: BipartiteState) -> dict:
    return {
        "d": s.d,
        "amplitudes": _complex_to_pairs(s.vector()),
    }


def state_from_json(obj: dict) -> BipartiteState:
    d = _require(obj, "d", "state", int)
    flat = _pairs_to_array(_require(obj, "amplitudes", "state"), "state amplitudes")
    if flat.size != d * d:
        raise ValueError(f"state amplitudes have length {flat.size}, expected d*d = {d * d}")
    return BipartiteState(flat.reshape((d, d), order="F"))


def schmidt_to_json(v: SchmidtVector) -> dict:
    return {"probs": [float(p) for p in v.probs]}


def schmidt_from_json(obj: dict) -> SchmidtVector:
    if not isinstance(obj, dict):
        raise ValueError(f"Schmidt vector must be a JSON object, got {type(obj).__name__}")
    for key, power in (("probs", 1), ("coeffs", 2)):
        if key in obj:
            try:
                values = np.asarray(obj[key], dtype=float)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"Schmidt vector {key!r} must be numbers: {exc}") from None
            return SchmidtVector(values**power)
    raise ValueError("Schmidt vector needs a 'probs' or 'coeffs' array")


def _matrix_from_json(pairs, n: int, what: str) -> np.ndarray:
    flat = _pairs_to_array(pairs, what)
    if flat.size != n * n:
        raise ValueError(f"{what} has {flat.size} entries, expected {n}*{n} = {n * n}")
    return flat.reshape((n, n))


def protocol_to_json(p: CopyProtocol) -> dict:
    return {
        "d": p.d,
        "blank": state_to_json(p.blank),
        "A": _complex_to_pairs(p.a_op),
        "B": _complex_to_pairs(p.b_op),
        "phases": [float(x) for x in p.phases],
        "wiring": p.wiring,
    }


def protocol_from_json(obj: dict) -> CopyProtocol:
    d = _require(obj, "d", "protocol", int)
    n = d * d
    blank = state_from_json(_require(obj, "blank", "protocol"))
    a_op = _matrix_from_json(_require(obj, "A", "protocol"), n, "protocol matrix A")
    b_op = _matrix_from_json(_require(obj, "B", "protocol"), n, "protocol matrix B")
    phases = _require(obj, "phases", "protocol", list)
    if len(phases) != 2:
        raise ValueError(f"protocol phases must have 2 entries, got {len(phases)}")
    if not all(isinstance(x, (int, float)) for x in phases):
        raise ValueError(f"protocol phases must be numbers, got {phases!r}")
    wiring = obj.get("wiring", CopyProtocol.wiring)
    if wiring != CopyProtocol.wiring:
        raise ValueError(
            f"protocol wiring {wiring!r} is not supported; only {CopyProtocol.wiring!r}"
        )
    return CopyProtocol(
        d=d,
        blank=blank,
        a_op=a_op,
        b_op=b_op,
        phases=(float(phases[0]), float(phases[1])),
    )


def report_to_json(r: SpectrumReport) -> dict:
    return {
        "eigenphases": [float(p) for p in r.eigenphases],
        "clusters": [[float(rep), int(count)] for rep, count in r.clusters],
        "rotation": float(r.rotation),
        "detected_m": r.detected_m,
        "copyable": r.copyable,
        "trace": _complex_to_pair(r.trace),
    }


def pair_to_json(psi1: BipartiteState, psi2: BipartiteState, **meta) -> dict:
    out = {"d": psi1.d, "psi1": state_to_json(psi1), "psi2": state_to_json(psi2)}
    out.update(meta)
    return out


def pair_from_json(obj: dict) -> tuple[BipartiteState, BipartiteState]:
    psi1 = state_from_json(_require(obj, "psi1", "state pair"))
    psi2 = state_from_json(_require(obj, "psi2", "state pair"))
    if psi1.d != psi2.d:
        raise ValueError(f"state pair dimensions differ: {psi1.d} vs {psi2.d}")
    return psi1, psi2
