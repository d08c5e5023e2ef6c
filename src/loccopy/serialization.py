"""JSON formats for states, Schmidt vectors, protocols, and reports.

Complex data is serialized as [re, im] pairs.  State amplitudes are
listed in the flat mu = i + d*(j-1) order; matrices are row-major over
the same basis.  All loaders validate structure and raise ValueError
with the offending key named: a value that is not a JSON object, a
missing key, a "d" that is not an integer (true and false are not), a
protocol's "phases" that are not two finite numbers or "wiring" that is
not the one CopyProtocol.wiring, and a Schmidt or protocol matrix
entry above 1 in magnitude, which is refused before any arithmetic
that could overflow.

A protocol's field order is stated once, in protocol_fields_to_json,
which leaves A and B as complex arrays.  protocol_to_json expands them
to pair lists; stream_to_json yields the same text as json.dumps of
that dict one matrix row at a time, so a d=12 protocol (1.9 MB of
text) is written without its 41,472 pairs ever existing as Python
lists at once.  Loaders reinterpret the [re, im] pairs as complex
numbers bit for bit.
"""
from __future__ import annotations

import json
import math
from collections.abc import Iterator

import numpy as np

from .config import NORM_TOL, check_dense_bytes, int_text, protocol_bytes
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
        arr = np.array(pairs, dtype=float, order="C")
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{what} must be a list of [re, im] pairs: {exc}") from None
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"{what} must be a list of [re, im] pairs, got shape {arr.shape}")
    # Each C-ordered [re, im] row is one complex number's memory: the view
    # keeps every bit (a -0.0 imaginary part, an infinite entry) and does
    # no arithmetic.
    return arr.view(complex)[:, 0]


def _require(obj: dict, key: str, what: str, kind: type | None = None):
    """obj[key], raising ValueError when obj is not a JSON object, key is
    missing, or the value is not of type kind (when given); a bool (JSON
    true or false) is not an int here."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(obj).__name__}")
    if key not in obj:
        raise ValueError(f"{what} is missing required key {key!r}")
    value = obj[key]
    if kind is not None and (not isinstance(value, kind) or isinstance(value, bool)):
        raise ValueError(f"{what} key {key!r} must be {kind.__name__}, got {value!r}")
    return value


def _is_finite_number(x) -> bool:
    """x is a JSON number within the float range and finite; true and
    false are not numbers here."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an int beyond the float range
        return False


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
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"Schmidt vector {key!r} must be numbers: {exc}") from None
            if np.any(np.abs(values) > 1.0 + NORM_TOL):  # before squaring, which could overflow
                raise ValueError(f"Schmidt vector {key!r} entries must be at most 1")
            return SchmidtVector(values**power)
    raise ValueError("Schmidt vector needs a 'probs' or 'coeffs' array")


def _matrix_from_json(pairs, n: int, what: str) -> np.ndarray:
    flat = _pairs_to_array(pairs, what)
    if flat.size != n * n:
        raise ValueError(f"{what} has {flat.size} entries, expected {n}*{n} = {n * n}")
    # no part of a unitary's entry exceeds 1: a larger one is refused
    # before the unitarity check's product, which could overflow
    if np.any(np.abs(flat.real) > 1.0 + NORM_TOL) or np.any(np.abs(flat.imag) > 1.0 + NORM_TOL):
        raise ValueError(f"{what} entries must be at most 1 in magnitude")
    return flat.reshape((n, n))


def protocol_fields_to_json(p: CopyProtocol) -> dict:
    """The protocol's JSON object, in field order, with A and B still the
    complex arrays: stream_to_json writes it row by row, and
    protocol_to_json expands it to pair lists."""
    return {
        "d": p.d,
        "blank": state_to_json(p.blank),
        "A": p.a_op,
        "B": p.b_op,
        "phases": [float(x) for x in p.phases],
        "wiring": p.wiring,
    }


def protocol_to_json(p: CopyProtocol) -> dict:
    return {
        key: _complex_to_pairs(value) if isinstance(value, np.ndarray) else value
        for key, value in protocol_fields_to_json(p).items()
    }


def _row_to_json(row: np.ndarray) -> str:
    """The [re, im] pairs of one matrix row as JSON text, without the
    enclosing brackets."""
    return json.dumps(_complex_to_pairs(row))[1:-1]


def stream_to_json(obj: dict) -> Iterator[str]:
    """The text of json.dumps(obj) in pieces, where a complex array value
    stands for its _complex_to_pairs list and is encoded one row at a
    time, so that only one row's Python lists exist at once."""
    yield "{"
    for k, (key, value) in enumerate(obj.items()):
        yield f"{', ' if k else ''}{json.dumps(key)}: "
        if isinstance(value, np.ndarray):
            yield "["
            for i, row in enumerate(np.atleast_2d(value)):
                yield f"{', ' if i else ''}{_row_to_json(row)}"
            yield "]"
        else:
            yield json.dumps(value)
    yield "}"


def protocol_from_json(obj: dict) -> CopyProtocol:
    d = _require(obj, "d", "protocol", int)
    check_dense_bytes(f"a protocol at d = {int_text(d)}", protocol_bytes(d))
    n = d * d
    blank = state_from_json(_require(obj, "blank", "protocol"))
    a_op = _matrix_from_json(_require(obj, "A", "protocol"), n, "protocol matrix A")
    b_op = _matrix_from_json(_require(obj, "B", "protocol"), n, "protocol matrix B")
    phases = _require(obj, "phases", "protocol", list)
    if len(phases) != 2:
        raise ValueError(f"protocol phases must have 2 entries, got {len(phases)}")
    if not all(_is_finite_number(x) for x in phases):
        raise ValueError(f"protocol phases must be finite numbers, got {phases!r}")
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
