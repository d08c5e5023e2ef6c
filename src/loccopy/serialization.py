"""JSON formats for states, Schmidt vectors, protocols, and reports.

Complex data is serialized as [re, im] pairs.  State amplitudes are
listed in the flat mu = i + d*(j-1) order; matrices are row-major over
the same basis.  All loaders raise ValueError with the offending key
named for a value that is not a JSON object, a missing key, a "d" that
is not an integer of at least 2, a pair's "d" that is not its states' d,
a protocol's "phases" that are not two numbers or "wiring" that is not
the one CopyProtocol.wiring.  Every number is read by _numbers: it must
be a finite JSON number (true, false, strings and null are not), and an
amplitude, operator entry or Schmidt entry at most 1 in magnitude,
checked before any arithmetic.

A protocol's JSON object is built once, in protocol_fields_to_json,
which leaves A and B as complex arrays; stream_to_json writes it with
each matrix as its list of [re, im] pairs, one row at a time, so a d=12
protocol (1.9 MB of text) is written without its 41,472 pairs ever
existing as Python lists at once.  Loaders reinterpret the [re, im]
pairs as complex numbers bit for bit.  protocol_from_json imports
simulator, the home of CopyProtocol, when it is called, so that the
other loaders load neither simulator nor copying.
"""
from __future__ import annotations

import json
from collections.abc import Iterator
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

from .config import NORM_TOL, check_dense_bytes, int_text, protocol_bytes
from .states import BipartiteState, SchmidtVector

if TYPE_CHECKING:
    from .copying import SpectrumReport
    from .simulator import CopyProtocol


def _complex_to_pairs(values: np.ndarray) -> list[list[float]]:
    """[float(re), float(im)] pairs of values in row-major order; one
    tolist call instead of a Python loop."""
    flat = np.asarray(values, dtype=complex).ravel(order="C")
    return np.stack((flat.real, flat.imag), axis=-1).tolist()


def _numbers(value, what: str, depth: int = 1, bounded: bool = True) -> np.ndarray:
    """value, JSON lists nested depth deep, as a C-ordered float array of
    the same shape.  ValueError naming what unless the lists are regular,
    every leaf is an int or a float (true, false, strings and null are
    not), every entry is finite and, when bounded, at most 1 + NORM_TOL in
    magnitude.  Each level is one pass over its items; no arithmetic runs
    before the bound is checked."""
    form = "a list of [re, im] pairs" if depth == 2 else "a list of numbers"
    items, shape = [value], []
    for _ in range(depth):
        if set(map(type, items)) - {list}:
            raise ValueError(f"{what} must be {form}")
        widths = set(map(len, items))
        if len(widths) > 1:
            raise ValueError(f"{what} must be {form}, not lists of unequal lengths")
        shape.append(widths.pop() if widths else 0)
        items = list(chain.from_iterable(items))
    kinds = set(map(type, items))
    if bool in kinds or not all(issubclass(kind, (int, float)) for kind in kinds):
        bad = next(x for x in items if type(x) is bool or not isinstance(x, (int, float)))
        raise ValueError(f"{what} entries must be numbers, got {type(bad).__name__}")
    try:
        arr = np.array(items, dtype=float).reshape(shape)
    except OverflowError:  # an int beyond the float range
        raise ValueError(f"{what} entries must be finite") from None
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} entries must be finite")
    if bounded and (np.abs(arr) > 1.0 + NORM_TOL).any():
        raise ValueError(f"{what} entries must be at most 1 in magnitude")
    return arr


def _pairs_to_array(pairs, what: str) -> np.ndarray:
    arr = _numbers(pairs, what, depth=2)
    if arr.shape[1] != 2:
        raise ValueError(f"{what} must be a list of [re, im] pairs, got shape {arr.shape}")
    # Each C-ordered [re, im] row is one complex number's memory: the view
    # keeps every bit (a -0.0 imaginary part) and does no arithmetic.
    return arr.view(complex)[:, 0]


def _require(obj: dict, key: str, what: str):
    """obj[key], raising ValueError when obj is not a JSON object or key is missing."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(obj).__name__}")
    if key not in obj:
        raise ValueError(f"{what} is missing required key {key!r}")
    return obj[key]


def _dimension(obj: dict, what: str) -> int:
    """obj["d"], an int of at least 2; a bool (JSON true or false) is not an int here."""
    d = _require(obj, "d", what)
    if not isinstance(d, int) or isinstance(d, bool):
        raise ValueError(f"{what} key 'd' must be int, got {d!r}")
    if d < 2:
        raise ValueError(f"{what} key 'd' must be at least 2")
    return d


def state_to_json(s: BipartiteState) -> dict:
    return {
        "d": s.d,
        "amplitudes": _complex_to_pairs(s.vector()),
    }


def state_from_json(obj: dict) -> BipartiteState:
    d = _dimension(obj, "state")
    flat = _pairs_to_array(_require(obj, "amplitudes", "state"), "state amplitudes")
    if flat.size != d * d:
        raise ValueError(
            f"state amplitudes have length {flat.size}, expected d*d = {int_text(d * d)}")
    return BipartiteState(flat.reshape((d, d), order="F"))


def schmidt_from_json(obj: dict) -> SchmidtVector:
    if not isinstance(obj, dict):
        raise ValueError(f"Schmidt vector must be a JSON object, got {type(obj).__name__}")
    for key, power in (("probs", 1), ("coeffs", 2)):
        if key in obj:
            return SchmidtVector(_numbers(obj[key], f"Schmidt vector {key!r}") ** power)
    raise ValueError("Schmidt vector needs a 'probs' or 'coeffs' array")


def _matrix_from_json(pairs, n: int, what: str) -> np.ndarray:
    flat = _pairs_to_array(pairs, what)
    if flat.size != n * n:
        raise ValueError(f"{what} has {flat.size} entries, expected {n}*{n} = {n * n}")
    return flat.reshape((n, n))


def protocol_fields_to_json(p: CopyProtocol) -> dict:
    """The protocol's JSON object, in field order, with A and B still the
    complex arrays, which stream_to_json writes row by row."""
    return {
        "d": p.d,
        "blank": state_to_json(p.blank),
        "A": p.a_op,
        "B": p.b_op,
        "phases": [float(x) for x in p.phases],
        "wiring": p.wiring,
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
    from .simulator import CopyProtocol  # here, so that the other loaders never load it

    d = _dimension(obj, "protocol")
    check_dense_bytes(f"a protocol at d = {int_text(d)}", protocol_bytes(d))
    n = d * d
    blank = state_from_json(_require(obj, "blank", "protocol"))
    a_op = _matrix_from_json(_require(obj, "A", "protocol"), n, "protocol matrix A")
    b_op = _matrix_from_json(_require(obj, "B", "protocol"), n, "protocol matrix B")
    phases = _numbers(_require(obj, "phases", "protocol"), "protocol phases", bounded=False)
    if phases.size != 2:
        raise ValueError(f"protocol phases must have 2 entries, got {phases.size}")
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
        "trace": [float(r.trace.real), float(r.trace.imag)],
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
    d = _dimension(obj, "state pair")
    if d != psi1.d:
        raise ValueError(f"state pair key 'd' is {int_text(d)}, but its states have d = {psi1.d}")
    return psi1, psi2
