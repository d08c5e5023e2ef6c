"""The input contract of the JSON loaders and the CLI, as properties.

Any JSON value, or a valid document with one node replaced, removed or
given an extra key, either loads or raises ValueError, and through the
CLI, with or without --pretty, it ends in exit code 0, 1 or 2 with at
most one stderr line: never a traceback, and never a numpy warning
(pytest turns warnings into errors).  A valid document with one number
replaced by true, false, null or the number's text never loads, and
through the CLI it exits 2 with one error line naming the key.
"""
import copy
import io
import json
import os
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from loccopy import serialization
from loccopy.cli import main
from loccopy.copying import synthesize_protocol
from loccopy.generators import orthogonal_pair
from loccopy.states import from_unitary, max_entangled

from conftest import protocol_json

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([2**64, -(2**63), 10**400]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([1e308, -1e308, 1e200, 5e-324]),
    st.text(max_size=4),
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=10), children, max_size=4),
    max_leaves=10,
)

PSI1, PSI2 = orthogonal_pair(2, seed=3)
VALID = {
    "state": serialization.state_to_json(PSI1),
    "pair": serialization.pair_to_json(PSI1, PSI2),
    "probs": {"probs": [0.5, 0.5]},
    "coeffs": {"coeffs": [0.8, 0.6]},
    "protocol": protocol_json(synthesize_protocol(PSI1, PSI2, max_entangled(2))),
}


@st.composite
def mutated(draw, doc):
    """doc with one node, reached by a random path from the root, replaced
    by a JSON value, removed, or given a sibling (an extra key or entry)."""
    doc = copy.deepcopy(doc)
    node = doc
    while True:
        key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        child = node[key]
        if isinstance(child, (dict, list)) and child and draw(st.booleans()):
            node = child
            continue
        action = draw(st.sampled_from(["replace", "remove", "extra"]))
        if action == "replace":
            node[key] = draw(JSON_VALUES)
        elif action == "remove":
            del node[key]
        elif isinstance(node, dict):
            node[draw(st.text(max_size=10))] = draw(JSON_VALUES)
        else:
            node.append(draw(JSON_VALUES))
        return doc


DOCUMENTS = st.one_of(JSON_VALUES, st.sampled_from(sorted(VALID)).flatmap(
    lambda name: mutated(VALID[name])))

# the defects this contract first caught
BOOL_D = {"d": True, "amplitudes": [[1, 0]]}
HUGE_AMPLITUDE = {**VALID["state"], "amplitudes": [[1e308, 0.0]] + VALID["state"]["amplitudes"][1:]}
HUGE_COEFFS = {"coeffs": [1e200, 0.5]}
HUGE_OPERATOR = {**VALID["protocol"], "A": [[1e308, 0.0]] + VALID["protocol"]["A"][1:]}


@pytest.mark.parametrize("loader", ["state_from_json", "schmidt_from_json",
                                    "pair_from_json", "protocol_from_json"])
@given(doc=DOCUMENTS)
@example(doc=BOOL_D)
@example(doc=HUGE_AMPLITUDE)
@example(doc=HUGE_COEFFS)
@example(doc=HUGE_OPERATOR)
@example(doc={**VALID["pair"], "psi1": BOOL_D})
@example(doc={**VALID["protocol"], "d": True, "phases": [True, 10**400]})
@settings(max_examples=150, deadline=None)
def test_loader_loads_or_raises_value_error(loader, doc):
    try:
        getattr(serialization, loader)(doc)
    except ValueError:
        pass


def run_cli(argv):
    """Exit code, stdout and stderr of main(argv): argparse's exit gives
    the code, and each warning counts as a stderr line.  An exception
    escaping main, which would print a traceback, fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stdout(out), \
            redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    shown = "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    return code, out.getvalue(), shown + err.getvalue()


# Where the fuzzed document goes in each subcommand's arguments; the
# other files are valid.  generate and survey read no file, so their
# numbers are drawn instead.
FILE_ARGV = {
    "majorize": [["{doc}", "{probs}"], ["{coeffs}", "{doc}"]],
    "catalysis": [["{doc}", "{probs}"], ["{probs}", "{doc}"]],
    "check-pair": [["{doc}"], ["{doc}", "{state}"]],
    "synthesize": [["{doc}"], ["{pair}", "--blank", "{doc}"]],
    "simulate": [["{doc}", "{state}"], ["{protocol}", "{doc}"]],
}
# 71 is the last d whose protocol, five complex d^2 x d^2 arrays, fits in
# DENSE_BYTES, and 72 the first that generate and survey refuse; at 71
# they hold only 71 x 71 arrays, so nothing large is allocated; 80 d^4 at
# 10**4000 is too long for Python's int-to-str limit
DIMENSIONS = st.one_of(st.integers(-3, 9),
                       st.sampled_from([71, 72, 145, 20736, 20737, 2**64, 10**100, 10**4000]))


@st.composite
def number_argv(draw, command):
    """argv of generate or survey with drawn numbers that argparse accepts."""
    seed = ["--seed", str(draw(st.integers(-2, 2**70)))]
    if command == "survey":
        dims = [str(draw(DIMENSIONS)) for _ in range(draw(st.integers(1, 2)))]
        return ["survey", "--d", *dims, "--samples", str(draw(st.integers(-1, 2))), *seed]
    family = draw(st.sampled_from(["orthogonal", "copyable", "nonprime"]))
    argv = ["generate", "--family", family, *seed]
    for flag in {"orthogonal": ["--d"], "copyable": ["--d", "--m"],
                 "nonprime": ["--d1", "--d2"]}[family]:
        if draw(st.integers(0, 4)):  # sometimes left out
            argv.append(f"{flag}={draw(DIMENSIONS)}")
    if family == "nonprime" and draw(st.booleans()):
        delta = draw(st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                               st.sampled_from([1e308, 0.1, 0.5])))
        argv.append(f"--delta={delta!r}")
    return argv


@pytest.mark.parametrize("command", sorted(FILE_ARGV) + ["generate", "survey"])
@given(data=st.data())
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_cli_exits_with_a_documented_code(command, data):
    with tempfile.TemporaryDirectory() as tmp:
        if command in FILE_ARGV:
            doc = data.draw(DOCUMENTS, label="doc")
            paths = {}
            for name, content in {**VALID, "doc": doc}.items():
                paths[name] = os.path.join(tmp, f"{name}.json")
                with open(paths[name], "w") as fh:
                    json.dump(content, fh)
            args = data.draw(st.sampled_from(FILE_ARGV[command]), label="args")
            argv = [command, *(arg.format(**paths) for arg in args)]
        else:
            argv = data.draw(number_argv(command), label="argv")
        out = os.path.join(tmp, "out.json")
        if command in ("synthesize", "generate"):
            argv += ["--out", out]
        elif data.draw(st.booleans(), label="pretty"):
            argv.append("--pretty")
        code, _, err = run_cli(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) <= 1
    if code == 0:
        assert not lines
    if code == 2:
        assert lines


# Per valid document: its loader, and the CLI call that reads it as {doc}.
READERS = {
    "state": ("state_from_json", ["check-pair", "{doc}", "{state}"]),
    "pair": ("pair_from_json", ["check-pair", "{doc}"]),
    "probs": ("schmidt_from_json", ["majorize", "{doc}", "{probs}"]),
    "coeffs": ("schmidt_from_json", ["catalysis", "{doc}", "{probs}"]),
    "protocol": ("protocol_from_json", ["simulate", "{doc}", "{state}"]),
}
# the text by which an error names the key that holds the number
KEY_TEXT = {"d": "'d'", "amplitudes": "state amplitudes", "A": "protocol matrix A",
            "B": "protocol matrix B", "phases": "protocol phases",
            "probs": "'probs'", "coeffs": "'coeffs'"}


def number_paths(node, path=()):
    """Paths to the number leaves of node."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path] if type(node) in (int, float) else []
    return [leaf for key, child in items for leaf in number_paths(child, (*path, key))]


@st.composite
def non_number_leaf(draw):
    """(name, doc, key): VALID[name] with one number under key replaced by
    true, false, null or the number's own text."""
    name = draw(st.sampled_from(sorted(READERS)))
    doc = copy.deepcopy(VALID[name])
    *parents, last = draw(st.sampled_from(number_paths(doc)))
    node = doc
    for step in parents:
        node = node[step]
    node[last] = draw(st.sampled_from([True, False, None, json.dumps(node[last])]))
    return name, doc, [step for step in (*parents, last) if isinstance(step, str)][-1]


# the three documents that loaded before every number was checked for its type
R = 0.7071067811865476
TEXT_AMPLITUDE = {  # read as |00> + |11> and |00> - |11>, a copyable pair
    "psi1": {"d": 2, "amplitudes": [[R, 0.0], [0.0, 0.0], [0.0, 0.0], [R, 0.0]]},
    "psi2": {"d": 2, "amplitudes": [["0.7071067811865476", "0"], [0.0, False], [0.0, 0.0],
                                    [-R, 0.0]]},
}
CNOT = protocol_json(synthesize_protocol(
    max_entangled(2), from_unitary(np.diag([1.0, -1.0])), max_entangled(2)))
TRUE_OPERATOR = {**CNOT, "A": [[True if x == 1.0 else x for x in pair] for pair in CNOT["A"]]}


@given(case=non_number_leaf())
@example(case=("pair", TEXT_AMPLITUDE, "amplitudes"))
@example(case=("pair", {**VALID["pair"], "d": True}, "d"))
@example(case=("probs", {"probs": ["0.5", True, 0]}, "probs"))
@example(case=("protocol", TRUE_OPERATOR, "A"))
@settings(max_examples=60, deadline=None)
def test_non_number_leaf_is_refused(case):
    name, doc, key = case
    loader, args = READERS[name]
    with pytest.raises(ValueError, match=KEY_TEXT[key]):
        getattr(serialization, loader)(doc)
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for file, content in {**VALID, "doc": doc}.items():
            paths[file] = os.path.join(tmp, f"{file}.json")
            with open(paths[file], "w") as fh:
                json.dump(content, fh)
        code, out, err = run_cli([arg.format(**paths) for arg in args])
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and KEY_TEXT[key] in err
