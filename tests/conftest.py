import json
import re

import numpy as np

from loccopy.config import PHASE_TOL
from loccopy.generators import haar_unitary
from loccopy.serialization import protocol_fields_to_json, stream_to_json
from loccopy.states import from_unitary

CRITERION = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")


def protocol_json(protocol) -> dict:
    """The protocol's JSON object as the CLI writes it, parsed back."""
    return json.loads("".join(stream_to_json(protocol_fields_to_json(protocol))))


def arc_bound_pair(seed: int):
    """A d = 2 pair whose T = U1 U2^dag has eigenphases off and
    off + pi + 2 PHASE_TOL (1 - eps), an arc just inside spectral_verdict's
    bound, in a Haar basis: copyable with M = 2, while |Tr T|/2 lies
    within roundoff of PHASE_TOL."""
    rng = np.random.default_rng(seed)
    eps = rng.uniform(0, 1e-9)
    off = rng.uniform(0, 2 * np.pi)
    v = haar_unitary(2, seed)
    phases = off + np.array([0.0, np.pi + 2 * PHASE_TOL * (1 - eps)])
    t = v @ np.diag(np.exp(1j * phases)) @ v.conj().T
    u2 = haar_unitary(2, seed + 10**6)
    return from_unitary(t @ u2), from_unitary(u2)


def pytest_terminal_summary(terminalreporter):
    """Print one pass/fail line per acceptance criterion."""
    verdicts = {}
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            match = CRITERION.search(getattr(report, "nodeid", ""))
            if match:
                n = int(match.group(1))
                verdict = "PASS" if outcome == "passed" else "FAIL"
                if verdicts.get(n) != "FAIL":
                    verdicts[n] = verdict
    if verdicts:
        terminalreporter.write_sep("=", "acceptance criteria")
        for n in sorted(verdicts):
            terminalreporter.write_line(f"ACCEPTANCE {n} {verdicts[n]}")
