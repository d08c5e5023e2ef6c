import json
import re

from loccopy.serialization import protocol_fields_to_json, stream_to_json

CRITERION = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")


def protocol_json(protocol) -> dict:
    """The protocol's JSON object as the CLI writes it, parsed back."""
    return json.loads("".join(stream_to_json(protocol_fields_to_json(protocol))))


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
