"""Each demo runs as a script and prints its verdicts."""
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

EXPECTED = {
    "bell_copy_demo.py": ["copyable: True with M = 2", "copy of Phi+: fidelity = 0.99999999999"],
    "catalysis_demo.py": ["catalytic_copy_check verdict: catalytic", "  verdict: catalytic"],
    "spectral_condition_demo.py": ["  copyable: True  detected M: 3", "  copyable: False"],
    "survey_demo.py": ["  2       1.000     1.000", "  4       1.000     0.000"],
}


@pytest.mark.parametrize("demo", sorted(EXPECTED))
def test_demo_prints_its_verdicts(demo):
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    result = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)],
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    for expected in EXPECTED[demo]:
        assert any(line.startswith(expected) for line in lines), expected
