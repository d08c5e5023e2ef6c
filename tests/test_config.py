"""The tolerances are module constants: each is positive and finite, no
value for one reaches the package from the command line, and README's
table lists each with its value."""
import math
import re
from pathlib import Path

import pytest

from loccopy import config
from loccopy.cli import main


@pytest.mark.parametrize("name", ["unitarity_tol", "normality_tol", "phase_tol", "ortho_tol",
                                  "sum_tol", "max_ent_tol", "fidelity_tol"])
@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
def test_invalid_tolerance_rejected(capsys, name, value):
    if name == "ortho_tol":  # gone: orthogonality is judged at PHASE_TOL
        assert not hasattr(config, name.upper())
    else:
        constant = getattr(config, name.upper())
        assert math.isfinite(constant) and constant > 0.0
    with pytest.raises(SystemExit) as exc:
        main(["survey", "--d", "2", f"--{name.replace('_', '-')}={value!r}"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_one_eigendecomposition_tolerance():
    assert config.NORMALITY_TOL > 0.0
    assert not hasattr(config, "EIG_RECONSTRUCTION_TOL")


def test_readme_table_lists_the_constants():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    rows = re.findall(r"^ *\| `([A-Z_]+)` \| ([^|]+) \|", readme, flags=re.MULTILINE)
    constants = {name: value for name, value in vars(config).items()
                 if name.isupper() and isinstance(value, (int, float)) and name != "TAU"}
    assert sorted(name for name, _ in rows) == sorted(constants)
    assert {name: float(value) for name, value in rows} == constants


@pytest.mark.parametrize("needed,amount", [(2**14000 - 1, str(2**14000 - 1)),
                                           (2**14000, "at least 2**14000")])
def test_budget_refusal_names_any_byte_count(needed, amount):
    # the exact count while its decimal is within Python's 4300-digit
    # int-to-str limit, a power of two below it after
    with pytest.raises(ValueError) as exc:
        config.check_dense_bytes("x", needed)
    assert str(exc.value) == f"x needs {amount} bytes, over the budget of {config.DENSE_BYTES} bytes"
