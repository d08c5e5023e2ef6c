"""The tolerances are module constants: each is positive and finite, and
no value for one reaches the package from the command line."""
import math

import pytest

from loccopy import config
from loccopy.cli import main


@pytest.mark.parametrize("name", ["unitarity_tol", "normality_tol", "phase_tol", "ortho_tol",
                                  "sum_tol", "max_ent_tol", "fidelity_tol"])
@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
def test_invalid_tolerance_rejected(capsys, name, value):
    constant = getattr(config, name.upper())
    assert math.isfinite(constant) and constant > 0.0
    with pytest.raises(SystemExit) as exc:
        main(["survey", "--d", "2", f"--{name.replace('_', '-')}={value!r}"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_one_eigendecomposition_tolerance():
    assert config.NORMALITY_TOL > 0.0
    assert not hasattr(config, "EIG_RECONSTRUCTION_TOL")
