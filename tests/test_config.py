import math

import pytest

from loccopy.config import DEFAULT, NumericConfig


@pytest.mark.parametrize("name", ["unitarity_tol", "normality_tol", "phase_tol", "ortho_tol",
                                  "sum_tol", "max_ent_tol", "fidelity_tol"])
@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
def test_invalid_tolerance_rejected(name, value):
    with pytest.raises(ValueError, match=name):
        NumericConfig(**{name: value})


def test_one_eigendecomposition_tolerance():
    assert not hasattr(DEFAULT, "eig_reconstruction_tol")
