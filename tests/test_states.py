import numpy as np
import pytest
from loccopy.config import MAX_ENT_TOL, PreconditionError
from loccopy.generators import haar_unitary
from loccopy.states import (
    BipartiteState,
    SchmidtVector,
    assert_unitary,
    from_unitary,
    max_entangled,
    overlap,
    unitary_of_state,
)

from oracles import partial_trace_second

SX = np.array([[0, 1], [1, 0]], dtype=complex)


class TestConstruction:
    def test_max_entangled_d2(self):
        s = max_entangled(2)
        assert np.allclose(s.grid, np.eye(2) / np.sqrt(2))
        assert np.allclose(s.vector(), [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)])

    def test_max_entangled_d3_schmidt_uniform(self):
        probs = np.linalg.svd(max_entangled(3).grid, compute_uv=False) ** 2
        assert np.allclose(probs, [1 / 3] * 3)

    def test_max_entangled_reduction_d5(self):
        s = max_entangled(5)
        rho = np.outer(s.vector(), s.vector().conj())
        assert np.allclose(partial_trace_second(rho, 5, 5), np.eye(5) / 5)

    def test_small_dimension_rejected(self):
        with pytest.raises(ValueError):
            max_entangled(1)

    def test_unnormalized_grid_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            BipartiteState(np.eye(2))

    def test_nonfinite_grid_rejected(self):
        grid = np.eye(2, dtype=complex) / np.sqrt(2)
        grid[0, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            BipartiteState(grid)

    @pytest.mark.parametrize("make,message", [
        (lambda: BipartiteState(np.ones((2, 3)) / np.sqrt(6)),
         "amplitude grid must be square, got (2, 3)"),
        (lambda: BipartiteState([[1.0]]), "subsystem dimension must be at least 2"),
        # JSON input is bounded before it gets here
        (lambda: BipartiteState(np.diag([1.5, 0.0])), "amplitudes must be at most 1 in magnitude"),
        (lambda: SchmidtVector([]), "probs must be a nonempty 1-d array, got shape (0,)"),
        (lambda: SchmidtVector([[0.5, 0.5]]),
         "probs must be a nonempty 1-d array, got shape (1, 2)"),
        (lambda: SchmidtVector([1.5, 0.0]), "probs must be at most 1, got max 1.5"),
        (lambda: assert_unitary(np.eye(2, 3), "T"), "T must be square, got shape (2, 3)"),
    ], ids=["state not square", "state 1x1", "state amplitude above 1", "probs empty",
            "probs 2-d", "prob above 1", "matrix not square"])
    def test_malformed_input_refused(self, make, message):
        with pytest.raises(ValueError) as exc:
            make()
        assert str(exc.value) == message


class TestSchmidtVector:
    def test_sorted_descending(self):
        v = SchmidtVector([0.1, 0.5, 0.4])
        assert np.array_equal(v.probs, [0.5, 0.4, 0.1])

    @pytest.mark.parametrize("probs", [[0.500000000045] * 2, [0.499999999955] * 2,
                                       [0.3, 0.3, 0.4 - 6e-11, 1e-11]])
    def test_divided_by_its_sum(self, probs):
        # within NORM_TOL of 1, the sum is divided out
        assert np.sum(SchmidtVector(probs).probs) == pytest.approx(1.0, abs=4e-16)

    def test_exact_sum_leaves_the_values(self):
        # the correctly rounded sum of 0.7, 0.2 and 0.1 is 1.0, so dividing
        # by it changes no bit, although numpy sums them in this order to
        # 0.9999999999999999
        assert np.array_equal(SchmidtVector([0.7, 0.2, 0.1]).probs, [0.7, 0.2, 0.1])

    def test_sum_enforced(self):
        with pytest.raises(ValueError, match="sum"):
            SchmidtVector([0.5, 0.4])

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            SchmidtVector([1.2, -0.2])

    @pytest.mark.parametrize("probs", [[np.nan, 1.0], [np.inf, 0.0]])
    def test_nonfinite_rejected(self, probs):
        with pytest.raises(ValueError, match="finite"):
            SchmidtVector(probs)


class TestUnitaryParameterization:
    def test_identity_gives_reference_state(self):
        assert np.allclose(from_unitary(np.eye(4)).grid, max_entangled(4).grid)

    def test_sigma_x_state(self):
        s = from_unitary(SX)
        assert np.allclose(s.vector(), [0, 1 / np.sqrt(2), 1 / np.sqrt(2), 0])

    @pytest.mark.parametrize("seed", range(5))
    def test_round_trip_on_haar(self, seed):
        u = haar_unitary(6, seed)
        assert np.linalg.norm(unitary_of_state(from_unitary(u)) - u) < 1e-9

    def test_unitary_of_reference_state(self):
        assert np.allclose(unitary_of_state(max_entangled(3)), np.eye(3))

    def test_partially_entangled_rejected(self):
        grid = np.diag([np.sqrt(0.6), np.sqrt(0.4)])
        with pytest.raises(PreconditionError, match="deviate"):
            unitary_of_state(BipartiteState(grid))

    def test_non_unitary_input_rejected(self):
        with pytest.raises(PreconditionError, match="unitary"):
            from_unitary(np.ones((2, 2)))

    def test_nan_matrix_rejected(self):
        with pytest.raises(PreconditionError, match="not unitary"):
            assert_unitary(np.full((2, 2), np.nan))

    def test_integer_unitary_accepted(self):
        assert_unitary(np.array([[0, 1], [1, 0]]))

    @pytest.mark.parametrize("d", [4, 12])
    def test_nearly_maximally_entangled_state_gives_unitary(self, d):
        # passes MAX_ENT_TOL, but sqrt(d) C is further from unitary than
        # UNITARITY_TOL allows
        probs = np.full(d, 1.0 / d)
        probs[:2] += (0.99 * MAX_ENT_TOL, -0.99 * MAX_ENT_TOL)
        assert_unitary(unitary_of_state(schmidt_state(probs, seed=d)))


def schmidt_state(probs, seed):
    """A state with the given Schmidt probabilities in Haar-random bases."""
    d = len(probs)
    left, right = haar_unitary(d, seed=(seed, 1)), haar_unitary(d, seed=(seed, 2))
    return BipartiteState(left @ np.diag(np.sqrt(probs)) @ right)


class TestMaxEntangledCheck:
    """||d C^dag C - I||_F <= d MAX_ENT_TOL certifies a state; above it one SVD decides."""

    @pytest.fixture
    def svd_calls(self, monkeypatch):
        original = np.linalg.svd
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        return calls

    def test_certified_state_needs_no_svd(self, svd_calls):
        unitary_of_state(from_unitary(haar_unitary(16, seed=16)))
        assert svd_calls == []

    def test_spread_within_tol_beyond_certificate_uses_one_svd(self, svd_calls):
        # every probability 0.6 tol off 1/d: ||E||_F = 2.4 d tol, spread 0.6 tol
        tol = MAX_ENT_TOL
        state = schmidt_state(1.0 / 16 + 0.6 * tol * (-1.0) ** np.arange(16), seed=1)
        defect = 16 * state.grid.conj().T @ state.grid - np.eye(16)
        assert np.linalg.norm(defect) > 2 * 16 * tol
        unitary_of_state(state)
        assert len(svd_calls) == 1

    @pytest.mark.parametrize("what", [None, "blank"])
    def test_refusal_names_the_state(self, what):
        weak = schmidt_state([0.6, 0.4], seed=3)
        args = () if what is None else (what,)
        with pytest.raises(PreconditionError,
                           match=f"^{what or 'state'} is not maximally entangled: "):
            unitary_of_state(weak, *args)

    def test_spread_beyond_tol_raises(self, svd_calls):
        probs = np.full(16, 1.0 / 16)
        probs[:2] += (2 * MAX_ENT_TOL, -2 * MAX_ENT_TOL)
        with pytest.raises(PreconditionError,
                           match=r"deviate from 1/16 by up to (1\.99\de|2\.00\de)-08"):
            unitary_of_state(schmidt_state(probs, seed=2))
        assert len(svd_calls) == 1


class TestOverlap:
    def test_self_overlap_is_one(self):
        s = from_unitary(haar_unitary(3, seed=1))
        assert abs(overlap(s, s) - 1.0) < 1e-12

    def test_bell_pair_orthogonal(self):
        assert abs(overlap(from_unitary(np.eye(2)), from_unitary(SX))) < 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_pair_operator_trace(self, seed):
        from loccopy.copying import pair_operator

        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 9))
        s1 = from_unitary(haar_unitary(d, seed=(seed, 1)))
        s2 = from_unitary(haar_unitary(d, seed=(seed, 2)))
        t = pair_operator(s1, s2)
        assert abs(overlap(s2, s1) - np.trace(t) / d) < 1e-10
        assert abs(overlap(s1, s2) - np.conj(np.trace(t)) / d) < 1e-10

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            overlap(max_entangled(2), max_entangled(3))
