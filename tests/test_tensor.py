import numpy as np
import pytest

from loccopy.config import NORMALITY_TOL, UNITARITY_TOL, PreconditionError
from loccopy.generators import haar_unitary
from loccopy.tensor import _kron_sum, eig_normal, kron

from oracles import partial_trace_second, permute_factors

SX = np.array([[0, 1], [1, 0]], dtype=complex)


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_first_factor_varies_fastest(self):
        # sigma_x on the first factor must map mu=1 to mu=2, not to mu=3
        v = np.zeros(4)
        v[0] = 1.0
        out = kron(SX, np.eye(2)) @ v
        assert np.allclose(out, [0, 1, 0, 0])

    def test_associative(self):
        rng = np.random.default_rng(3)
        a, b, c = (rng.standard_normal((2, 2)) for _ in range(3))
        assert np.allclose(kron(kron(a, b), c), kron(a, kron(b, c)))

    @pytest.mark.parametrize("shapes", [((2, 3), (4, 5)), ((1, 4), (3, 1))])
    def test_dimension_law(self, shapes):
        (p, q), (r, s) = shapes
        rng = np.random.default_rng(0)
        out = kron(rng.standard_normal((p, q)), rng.standard_normal((r, s)))
        assert out.shape == (p * r, q * s)

    def test_oversized_result_rejected(self, monkeypatch):
        import loccopy.tensor

        monkeypatch.setattr(loccopy.tensor, "MAX_DIM", 8)
        with pytest.raises(ValueError, match="max dimension"):
            kron(np.eye(4), np.eye(4))
        assert kron(np.eye(2), np.eye(4)).shape == (8, 8)


class TestKronSum:
    @pytest.mark.parametrize("m,d", [(1, 2), (3, 3), (4, 6)])
    def test_matches_sum_of_krons(self, m, d):
        rng = np.random.default_rng(m + d)
        first, second = (rng.standard_normal((m, d, d)) + 1j * rng.standard_normal((m, d, d))
                         for _ in range(2))
        expected = sum(kron(first[s], second[s]) for s in range(m))
        assert np.max(np.abs(_kron_sum(first, second) - expected)) < 1e-12


class TestPartialTraceSecond:
    def test_product_state_factorizes(self):
        rng = np.random.default_rng(1)
        rho_a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        rho_b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        out = partial_trace_second(kron(rho_a, rho_b), 3, 4)
        assert np.allclose(out, np.trace(rho_b) * rho_a)

    def test_bell_state_reduces_to_half_identity(self):
        v = np.array([1, 0, 0, 1]) / np.sqrt(2)
        out = partial_trace_second(np.outer(v, v.conj()), 2, 2)
        assert np.allclose(out, np.eye(2) / 2)

    def test_max_entangled_reduction_d3(self):
        v = np.zeros(9)
        v[[0, 4, 8]] = 1 / np.sqrt(3)
        out = 3 * partial_trace_second(np.outer(v, v.conj()), 3, 3)
        assert np.allclose(out, np.eye(3))

    def test_trace_preserved(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        out = partial_trace_second(m, 3, 4)
        assert abs(np.trace(out) - np.trace(m)) < 1e-12 * max(1.0, abs(np.trace(m)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="expected"):
            partial_trace_second(np.eye(5), 2, 2)


class TestPermuteFactors:
    def test_identity_permutation(self):
        rng = np.random.default_rng(4)
        v = rng.standard_normal(24)
        assert np.array_equal(permute_factors(v, [2, 3, 4], (1, 2, 3)), v)

    def test_swap_on_basis_state(self):
        # |x_1> (x) |x_2> at D=2 sits at mu = 1 + 2*(2-1) = 3 (index 2)
        v = np.zeros(4)
        v[2] = 1.0
        out = permute_factors(v, [2, 2], (2, 1))
        expect = np.zeros(4)
        expect[1] = 1.0  # |x_2> (x) |x_1>
        assert np.array_equal(out, expect)

    def test_wiring_permutation_round_trip(self):
        rng = np.random.default_rng(5)
        v = rng.standard_normal(81) + 1j * rng.standard_normal(81)
        once = permute_factors(v, [3] * 4, (1, 3, 2, 4))
        assert np.max(np.abs(permute_factors(once, [3] * 4, (1, 3, 2, 4)) - v)) == 0.0

    def test_norm_preserved_exactly(self):
        rng = np.random.default_rng(6)
        v = rng.standard_normal(36)
        out = permute_factors(v, [2, 3, 2, 3], (4, 2, 3, 1))
        assert np.linalg.norm(out) == np.linalg.norm(v)

    def test_non_bijective_perm_rejected(self):
        with pytest.raises(ValueError, match="permutation"):
            permute_factors(np.zeros(4), [2, 2], (1, 1))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dims"):
            permute_factors(np.zeros(5), [2, 2], (1, 2))


class TestEigNormal:
    def test_already_diagonal(self):
        lam, v = eig_normal(np.diag([1, 1j, -1]))
        assert np.allclose(sorted(lam, key=np.angle), sorted([1, 1j, -1], key=np.angle))
        assert np.allclose(np.abs(v), np.eye(3))

    def test_sigma_x(self):
        lam, v = eig_normal(SX)
        assert np.allclose(sorted(lam.real), [-1, 1])
        assert np.allclose(v @ np.diag(lam) @ v.conj().T, SX)

    @pytest.mark.parametrize("d", [2, 5, 12])
    def test_reconstructs_haar_unitary(self, d):
        u = haar_unitary(d, seed=d)
        lam, v = eig_normal(u)
        assert np.linalg.norm(v @ np.diag(lam) @ v.conj().T - u) < 1e-10
        assert np.linalg.norm(v.conj().T @ v - np.eye(d)) < 1e-10

    def test_unit_modulus_for_unitary_input(self):
        lam, _ = eig_normal(haar_unitary(9, seed=77))
        assert np.max(np.abs(np.abs(lam) - 1.0)) < 1e-10

    def test_non_normal_rejected(self):
        with pytest.raises(PreconditionError, match="not normal"):
            eig_normal(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            eig_normal(np.zeros((2, 3)))

    @pytest.mark.parametrize("d, m", [(12, 3), (16, 4)])
    @pytest.mark.parametrize("seed", range(5))
    def test_degenerate_spectrum_orthonormal_basis(self, d, m, seed):
        from loccopy.generators import copyable_unitary

        t = copyable_unitary(d, m, seed=seed)
        lam, v = eig_normal(t)
        assert np.linalg.norm(v.conj().T @ v - np.eye(d)) < UNITARITY_TOL
        assert np.linalg.norm(t @ v - v @ np.diag(lam)) < (
            NORMALITY_TOL * np.linalg.norm(t))
        # every root keeps its multiplicity d/m
        labels = np.round(np.angle(lam / lam[0]) / (2 * np.pi / m)).astype(int) % m
        assert np.allclose(lam, lam[0] * np.exp(2j * np.pi * labels / m), atol=1e-12)
        assert np.array_equal(np.bincount(labels, minlength=m), [d // m] * m)
