import numpy as np
import pytest

from loccopy.copying import (
    ORTHOGONAL,
    orthogonality,
    pair_operator,
    spectral_verdict,
)
from loccopy.config import TAU
from loccopy.generators import (
    _delta_interval,
    copyable_pair,
    copyable_unitary,
    haar_unitary,
    nonprime_counterexample,
    nonprime_unitary,
    orthogonal_pair,
    traceless_unitary,
)
from loccopy.states import overlap


def assert_unitary_matrix(u):
    n = u.shape[0]
    assert np.linalg.norm(u @ u.conj().T - np.eye(n)) < 1e-10


class TestHaarUnitary:
    @pytest.mark.parametrize("d", [1, 2, 5, 12])
    def test_unitary(self, d):
        assert_unitary_matrix(haar_unitary(d, seed=3))

    def test_deterministic(self):
        assert np.array_equal(haar_unitary(4, seed=9), haar_unitary(4, seed=9))

    def test_seed_sensitivity(self):
        assert not np.allclose(haar_unitary(4, seed=1), haar_unitary(4, seed=2))

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            haar_unitary(0, seed=0)

    @pytest.mark.parametrize("d", [2, 4])
    def test_trace_moments_match_haar(self, d):
        # under the Haar measure E[tr U] = 0 and E[|tr U|^2] = 1 for every
        # d >= 2; a QR of a Ginibre matrix without the R-diagonal phase fix
        # reads 1.33 (d=2) and 1.82 (d=4) for the second moment on these seeds
        traces = np.array([np.trace(haar_unitary(d, seed=seed)) for seed in range(2000)])
        assert abs(traces.mean()) <= 0.1
        assert abs(np.mean(np.abs(traces) ** 2) - 1.0) <= 0.1


class TestTracelessUnitary:
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 7, 8])
    def test_trace_vanishes(self, d):
        for seed in range(5):
            t = traceless_unitary(d, seed)
            assert_unitary_matrix(t)
            assert abs(np.trace(t)) < 1e-12 * d

    def test_d2_spectrum_is_antipodal(self):
        lam = np.linalg.eigvals(traceless_unitary(2, seed=4))
        assert abs(lam[0] + lam[1]) < 1e-12

    def test_d1_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            traceless_unitary(1, seed=0)


class TestCopyableUnitary:
    @pytest.mark.parametrize("d,m", [(2, 2), (4, 2), (6, 3), (6, 6), (12, 4)])
    def test_verdict_and_detected_m(self, d, m):
        t = copyable_unitary(d, m, seed=(d, m))
        assert_unitary_matrix(t)
        report = spectral_verdict(t)
        assert report.copyable
        assert report.detected_m == m

    def test_trace_vanishes_for_full_root_sets(self):
        # sum of all mth roots of unity is zero for m >= 2
        assert abs(np.trace(copyable_unitary(6, 3, seed=0))) < 1e-12

    def test_indivisible_m_rejected(self):
        with pytest.raises(ValueError, match="divide"):
            copyable_unitary(4, 3, seed=0)

    def test_m_one_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            copyable_unitary(4, 1, seed=0)


class TestNonprimeUnitary:
    @pytest.mark.parametrize("d1,d2", [(2, 2), (2, 3), (3, 3)])
    def test_orthogonal_never_copyable(self, d1, d2):
        d = d1 * d2
        for k in range(5):
            delta = (k + 1) / 6 * 2 * np.pi / d * 0.99
            t = nonprime_unitary(d1, d2, delta, seed=k)
            assert_unitary_matrix(t)
            assert abs(np.trace(t)) < 1e-9 * d
            assert not spectral_verdict(t).copyable

    def test_delta_domain_is_open(self):
        with pytest.raises(ValueError, match="delta"):
            nonprime_unitary(2, 2, delta=0.0, seed=0)
        with pytest.raises(ValueError, match="delta"):
            nonprime_unitary(2, 2, delta=2 * np.pi / 4, seed=0)

    @pytest.mark.parametrize("d1,d2", [(2, 2), (2, 3), (3, 2), (2, 4), (3, 4)])
    def test_admitted_deltas_are_where_the_spectrum_is_not_copyable(self, d1, d2):
        # 2% inside either end of the interval the planted pair is not
        # copyable; 2% outside it the same spectrum is, and is refused
        low, high = _delta_interval(d1 * d2, d2)
        for delta in (1.02 * low, high - 0.02 * low):
            assert not spectral_verdict(nonprime_unitary(d1, d2, delta, seed=0)).copyable
        for delta in (0.98 * low, high + 0.02 * low):
            with pytest.raises(ValueError, match=r"delta must lie strictly inside \("):
                nonprime_unitary(d1, d2, delta, seed=0)
            lam = np.exp(1j * (TAU * np.arange(d1)[:, None] / d1 + delta * np.arange(d2)))
            assert spectral_verdict(np.diag(lam.ravel())).copyable

    def test_small_factor_rejected(self):
        with pytest.raises(ValueError, match="factors"):
            nonprime_unitary(1, 4, delta=0.1, seed=0)

    def test_spectrum_matches_lattice(self):
        delta = 0.21
        lam = np.sort_complex(np.linalg.eigvals(nonprime_unitary(2, 2, delta, seed=6)))
        expected = np.sort_complex(np.array([
            np.exp(1j * (np.pi * j + jp * delta)) for j in range(2) for jp in range(2)
        ]))
        assert np.allclose(lam, expected, atol=1e-10)


class TestPlantedPairs:
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_orthogonal_pair_plants_its_operator(self, d):
        seed = 100 + d
        psi1, psi2 = orthogonal_pair(d, seed)
        t = pair_operator(psi1, psi2)
        assert np.linalg.norm(t - traceless_unitary(d, seed)) < 1e-10

    def test_copyable_pair_plants_its_operator(self):
        psi1, psi2 = copyable_pair(6, m=3, seed=77)
        t = pair_operator(psi1, psi2)
        assert np.linalg.norm(t - copyable_unitary(6, 3, seed=77)) < 1e-10
        assert spectral_verdict(t).detected_m == 3

    def test_nonprime_counterexample_plants_its_operator(self):
        psi1, psi2 = nonprime_counterexample(2, 3, delta=0.4, seed=13)
        t = pair_operator(psi1, psi2)
        assert np.linalg.norm(t - nonprime_unitary(2, 3, 0.4, seed=13)) < 1e-10

    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_pairs_are_orthogonal(self, d):
        psi1, psi2 = orthogonal_pair(d, seed=d)
        assert abs(overlap(psi1, psi2)) < 1e-9
        assert orthogonality(pair_operator(psi1, psi2)) == ORTHOGONAL

    def test_deterministic(self):
        a1, a2 = copyable_pair(4, m=2, seed=5)
        b1, b2 = copyable_pair(4, m=2, seed=5)
        assert np.array_equal(a1.grid, b1.grid)
        assert np.array_equal(a2.grid, b2.grid)

    def test_second_state_differs_from_planted_unitary_seed(self):
        # the partner state draws from a decorrelated stream, so the pair
        # operator is not simply the partner conjugated
        psi1, psi2 = orthogonal_pair(3, seed=42)
        u2 = np.sqrt(3) * psi2.grid
        assert not np.allclose(u2, traceless_unitary(3, seed=42))
