import collections
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loccopy.config import (
    FIDELITY_TOL,
    PHASE_TOL,
    AmbiguityError,
    PreconditionError,
    SynthesisError,
)
from loccopy.copying import (
    IDENTICAL,
    NEITHER,
    ORTHOGONAL,
    TAU,
    CopyProtocol,
    degeneracy_form_check,
    orthogonality,
    pair_operator,
    spectral_verdict,
    synthesize_a,
    synthesize_protocol,
)
from loccopy.generators import (
    copyable_pair,
    copyable_unitary,
    haar_unitary,
    nonprime_counterexample,
    nonprime_unitary,
    orthogonal_pair,
    traceless_unitary,
)
from loccopy.simulator import run_copy
from loccopy.states import (
    BipartiteState,
    assert_max_entangled,
    from_unitary,
    max_entangled,
    unitary_of_state,
)
from loccopy.tensor import eig_normal, kron

from oracles import partial_trace_second

SX = np.array([[0, 1], [1, 0]], dtype=complex)


def near_max_entangled(d, deviation, seed):
    """A state whose Schmidt probabilities are 1/d, two of them moved by deviation."""
    probs = np.full(d, 1.0 / d)
    probs[:2] += (deviation, -deviation)
    left, right = haar_unitary(d, seed=(seed, 1)), haar_unitary(d, seed=(seed, 2))
    return BipartiteState(left @ np.diag(np.sqrt(probs)) @ right)


def moved_schmidt(state, deviation):
    """state with two Schmidt probabilities moved by deviation, same Schmidt bases."""
    left, sv, right = np.linalg.svd(state.grid)
    probs = sv**2
    probs[:2] += (deviation, -deviation)
    return BipartiteState(left @ np.diag(np.sqrt(probs)) @ right)


@st.composite
def copyable_cases(draw, max_d=8):
    d = draw(st.integers(2, max_d))
    m = draw(st.sampled_from([m for m in range(2, d + 1) if d % m == 0]))
    return d, m, draw(st.integers(0, 2**32 - 1))


class TestPairOperator:
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_recovers_unitary_product(self, d):
        u1 = haar_unitary(d, seed=(d, 1))
        u2 = haar_unitary(d, seed=(d, 2))
        t = pair_operator(from_unitary(u1), from_unitary(u2))
        assert np.linalg.norm(t - u1 @ u2.conj().T) < 1e-12

    def test_same_state_gives_identity(self):
        s = from_unitary(haar_unitary(4, seed=9))
        assert np.allclose(pair_operator(s, s), np.eye(4))

    def test_result_is_unitary(self):
        t = pair_operator(
            from_unitary(haar_unitary(6, seed=3)),
            from_unitary(haar_unitary(6, seed=4)),
        )
        assert np.linalg.norm(t @ t.conj().T - np.eye(6)) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            pair_operator(max_entangled(2), max_entangled(3))

    def test_product_state_rejected(self):
        grid = np.zeros((2, 2))
        grid[0, 0] = 1.0
        with pytest.raises(PreconditionError):
            pair_operator(BipartiteState(grid), max_entangled(2))

    @pytest.mark.parametrize("d,deviation", [(4, 1e-9), (12, 5e-9)])
    def test_nearly_maximally_entangled_pair(self, d, deviation):
        # passes MAX_ENT_TOL, but D C1 C2^dag from the grids as given is
        # further from unitary than UNITARITY_TOL allows; T from the
        # polished unitaries gets the verdict check-pair gives
        psi1, psi2 = copyable_pair(d, 2, seed=3)
        psi1 = moved_schmidt(psi1, deviation)
        t = pair_operator(psi1, psi2)
        report = spectral_verdict(t)
        assert (orthogonality(t), report.copyable, report.detected_m) == (ORTHOGONAL, True, 2)


class TestPairOperatorFormula:
    @given(st.sampled_from([2, 6, 12]), st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_matches_partial_trace(self, d, seed1, seed2):
        psi1 = from_unitary(haar_unitary(d, seed=seed1))
        psi2 = from_unitary(haar_unitary(d, seed=seed2))
        rho = np.outer(psi1.vector(), psi2.vector().conj())
        expected = d * partial_trace_second(rho, d, d)
        assert np.max(np.abs(pair_operator(psi1, psi2) - expected)) < 1e-12


class TestOrthogonality:
    def test_traceless_is_orthogonal(self):
        assert orthogonality(SX) == ORTHOGONAL

    def test_scaled_identity_is_identical(self):
        assert orthogonality(np.exp(0.7j) * np.eye(3)) == IDENTICAL

    def test_intermediate_trace_is_neither(self):
        # |Tr| = |1 + e^{i pi/3}| = sqrt(3), strictly between 0 and 2
        assert orthogonality(np.diag([1, np.exp(1j * np.pi / 3)])) == NEITHER

    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_planted_traceless_operators(self, d):
        assert orthogonality(traceless_unitary(d, seed=d)) == ORTHOGONAL


class TestSpectralVerdict:
    def test_sigma_x(self):
        report = spectral_verdict(SX)
        assert report.copyable
        assert report.detected_m == 2
        assert np.allclose(report.eigenphases, [0.0, np.pi], atol=1e-12)
        assert report.rotation == pytest.approx(0.0, abs=1e-12)
        assert abs(report.trace) < 1e-12

    def test_identity_trivially_copyable(self):
        report = spectral_verdict(np.eye(3))
        assert report.copyable
        assert report.detected_m == 1
        assert len(report.clusters) == 1
        assert report.clusters[0][1] == 3

    def test_fourth_roots(self):
        report = spectral_verdict(np.diag([1, 1j, -1, -1j]))
        assert report.copyable
        assert report.detected_m == 4
        assert [mult for _, mult in report.clusters] == [1, 1, 1, 1]

    def test_global_phase_absorbed_into_rotation(self):
        phi = 0.4
        report = spectral_verdict(np.exp(1j * phi) * np.diag([1, -1]))
        assert report.copyable
        assert report.detected_m == 2
        assert report.rotation == pytest.approx(TAU - phi, abs=1e-9)

    def test_unequal_spacing_rejected(self):
        report = spectral_verdict(nonprime_unitary(2, 2, delta=0.3, seed=0))
        assert not report.copyable
        assert report.detected_m is None

    def test_dimension_not_divisible_rejected(self):
        # aligned phases {0, pi} but D=3 is odd
        report = spectral_verdict(np.diag([1, 1, -1]))
        assert not report.copyable

    def test_unequal_multiplicities_rejected(self):
        report = spectral_verdict(np.diag([1, 1, 1, -1]))
        assert not report.copyable
        assert sorted(mult for _, mult in report.clusters) == [1, 3]

    def test_seam_straddling_cluster_merges(self):
        eps = 3e-8
        t = np.diag([np.exp(-1j * eps), np.exp(1j * eps), -1.0, -1.0])
        report = spectral_verdict(t)
        assert len(report.clusters) == 2
        assert report.copyable
        assert report.detected_m == 2

    def test_ambiguous_gap_raises(self):
        t = np.diag([1.0, np.exp(1.5e-7j)])
        with pytest.raises(AmbiguityError, match="ambiguous"):
            spectral_verdict(t)

    def test_gap_above_twice_tol_is_not_ambiguous(self):
        report = spectral_verdict(np.diag([1.0, np.exp(3e-7j)]))
        assert not report.copyable

    @pytest.mark.parametrize("seed", range(4))
    def test_verdict_invariant_under_conjugation(self, seed):
        t = copyable_unitary(6, m=3, seed=seed)
        v = haar_unitary(6, seed=(seed, 99))
        direct = spectral_verdict(t)
        conjugated = spectral_verdict(v @ t @ v.conj().T)
        assert conjugated.copyable == direct.copyable is True
        assert conjugated.detected_m == direct.detected_m == 3

    @pytest.mark.parametrize("seed", range(4))
    def test_verdict_invariant_under_global_phase(self, seed):
        rng = np.random.default_rng(seed)
        t = copyable_unitary(4, m=2, seed=seed)
        rotated = np.exp(1j * rng.uniform(0, TAU)) * t
        assert spectral_verdict(rotated).copyable
        assert spectral_verdict(rotated).detected_m == 2

    def test_eigenphases_sorted_in_range(self):
        report = spectral_verdict(traceless_unitary(7, seed=5))
        phases = report.eigenphases
        assert np.all(np.diff(phases) >= 0)
        assert np.all((phases >= 0) & (phases < TAU))

    def test_non_unitary_rejected(self):
        with pytest.raises(PreconditionError, match="unitary"):
            spectral_verdict(np.ones((3, 3)))

    def test_nan_operator_rejected(self):
        with pytest.raises(PreconditionError, match="not unitary"):
            spectral_verdict(np.full((2, 2), np.nan))


@st.composite
def planted_spectra(draw, max_d=12):
    """Multiplicities (each >= 1) of the M >= 2 roots of unity, a rotation
    and a seed for the Haar basis."""
    m = draw(st.integers(2, max_d))
    mult = draw(st.lists(st.integers(1, max_d // m), min_size=m, max_size=m))
    rotation = draw(st.floats(0.0, TAU, exclude_max=True))
    return mult, rotation, draw(st.integers(0, 2**32 - 1))


def planted_operator(phases, seed):
    """The unitary with the given eigenphases in a Haar-random eigenbasis."""
    v = haar_unitary(len(phases), seed=seed)
    return (v * np.exp(1j * np.asarray(phases))) @ v.conj().T


class TestVerdictProperties:
    """The verdict on planted spectra, against degeneracy_form_check."""

    @given(planted_spectra())
    @settings(max_examples=100, deadline=None)
    def test_copyable_iff_degeneracy_form(self, case):
        mult, rotation, seed = case
        m, d = len(mult), sum(mult)
        roots = (TAU * np.arange(m) / m + rotation) % TAU
        report = spectral_verdict(planted_operator(np.repeat(roots, mult), seed))
        assert report.copyable == degeneracy_form_check(mult, m, d)
        assert report.detected_m == (m if report.copyable else None)
        assert len(report.clusters) == m
        for rep, count in report.clusters:  # matched to the nearest planted root
            gap = np.abs(rep - roots) % TAU
            assert count == mult[int(np.argmin(np.minimum(gap, TAU - gap)))]

    @given(planted_spectra(), st.floats(1e-12, 0.25 * PHASE_TOL))
    @settings(max_examples=50, deadline=None)
    def test_cluster_straddling_seam_merges(self, case, eps):
        mult, _, seed = case
        mult = [mult[0] + 1] + mult[1:]
        m, d = len(mult), sum(mult)
        phases = np.repeat(TAU * np.arange(m) / m, mult)
        phases[:mult[0]] += eps * (-1.0) ** np.arange(mult[0])  # both sides of 0
        report = spectral_verdict(planted_operator(phases, seed))
        assert report.eigenphases[0] < eps + 1e-12 and report.eigenphases[-1] > TAU - 2 * eps
        assert len(report.clusters) == m
        assert report.copyable == degeneracy_form_check(mult, m, d)
        seam = [count for rep, count in report.clusters if min(rep, TAU - rep) < eps]
        assert seam == [mult[0]]

    @given(planted_spectra())
    @settings(max_examples=50, deadline=None)
    def test_clusters_one_and_a_half_tol_apart_are_ambiguous(self, case):
        mult, rotation, seed = case
        m = len(mult)
        roots = TAU * np.arange(m) / m + rotation
        phases = np.append(np.repeat(roots, mult), roots[0] + 1.5 * PHASE_TOL)
        with pytest.raises(AmbiguityError, match="ambiguous"):
            spectral_verdict(planted_operator(phases, seed))


def spectra_multiset_oracle(multiplicities, m, d):
    """Compare the exponent multisets of T~ (x) T~ and T~ (x) 1 directly."""
    single = collections.Counter()
    double = collections.Counter()
    for r, dr in enumerate(multiplicities):
        single[r] += dr * d
        for s, ds in enumerate(multiplicities):
            double[(r + s) % m] += dr * ds
    return single == double


def random_composition(rng, total, parts):
    cuts = np.sort(rng.choice(np.arange(1, total), size=parts - 1, replace=False))
    return np.diff(np.concatenate([[0], cuts, [total]])).tolist()


class TestDegeneracyForm:
    def test_hand_cases(self):
        assert degeneracy_form_check([1, 1], 2, 2)
        assert degeneracy_form_check([2, 2], 2, 4)
        assert not degeneracy_form_check([2, 1, 1], 3, 4)
        assert not degeneracy_form_check([3, 1], 2, 4)

    @pytest.mark.parametrize("m,d", [(2, 4), (3, 6), (4, 8), (6, 12)])
    def test_equal_multiplicities_always_pass(self, m, d):
        assert degeneracy_form_check([d // m] * m, m, d)

    def test_matches_multiset_oracle_on_random_partitions(self):
        rng = np.random.default_rng(2024)
        checked_true = checked_false = 0
        for _ in range(150):
            m = int(rng.integers(2, 7))
            d = int(rng.integers(m, 16))
            mult = random_composition(rng, d, m)
            got = degeneracy_form_check(mult, m, d)
            assert got == spectra_multiset_oracle(mult, m, d)
            checked_true += got
            checked_false += not got
        assert checked_false > 0

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="multiplicities"):
            degeneracy_form_check([2, 2], 3, 4)

    def test_wrong_total_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            degeneracy_form_check([2, 2], 2, 5)


def root_projectors(t, report):
    lam, v = eig_normal(t)
    m = report.detected_m
    rotated = (np.angle(lam) + report.rotation) % TAU
    labels = np.round(rotated / (TAU / m)).astype(int) % m
    return [
        sum(np.outer(v[:, k], v[:, k].conj()) for k in np.flatnonzero(labels == r))
        for r in range(m)
    ]


class TestSynthesizeA:
    @pytest.mark.parametrize("d,m", [(2, 2), (3, 3), (4, 2), (6, 3), (8, 4)])
    def test_defining_relation(self, d, m):
        t = copyable_unitary(d, m, seed=(d, m))
        a = synthesize_a(t)
        report = spectral_verdict(t)
        t_rot = np.exp(1j * report.rotation) * t
        eye = np.eye(d)
        lhs = a @ kron(t_rot, eye) @ a.conj().T
        rhs = kron(t_rot, t_rot)
        assert np.linalg.norm(lhs - rhs) < 1e-9

    def test_result_is_unitary(self):
        a = synthesize_a(copyable_unitary(6, 2, seed=11))
        n = 36
        assert np.linalg.norm(a @ a.conj().T - np.eye(n)) < 1e-9

    def test_eigenspace_mapping(self):
        d, m = 4, 2
        t = copyable_unitary(d, m, seed=5)
        report = spectral_verdict(t)
        a = synthesize_a(t)
        projs = root_projectors(t, report)
        eye = np.eye(d)
        for r in range(m):
            p_r = kron(projs[r], eye)
            q_r = sum(
                kron(projs[r1], projs[(r - r1) % m]) for r1 in range(m)
            )
            assert np.linalg.norm(a @ p_r @ a.conj().T - q_r) < 1e-8

    def test_deterministic(self):
        t = copyable_unitary(6, 3, seed=2)
        assert np.array_equal(synthesize_a(t), synthesize_a(t))

    def test_non_copyable_rejected(self):
        with pytest.raises(PreconditionError, match="no copying protocol"):
            synthesize_a(nonprime_unitary(2, 2, delta=0.5, seed=1))


class TestSynthesizeProtocol:
    @pytest.mark.parametrize("d", [2, 3])
    def test_orthogonal_pair_protocol(self, d):
        psi1, psi2 = orthogonal_pair(d, seed=17)
        protocol = synthesize_protocol(psi1, psi2, max_entangled(d))
        assert protocol.d == d
        assert protocol.phases[0] == 0.0
        assert protocol.wiring == "A:(1,3) B:(2,4)"
        assert run_copy(protocol, psi1)[0] >= 1 - 1e-9
        assert run_copy(protocol, psi2)[0] >= 1 - 1e-9

    def test_operators_are_unitary(self):
        psi1, psi2 = copyable_pair(4, m=2, seed=3)
        protocol = synthesize_protocol(psi1, psi2, max_entangled(4))
        n = 16
        assert np.linalg.norm(
            protocol.a_op @ protocol.a_op.conj().T - np.eye(n)) < 1e-9
        assert np.linalg.norm(
            protocol.b_op @ protocol.b_op.conj().T - np.eye(n)) < 1e-9

    def test_haar_random_blank(self):
        psi1, psi2 = copyable_pair(3, m=3, seed=8)
        blank = from_unitary(haar_unitary(3, seed=80))
        protocol = synthesize_protocol(psi1, psi2, blank)
        assert run_copy(protocol, psi1)[0] >= 1 - 1e-9
        assert run_copy(protocol, psi2)[0] >= 1 - 1e-9

    @given(copyable_cases(max_d=6))
    @settings(max_examples=30, deadline=None)
    def test_operators_match_dense_construction(self, case):
        # A = (U1 (x) U1) C1 (U1 (x) U_b)^dag with C1 = conj(B), from dense krons
        d, m, seed = case
        psi1, psi2 = copyable_pair(d, m, seed)
        blank = from_unitary(haar_unitary(d, seed=(seed, 1)))
        protocol = synthesize_protocol(psi1, psi2, blank)
        u1, ub = unitary_of_state(psi1), unitary_of_state(blank)
        dense = kron(u1, u1) @ protocol.b_op.conj() @ kron(u1, ub).conj().T
        assert np.max(np.abs(protocol.a_op - dense)) < 1e-12

    def test_identical_pair_rejected(self):
        psi = from_unitary(haar_unitary(3, seed=30))
        with pytest.raises(PreconditionError, match="orthogonal"):
            synthesize_protocol(psi, psi, max_entangled(3))

    def test_partial_overlap_rejected(self):
        psi1 = from_unitary(np.diag([1, np.exp(1j * np.pi / 3)]))
        psi2 = max_entangled(2)
        with pytest.raises(PreconditionError, match="orthogonal"):
            synthesize_protocol(psi1, psi2, max_entangled(2))

    def test_orthogonal_but_uncopyable_rejected(self):
        psi1, psi2 = nonprime_counterexample(2, 2, delta=0.7, seed=4)
        assert orthogonality(pair_operator(psi1, psi2)) == ORTHOGONAL
        with pytest.raises(PreconditionError, match="no copying protocol"):
            synthesize_protocol(psi1, psi2, max_entangled(4))

    @pytest.mark.parametrize("d", [4, 12])
    @pytest.mark.parametrize("deviation", [1e-10, 0.99e-8])
    def test_nearly_maximally_entangled_blank(self, d, deviation):
        # passes MAX_ENT_TOL, but its unitary is further from unitary than
        # UNITARITY_TOL allows A to be
        blank = near_max_entangled(d, deviation, seed=d)
        assert_max_entangled(blank)
        psi1, psi2 = copyable_pair(d, 2, seed=d)
        protocol = synthesize_protocol(psi1, psi2, blank)
        assert np.linalg.norm(
            protocol.a_op.conj().T @ protocol.a_op - np.eye(d * d)) < 1e-9
        for psi in (psi1, psi2):
            assert run_copy(protocol, psi)[0] >= 1 - 1e-9

    @pytest.mark.parametrize("d,deviation", [(4, 1e-9), (12, 5e-9)])
    def test_nearly_maximally_entangled_states_to_copy(self, d, deviation):
        # passes MAX_ENT_TOL, but W = U2^dag U1 from the grids as given is
        # further from unitary than UNITARITY_TOL allows
        psi1, psi2 = copyable_pair(d, 2, seed=3)
        psi1 = moved_schmidt(psi1, deviation)
        assert_max_entangled(psi1)
        protocol = synthesize_protocol(psi1, psi2, max_entangled(d))
        for psi in (psi1, psi2):
            assert run_copy(protocol, psi)[0] >= 1 - 1e-9

    @pytest.mark.parametrize("m", [2, 32])
    def test_dimension_32(self, m):
        psi1, psi2 = copyable_pair(32, m, seed=32)
        blank = from_unitary(haar_unitary(32, seed=33))
        protocol = synthesize_protocol(psi1, psi2, blank)
        for psi, theta in zip((psi1, psi2), protocol.phases):
            # the (1,3) pair indexes rows and (2,4) columns, first factor
            # fastest, so |psi blank> is kron(blank, psi) and A^13 B^24 maps
            # X to A X B^T
            target = np.kron(psi.grid, psi.grid)
            ip = np.vdot(target, protocol.a_op @ np.kron(blank.grid, psi.grid) @ protocol.b_op.T)
            assert abs(ip) ** 2 >= 1 - 1e-9
            gap = abs(np.angle(ip) - theta) % TAU
            assert min(gap, TAU - gap) < 1e-8

    def test_second_phase_matches_rotation(self):
        psi1, psi2 = copyable_pair(4, m=4, seed=12)
        u1 = np.sqrt(4) * psi1.grid
        u2 = np.sqrt(4) * psi2.grid
        report = spectral_verdict(u2.conj().T @ u1)
        protocol = synthesize_protocol(psi1, psi2, max_entangled(4))
        expected = (-report.rotation + np.pi) % TAU - np.pi
        assert protocol.phases[1] == pytest.approx(expected, abs=1e-12)


class TestSynthesisChecks:
    """Synthesis checks each operator it builds and sizes before it allocates."""

    @pytest.fixture(params=["rescaled", "skewed"])
    def broken_eigenbasis(self, request, monkeypatch):
        import loccopy.copying

        original = loccopy.copying.eig_normal

        def broken(m):
            lam, v = original(m)
            if request.param == "rescaled":  # C1 becomes 1.01^4 times a unitary
                return lam, 1.01 * v
            v = v.copy()
            v[:, 0] += 0.01 * v[:, 1]
            return lam, v

        monkeypatch.setattr(loccopy.copying, "eig_normal", broken)

    def test_non_unitary_c1_raises_in_synthesize_a(self, broken_eigenbasis):
        with pytest.raises(SynthesisError, match="C1 is not unitary"):
            synthesize_a(copyable_unitary(6, 3, seed=1))

    def test_non_unitary_c1_raises_in_synthesize_protocol(self, broken_eigenbasis):
        psi1, psi2 = copyable_pair(4, 2, seed=2)
        with pytest.raises(SynthesisError, match="C1 is not unitary"):
            synthesize_protocol(psi1, psi2, max_entangled(4))

    def test_non_unitary_blank_factor_raises(self, monkeypatch):
        import loccopy.copying

        psi1, psi2 = copyable_pair(4, 2, seed=2)
        blank = from_unitary(haar_unitary(4, seed=20))
        original = loccopy.copying.unitary_of_state

        def scaled_blank(s):
            u = original(s)
            return 1.01 * u if s is blank else u

        monkeypatch.setattr(loccopy.copying, "unitary_of_state", scaled_blank)
        with pytest.raises(SynthesisError, match="A operator is not unitary"):
            synthesize_protocol(psi1, psi2, blank)

    def test_verification_runs_on_returned_operators(self, monkeypatch):
        import loccopy.copying

        original = loccopy.copying._kron_sum
        assembled = []

        def transposed_b(first, second):
            # the second assembly is B; its transpose is unitary, but does
            # not copy
            op = original(first, second)
            assembled.append(op)
            return op.T.copy() if len(assembled) == 2 else op

        monkeypatch.setattr(loccopy.copying, "_kron_sum", transposed_b)
        psi1, psi2 = copyable_pair(4, 2, seed=2)
        with pytest.raises(SynthesisError, match="failed verification on psi1"):
            synthesize_protocol(psi1, psi2, from_unitary(haar_unitary(4, seed=20)))

    def test_operator_size_checked_before_synthesis(self, monkeypatch):
        import loccopy.copying
        import loccopy.states
        import loccopy.tensor

        eig_calls = count_calls(monkeypatch, loccopy.tensor, "eig_normal")
        state_checks = count_calls(monkeypatch, loccopy.states, "_max_entangled_defect")
        psi1, psi2 = copyable_pair(3, 3, seed=4)
        monkeypatch.setattr(loccopy.copying, "MAX_DIM", 8)
        with pytest.raises(ValueError, match="9 x 9, exceeds max dimension 8"):
            synthesize_protocol(psi1, psi2, max_entangled(3))
        assert len(eig_calls) == len(state_checks) == 0


class TestFactoredChecks:
    """The checks synthesis runs on d x d factors, against dense d^2 x d^2 references."""

    @given(copyable_cases())
    @settings(max_examples=30, deadline=None)
    def test_kron_gram_residual_matches_dense(self, case):
        from loccopy.copying import _gram_defect, _kron_gram_residual

        d, _, seed = case
        rng = np.random.default_rng(seed)
        left, right = (haar_unitary(d, seed=(seed, k)) + 0.01 * rng.standard_normal((d, d))
                       for k in range(2))
        dense = np.linalg.norm(
            kron(left.conj().T @ left, right.conj().T @ right) - np.eye(d * d))
        residual = _kron_gram_residual(_gram_defect(left), _gram_defect(right))
        assert residual == pytest.approx(dense, rel=1e-12)

    @given(copyable_cases())
    @settings(max_examples=30, deadline=None)
    def test_unitarity_bound_covers_dense_residual(self, case):
        import loccopy.copying

        d, m, seed = case
        psi1, psi2 = copyable_pair(d, m, seed)
        blank = from_unitary(haar_unitary(d, seed=(seed, 1)))
        bounds = {}
        original = loccopy.copying._check_unitary

        def record(left, right, what):
            bounds[what] = original(left, right, what)
            return bounds[what]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(loccopy.copying, "_check_unitary", record)
            protocol = synthesize_protocol(psi1, psi2, blank)
        n = d * d
        # the bound holds in exact arithmetic; assembling an operator and
        # its dense Gram product add roundoff of order n * eps
        slack = n * np.finfo(float).eps
        # B = conj(C1) has C1's residual
        for what, op in (("synthesized C1", protocol.b_op), ("A operator", protocol.a_op)):
            dense = np.linalg.norm(op.conj().T @ op - np.eye(n))
            assert dense <= bounds[what] + slack

    @given(copyable_cases())
    @settings(max_examples=30, deadline=None)
    def test_unitarity_bound_of_perturbed_factors(self, case):
        import loccopy.copying
        from loccopy.copying import _check_unitary, _shift_factors
        from loccopy.tensor import _kron_sum

        d, m, seed = case
        k = d // m
        rng = np.random.default_rng(seed)
        left, right = (haar_unitary(d, seed=(seed, j)) + 0.01 * rng.standard_normal((d, d))
                       for j in range(2))
        # P shifts the first factor's index by s*k when the second lies in block s
        p = sum(kron(np.roll(np.eye(d), s * k, axis=1), np.diag(np.arange(d) // k == s))
                for s in range(m))
        x = kron(left, left) @ p @ kron(left, right).conj().T
        assert np.max(np.abs(_kron_sum(*_shift_factors(left, right, m)) - x)) < 1e-12
        dense = np.linalg.norm(x.conj().T @ x - np.eye(d * d))
        with pytest.MonkeyPatch.context() as mp:  # a bound too loose to raise
            mp.setattr(loccopy.copying, "UNITARITY_TOL", 1e6)
            bound = _check_unitary(left, right, "X")
        assert dense <= bound <= 4.0 * dense
        with pytest.raises(SynthesisError, match="X is not unitary"):
            _check_unitary(left, right, "X")

    def test_nan_factor_fails_unitarity_bound(self):
        from loccopy.copying import _check_unitary

        left = np.eye(2, dtype=complex)
        left[0, 0] = np.nan
        with pytest.raises(SynthesisError, match="X is not unitary"):
            _check_unitary(left, np.eye(2), "X")

    @given(copyable_cases())
    @settings(max_examples=30, deadline=None)
    def test_relation_residual_matches_dense(self, case):
        import loccopy.copying
        from loccopy.copying import _relation_residual

        d, m, seed = case
        t = copyable_unitary(d, m, seed=seed)
        factors = []
        original = loccopy.copying._kron_sum

        def record(first, second):
            factors.append((first, second))
            return original(first, second)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(loccopy.copying, "_kron_sum", record)
            c1 = synthesize_a(t)
        [(shifts, projectors)] = factors
        t_rot = np.exp(1j * spectral_verdict(t).rotation) * t
        rng = np.random.default_rng(seed)
        eye = np.eye(d)
        # the factored form is exact for any T~, so a perturbed one gives
        # a residual well above roundoff
        for t_rel in (t_rot, t_rot + 1e-3 * rng.standard_normal((d, d))):
            dense = np.linalg.norm(c1 @ kron(t_rel, eye) - kron(t_rel, t_rel) @ c1)
            residual = _relation_residual(shifts, projectors, t_rel)
            assert abs(residual - dense) < 1e-12 + 1e-10 * dense

def off_grid_pair(d, m, eps, seed):
    """An orthogonal pair whose pair operator has the M roots of unity,
    each d/M times under a random rotation, every eigenphase then moved
    off that grid by a uniform draw in [-eps, eps]."""
    rng = np.random.default_rng(seed)
    phases = (TAU * np.repeat(np.arange(m), d // m) / m + rng.uniform(0.0, TAU)
              + rng.uniform(-eps, eps, d))
    u2 = haar_unitary(d, seed=(seed, 2))
    return from_unitary(planted_operator(phases, (seed, 1)) @ u2), from_unitary(u2)


class TestRootGrid:
    """Synthesis pairs eigenspaces by the verdict's root labels and checks
    its relation against the snapped operator."""

    @given(copyable_cases(max_d=32),
           st.one_of(st.sampled_from([0.0, 1e-16, -1e-16, TAU - 1e-16]),
                     st.floats(0.0, TAU, exclude_max=True)),
           st.floats(0.0, 0.4 * PHASE_TOL))
    @settings(max_examples=60, deadline=None)
    def test_labels_are_rounded_rotated_phases(self, case, rotation, noise):
        import loccopy.copying

        d, m, seed = case
        rng = np.random.default_rng(seed)
        phases = (TAU * np.repeat(np.arange(m), d // m) / m + rotation
                  + rng.uniform(-noise, noise, d))
        verdicts, used = [], []
        verdict, synthesize_from = loccopy.copying._verdict, loccopy.copying._synthesize_from

        def record_verdict(lam, trace):
            result = verdict(lam, trace)
            verdicts.append((lam, result[0]))
            return result

        def record_labels(v, labels, m):
            used.append(labels)
            return synthesize_from(v, labels, m)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(loccopy.copying, "_verdict", record_verdict)
            mp.setattr(loccopy.copying, "_synthesize_from", record_labels)
            synthesize_a(planted_operator(phases, seed))
        [(lam, report)], [labels] = verdicts, used
        assert report.detected_m == m
        rounded = np.round(((np.angle(lam) + report.rotation) % TAU) * m / TAU).astype(int) % m
        assert list(labels) == rounded.tolist()

    @pytest.mark.parametrize("eps", [1e-10, 1e-9])
    def test_phases_off_grid_synthesize(self, eps):
        # the relation residual against the unsnapped T~ read 1.5e-9 at
        # eps = 1e-10, and failed a bound of 1e-9
        d, m = 12, 3
        for seed in range(20):
            psi1, psi2 = off_grid_pair(d, m, eps, seed)
            protocol = synthesize_protocol(psi1, psi2, max_entangled(d))
            for psi in (psi1, psi2):
                assert run_copy(protocol, psi)[0] >= 1 - FIDELITY_TOL

    @pytest.mark.parametrize("synthesize", [
        lambda: synthesize_a(copyable_unitary(6, 3, seed=1)),
        lambda: synthesize_protocol(*copyable_pair(6, 3, seed=1), max_entangled(6)),
    ], ids=["synthesize_a", "synthesize_protocol"])
    def test_reversed_shift_fails_relation(self, monkeypatch, synthesize):
        import loccopy.copying

        original = loccopy.copying._shift_factors

        def reversed_shift(left, right, m):
            # X^-s in place of X^s: a unitary C1 that maps root r to r + s
            shifts, projectors = original(left, right, m)
            return shifts[-np.arange(m) % m], projectors

        monkeypatch.setattr(loccopy.copying, "_shift_factors", reversed_shift)
        with pytest.raises(SynthesisError, match="fails its defining relation"):
            synthesize()


class TestCopyProtocolValidation:
    def test_wrong_operator_shape_rejected(self):
        with pytest.raises(ValueError, match="operators"):
            CopyProtocol(
                d=2,
                blank=max_entangled(2),
                a_op=np.eye(3),
                b_op=np.eye(4),
                phases=(0.0, 0.0),
            )

    def test_blank_of_another_dimension_rejected(self):
        with pytest.raises(ValueError, match="blank has d=2, but the protocol has d=3"):
            CopyProtocol(d=3, blank=max_entangled(2), a_op=np.eye(9), b_op=np.eye(9),
                         phases=(0.0, 0.0))

    def test_well_formed_accepted(self):
        p = CopyProtocol(
            d=2,
            blank=max_entangled(2),
            a_op=np.eye(4),
            b_op=np.eye(4),
            phases=(0.0, 1.0),
        )
        assert p.a_op.dtype == complex

    def test_wiring_is_not_a_field(self):
        with pytest.raises(TypeError, match="wiring"):
            CopyProtocol(d=2, blank=max_entangled(2), a_op=np.eye(4), b_op=np.eye(4),
                         phases=(0.0, 0.0), wiring="A:(1,2) B:(3,4)")
        assert CopyProtocol.wiring == "A:(1,3) B:(2,4)"


def count_calls(monkeypatch, module, name):
    """Count calls of module.name through every loccopy binding of it."""
    original = getattr(module, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod in [module] + [m for key, m in sys.modules.items() if key.startswith("loccopy")]:
        if vars(mod).get(name) is original:
            monkeypatch.setattr(mod, name, wrapper)
    return calls


class TestWorkCounts:
    """Exact per-call work: one eigendecomposition per pair, one check per state."""

    @pytest.fixture
    def counts(self, monkeypatch):
        import loccopy.states
        import loccopy.tensor

        found = {
            "eig_normal": count_calls(monkeypatch, loccopy.tensor, "eig_normal"),
            "state_checks": count_calls(monkeypatch, loccopy.states, "_max_entangled_defect"),
            "svd": count_calls(monkeypatch, np.linalg, "svd"),
            "eigvals": count_calls(monkeypatch, np.linalg, "eigvals"),
            "schur": [],
        }
        try:
            import scipy.linalg
        except ImportError:  # without scipy nothing can call schur
            pass
        else:
            found["schur"] = count_calls(monkeypatch, scipy.linalg, "schur")
        return found

    @pytest.mark.parametrize("d,m", [(2, 2), (6, 3), (12, 4)])
    def test_synthesize_protocol_applies_kronecker_factors(self, monkeypatch, d, m):
        import loccopy.states
        import loccopy.tensor

        psi1, psi2 = copyable_pair(d, m, seed=d)
        blank = from_unitary(haar_unitary(d, seed=d + 1))
        kron_calls = count_calls(monkeypatch, loccopy.tensor, "kron")
        unitary_calls = count_calls(monkeypatch, loccopy.states, "assert_unitary")
        synthesize_protocol(psi1, psi2, blank)
        # no Kronecker product of operators is formed
        assert len(kron_calls) == 0
        # C1 and A are checked from their factors; only the pair operator
        # W is checked dense
        assert [np.shape(args[0]) for args in unitary_calls] == [(d, d)]

    def test_synthesize_protocol_peak_memory(self):
        import tracemalloc

        psi1, psi2 = copyable_pair(16, 4, seed=16)
        blank = from_unitary(haar_unitary(16, seed=17))
        synthesize_protocol(psi1, psi2, blank)
        tracemalloc.start()
        try:
            synthesize_protocol(psi1, psi2, blank)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one 256 x 256 complex array is 1 MiB: A, B and the three work
        # arrays of the verification
        assert peak <= 5.2 * 2**20

    @pytest.mark.parametrize("d,m", [(2, 2), (6, 3), (12, 4)])
    def test_synthesize_protocol(self, counts, d, m):
        psi1, psi2 = copyable_pair(d, m, seed=d)
        blank = from_unitary(haar_unitary(d, seed=d + 1))
        synthesize_protocol(psi1, psi2, blank)
        # each state is certified from its Gram matrix, with no SVD
        assert {k: len(v) for k, v in counts.items()} == {
            "eig_normal": 1, "state_checks": 3, "svd": 0, "eigvals": 0, "schur": 0,
        }

    def test_spectral_verdict_reads_eigenvalues_only(self, counts):
        spectral_verdict(copyable_unitary(12, 3, seed=4))
        assert {k: len(v) for k, v in counts.items()} == {
            "eig_normal": 0, "state_checks": 0, "svd": 0, "eigvals": 1, "schur": 0,
        }

    def test_decide_pair(self, counts):
        t = pair_operator(*copyable_pair(12, 3, seed=4))
        orthogonality(t)
        assert spectral_verdict(t).copyable
        assert {k: len(v) for k, v in counts.items()} == {
            "eig_normal": 0, "state_checks": 2, "svd": 0, "eigvals": 1, "schur": 0,
        }

    def test_synthesize_a(self, counts):
        synthesize_a(copyable_unitary(6, 2, seed=4))
        assert len(counts["eig_normal"]) == 1
        assert len(counts["eigvals"]) == len(counts["schur"]) == 0
