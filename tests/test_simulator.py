import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loccopy.config import TAU
from loccopy.copying import synthesize_protocol
from loccopy.generators import copyable_pair, haar_unitary, orthogonal_pair
from loccopy.simulator import CopyProtocol, run_copy
from loccopy.states import BipartiteState, from_unitary, max_entangled, overlap

from oracles import FourPartyState, apply_local, assemble, kron

SX = np.array([[0, 1], [1, 0]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def basis_state(d, p1, p2, p3, p4):
    v = np.zeros(d**4)
    v[p1 + d * p2 + d**2 * p3 + d**3 * p4] = 1.0
    return FourPartyState(d, v)


class TestFourPartyState:
    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="length"):
            FourPartyState(2, np.zeros(8))

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            FourPartyState(2, np.ones(16))

    def test_nan_vector_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            FourPartyState(2, np.full(16, np.nan))


class TestAssemble:
    def test_bell_pair_amplitudes(self):
        # |Phi+>^12 |Phi+>^34 has weight 1/2 exactly on particle settings
        # 0000, 1100, 0011, 1111, i.e. flat indices 0, 3, 12, 15
        state = assemble(max_entangled(2), max_entangled(2))
        expected = np.zeros(16)
        expected[[0, 3, 12, 15]] = 0.5
        assert np.allclose(state.vector, expected)

    def test_product_of_basis_grids(self):
        g1 = np.zeros((2, 2))
        g1[0, 1] = 1.0  # |0>|1> on (1,2)
        g2 = np.zeros((2, 2))
        g2[1, 0] = 1.0  # |1>|0> on (3,4)
        state = assemble(BipartiteState(g1), BipartiteState(g2))
        assert np.allclose(state.vector, basis_state(2, 0, 1, 1, 0).vector)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            assemble(max_entangled(2), max_entangled(3))


class TestApplyLocal:
    def test_a_first_slot_is_particle_one(self):
        out = apply_local(basis_state(2, 0, 0, 0, 0), kron(SX, I2), np.eye(4))
        assert np.allclose(out.vector, basis_state(2, 1, 0, 0, 0).vector)

    def test_a_second_slot_is_particle_three(self):
        out = apply_local(basis_state(2, 0, 0, 0, 0), kron(I2, SX), np.eye(4))
        assert np.allclose(out.vector, basis_state(2, 0, 0, 1, 0).vector)

    def test_b_first_slot_is_particle_two(self):
        out = apply_local(basis_state(2, 0, 0, 0, 0), np.eye(4), kron(SX, I2))
        assert np.allclose(out.vector, basis_state(2, 0, 1, 0, 0).vector)

    def test_b_second_slot_is_particle_four(self):
        out = apply_local(basis_state(2, 0, 0, 0, 0), np.eye(4), kron(I2, SX))
        assert np.allclose(out.vector, basis_state(2, 0, 0, 0, 1).vector)

    def test_identity_is_identity(self):
        state = assemble(max_entangled(3), max_entangled(3))
        out = apply_local(state, np.eye(9), np.eye(9))
        assert np.allclose(out.vector, state.vector)

    def test_norm_preserved(self):
        state = assemble(
            from_unitary(haar_unitary(3, seed=1)),
            from_unitary(haar_unitary(3, seed=2)),
        )
        out = apply_local(state, haar_unitary(9, seed=3), haar_unitary(9, seed=4))
        assert abs(np.linalg.norm(out.vector) - 1.0) < 1e-12

    def test_composition(self):
        state = assemble(
            from_unitary(haar_unitary(2, seed=5)),
            from_unitary(haar_unitary(2, seed=6)),
        )
        a1, b1 = haar_unitary(4, seed=7), haar_unitary(4, seed=8)
        a2, b2 = haar_unitary(4, seed=9), haar_unitary(4, seed=10)
        stepped = apply_local(apply_local(state, a1, b1), a2, b2)
        fused = apply_local(state, a2 @ a1, b2 @ b1)
        assert np.linalg.norm(stepped.vector - fused.vector) < 1e-12

    def test_a_and_b_commute(self):
        state = assemble(
            from_unitary(haar_unitary(2, seed=11)),
            from_unitary(haar_unitary(2, seed=12)),
        )
        a, b = haar_unitary(4, seed=13), haar_unitary(4, seed=14)
        one_shot = apply_local(state, a, b)
        a_then_b = apply_local(apply_local(state, a, np.eye(4)), np.eye(4), b)
        assert np.linalg.norm(one_shot.vector - a_then_b.vector) < 1e-12

    def test_non_unitary_rejected(self):
        state = assemble(max_entangled(2), max_entangled(2))
        with pytest.raises(Exception, match="unitary"):
            apply_local(state, np.ones((4, 4)), np.eye(4))

    def test_wrong_shape_rejected(self):
        state = assemble(max_entangled(2), max_entangled(2))
        with pytest.raises(ValueError, match="operators"):
            apply_local(state, np.eye(9), np.eye(9))


class TestRunCopy:
    def test_identity_protocol_fidelity_is_blank_overlap(self):
        psi = from_unitary(haar_unitary(3, seed=20))
        blank = from_unitary(haar_unitary(3, seed=21))
        protocol = CopyProtocol(
            d=3, blank=blank, a_op=np.eye(9), b_op=np.eye(9), phases=(0.0, 0.0)
        )
        fidelity, _ = run_copy(protocol, psi)
        assert fidelity == pytest.approx(abs(overlap(psi, blank)) ** 2, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    def test_synthesized_protocol_verifies(self, d):
        psi1, psi2 = orthogonal_pair(d, seed=40 + d)
        protocol = synthesize_protocol(psi1, psi2, max_entangled(d))
        for psi in (psi1, psi2):
            fidelity, _ = run_copy(protocol, psi)
            assert fidelity >= 1 - 1e-9

    def test_recovered_phases_match_protocol(self):
        psi1, psi2 = copyable_pair(4, m=2, seed=33)
        protocol = synthesize_protocol(psi1, psi2, max_entangled(4))
        _, theta1 = run_copy(protocol, psi1)
        _, theta2 = run_copy(protocol, psi2)
        assert theta1 == pytest.approx(protocol.phases[0], abs=1e-8)
        assert theta2 == pytest.approx(protocol.phases[1], abs=1e-8)

    def test_third_state_is_not_copied(self):
        psi1, psi2 = orthogonal_pair(3, seed=50)
        protocol = synthesize_protocol(psi1, psi2, max_entangled(3))
        bystander = from_unitary(haar_unitary(3, seed=51))
        fidelity, _ = run_copy(protocol, bystander)
        assert fidelity < 1 - 1e-6

    def test_global_phase_moves_theta_not_fidelity(self):
        psi1, psi2 = orthogonal_pair(2, seed=60)
        protocol = synthesize_protocol(psi1, psi2, max_entangled(2))
        alpha = 0.9
        shifted = CopyProtocol(
            d=2,
            blank=protocol.blank,
            a_op=np.exp(1j * alpha) * protocol.a_op,
            b_op=protocol.b_op,
            phases=protocol.phases,
        )
        f0, t0 = run_copy(protocol, psi1)
        f1, t1 = run_copy(shifted, psi1)
        assert f1 == pytest.approx(f0, abs=1e-12)
        assert t1 == pytest.approx(t0 + alpha, abs=1e-9)

    def test_partially_entangled_input_rejected(self):
        psi1, psi2 = orthogonal_pair(2, seed=70)
        protocol = synthesize_protocol(psi1, psi2, max_entangled(2))
        tilted = BipartiteState(np.diag([np.sqrt(0.7), np.sqrt(0.3)]))
        with pytest.raises(Exception, match="deviate"):
            run_copy(protocol, tilted)

    def test_dimension_mismatch_rejected(self):
        psi1, psi2 = orthogonal_pair(2, seed=71)
        protocol = synthesize_protocol(psi1, psi2, max_entangled(2))
        with pytest.raises(ValueError, match="mismatch"):
            run_copy(protocol, max_entangled(3))


@st.composite
def copyable_cases(draw):
    d = draw(st.integers(2, 8))
    m = draw(st.sampled_from([m for m in range(2, d + 1) if d % m == 0]))
    return d, m, draw(st.integers(0, 2**32 - 1))


class TestOverlapKernel:
    """run_copy's closed-form overlap against the brute-force apply_local oracle."""

    @given(copyable_cases())
    @example((12, 4, 12))
    @example((16, 4, 16))
    @settings(max_examples=40, deadline=None)
    def test_matches_apply_local(self, case):
        d, m, seed = case
        psi1, psi2 = copyable_pair(d, m, seed)
        blank = from_unitary(haar_unitary(d, seed=(seed, 1)))
        protocol = synthesize_protocol(psi1, psi2, blank)
        bystander = from_unitary(haar_unitary(d, seed=(seed, 2)))
        for psi in (psi1, psi2, bystander):
            final = apply_local(assemble(psi, blank), protocol.a_op, protocol.b_op)
            ip = complex(np.vdot(assemble(psi, psi).vector, final.vector))
            fidelity, theta = run_copy(protocol, psi)
            assert abs(fidelity - abs(ip) ** 2) < 1e-12
            if abs(ip) > 1e-2:  # the phase of a vanishing overlap is roundoff
                gap = abs(theta - np.angle(ip)) % TAU
                assert min(gap, TAU - gap) < 1e-12

    def test_non_unitary_operator_rejected(self):
        psi1, psi2 = orthogonal_pair(2, seed=73)
        protocol = synthesize_protocol(psi1, psi2, max_entangled(2))
        protocol.b_op = 1.01 * protocol.b_op
        with pytest.raises(ValueError, match="B operator is not unitary"):
            run_copy(protocol, psi1)

