import json
import warnings

import numpy as np
import pytest

from loccopy.copying import spectral_verdict, synthesize_protocol
from loccopy.generators import copyable_pair, haar_unitary, orthogonal_pair
from loccopy.serialization import (
    pair_from_json,
    pair_to_json,
    protocol_fields_to_json,
    protocol_from_json,
    protocol_to_json,
    report_to_json,
    schmidt_from_json,
    schmidt_to_json,
    state_from_json,
    state_to_json,
    stream_to_json,
)
from loccopy.states import SchmidtVector, from_unitary, max_entangled


class TestStateJson:
    def test_round_trip(self):
        s = from_unitary(haar_unitary(3, seed=1))
        back = state_from_json(state_to_json(s))
        assert back.d == 3
        assert np.allclose(back.grid, s.grid)

    def test_survives_json_text(self):
        s = from_unitary(haar_unitary(2, seed=2))
        back = state_from_json(json.loads(json.dumps(state_to_json(s))))
        assert np.allclose(back.grid, s.grid)

    def test_amplitude_order_is_first_index_fastest(self):
        obj = state_to_json(max_entangled(2))
        r = 1 / np.sqrt(2)
        assert np.allclose(obj["amplitudes"], [[r, 0], [0, 0], [0, 0], [r, 0]])

    def test_missing_key_named(self):
        with pytest.raises(ValueError, match="amplitudes"):
            state_from_json({"d": 2})

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="length"):
            state_from_json({"d": 2, "amplitudes": [[1.0, 0.0]]})

    def test_malformed_pairs_rejected(self):
        with pytest.raises(ValueError, match="pairs"):
            state_from_json({"d": 2, "amplitudes": [1, 2, 3, 4]})

    def test_infinite_entry_rejected_without_warning(self):
        amplitudes = [[0.5, float("inf")], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                state_from_json({"d": 2, "amplitudes": amplitudes})


class TestSchmidtJson:
    def test_round_trip(self):
        v = SchmidtVector([0.5, 0.3, 0.2])
        back = schmidt_from_json(schmidt_to_json(v))
        assert np.allclose(back.probs, v.probs)

    def test_coeffs_are_squared(self):
        back = schmidt_from_json({"coeffs": [np.sqrt(0.7), np.sqrt(0.3)]})
        assert np.allclose(back.probs, [0.7, 0.3])

    def test_probs_take_precedence_over_nothing(self):
        back = schmidt_from_json({"probs": [0.6, 0.4]})
        assert np.allclose(back.probs, [0.6, 0.4])

    def test_neither_key_rejected(self):
        with pytest.raises(ValueError, match="probs.*coeffs|coeffs.*probs"):
            schmidt_from_json({"values": [1.0]})

    @pytest.mark.parametrize("obj", [5, "probs", [0.5, 0.5]])
    def test_non_object_rejected(self, obj):
        with pytest.raises(ValueError, match="JSON object"):
            schmidt_from_json(obj)

    @pytest.mark.parametrize("key", ["probs", "coeffs"])
    def test_non_numeric_values_rejected(self, key):
        with pytest.raises(ValueError, match=key):
            schmidt_from_json({key: {"a": 1}})


def per_entry_pairs(values):
    """The [re, im] encoding built one complex entry at a time."""
    return [[float(z.real), float(z.imag)] for z in np.asarray(values).ravel(order="C")]


class TestProtocolJson:
    def test_text_matches_per_entry_encoder(self):
        psi1, psi2 = copyable_pair(6, 3, seed=21)
        blank = from_unitary(haar_unitary(6, seed=22))
        protocol = synthesize_protocol(psi1, psi2, blank)
        expected = {
            "d": 6,
            "blank": {"d": 6, "amplitudes": per_entry_pairs(blank.vector())},
            "A": per_entry_pairs(protocol.a_op),
            "B": per_entry_pairs(protocol.b_op),
            "phases": [float(x) for x in protocol.phases],
            "wiring": protocol.wiring,
        }
        assert json.dumps(protocol_to_json(protocol)) == json.dumps(expected)
        state = {"d": 6, "amplitudes": per_entry_pairs(psi1.vector())}
        assert json.dumps(state_to_json(psi1)) == json.dumps(state)

    def test_text_round_trip_is_bit_exact(self):
        psi1, psi2 = copyable_pair(4, 2, seed=23)
        protocol = synthesize_protocol(psi1, psi2, from_unitary(haar_unitary(4, seed=24)))
        protocol.a_op[0, 1] = complex(protocol.a_op[0, 1].real, -0.0)
        back = protocol_from_json(json.loads(json.dumps(protocol_to_json(protocol))))
        assert back.a_op.tobytes() == protocol.a_op.tobytes()
        assert back.b_op.tobytes() == protocol.b_op.tobytes()
        assert back.blank.grid.tobytes() == protocol.blank.grid.tobytes()

    def test_stream_matches_json_dumps(self):
        psi1, psi2 = copyable_pair(6, 3, seed=25)
        protocol = synthesize_protocol(psi1, psi2, max_entangled(6))
        streamed = "".join(stream_to_json(protocol_fields_to_json(protocol)))
        assert streamed == json.dumps(protocol_to_json(protocol))
        pair = pair_to_json(psi1, psi2, family="copyable", m=3)
        assert "".join(stream_to_json(pair)) == json.dumps(pair)
        assert "".join(stream_to_json({})) == "{}"

    def test_round_trip_preserves_behavior(self):
        from loccopy.simulator import run_copy

        psi1, psi2 = orthogonal_pair(2, seed=5)
        protocol = synthesize_protocol(psi1, psi2, max_entangled(2))
        back = protocol_from_json(json.loads(json.dumps(protocol_to_json(protocol))))
        assert back.d == protocol.d
        assert back.wiring == protocol.wiring
        assert np.allclose(back.a_op, protocol.a_op)
        assert np.allclose(back.b_op, protocol.b_op)
        assert back.phases == protocol.phases
        f1, _ = run_copy(back, psi1)
        f2, _ = run_copy(back, psi2)
        assert min(f1, f2) >= 1 - 1e-9

    def test_blank_of_another_dimension_rejected(self):
        psi1, psi2 = orthogonal_pair(3, seed=7)
        obj = protocol_to_json(synthesize_protocol(psi1, psi2, max_entangled(3)))
        obj["blank"] = state_to_json(max_entangled(2))
        with pytest.raises(ValueError, match="blank has d=2, but the protocol has d=3"):
            protocol_from_json(obj)

    def test_matrices_are_row_major_pairs(self):
        psi1, psi2 = orthogonal_pair(2, seed=6)
        protocol = synthesize_protocol(psi1, psi2, max_entangled(2))
        obj = protocol_to_json(protocol)
        assert obj["A"][1] == [
            pytest.approx(protocol.a_op[0, 1].real),
            pytest.approx(protocol.a_op[0, 1].imag),
        ]

    def test_wiring_defaults_when_absent(self):
        psi1, psi2 = orthogonal_pair(2, seed=7)
        protocol = synthesize_protocol(psi1, psi2, max_entangled(2))
        obj = protocol_to_json(protocol)
        del obj["wiring"]
        assert protocol_from_json(obj).wiring == "A:(1,3) B:(2,4)"

    def test_other_wiring_rejected(self):
        psi1, psi2 = orthogonal_pair(2, seed=7)
        obj = protocol_to_json(synthesize_protocol(psi1, psi2, max_entangled(2)))
        obj["wiring"] = "A:(1,2) B:(3,4)"
        with pytest.raises(ValueError, match="wiring"):
            protocol_from_json(obj)

    def test_missing_matrix_rejected(self):
        psi1, psi2 = orthogonal_pair(2, seed=8)
        protocol = synthesize_protocol(psi1, psi2, max_entangled(2))
        obj = protocol_to_json(protocol)
        del obj["B"]
        with pytest.raises(ValueError, match="'B'"):
            protocol_from_json(obj)

    def test_bad_phase_count_rejected(self):
        psi1, psi2 = orthogonal_pair(2, seed=9)
        protocol = synthesize_protocol(psi1, psi2, max_entangled(2))
        obj = protocol_to_json(protocol)
        obj["phases"] = [0.0]
        with pytest.raises(ValueError, match="phases"):
            protocol_from_json(obj)

    @pytest.mark.parametrize("key,value", [
        ("d", None), ("d", "2"), ("d", 2.5), ("phases", 5), ("phases", [0.0, "1"]),
        ("phases", [0.0, None]),
    ])
    def test_malformed_field_rejected(self, key, value):
        psi1, psi2 = orthogonal_pair(2, seed=9)
        obj = protocol_to_json(synthesize_protocol(psi1, psi2, max_entangled(2)))
        obj[key] = value
        with pytest.raises(ValueError, match=key):
            protocol_from_json(obj)


class TestReportJson:
    def test_copyable_report_fields(self):
        from loccopy.copying import pair_operator

        psi1, psi2 = copyable_pair(4, m=2, seed=10)
        report = spectral_verdict(pair_operator(psi1, psi2))
        obj = json.loads(json.dumps(report_to_json(report)))
        assert obj["copyable"] is True
        assert obj["detected_m"] == 2
        assert len(obj["eigenphases"]) == 4
        assert len(obj["clusters"]) == 2
        assert all(count == 2 for _, count in obj["clusters"])
        assert isinstance(obj["trace"], list) and len(obj["trace"]) == 2

    def test_noncopyable_report_has_null_m(self):
        obj = report_to_json(spectral_verdict(np.diag([1, 1, 1, -1])))
        assert obj["detected_m"] is None
        assert obj["copyable"] is False


class TestPairJson:
    def test_non_object_rejected(self):
        psi1, _ = orthogonal_pair(2, seed=12)
        with pytest.raises(ValueError, match="state pair must be a JSON object"):
            pair_from_json(5)
        with pytest.raises(ValueError, match="state must be a JSON object"):
            pair_from_json({"psi1": 5, "psi2": state_to_json(psi1)})

    def test_round_trip_with_metadata(self):
        psi1, psi2 = orthogonal_pair(3, seed=11)
        obj = pair_to_json(psi1, psi2, family="traceless", seed=11)
        assert obj["family"] == "traceless"
        b1, b2 = pair_from_json(json.loads(json.dumps(obj)))
        assert np.allclose(b1.grid, psi1.grid)
        assert np.allclose(b2.grid, psi2.grid)

    def test_dimension_mismatch_rejected(self):
        obj = {
            "psi1": state_to_json(max_entangled(2)),
            "psi2": state_to_json(max_entangled(3)),
        }
        with pytest.raises(ValueError, match="differ"):
            pair_from_json(obj)

    def test_missing_member_rejected(self):
        with pytest.raises(ValueError, match="psi2"):
            pair_from_json({"psi1": state_to_json(max_entangled(2))})
