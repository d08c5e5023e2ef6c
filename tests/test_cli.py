import io
import json
import sys

import numpy as np
import pytest

from loccopy import serialization
from loccopy.cli import main
from loccopy.copying import synthesize_protocol
from loccopy.generators import copyable_pair, nonprime_counterexample, orthogonal_pair
from loccopy.states import max_entangled


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def five_level_vectors(tmp_path):
    psi = write_json(tmp_path, "psi.json", {"probs": [0.39, 0.26, 0.18, 0.17, 0.0]})
    blank = write_json(
        tmp_path, "blank.json", {"probs": [0.32, 0.28, 0.24, 0.085, 0.075]}
    )
    return psi, blank


class TestMajorize:
    def test_affirmative(self, capsys, tmp_path):
        src = write_json(tmp_path, "src.json", {"probs": [0.5, 0.5]})
        dst = write_json(tmp_path, "dst.json", {"probs": [0.8, 0.2]})
        code, out, _ = run(capsys, ["majorize", src, dst])
        assert code == 0
        payload = json.loads(out)
        assert payload["majorizes"] is True
        assert payload["nielsen_transformable"] is True
        assert all(row["satisfied"] for row in payload["partial_sums"])

    def test_negative(self, capsys, tmp_path):
        src = write_json(tmp_path, "src.json", {"probs": [0.8, 0.2]})
        dst = write_json(tmp_path, "dst.json", {"probs": [0.5, 0.5]})
        code, out, _ = run(capsys, ["majorize", src, dst])
        assert code == 1
        assert json.loads(out)["majorizes"] is False

    def test_stdin_source(self, capsys, tmp_path, monkeypatch):
        dst = write_json(tmp_path, "dst.json", {"probs": [1.0, 0.0]})
        monkeypatch.setattr(sys, "stdin", io.StringIO('{"probs": [0.6, 0.4]}'))
        code, out, _ = run(capsys, ["majorize", "-", dst])
        assert code == 0
        assert json.loads(out)["majorizes"] is True


class TestPartialSums:
    """The partial-sum rows, pinned to the values the CLI printed before the
    sort-pad-cumsum moved into majorization; exact float equality."""

    def test_majorize_rows_with_padding(self, capsys, tmp_path):
        src = write_json(tmp_path, "src.json", {"probs": [0.7, 0.2, 0.1]})
        dst = write_json(tmp_path, "dst.json", {"probs": [0.32, 0.28, 0.24, 0.085, 0.075]})
        code, out, _ = run(capsys, ["majorize", src, dst])
        assert code == 1
        assert json.loads(out)["partial_sums"] == [
            {"r": 1, "lhs": 0.7, "rhs": 0.32, "satisfied": False},
            {"r": 2, "lhs": 0.8999999999999999, "rhs": 0.6000000000000001, "satisfied": False},
            {"r": 3, "lhs": 0.9999999999999999, "rhs": 0.8400000000000001, "satisfied": False},
            {"r": 4, "lhs": 0.9999999999999999, "rhs": 0.925, "satisfied": False},
            {"r": 5, "lhs": 0.9999999999999999, "rhs": 1.0, "satisfied": True},
        ]

    def test_catalysis_tensored_rows(self, capsys, tmp_path):
        psi = write_json(tmp_path, "psi.json", {"probs": [0.6, 0.3, 0.1]})
        blank = write_json(tmp_path, "blank.json", {"probs": [0.5, 0.5]})
        code, out, _ = run(capsys, ["catalysis", psi, blank])
        assert code == 1
        lhs = [0.3, 0.6, 0.75, 0.9, 0.9500000000000001, 1.0, 1.0, 1.0, 1.0]
        rhs = [0.36, 0.54, 0.72, 0.8099999999999999, 0.8699999999999999,
               0.9299999999999999, 0.96, 0.99, 1.0]
        assert json.loads(out)["tensored_partial_sums"] == [
            {"r": k + 1, "lhs": lhs[k], "rhs": rhs[k], "satisfied": k in (0, 8)}
            for k in range(9)
        ]


class TestCatalysis:
    def test_catalytic_verdict(self, capsys, five_level_vectors):
        psi, blank = five_level_vectors
        code, out, _ = run(capsys, ["catalysis", psi, blank])
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "catalytic"
        # the bare Nielsen comparison fails at the third partial sum
        rows = payload["tensored_partial_sums"]
        assert all(row["satisfied"] for row in rows)

    def test_direct_verdict(self, capsys, tmp_path):
        psi = write_json(tmp_path, "psi.json", {"probs": [0.8, 0.2]})
        blank = write_json(tmp_path, "blank.json", {"probs": [0.5, 0.5]})
        code, out, _ = run(capsys, ["catalysis", psi, blank])
        assert code == 0
        assert json.loads(out)["verdict"] == "direct"

    def test_impossible_verdict(self, capsys, tmp_path):
        psi = write_json(tmp_path, "psi.json", {"probs": [0.5, 0.5]})
        blank = write_json(tmp_path, "blank.json", {"probs": [0.9, 0.1]})
        code, out, _ = run(capsys, ["catalysis", psi, blank])
        assert code == 1
        assert json.loads(out)["verdict"] == "impossible"

    def test_pretty_table(self, capsys, five_level_vectors):
        psi, blank = five_level_vectors
        code, out, _ = run(capsys, ["catalysis", psi, blank, "--pretty"])
        assert code == 0
        assert "verdict: catalytic" in out
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)


class TestCheckPair:
    def test_copyable_pair_file(self, capsys, tmp_path):
        psi1, psi2 = copyable_pair(4, m=2, seed=1)
        pair = write_json(tmp_path, "pair.json",
                          serialization.pair_to_json(psi1, psi2))
        code, out, _ = run(capsys, ["check-pair", pair])
        assert code == 0
        payload = json.loads(out)
        assert payload["orthogonality"] == "orthogonal"
        assert payload["copyable"] is True
        assert payload["detected_m"] == 2

    def test_two_state_files(self, capsys, tmp_path):
        psi1, psi2 = orthogonal_pair(2, seed=2)
        f1 = write_json(tmp_path, "a.json", serialization.state_to_json(psi1))
        f2 = write_json(tmp_path, "b.json", serialization.state_to_json(psi2))
        code, out, _ = run(capsys, ["check-pair", f1, f2])
        assert code == 0
        assert json.loads(out)["copyable"] is True

    def test_nonprime_pair_negative(self, capsys, tmp_path):
        psi1, psi2 = nonprime_counterexample(2, 2, delta=0.3, seed=3)
        pair = write_json(tmp_path, "pair.json",
                          serialization.pair_to_json(psi1, psi2))
        code, out, _ = run(capsys, ["check-pair", pair])
        assert code == 1
        payload = json.loads(out)
        assert payload["orthogonality"] == "orthogonal"
        assert payload["copyable"] is False
        assert payload["detected_m"] is None

    def test_identical_pair_is_copyable(self, capsys, tmp_path):
        s = serialization.state_to_json(max_entangled(3))
        f1 = write_json(tmp_path, "a.json", s)
        f2 = write_json(tmp_path, "b.json", s)
        code, out, _ = run(capsys, ["check-pair", f1, f2])
        assert code == 0
        payload = json.loads(out)
        assert payload["orthogonality"] == "identical_up_to_phase"
        assert payload["detected_m"] == 1

    def test_loose_phase_tol_changes_verdict(self, capsys, tmp_path):
        psi1, psi2 = nonprime_counterexample(2, 2, delta=0.3, seed=4)
        pair = write_json(tmp_path, "pair.json",
                          serialization.pair_to_json(psi1, psi2))
        strict_code, _, _ = run(capsys, ["check-pair", pair])
        loose_code, out, _ = run(capsys, ["check-pair", pair, "--phase-tol", "0.5"])
        assert strict_code == 1
        assert loose_code == 0
        assert json.loads(out)["detected_m"] == 2


class TestSynthesizeAndSimulate:
    def test_round_trip(self, capsys, tmp_path):
        psi1, psi2 = orthogonal_pair(2, seed=5)
        pair = write_json(tmp_path, "pair.json",
                          serialization.pair_to_json(psi1, psi2))
        proto_path = str(tmp_path / "protocol.json")
        code, out, _ = run(capsys, ["synthesize", pair, "--out", proto_path])
        assert code == 0
        assert out == ""

        state1 = write_json(tmp_path, "s1.json", serialization.state_to_json(psi1))
        code, out, _ = run(capsys, ["simulate", proto_path, state1])
        assert code == 0
        payload = json.loads(out)
        assert payload["passes"] is True
        assert payload["fidelity"] >= 1 - 1e-9

    def test_protocol_on_stdout(self, capsys, tmp_path):
        psi1, psi2 = copyable_pair(3, m=3, seed=6)
        pair = write_json(tmp_path, "pair.json",
                          serialization.pair_to_json(psi1, psi2))
        code, out, _ = run(capsys, ["synthesize", pair])
        assert code == 0
        protocol = serialization.protocol_from_json(json.loads(out))
        assert protocol.d == 3

    def test_explicit_blank(self, capsys, tmp_path):
        from loccopy.generators import haar_unitary
        from loccopy.states import from_unitary

        psi1, psi2 = orthogonal_pair(2, seed=7)
        pair = write_json(tmp_path, "pair.json",
                          serialization.pair_to_json(psi1, psi2))
        blank = write_json(
            tmp_path, "blank.json",
            serialization.state_to_json(from_unitary(haar_unitary(2, seed=70))),
        )
        proto_path = str(tmp_path / "protocol.json")
        code, _, _ = run(capsys, ["synthesize", pair, "--blank", blank,
                                  "--out", proto_path])
        assert code == 0
        state2 = write_json(tmp_path, "s2.json", serialization.state_to_json(psi2))
        code, out, _ = run(capsys, ["simulate", proto_path, state2])
        assert code == 0
        assert json.loads(out)["passes"] is True

    def test_nearly_maximally_entangled_blank(self, capsys, tmp_path):
        from loccopy.generators import haar_unitary
        from loccopy.states import BipartiteState

        # Schmidt probabilities within 1e-10 of 1/d pass max_ent_tol
        probs = np.array([0.25 + 1e-10, 0.25 - 1e-10, 0.25, 0.25])
        grid = haar_unitary(4, seed=40) @ np.diag(np.sqrt(probs)) @ haar_unitary(4, seed=41)
        psi1, psi2 = copyable_pair(4, m=2, seed=4)
        pair = write_json(tmp_path, "pair.json",
                          serialization.pair_to_json(psi1, psi2))
        blank = write_json(tmp_path, "blank.json",
                           serialization.state_to_json(BipartiteState(grid)))
        code, out, err = run(capsys, ["synthesize", pair, "--blank", blank])
        assert code == 0, err
        assert serialization.protocol_from_json(json.loads(out)).d == 4

    @pytest.mark.parametrize("d,deviation", [(4, 1e-9), (12, 5e-9)])
    def test_nearly_maximally_entangled_pair(self, capsys, tmp_path, d, deviation):
        from loccopy.states import BipartiteState

        # Schmidt probabilities within 1e-9 of 1/d pass max_ent_tol;
        # check-pair and synthesize polish the unitaries alike, so both
        # accept the pair
        psi1, psi2 = copyable_pair(d, m=2, seed=3)
        left, sv, right = np.linalg.svd(psi1.grid)
        probs = sv**2
        probs[:2] += (deviation, -deviation)
        psi1 = BipartiteState(left @ np.diag(np.sqrt(probs)) @ right)
        pair = write_json(tmp_path, "pair.json",
                          serialization.pair_to_json(psi1, psi2))
        code, out, err = run(capsys, ["check-pair", pair])
        assert code == 0, err
        payload = json.loads(out)
        assert (payload["orthogonality"], payload["copyable"], payload["detected_m"]) == (
            "orthogonal", True, 2)
        code, out, err = run(capsys, ["synthesize", pair])
        assert code == 0, err
        assert serialization.protocol_from_json(json.loads(out)).d == d

    def test_uncopyable_pair_is_negative(self, capsys, tmp_path):
        psi1, psi2 = nonprime_counterexample(2, 2, delta=0.5, seed=8)
        pair = write_json(tmp_path, "pair.json",
                          serialization.pair_to_json(psi1, psi2))
        code, out, err = run(capsys, ["synthesize", pair])
        assert code == 1
        assert out == ""
        assert "not synthesizable" in err

    def test_simulate_wrong_state_fails(self, capsys, tmp_path):
        from loccopy.generators import haar_unitary
        from loccopy.states import from_unitary

        psi1, psi2 = orthogonal_pair(2, seed=9)
        pair = write_json(tmp_path, "pair.json",
                          serialization.pair_to_json(psi1, psi2))
        proto_path = str(tmp_path / "protocol.json")
        run(capsys, ["synthesize", pair, "--out", proto_path])
        bystander = write_json(
            tmp_path, "bystander.json",
            serialization.state_to_json(from_unitary(haar_unitary(2, seed=90))),
        )
        code, out, _ = run(capsys, ["simulate", proto_path, bystander])
        assert code == 1
        assert json.loads(out)["passes"] is False


class TestGenerate:
    def test_copyable_family_metadata(self, capsys):
        code, out, _ = run(capsys, ["generate", "--family", "copyable",
                                    "--d", "4", "--m", "2", "--seed", "11"])
        assert code == 0
        payload = json.loads(out)
        assert payload["family"] == "copyable"
        assert payload["seed"] == 11
        assert payload["m"] == 2
        psi1, psi2 = serialization.pair_from_json(payload)
        assert psi1.d == 4 and psi2.d == 4

    def test_deterministic_output(self, capsys):
        argv = ["generate", "--family", "orthogonal", "--d", "3", "--seed", "12"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second

    def test_nonprime_default_delta_in_range(self, capsys):
        code, out, _ = run(capsys, ["generate", "--family", "nonprime",
                                    "--d1", "2", "--d2", "3", "--seed", "13"])
        assert code == 0
        payload = json.loads(out)
        assert 0.0 < payload["delta"] < 2 * np.pi / 6
        assert payload["d1"] == 2 and payload["d2"] == 3

    def test_delta_draw_of_zero_is_redrawn(self):
        from loccopy.cli import _draw_delta

        class Rng:
            draws = [0.0, 0.5]

            def uniform(self, low, high):
                return self.draws.pop(0)

        assert _draw_delta(Rng(), 6) == 0.5

    @pytest.mark.parametrize("family_args", [
        ["--family", "orthogonal", "--d", "20737"],
        ["--family", "copyable", "--d", "20737", "--m", "7"],
        ["--family", "nonprime", "--d1", "2", "--d2", "10369"],
    ])
    def test_oversized_dimension_rejected_before_generation(
            self, capsys, monkeypatch, family_args):
        from loccopy import generators

        def refuse(*args):
            raise AssertionError("generator called")

        for name in ("orthogonal_pair", "copyable_pair", "nonprime_counterexample"):
            monkeypatch.setattr(generators, name, refuse)
        code, out, err = run(capsys, ["generate"] + family_args)
        assert code == 2
        assert out == ""
        assert "exceeds max dimension 20736" in err

    def test_missing_dimension_is_input_error(self, capsys):
        code, _, err = run(capsys, ["generate", "--family", "orthogonal"])
        assert code == 2
        assert "error:" in err and "--d" in err

    def test_out_file(self, capsys, tmp_path):
        out_path = str(tmp_path / "pair.json")
        code, out, _ = run(capsys, ["generate", "--family", "orthogonal",
                                    "--d", "2", "--seed", "14", "--out", out_path])
        assert code == 0
        assert out == ""
        payload = json.loads((tmp_path / "pair.json").read_text())
        serialization.pair_from_json(payload)

    def test_env_seed_default(self, capsys, monkeypatch):
        monkeypatch.setenv("LOCCOPY_SEED", "21")
        _, from_env, _ = run(capsys, ["generate", "--family", "orthogonal", "--d", "2"])
        monkeypatch.delenv("LOCCOPY_SEED")
        _, explicit, _ = run(capsys, ["generate", "--family", "orthogonal",
                                      "--d", "2", "--seed", "21"])
        assert from_env == explicit

    def test_generated_pair_feeds_check_pair(self, capsys, tmp_path, monkeypatch):
        _, out, _ = run(capsys, ["generate", "--family", "copyable",
                                 "--d", "6", "--m", "3", "--seed", "15"])
        monkeypatch.setattr(sys, "stdin", io.StringIO(out))
        code, out, _ = run(capsys, ["check-pair", "-"])
        assert code == 0
        assert json.loads(out)["detected_m"] == 3


class TestSurvey:
    def test_small_dimensions_always_copyable(self, capsys):
        code, out, _ = run(capsys, ["survey", "--d", "2", "3",
                                    "--samples", "6", "--seed", "16"])
        assert code == 0
        payload = json.loads(out)
        assert payload["seed"] == 16
        by_d = {row["d"]: row for row in payload["rows"]}
        for d in (2, 3):
            assert by_d[d]["orthogonal_fraction"] == 1.0
            assert by_d[d]["copyable_fraction"] == 1.0

    def test_composite_dimension_generic_pairs_uncopyable(self, capsys):
        code, out, _ = run(capsys, ["survey", "--d", "4",
                                    "--samples", "6", "--seed", "17"])
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["orthogonal_fraction"] == 1.0
        assert row["copyable_fraction"] == 0.0

    def test_nonprime_family(self, capsys):
        code, out, _ = run(capsys, ["survey", "--d", "4", "--family", "nonprime",
                                    "--samples", "5", "--seed", "18"])
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["orthogonal_fraction"] == 1.0
        assert row["copyable_fraction"] == 0.0

    def test_nonprime_family_rejects_prime_d(self, capsys):
        code, _, err = run(capsys, ["survey", "--d", "5", "--family", "nonprime",
                                    "--samples", "2"])
        assert code == 2
        assert "composite" in err

    @pytest.mark.parametrize("family", ["orthogonal", "nonprime"])
    def test_oversized_dimension_rejected_before_sampling(self, capsys, monkeypatch, family):
        from loccopy import generators

        def refuse(*args):
            raise AssertionError("generator called")

        for name in ("orthogonal_pair", "nonprime_counterexample"):
            monkeypatch.setattr(generators, name, refuse)
        # the small dimension listed first is not sampled either
        code, out, err = run(capsys, ["survey", "--d", "4", "20737", "--family", family,
                                      "--samples", "2"])
        assert code == 2
        assert out == ""
        assert "dimension 20737 exceeds max dimension 20736" in err

    def test_pretty_table(self, capsys):
        code, out, _ = run(capsys, ["survey", "--d", "2", "--samples", "3",
                                    "--seed", "19", "--pretty"])
        assert code == 0
        assert "orthogonal" in out and "copyable" in out and "ambiguous" in out

    def test_ambiguous_sample_is_counted(self, capsys, monkeypatch):
        from loccopy import cli
        from loccopy.config import AmbiguityError

        verdict = cli.spectral_verdict
        calls = []

        def ambiguous_once(t, config=None):
            calls.append(t)
            if len(calls) == 2:
                raise AmbiguityError("two eigenphase clusters are separated by only 1e-7 rad")
            return verdict(t, config)

        monkeypatch.setattr(cli, "spectral_verdict", ambiguous_once)
        code, out, _ = run(capsys, ["survey", "--d", "2", "3",
                                    "--samples", "4", "--seed", "16"])
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [(r["d"], r["copyable_fraction"], r["ambiguous_fraction"]) for r in rows] == [
            (2, 0.75, 0.25), (3, 1.0, 0.0)]


class TestErrorHandling:
    def test_malformed_json_names_location(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, ["majorize", str(bad), str(bad)])
        assert code == 2
        assert f"{bad}:1:2" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, ["majorize", str(tmp_path / "nope.json"),
                                    str(tmp_path / "nope.json")])
        assert code == 2
        assert "cannot read" in err

    def test_missing_key_reported(self, capsys, tmp_path):
        f = write_json(tmp_path, "x.json", {"wrong": 1})
        code, _, err = run(capsys, ["majorize", f, f])
        assert code == 2
        assert "error:" in err

    def test_zero_samples_is_input_error(self, capsys):
        code, out, err = run(capsys, ["survey", "--d", "3", "--samples", "0"])
        assert code == 2
        assert out == ""
        assert "--samples must be at least 1" in err

    def test_non_positive_tolerance_is_input_error(self, capsys):
        code, _, err = run(capsys, ["survey", "--d", "2", "--samples", "1",
                                    "--phase-tol", "0"])
        assert code == 2
        assert "phase_tol" in err

    def test_synthesis_failure_is_internal_error(self, capsys, tmp_path, monkeypatch):
        from loccopy import cli
        from loccopy.config import SynthesisError

        def fail(*args, **kwargs):
            raise SynthesisError("synthesized A fails its defining relation")

        monkeypatch.setattr(cli, "synthesize_protocol", fail)
        psi1, psi2 = copyable_pair(4, 2, seed=1)
        pair = write_json(tmp_path, "pair.json", serialization.pair_to_json(psi1, psi2))
        code, out, err = run(capsys, ["synthesize", pair])
        assert code == 3
        assert out == ""
        assert "internal error: synthesized A fails" in err

    @pytest.mark.parametrize("command,key,value", [
        ("check-pair", None, 5),
        ("check-pair", "psi1", 5),
        ("simulate", "d", None),
        ("simulate", "phases", 5),
        ("simulate", "wiring", "A:(1,2) B:(3,4)"),
    ])
    def test_malformed_input_is_input_error(self, capsys, tmp_path, command, key, value):
        psi1, psi2 = orthogonal_pair(2, seed=3)
        if command == "check-pair":
            obj, rest = serialization.pair_to_json(psi1, psi2), []
        else:
            obj = serialization.protocol_to_json(
                synthesize_protocol(psi1, psi2, max_entangled(2)))
            rest = [write_json(tmp_path, "state.json", serialization.state_to_json(psi1))]
        if key is None:
            obj = value
        else:
            obj[key] = value
        code, out, err = run(capsys, [command, write_json(tmp_path, "in.json", obj), *rest])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_nan_operator_is_input_error(self, capsys, tmp_path):
        psi1, psi2 = orthogonal_pair(2, seed=3)
        obj = serialization.protocol_to_json(synthesize_protocol(psi1, psi2, max_entangled(2)))
        obj["A"][0] = [float("nan"), 0.0]
        state = write_json(tmp_path, "state.json", serialization.state_to_json(psi1))
        code, out, err = run(capsys, ["simulate", write_json(tmp_path, "p.json", obj), state])
        assert code == 2
        assert out == ""
        assert "A operator is not unitary" in err

    @pytest.mark.parametrize("command", ["majorize", "catalysis"])
    def test_nan_probabilities_are_input_error(self, capsys, tmp_path, command):
        bad = write_json(tmp_path, "bad.json", {"probs": [float("nan"), 1.0]})
        good = write_json(tmp_path, "good.json", {"probs": [0.5, 0.5]})
        code, out, err = run(capsys, [command, bad, good])
        assert code == 2
        assert out == ""
        assert "finite" in err


def test_cli_import_leaves_scipy_unloaded():
    import os
    import subprocess

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    probe = "import sys, loccopy.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"
