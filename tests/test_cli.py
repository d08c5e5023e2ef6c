import errno
import io
import json
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from loccopy import serialization
from loccopy.cli import main
from loccopy.copying import synthesize_protocol
from loccopy.config import DENSE_BYTES, TAU
from loccopy.generators import copyable_pair, haar_unitary, nonprime_counterexample, orthogonal_pair
from loccopy.states import BipartiteState, from_unitary, max_entangled

from conftest import arc_bound_pair, protocol_json


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stdin_of(text):
    """A stand-in for sys.stdin holding text, with the binary buffer that
    cli reads."""
    return io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8")


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def budget_error(what, d):
    """The refusal of a protocol's five complex d^2 x d^2 arrays."""
    return f"{what} at d = {d} needs {80 * d**4} bytes, over the budget of {DENSE_BYTES} bytes"


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
        monkeypatch.setattr(sys, "stdin", stdin_of('{"probs": [0.6, 0.4]}'))
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

    def test_majorize_verdict_is_every_row(self, capsys, tmp_path):
        # only the first row fails: 0.7 > 0.6
        src = write_json(tmp_path, "src.json", {"probs": [0.7, 0.2, 0.1]})
        dst = write_json(tmp_path, "dst.json", {"probs": [0.6, 0.3, 0.1]})
        code, out, _ = run(capsys, ["majorize", src, dst])
        payload = json.loads(out)
        assert code == 1
        assert payload["majorizes"] is False
        assert [row["satisfied"] for row in payload["partial_sums"]] == [False, True, True]

    def test_catalysis_impossible_only_with_an_unsatisfied_row(self, capsys, tmp_path):
        psi = write_json(tmp_path, "psi.json", {"probs": [0.5, 0.5]})
        blank = write_json(tmp_path, "blank.json", {"probs": [0.9, 0.1]})
        code, out, _ = run(capsys, ["catalysis", psi, blank])
        payload = json.loads(out)
        assert code == 1
        assert payload["verdict"] == "impossible"
        assert [row["satisfied"] for row in payload["tensored_partial_sums"]] == [
            False, False, False, True]

    def test_catalysis_refused_by_the_budget(self, capsys, tmp_path, monkeypatch):
        # six float arrays of 3 * max(3, 2) entries: 432 bytes
        import loccopy.config

        psi = write_json(tmp_path, "psi.json", {"probs": [0.6, 0.3, 0.1]})
        blank = write_json(tmp_path, "blank.json", {"probs": [0.5, 0.5]})
        monkeypatch.setattr(loccopy.config, "DENSE_BYTES", 432)
        assert run(capsys, ["catalysis", psi, blank])[0] == 1
        monkeypatch.setattr(loccopy.config, "DENSE_BYTES", 431)
        code, out, err = run(capsys, ["catalysis", psi, blank])
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            "error: catalysis of 3 and 2 entries needs 432 bytes, over the budget of 431 bytes"]

    @pytest.mark.parametrize("argv,key,verdict", [
        (["majorize", "{v}", "{w}"], "majorizes", True),
        (["majorize", "{w}", "{v}"], "majorizes", True),
        (["catalysis", "{v}", "{w}"], "verdict", "direct"),
        (["catalysis", "{w}", "{v}"], "verdict", "direct"),
    ])
    def test_vectors_within_the_normalization_slack_compare_as_equal(
            self, capsys, tmp_path, argv, key, verdict):
        # both sums are within NORM_TOL of 1 (1 + 9e-11 and 1 - 9e-11), and
        # both vectors are the uniform distribution: the raw totals differ by
        # 1.8e-10 > SUM_TOL, and at r = 3 of catalysis w v the tensored
        # sums did too, until each vector was divided by its sum
        paths = {"v": write_json(tmp_path, "v.json", {"probs": [0.500000000045] * 2}),
                 "w": write_json(tmp_path, "w.json", {"probs": [0.499999999955] * 2})}
        code, out, _ = run(capsys, [arg.format(**paths) for arg in argv])
        payload = json.loads(out)
        assert code == 0
        assert payload[key] == verdict
        rows = payload.get("partial_sums") or payload["tensored_partial_sums"]
        assert all(row["satisfied"] for row in rows)


@pytest.mark.parametrize("argv,calls", [
    (["majorize", "{src}", "{dst}"], 1),
    (["catalysis", "{src}", "{dst}"], 2),  # direct fails: the tensored rows decide
    (["catalysis", "{dst}", "{src}"], 2),  # direct holds: the rows are still printed
])
def test_one_partial_sums_pass_per_condition_set(capsys, tmp_path, monkeypatch, argv, calls):
    from loccopy import majorization

    paths = {"src": write_json(tmp_path, "src.json", {"probs": [0.7, 0.2, 0.1]}),
             "dst": write_json(tmp_path, "dst.json", {"probs": [0.8, 0.2]})}
    seen = []
    partial_sums = majorization._partial_sums
    monkeypatch.setattr(majorization, "_partial_sums",
                        lambda v, w: seen.append(v.size) or partial_sums(v, w))
    code, out, _ = run(capsys, [arg.format(**paths) for arg in argv])
    assert code in (0, 1) and out
    assert len(seen) == calls


def pretty_argv(tmp_path) -> dict:
    """A valid argv for each subcommand that takes --pretty."""
    psi1, psi2 = copyable_pair(4, 2, seed=3)
    pair = write_json(tmp_path, "pair.json", serialization.pair_to_json(psi1, psi2))
    state = write_json(tmp_path, "state.json", serialization.state_to_json(psi1))
    protocol = write_json(tmp_path, "protocol.json", protocol_json(
        synthesize_protocol(psi1, psi2, max_entangled(4))))
    src = write_json(tmp_path, "src.json", {"probs": [0.7, 0.2, 0.1]})
    dst = write_json(tmp_path, "dst.json", {"probs": [0.8, 0.2]})
    return {
        "majorize": ["majorize", src, dst],
        "catalysis": ["catalysis", src, dst],
        "check-pair": ["check-pair", pair],
        "simulate": ["simulate", protocol, state],
        "survey": ["survey", "--d", "2", "4", "--samples", "3"],
    }


class TestPretty:
    """--pretty renders the JSON payload: the same keys, codes and stderr."""

    @pytest.mark.parametrize("command", ["majorize", "catalysis", "check-pair", "simulate",
                                         "survey"])
    def test_every_key_starts_a_line(self, capsys, tmp_path, command):
        argv = pretty_argv(tmp_path)[command]
        code, out, err = run(capsys, argv)
        pretty_code, pretty, pretty_err = run(capsys, [*argv, "--pretty"])
        assert (pretty_code, pretty_err) == (code, err)
        starts = [line.split(":")[0] for line in pretty.splitlines()]
        assert [key for key in json.loads(out) if key not in starts] == []

    def test_majorize_view(self, capsys, tmp_path):
        src = write_json(tmp_path, "src.json", {"probs": [0.5, 0.5]})
        dst = write_json(tmp_path, "dst.json", {"probs": [0.75, 0.25]})
        code, out, _ = run(capsys, ["majorize", src, dst, "--pretty"])
        assert code == 0
        assert out == (
            "majorizes: true\n"
            "nielsen_transformable: true\n"
            "partial_sums:\n"
            "  r  lhs   rhs  satisfied\n"
            "  1  0.5  0.75       true\n"
            "  2  1.0   1.0       true\n"
        )


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

    def test_copyable_pair_at_the_arc_bound_is_orthogonal(self, capsys, tmp_path):
        # |Tr T|/2 is above PHASE_TOL by roundoff, and the trace rule alone
        # reads "neither"; a copyable report with M = 2 is orthogonal
        pair = write_json(tmp_path, "pair.json",
                          serialization.pair_to_json(*arc_bound_pair(142)))
        code, out, _ = run(capsys, ["check-pair", pair])
        payload = json.loads(out)
        assert (code, payload["orthogonality"], payload["copyable"],
                payload["detected_m"]) == (0, "orthogonal", True, 2)

    def test_identical_pair_is_copyable(self, capsys, tmp_path):
        s = serialization.state_to_json(max_entangled(3))
        f1 = write_json(tmp_path, "a.json", s)
        f2 = write_json(tmp_path, "b.json", s)
        code, out, _ = run(capsys, ["check-pair", f1, f2])
        assert code == 0
        payload = json.loads(out)
        assert payload["orthogonality"] == "identical_up_to_phase"
        assert payload["detected_m"] == 1

    @pytest.mark.parametrize("command", ["check-pair", "synthesize"])
    def test_third_state_file_refused(self, capsys, tmp_path, command):
        psi1, psi2 = orthogonal_pair(2, seed=2)
        f1 = write_json(tmp_path, "a.json", serialization.state_to_json(psi1))
        f2 = write_json(tmp_path, "b.json", serialization.state_to_json(psi2))
        pair = write_json(tmp_path, "pair.json", serialization.pair_to_json(psi1, psi2))
        code, out, err = run(capsys, [command, f1, f2, pair])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "got 3 files" in err

    def test_phase_tol_flag_is_usage_error(self, capsys, tmp_path):
        psi1, psi2 = nonprime_counterexample(2, 2, delta=0.3, seed=4)
        pair = write_json(tmp_path, "pair.json",
                          serialization.pair_to_json(psi1, psi2))
        assert run(capsys, ["check-pair", pair])[0] == 1
        with pytest.raises(SystemExit) as exc:
            main(["check-pair", pair, "--phase-tol", "1e-3"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        # argparse's usage lines, then its one error line
        lines = captured.err.splitlines()
        assert lines[0].startswith("usage: ")
        assert lines[-1] == "loccopy: error: unrecognized arguments: --phase-tol 1e-3"
        assert sum("error" in line for line in lines) == 1


def near_pair():
    """A pair with eigenphases 0, 1.5e-7, pi and pi + 1.5e-7: each within
    PHASE_TOL of a root of the grid {0.75e-7, pi + 0.75e-7}, so M = 2."""
    phases = np.array([0.0, 1.5e-7, np.pi, np.pi + 1.5e-7])
    return from_unitary(np.diag(np.exp(1j * phases))), max_entangled(4)


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

        # Schmidt probabilities within 1e-10 of 1/d pass MAX_ENT_TOL
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

        # Schmidt probabilities within 1e-9 of 1/d pass MAX_ENT_TOL;
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

    @pytest.mark.parametrize("eps", [1e-10, 1e-9])
    def test_phases_off_grid_synthesize(self, capsys, tmp_path, eps):
        # pair operator: the 3 roots of unity, each 4 times, every
        # eigenphase moved off the grid by up to eps, well inside PHASE_TOL
        d = 12
        rng = np.random.default_rng(5)
        phases = TAU * np.repeat(np.arange(3), 4) / 3 + rng.uniform(-eps, eps, d)
        v, u2 = haar_unitary(d, seed=6), haar_unitary(d, seed=7)
        t = (v * np.exp(1j * phases)) @ v.conj().T
        pair = write_json(tmp_path, "pair.json", serialization.pair_to_json(
            from_unitary(t @ u2), from_unitary(u2)))
        out_path = str(tmp_path / "protocol.json")
        code, _, err = run(capsys, ["synthesize", pair, "--out", out_path])
        assert code == 0, err

    def test_phases_within_phase_tol_are_orthogonal_and_synthesize(self, capsys, tmp_path):
        # M = 3, d = 12, every eigenphase moved off the rotated grid by up to
        # 5e-8 < PHASE_TOL: |Tr T|/d is 1.1e-8, which orthogonality judged at
        # a tolerance of 1e-9 once called "neither" beside a copyable verdict
        v = haar_unitary(12, seed=7)
        noise = np.random.default_rng(5).uniform(-5e-8, 5e-8, 12)
        phases = TAU * np.repeat(np.arange(3), 4) / 3 + 0.3 + noise
        t = (v * np.exp(1j * phases)) @ v.conj().T
        u2 = haar_unitary(12, seed=8)
        psi1, psi2 = from_unitary(t @ u2), from_unitary(u2)
        pair = write_json(tmp_path, "pair.json", serialization.pair_to_json(psi1, psi2))
        code, out, err = run(capsys, ["check-pair", pair])
        assert code == 0, err
        payload = json.loads(out)
        assert (payload["orthogonality"], payload["copyable"], payload["detected_m"]) == (
            "orthogonal", True, 3)
        out_path = str(tmp_path / "protocol.json")
        code, _, err = run(capsys, ["synthesize", pair, "--out", out_path])
        assert code == 0, err
        for k, psi in enumerate((psi1, psi2)):
            state = write_json(tmp_path, f"s{k}.json", serialization.state_to_json(psi))
            code, out, err = run(capsys, ["simulate", out_path, state])
            assert code == 0, err
            assert json.loads(out)["passes"] is True

    def test_phases_one_and_a_half_tol_apart_share_a_root_check_pair(self, capsys, tmp_path):
        psi1, psi2 = near_pair()
        pair = write_json(tmp_path, "pair.json", serialization.pair_to_json(psi1, psi2))
        code, out, err = run(capsys, ["check-pair", pair])
        assert code == 0, err
        assert (json.loads(out)["copyable"], json.loads(out)["detected_m"]) == (True, 2)

    def test_phases_one_and_a_half_tol_apart_share_a_root_synthesize(self, capsys, tmp_path):
        psi1, psi2 = near_pair()
        pair = write_json(tmp_path, "pair.json", serialization.pair_to_json(psi1, psi2))
        out_path = str(tmp_path / "protocol.json")
        assert run(capsys, ["synthesize", pair, "--out", out_path]) == (0, "", "")
        for k, psi in enumerate((psi1, psi2)):
            state = write_json(tmp_path, f"s{k}.json", serialization.state_to_json(psi))
            code, out, err = run(capsys, ["simulate", out_path, state])
            assert code == 0, err
            assert json.loads(out)["passes"] is True

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

    def test_simulate_blank_of_another_dimension_is_input_error(self, capsys, tmp_path):
        psi1, psi2 = orthogonal_pair(3, seed=7)
        protocol = protocol_json(synthesize_protocol(psi1, psi2, max_entangled(3)))
        protocol["blank"] = serialization.state_to_json(max_entangled(2))
        proto_path = write_json(tmp_path, "protocol.json", protocol)
        state = write_json(tmp_path, "s1.json", serialization.state_to_json(psi1))
        code, out, err = run(capsys, ["simulate", proto_path, state])
        assert code == 2
        assert out == ""
        assert err == f"error: {proto_path}: blank has d=2, but the protocol has d=3\n"


class TestStreamedOutput:
    """synthesize writes A and B row by row; the text stays json.dumps'."""

    @pytest.mark.parametrize("d,m", [(2, 2), (3, 3), (6, 3), (12, 4)])
    @pytest.mark.parametrize("haar_blank", [False, True])
    def test_protocol_bytes_match_json_dumps(self, capsys, tmp_path, d, m, haar_blank):
        psi1, psi2 = copyable_pair(d, m, seed=30 + d)
        pair = write_json(tmp_path, "pair.json", serialization.pair_to_json(psi1, psi2))
        # the states and blank as the CLI reads them back from their files
        psi1, psi2 = serialization.pair_from_json(json.loads((tmp_path / "pair.json").read_text()))
        blank_args, blank = [], max_entangled(d)
        if haar_blank:
            path = write_json(tmp_path, "blank.json", serialization.state_to_json(
                from_unitary(haar_unitary(d, seed=60 + d))))
            blank_args = ["--blank", path]
            blank = serialization.state_from_json(json.loads((tmp_path / "blank.json").read_text()))
        expected = json.dumps(protocol_json(
            synthesize_protocol(psi1, psi2, blank))) + "\n"

        out_path = tmp_path / "protocol.json"
        code, out, err = run(capsys, ["synthesize", pair, *blank_args, "--out", str(out_path)])
        assert (code, out, err) == (0, "", "")
        assert out_path.read_bytes() == expected.encode()
        for to_stdout in ([], ["--out", "-"]):
            code, out, err = run(capsys, ["synthesize", pair, *blank_args, *to_stdout])
            assert (code, out, err) == (0, expected, "")

    def test_generate_bytes_match_json_dumps(self, capsys, tmp_path):
        psi1, psi2 = copyable_pair(6, 3, seed=5)
        expected = json.dumps(serialization.pair_to_json(
            psi1, psi2, family="copyable", seed=5, m=3)) + "\n"
        argv = ["generate", "--family", "copyable", "--d", "6", "--m", "3", "--seed", "5"]
        out_path = tmp_path / "pair.json"
        assert run(capsys, [*argv, "--out", str(out_path)]) == (0, "", "")
        assert out_path.read_bytes() == expected.encode()
        assert run(capsys, argv) == (0, expected, "")

    def test_write_peak_memory_is_one_row(self, tmp_path):
        # A deterministic stand-in for a wall-clock gate: the text of a
        # d=12 protocol is 1.9 MB, and one row's text and lists are ~20 kB.
        from loccopy import cli

        psi1, psi2 = copyable_pair(12, 4, seed=12)
        fields = serialization.protocol_fields_to_json(
            synthesize_protocol(psi1, psi2, max_entangled(12)))
        tracemalloc.start()
        try:
            cli._write_json(fields, str(tmp_path / "protocol.json"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (tmp_path / "protocol.json").stat().st_size > 1_900_000
        assert peak < 0.5 * 2**20

    @pytest.mark.parametrize("command", ["synthesize", "generate"])
    def test_unwritable_path_is_input_error(self, capsys, tmp_path, command):
        out_path = tmp_path / "missing" / "out.json"
        if command == "synthesize":
            psi1, psi2 = orthogonal_pair(2, seed=5)
            argv = ["synthesize", write_json(tmp_path, "pair.json",
                                             serialization.pair_to_json(psi1, psi2))]
        else:
            argv = ["generate", "--family", "orthogonal", "--d", "2"]
        code, out, err = run(capsys, [*argv, "--out", str(out_path)])
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {out_path}: ")
        assert err.count("\n") == 1

    def test_failure_mid_stream_leaves_no_file(self, capsys, tmp_path, monkeypatch):
        rows = []

        def fail_after_first_row(row):
            if rows:
                raise OSError(errno.ENOSPC, "No space left on device")
            rows.append(row)
            return encode_row(row)

        encode_row = serialization._row_to_json
        monkeypatch.setattr(serialization, "_row_to_json", fail_after_first_row)
        psi1, psi2 = copyable_pair(4, 2, seed=1)
        pair = write_json(tmp_path, "pair.json", serialization.pair_to_json(psi1, psi2))
        out_path = tmp_path / "protocol.json"
        out_path.write_text("an older file")
        code, out, err = run(capsys, ["synthesize", pair, "--out", str(out_path)])
        assert code == 2
        assert out == ""
        assert err == f"error: cannot write {out_path}: [Errno 28] No space left on device\n"
        assert len(rows) == 1
        assert not out_path.exists()

    def test_json_reports_match_json_dumps(self, capsys, tmp_path, five_level_vectors):
        psi1, psi2 = copyable_pair(4, 2, seed=3)
        pair = write_json(tmp_path, "pair.json", serialization.pair_to_json(psi1, psi2))
        state = write_json(tmp_path, "state.json", serialization.state_to_json(psi1))
        protocol = write_json(tmp_path, "protocol.json", protocol_json(
            synthesize_protocol(psi1, psi2, max_entangled(4))))
        for argv in (["majorize", *five_level_vectors], ["catalysis", *five_level_vectors],
                     ["check-pair", pair], ["simulate", protocol, state],
                     ["survey", "--d", "2", "4", "--samples", "3"]):
            code, out, _ = run(capsys, argv)
            assert code in (0, 1)
            assert out == json.dumps(json.loads(out)) + "\n"


class TestClosedStdout:
    """A reader that exits early, as in `loccopy synthesize pair.json | head -c 20`,
    closes stdout: exit 2 with one error line."""

    @pytest.mark.parametrize("argv", [
        ["synthesize", "{pair}"],
        ["synthesize", "{pair}", "--out", "-"],
        ["check-pair", "{pair}"],
        ["survey", "--d", "2", "--samples", "1", "--pretty"],
        ["generate", "--family", "orthogonal", "--d", "2"],
    ], ids=" ".join)
    def test_broken_pipe_is_input_error(self, capsys, tmp_path, monkeypatch, argv):
        import os

        class ClosedPipe(io.TextIOBase):
            def __init__(self, fd):
                self.fd = fd

            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, "Broken pipe")

            def fileno(self):
                return self.fd

        psi1, psi2 = copyable_pair(4, 2, seed=1)
        pair = write_json(tmp_path, "pair.json", serialization.pair_to_json(psi1, psi2))
        read_end, write_end = os.pipe()
        try:
            monkeypatch.setattr(sys, "stdout", ClosedPipe(write_end))
            code = main([arg.format(pair=pair) for arg in argv])
            monkeypatch.undo()
            # main pointed the descriptor at devnull for the flush at exit,
            # so the pipe has no writer left and reads as empty
            os.write(write_end, b"x")
            assert os.read(read_end, 1) == b""
        finally:
            os.close(read_end)
            os.close(write_end)
        assert code == 2
        assert capsys.readouterr().err == "error: cannot write stdout: [Errno 32] Broken pipe\n"

    def test_closed_pipe_in_a_process(self, tmp_path):
        import os
        import subprocess

        psi1, psi2 = copyable_pair(6, 3, seed=1)
        pair = write_json(tmp_path, "pair.json", serialization.pair_to_json(psi1, psi2))
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader has gone before the first write
        try:
            result = subprocess.run([sys.executable, "-m", "loccopy.cli", "synthesize", pair],
                                    stdout=write_end, stderr=subprocess.PIPE, env=env)
            # stderr the same closed pipe, as in `loccopy survey ... 2>&1 | head -c 1`:
            # the error line cannot be written either, and the exit code is still 2
            both = subprocess.run([sys.executable, "-m", "loccopy.cli", "survey",
                                   "--d", "2", "3", "4", "--samples", "3"],
                                  stdout=write_end, stderr=write_end, env=env)
        finally:
            os.close(write_end)
        assert result.returncode == 2
        assert result.stderr == b"error: cannot write stdout: [Errno 32] Broken pipe\n"
        assert both.returncode == 2


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
        from loccopy.generators import _draw_delta

        class Rng:
            # zero, then one draw near either end of (0, 2 pi / 6), where
            # the planted 2 x 3 spectrum would be copyable
            draws = [0.0, 5e-8, TAU / 6 - 5e-8, 0.5]

            def uniform(self, low, high):
                return self.draws.pop(0)

        assert _draw_delta(Rng(), 6, 3) == 0.5

    @pytest.mark.parametrize("delta", ["1e-9", "1.047197551"])
    def test_nonprime_delta_planting_a_copyable_spectrum_is_input_error(self, capsys, delta):
        code, out, err = run(capsys, ["generate", "--family", "nonprime",
                                      "--d1", "2", "--d2", "3", "--delta", delta])
        assert (code, out) == (2, "")
        assert err == ("error: delta must lie strictly inside (1e-07, 1.047197) "
                       f"for D=6 and d2=3, got {float(delta)}\n")

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
        assert f"over the budget of {DENSE_BYTES} bytes" in err

    @pytest.mark.parametrize("family_args,d", [
        (["--family", "orthogonal", "--d", "72"], 72),
        (["--family", "copyable", "--d", "72", "--m", "4"], 72),
        (["--family", "nonprime", "--d1", "8", "--d2", "9"], 72),
    ], ids=["orthogonal", "copyable", "nonprime"])
    def test_dimension_synthesize_refuses_rejected_before_generation(
            self, capsys, monkeypatch, family_args, d):
        # synthesize refuses a d whose five d^2 x d^2 arrays exceed
        # DENSE_BYTES, the first being 72, and so does generate
        from loccopy import generators

        calls = []
        for name in ("orthogonal_pair", "copyable_pair", "nonprime_counterexample"):
            draw = getattr(generators, name)
            monkeypatch.setattr(generators, name,
                                lambda *args, draw=draw: calls.append(args) or draw(*args))
        code, out, err = run(capsys, ["generate"] + family_args)
        assert code == 2
        assert out == ""
        assert calls == []
        assert err.splitlines() == [f"error: {budget_error('synthesis', d)}"]

    @pytest.mark.parametrize("family_args,flag", [
        (["--family", "orthogonal", "--d", "3", "--m", "7"], "--m"),
        (["--family", "copyable", "--d", "4", "--m", "2", "--delta", "0.1"], "--delta"),
        (["--family", "nonprime", "--d", "99", "--d1", "2", "--d2", "3"], "--d"),
    ], ids=["orthogonal", "copyable", "nonprime"])
    def test_flag_the_family_does_not_read_is_input_error(self, capsys, tmp_path,
                                                           family_args, flag):
        out_path = tmp_path / "pair.json"
        code, out, err = run(capsys, ["generate", *family_args, "--out", str(out_path)])
        assert code == 2
        assert out == ""
        assert err.splitlines() == [f"error: the {family_args[1]} family does not read {flag}"]
        assert not out_path.exists()

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

    @pytest.mark.parametrize("value", ["21", "abc", "-1"])
    @pytest.mark.parametrize("argv", [["generate", "--family", "orthogonal", "--d", "2"],
                                      ["survey", "--d", "2", "--samples", "1"]])
    def test_env_seed_is_ignored(self, capsys, monkeypatch, argv, value):
        monkeypatch.delenv("LOCCOPY_SEED", raising=False)
        unset = run(capsys, argv)
        monkeypatch.setenv("LOCCOPY_SEED", value)
        assert run(capsys, argv) == unset
        assert unset[0] == 0

    @pytest.mark.parametrize("argv,source", [
        (["generate", "--family", "orthogonal", "--d", "2", "--seed", "-3"],
         "--seed must be non-negative, got -3"),
        (["survey", "--d", "2", "--samples", "1", "--seed", "-1"],
         "--seed must be non-negative, got -1"),
    ], ids=["generate", "survey"])
    def test_negative_seed_flag_is_input_error(self, capsys, argv, source):
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {source}\n"

    def test_generated_pair_feeds_check_pair(self, capsys, tmp_path, monkeypatch):
        _, out, _ = run(capsys, ["generate", "--family", "copyable",
                                 "--d", "6", "--m", "3", "--seed", "15"])
        monkeypatch.setattr(sys, "stdin", stdin_of(out))
        code, out, _ = run(capsys, ["check-pair", "-"])
        assert code == 0
        assert json.loads(out)["detected_m"] == 3


# The stdout of two survey runs, JSON and --pretty; each key is the
# argv and copying.survey's (ds, samples, seed).
PINNED_SURVEYS = {
    ("--d 2 3 12 --samples 20 --seed 5", ((2, 3, 12), 20, 5)): (
        '{"family": "orthogonal", "seed": 5, "rows": ['
        '{"d": 2, "samples": 20, "orthogonal_fraction": 1.0, '
        '"copyable_fraction": 1.0}, '
        '{"d": 3, "samples": 20, "orthogonal_fraction": 1.0, '
        '"copyable_fraction": 1.0}, '
        '{"d": 12, "samples": 20, "orthogonal_fraction": 1.0, '
        '"copyable_fraction": 0.0}]}\n',
        "family: orthogonal\n"
        "seed: 5\n"
        "rows:\n"
        "   d  samples  orthogonal_fraction  copyable_fraction\n"
        "   2       20                  1.0                1.0\n"
        "   3       20                  1.0                1.0\n"
        "  12       20                  1.0                0.0\n"),
    ("--d 2 3 4 --samples 10 --seed 0", ((2, 3, 4), 10, 0)): (
        '{"family": "orthogonal", "seed": 0, "rows": ['
        '{"d": 2, "samples": 10, "orthogonal_fraction": 1.0, '
        '"copyable_fraction": 1.0}, '
        '{"d": 3, "samples": 10, "orthogonal_fraction": 1.0, '
        '"copyable_fraction": 1.0}, '
        '{"d": 4, "samples": 10, "orthogonal_fraction": 1.0, '
        '"copyable_fraction": 0.0}]}\n',
        "family: orthogonal\n"
        "seed: 0\n"
        "rows:\n"
        "  d  samples  orthogonal_fraction  copyable_fraction\n"
        "  2       10                  1.0                1.0\n"
        "  3       10                  1.0                1.0\n"
        "  4       10                  1.0                0.0\n"),
}


class TestSurvey:
    @pytest.mark.parametrize("argv,call", sorted(PINNED_SURVEYS),
                             ids=[argv for argv, _ in sorted(PINNED_SURVEYS)])
    def test_pinned_output(self, capsys, argv, call):
        from loccopy import survey

        json_text, pretty = PINNED_SURVEYS[argv, call]
        assert run(capsys, ["survey", *argv.split()]) == (0, json_text, "")
        assert run(capsys, ["survey", *argv.split(), "--pretty"]) == (0, pretty, "")
        assert survey(*call) == json.loads(json_text)["rows"]

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

    @pytest.mark.parametrize("d,message", [
        ("-3", "dimension must be at least 2, got -3"),
        ("1", "dimension must be at least 2, got 1"),
        # past DENSE_BYTES: synthesize would refuse the pair
        ("72", budget_error("synthesis", 72)),
    ], ids=["negative", "one", "past-synthesis"])
    def test_bad_dimension_rejected_before_sampling(self, capsys, monkeypatch, d, message):
        from loccopy import generators

        calls = []
        draw = generators.orthogonal_pair
        monkeypatch.setattr(generators, "orthogonal_pair",
                            lambda *args: calls.append(args) or draw(*args))
        code, out, err = run(capsys, ["survey", "--d", "4", d, "--samples", "2"])
        assert code == 2
        assert out == ""
        assert calls == []
        assert err.splitlines() == [f"error: {message}"]

    def test_oversized_dimension_rejected_before_sampling(self, capsys, monkeypatch):
        from loccopy import generators

        def refuse(*args):
            raise AssertionError("generator called")

        monkeypatch.setattr(generators, "orthogonal_pair", refuse)
        # the small dimension listed first is not sampled either
        code, out, err = run(capsys, ["survey", "--d", "4", "20737", "--samples", "2"])
        assert code == 2
        assert out == ""
        assert budget_error("synthesis", 20737) in err

    def test_pretty_table(self, capsys):
        code, out, _ = run(capsys, ["survey", "--d", "2", "--samples", "3",
                                    "--seed", "19", "--pretty"])
        assert code == 0
        assert "orthogonal" in out and "copyable" in out


# The tolerances that were once flags, synthesis_tol among them.
ALL_TOLERANCES = ["unitarity_tol", "max_ent_tol", "ortho_tol", "phase_tol", "sum_tol",
                  "fidelity_tol", "normality_tol", "synthesis_tol"]
# Flags are parsed before any file is read, so these need not exist.
COMMAND_ARGS = {
    "majorize": ["src.json", "dst.json"],
    "catalysis": ["psi.json", "blank.json"],
    "check-pair": ["pair.json"],
    "survey": ["--d", "2", "--samples", "1"],
    "synthesize": ["pair.json"],
    "simulate": ["protocol.json", "state.json"],
    "generate": ["--family", "orthogonal", "--d", "2"],
}

# The five subcommands that read files, each naming "-" for two inputs.
TWO_INPUTS = [
    ["majorize", "-", "-"], ["catalysis", "-", "-"], ["check-pair", "-", "-"],
    ["simulate", "-", "-"], ["synthesize", "-", "--blank", "-"],
]


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

    @pytest.mark.parametrize("argv", TWO_INPUTS, ids=lambda argv: argv[0])
    def test_stdin_named_twice_is_input_error(self, capsys, monkeypatch, argv):
        stdin = stdin_of('{"probs": [0.5, 0.5]}')
        monkeypatch.setattr(sys, "stdin", stdin)
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err == "error: stdin can be read once, but '-' names 2 inputs\n"
        assert stdin.buffer.tell() == 0  # refused before the first read

    @pytest.mark.parametrize("source", ["file", "-"])
    @pytest.mark.parametrize("argv", TWO_INPUTS, ids=lambda argv: argv[0])
    def test_deeply_nested_json_is_input_error(self, capsys, monkeypatch, tmp_path, argv,
                                               source):
        # json's decoder raised RecursionError, which escaped as a traceback
        # with exit code 1, the code of a negative verdict
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000 + "]" * 100000)
        monkeypatch.setattr(sys, "stdin", stdin_of(deep.read_text()))
        first = str(deep) if source == "file" else "-"
        # the first input is read first; the second is the file
        argv = [argv[0], first, *(str(deep) if arg == "-" else arg for arg in argv[2:])]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err == f"error: {first}: JSON nested too deeply\n"

    @pytest.mark.parametrize("position", [0, 1], ids=["first", "second"])
    @pytest.mark.parametrize("content", [b"\xff", b'{"probs": []}'],
                             ids=["not utf-8", "refused"])
    @pytest.mark.parametrize("argv", TWO_INPUTS, ids=lambda argv: argv[0])
    def test_unreadable_input_names_its_file(self, capsys, tmp_path, argv, content, position):
        # a file that is not UTF-8, or a document its loader refuses, used
        # to print the error alone, not saying which of two inputs it was
        psi1, psi2 = orthogonal_pair(2, seed=3)
        objects = {"probs": {"probs": [0.5, 0.5]},
                   "pair": serialization.pair_to_json(psi1, psi2),
                   "state": serialization.state_to_json(psi1),
                   "protocol": protocol_json(synthesize_protocol(psi1, psi2, max_entangled(2)))}
        good = {name: write_json(tmp_path, f"{name}.json", obj) for name, obj in objects.items()}
        inputs = {"majorize": ["probs", "probs"], "catalysis": ["probs", "probs"],
                  "check-pair": ["state", "state"], "simulate": ["protocol", "state"],
                  "synthesize": ["pair", "state"]}[argv[0]]
        paths = [good[name] for name in inputs]
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        paths[position] = str(bad)
        files = iter(paths)
        code, out, err = run(capsys, [next(files) if arg == "-" else arg for arg in argv])
        assert (code, out) == (2, "")
        [line] = err.splitlines()
        assert line.startswith(f"error: {bad}: ")

    def test_stdin_is_read_as_strict_utf8(self, tmp_path):
        # sys.stdin decodes by the locale's rule: in UTF-8 mode its
        # surrogateescape handler passed the byte on, and the refusal read
        # "error: -:1:1: Expecting value"
        import subprocess

        good = write_json(tmp_path, "good.json", {"probs": [0.5, 0.5]})
        result = subprocess.run([sys.executable, "-X", "utf8", "-m", "loccopy.cli",
                                 "majorize", "-", good],
                                input=b"\xff", capture_output=True, env=src_env())
        assert (result.returncode, result.stdout) == (2, b"")
        assert result.stderr.decode() == ("error: -: 'utf-8' codec can't decode byte 0xff "
                                          "in position 0: invalid start byte\n")

    @pytest.mark.parametrize("order", [("-", "good"), ("good", "-")])
    def test_closed_stdin_is_input_error(self, tmp_path, order):
        # with fd 0 closed at start-up Python leaves sys.stdin None, and the
        # first open() in the process takes fd 0
        import subprocess

        good = write_json(tmp_path, "good.json", {"probs": [0.5, 0.5]})
        argv = [good if arg == "good" else arg for arg in order]
        result = subprocess.run(["sh", "-c", 'exec "$0" "$@" <&-', sys.executable,
                                 "-m", "loccopy.cli", "majorize", *argv],
                                capture_output=True, env=src_env())
        assert (result.returncode, result.stdout) == (2, b"")
        assert result.stderr.decode() == "error: cannot read -: stdin is closed\n"

    def test_out_dash_is_not_a_stdin_read(self, capsys, monkeypatch):
        pair = json.dumps(serialization.pair_to_json(*copyable_pair(2, 2, seed=3)))
        monkeypatch.setattr(sys, "stdin", stdin_of(pair))
        code, out, err = run(capsys, ["synthesize", "-", "--out", "-"])
        assert (code, err) == (0, "")
        assert json.loads(out)["d"] == 2

    def test_zero_samples_is_input_error(self, capsys):
        code, out, err = run(capsys, ["survey", "--d", "3", "--samples", "0"])
        assert code == 2
        assert out == ""
        assert "--samples must be at least 1" in err

    def test_non_positive_tolerance_is_input_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["survey", "--d", "2", "--samples", "1", "--phase-tol", "0"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --phase-tol 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(COMMAND_ARGS))
    @pytest.mark.parametrize("name", ALL_TOLERANCES)
    def test_tolerance_flags_only_where_read(self, capsys, command, name):
        # no subcommand reads a tolerance from its flags: every tolerance
        # is a constant of loccopy.config
        argv = [command, *COMMAND_ARGS[command], f"--{name.replace('_', '-')}", "0"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_no_option_sets_a_tolerance(self):
        import argparse
        import dataclasses
        import inspect

        import loccopy
        from loccopy.cli import build_parser

        [subparsers] = [a for a in build_parser()._actions
                        if isinstance(a, argparse._SubParsersAction)]
        assert sorted(subparsers.choices) == sorted(COMMAND_ARGS)
        for command, parser in subparsers.choices.items():
            options = [o for a in parser._actions for o in a.option_strings]
            assert not [o for o in options if o.endswith("-tol")], command
        for name in loccopy.__all__:
            value = getattr(loccopy, name)
            if inspect.isfunction(value) or dataclasses.is_dataclass(value):
                assert "config" not in inspect.signature(value).parameters, name

    def test_generate_has_no_pretty(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--family", "orthogonal", "--d", "2", "--pretty"])
        assert exc.value.code == 2

    def test_synthesis_failure_is_internal_error(self, capsys, tmp_path, monkeypatch):
        from loccopy import copying
        from loccopy.config import SynthesisError

        def fail(*args, **kwargs):
            raise SynthesisError("synthesized protocol failed verification on psi1: fidelity 0.5")

        monkeypatch.setattr(copying, "synthesize_protocol", fail)
        psi1, psi2 = copyable_pair(4, 2, seed=1)
        pair = write_json(tmp_path, "pair.json", serialization.pair_to_json(psi1, psi2))
        code, out, err = run(capsys, ["synthesize", pair])
        assert code == 3
        assert out == ""
        assert "internal error: synthesized protocol failed verification" in err

    def test_bare_memory_error_is_one_line(self, capsys, tmp_path, monkeypatch):
        from loccopy import copying

        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(copying, "synthesize_protocol", exhausted)
        pair = write_json(tmp_path, "pair.json",
                          serialization.pair_to_json(*copyable_pair(4, 2, seed=1)))
        assert run(capsys, ["synthesize", pair]) == (2, "", "error: cannot allocate memory\n")

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
            obj = protocol_json(synthesize_protocol(psi1, psi2, max_entangled(2)))
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
        obj = protocol_json(synthesize_protocol(psi1, psi2, max_entangled(2)))
        obj["A"][0] = [float("nan"), 0.0]
        state = write_json(tmp_path, "state.json", serialization.state_to_json(psi1))
        protocol = write_json(tmp_path, "p.json", obj)
        code, out, err = run(capsys, ["simulate", protocol, state])
        assert code == 2
        assert out == ""
        assert err == f"error: {protocol}: protocol matrix A entries must be finite\n"

    def test_negative_dimension_is_named(self, capsys, tmp_path):
        state = write_json(tmp_path, "state.json", {"d": -3, "amplitudes": [[1 / 3, 0.0]] * 9})
        code, out, err = run(capsys, ["check-pair", state, state])
        assert (code, out, err) == (2, "", f"error: {state}: state key 'd' must be at least 2\n")

    @pytest.mark.parametrize("command", ["majorize", "catalysis"])
    def test_nan_probabilities_are_input_error(self, capsys, tmp_path, command):
        bad = write_json(tmp_path, "bad.json", {"probs": [float("nan"), 1.0]})
        good = write_json(tmp_path, "good.json", {"probs": [0.5, 0.5]})
        code, out, err = run(capsys, [command, bad, good])
        assert code == 2
        assert out == ""
        assert "finite" in err


def run_as_process(capsys, argv):
    """Exit code, stdout and stderr of `loccopy ARGV` as a user sees them:
    warnings are shown on stderr, not raised, and argparse's exit gives
    the code.  An exception escaping main, which would print a traceback,
    fails the test."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    captured = capsys.readouterr()
    shown = "".join(warnings.formatwarning(w.message, w.category, w.filename, w.lineno)
                    for w in caught)
    return code, captured.out, shown + captured.err


def error_files() -> dict:
    """The input files of the error cases, as JSON objects or as raw text."""
    psi1, psi2 = orthogonal_pair(2, seed=2)
    pair = serialization.pair_to_json(psi1, psi2)
    protocol = protocol_json(synthesize_protocol(psi1, psi2, max_entangled(2)))
    inf_psi1 = {**pair["psi1"], "amplitudes": [[0.5, float("inf")], *pair["psi1"]["amplitudes"][1:]]}
    return {
        "bad": "{not json",
        "wrong_key": {"wrong": 1},
        "nan_probs": {"probs": [float("nan"), 1.0]},
        "probs": {"probs": [0.5, 0.5]},
        "pair": pair,
        "state1": pair["psi1"],
        "state2": pair["psi2"],
        "five": 5,
        "psi1_five": {**pair, "psi1": 5},
        "pair_d_five": {**pair, "d": 5},
        # JSON reads 1e999 as inf; the decoder must not warn before the error
        "inf_pair": json.dumps({**pair, "psi1": inf_psi1}).replace("Infinity", "1e999"),
        "d_null": {**protocol, "d": None},
        "phases_five": {**protocol, "phases": 5},
        "other_wiring": {**protocol, "wiring": "A:(1,2) B:(3,4)"},
        "nan_operator": {**protocol, "A": [[float("nan"), 0.0], *protocol["A"][1:]]},
        "bool_d": {"d": True, "amplitudes": [[1, 0]]},
        "huge_amplitude": {**pair["psi1"], "amplitudes": [[1e308, 0.0], *pair["psi1"]["amplitudes"][1:]]},
        "huge_coeffs": {"coeffs": [1e200, 0.5]},
        "huge_probs": {"probs": [1e308, 1e308]},
        "huge_operator": {**protocol, "A": [[1e308, 0.0], *protocol["A"][1:]]},
        "huge_phase": {**protocol, "phases": [0.0, 10**400]},
    }


# Every error input of this file; "{name}" stands for the path of input
# file name, and {missing} for a path that does not exist.
ERROR_ARGV = {
    "malformed json": ["majorize", "{bad}", "{bad}"],
    "missing file": ["majorize", "{missing}", "{missing}"],
    "missing key": ["majorize", "{wrong_key}", "{wrong_key}"],
    "nan probabilities, majorize": ["majorize", "{nan_probs}", "{probs}"],
    "nan probabilities, catalysis": ["catalysis", "{nan_probs}", "{probs}"],
    "zero samples": ["survey", "--d", "3", "--samples", "0"],
    "non-positive tolerance": ["survey", "--d", "2", "--samples", "1", "--phase-tol", "0"],
    "tolerance flag not read": ["generate", "--family", "orthogonal", "--d", "2",
                                "--phase-tol", "0"],
    "generate --pretty": ["generate", "--family", "orthogonal", "--d", "2", "--pretty"],
    "missing dimension": ["generate", "--family", "orthogonal"],
    "oversized dimension, generate": ["generate", "--family", "orthogonal", "--d", "20737"],
    "oversized dimension, survey": ["survey", "--d", "20737", "--samples", "1"],
    "third state file, check-pair": ["check-pair", "{state1}", "{state2}", "{pair}"],
    "third state file, synthesize": ["synthesize", "{state1}", "{state2}", "{pair}"],
    "pair not an object": ["check-pair", "{five}"],
    "state not an object": ["check-pair", "{psi1_five}"],
    "pair d not its states' d, check-pair": ["check-pair", "{pair_d_five}"],
    "pair d not its states' d, synthesize": ["synthesize", "{pair_d_five}"],
    "infinite amplitude": ["check-pair", "{inf_pair}"],
    "protocol d null": ["simulate", "{d_null}", "{state1}"],
    "protocol phases": ["simulate", "{phases_five}", "{state1}"],
    "protocol wiring": ["simulate", "{other_wiring}", "{state1}"],
    "nan operator": ["simulate", "{nan_operator}", "{state1}"],
    "bool dimension": ["check-pair", "{bool_d}", "{bool_d}"],
    "huge amplitude": ["check-pair", "{huge_amplitude}", "{state2}"],
    "huge coefficients": ["majorize", "{huge_coeffs}", "{probs}"],
    "huge probabilities": ["catalysis", "{huge_probs}", "{probs}"],
    "huge operator entry": ["simulate", "{huge_operator}", "{state1}"],
    "huge phase": ["simulate", "{huge_phase}", "{state1}"],
    "zero nonprime factor": ["generate", "--family", "nonprime", "--d1", "0", "--d2", "3"],
    "unwritable protocol path": ["synthesize", "{pair}", "--out", "{missing}/p.json"],
    "unwritable pair path": ["generate", "--family", "orthogonal", "--d", "2",
                             "--out", "{missing}/x.json"],
}


@pytest.mark.parametrize("case", sorted(ERROR_ARGV))
def test_error_input_prints_no_traceback(capsys, tmp_path, case):
    paths = {"missing": str(tmp_path / "missing")}
    for name, content in error_files().items():
        paths[name] = str(tmp_path / f"{name}.json")
        text = content if isinstance(content, str) else json.dumps(content)
        (tmp_path / f"{name}.json").write_text(text)
    argv = [arg.format(**paths) for arg in ERROR_ARGV[case]]
    code, out, err = run_as_process(capsys, argv)
    lines = err.splitlines()
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert "error: " in lines[-1]
    # one line, or argparse's usage lines before its error line
    assert len(lines) == 1 or lines[0].startswith("usage: ")


def outcome_files(tmp_path) -> dict:
    """Paths of the inputs of test_one_exit_code_per_outcome, by name."""
    psi1, psi2 = orthogonal_pair(2, seed=2)
    weak = BipartiteState(np.diag([0.8, 0.6]))  # normalized, not maximally entangled
    objects = {
        "pair": serialization.pair_to_json(psi1, psi2),
        "weak_pair": serialization.pair_to_json(weak, psi2),
        "state": serialization.state_to_json(psi1),
        "weak": serialization.state_to_json(weak),
        "protocol": protocol_json(
            synthesize_protocol(psi1, psi2, max_entangled(2))),
        "nonprime": serialization.pair_to_json(
            *nonprime_counterexample(2, 3, delta=0.5, seed=8)),
        "identical": serialization.pair_to_json(psi1, psi1),
    }
    return {name: write_json(tmp_path, f"{name}.json", obj) for name, obj in objects.items()}


def not_max_ent(role: str) -> str:
    return f"error: {role} is not maximally entangled: "


# argv, exit code and the start of the one stderr line; only "no protocol
# exists" is synthesize's negative verdict, invalid input exits 2 in
# every subcommand, and a weak state is named by its role
OUTCOMES = {
    "weak state, check-pair": (["check-pair", "{weak_pair}"], 2, not_max_ent("psi1")),
    "weak state, synthesize pair file": (["synthesize", "{weak_pair}"], 2, not_max_ent("psi1")),
    "weak state, synthesize state files": (["synthesize", "{state}", "{weak}"], 2,
                                           not_max_ent("psi2")),
    "weak blank, synthesize": (["synthesize", "{pair}", "--blank", "{weak}"], 2,
                               not_max_ent("blank")),
    "weak state, simulate": (["simulate", "{protocol}", "{weak}"], 2, not_max_ent("state")),
    "nonprime pair, synthesize": (["synthesize", "{nonprime}"], 1,
                                  "not synthesizable: pair operator spectrum is not"),
    "identical pair, synthesize": (["synthesize", "{identical}"], 1,
                                   "not synthesizable: states to copy must be orthogonal"),
}


@pytest.mark.parametrize("case", sorted(OUTCOMES))
def test_one_exit_code_per_outcome(capsys, tmp_path, case):
    argv, expected_code, prefix = OUTCOMES[case]
    paths = outcome_files(tmp_path)
    code, out, err = run_as_process(capsys, [arg.format(**paths) for arg in argv])
    assert code == expected_code
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(prefix)


def test_near_pair_synthesizes_in_a_process(capsys, tmp_path):
    pair = write_json(tmp_path, "pair.json", serialization.pair_to_json(*near_pair()))
    code, out, err = run_as_process(capsys, ["synthesize", pair])
    assert (code, err) == (0, "")
    assert json.loads(out)["d"] == 4


def src_env() -> dict:
    """The environment with this checkout's src first on PYTHONPATH."""
    import os

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_cli_import_leaves_scipy_unloaded():
    import subprocess

    probe = "import sys, loccopy.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run([sys.executable, "-c", probe], env=src_env(),
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


# Imports every loccopy submodule, then prints the names in sys.modules.
IMPORT_ALL_PROBE = """
import importlib, pkgutil, sys
import loccopy
for info in pkgutil.iter_modules(loccopy.__path__):
    importlib.import_module(f"loccopy.{info.name}")
print("\\n".join(sys.modules))
"""


def test_numpy_is_the_only_runtime_dependency():
    import subprocess

    def loaded(code):
        result = subprocess.run([sys.executable, "-c", code], env=src_env(),
                                capture_output=True, text=True, check=True)
        return set(result.stdout.split())

    # the interpreter's own start-up (site and any .pth files) loads
    # modules too, so compare with a process that imports numpy alone
    baseline = loaded("import sys, numpy; print('\\n'.join(sys.modules))")
    added = loaded(IMPORT_ALL_PROBE) - baseline
    assert "loccopy.simulator" in added
    foreign = sorted(m for m in added if m.split(".")[0] not in sys.stdlib_module_names
                     and m.split(".")[0] != "loccopy")
    assert foreign == []


# Runs main on its arguments, then prints which of the heavy modules the
# process loaded, on the last line of stderr.
LOADED_MODULES_PROBE = """
import sys
from loccopy.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
heavy = ("numpy", "loccopy.copying", "loccopy.generators")
print(sorted(m for m in heavy if m in sys.modules), file=sys.stderr)
sys.exit(code)
"""


def run_probe(argv):
    import subprocess

    return subprocess.run([sys.executable, "-c", LOADED_MODULES_PROBE, *argv], env=src_env(),
                          capture_output=True, text=True)


@pytest.mark.parametrize("argv,code", [
    (["--help"], 0),
    (["synthesize", "--help"], 0),
    (["check-pair", "--unknown-flag", "pair.json"], 2),
    (["synthesize", "pair.json", "--pretty"], 2),
    (["survey", "--help"], 0),
    (["survey", "--d", "2", "--bogus"], 2),
    (["survey", "--d", "4", "--family", "nonprime"], 2),
    (["survey", "--d", "4", "--family", "orthogonal"], 2),
])
def test_parsing_alone_leaves_numpy_unloaded(argv, code):
    result = run_probe(argv)
    assert result.returncode == code
    assert result.stderr.splitlines()[-1] == "[]"
    if code == 0:
        assert result.stdout.startswith("usage: loccopy")
    else:
        flag = [arg for arg in argv if arg.startswith("--")][-1]
        assert f"unrecognized arguments: {flag}" in result.stderr


@pytest.mark.parametrize("command", ["check-pair", "synthesize"])
def test_pair_commands_leave_generators_unloaded(tmp_path, command):
    # copying.survey imports generators when called, not copying itself
    pair = write_json(tmp_path, "pair.json",
                      serialization.pair_to_json(*copyable_pair(4, 2, seed=3)))
    argv = [command, pair] + (["--out", str(tmp_path / "protocol.json")]
                              if command == "synthesize" else [])
    result = run_probe(argv)
    assert result.returncode == 0, result.stderr
    assert result.stderr.splitlines()[-1] == "['loccopy.copying', 'numpy']"


@pytest.mark.parametrize("command,loaded", [
    ("majorize", "['numpy']"),
    ("catalysis", "['numpy']"),
    ("generate", "['loccopy.generators', 'numpy']"),
    ("simulate", "['numpy']"),
], ids=["majorize", "catalysis", "generate", "simulate"])
def test_commands_without_a_verdict_leave_copying_unloaded(tmp_path, command, loaded):
    # serialization never imports copying; a protocol loads from simulator
    probs = write_json(tmp_path, "probs.json", {"probs": [0.5, 0.5]})
    psi1, psi2 = orthogonal_pair(2, seed=3)
    protocol = write_json(tmp_path, "protocol.json",
                          protocol_json(synthesize_protocol(psi1, psi2, max_entangled(2))))
    state = write_json(tmp_path, "state.json", serialization.state_to_json(psi1))
    argv = {"majorize": ["majorize", probs, probs],
            "catalysis": ["catalysis", probs, probs],
            "generate": ["generate", "--family", "orthogonal", "--d", "2",
                         "--out", str(tmp_path / "pair.json")],
            "simulate": ["simulate", protocol, state]}[command]
    result = run_probe(argv)
    assert result.returncode == 0, result.stderr
    assert result.stderr.splitlines()[-1] == loaded


def run_in_one_gib(argv):
    """loccopy's CompletedProcess for argv in a child whose address space
    is limited to 1 GiB."""
    import resource
    import subprocess

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return subprocess.run(
        [sys.executable, "-m", "loccopy.cli", *argv],
        env=dict(src_env(), OPENBLAS_NUM_THREADS="1"), preexec_fn=limit_address_space,
        capture_output=True, text=True, timeout=120)


def test_memory_exhaustion_is_one_error_line(tmp_path):
    # d=64 is inside DENSE_BYTES, but its five d^2 x d^2 arrays take
    # 1.25 GiB: under a 1 GiB address-space limit one of synthesize's
    # allocations fails
    pair = write_json(tmp_path, "pair.json",
                      serialization.pair_to_json(*copyable_pair(64, 4, seed=0)))
    out_path = tmp_path / "protocol.json"
    result = run_in_one_gib(["synthesize", pair, "--out", str(out_path)])
    assert result.returncode == 2
    assert result.stdout == ""
    assert "Traceback" not in result.stderr
    [line] = result.stderr.splitlines()
    assert line.startswith("error: cannot allocate memory")
    assert not out_path.exists()


@pytest.mark.parametrize("command", ["synthesize", "generate", "survey", "simulate"])
def test_budget_refuses_before_allocating(tmp_path, command):
    # d=100 needs 7.45 GiB of d^2 x d^2 arrays: each path refuses it by
    # DENSE_BYTES before its first allocation, so the 1 GiB limit is
    # never reached
    out_path = tmp_path / "out.json"
    if command == "synthesize":
        pair = write_json(tmp_path, "pair.json",
                          serialization.pair_to_json(*copyable_pair(100, 4, seed=0)))
        argv, what = ["synthesize", pair, "--out", str(out_path)], "synthesis"
    elif command == "generate":
        argv = ["generate", "--family", "copyable", "--d", "100", "--m", "4",
                "--out", str(out_path)]
        what = "synthesis"
    elif command == "survey":
        argv, what = ["survey", "--d", "100"], "synthesis"
    else:  # short lists: the budget is checked before their lengths
        protocol = write_json(tmp_path, "protocol.json", {
            "d": 100, "blank": serialization.state_to_json(max_entangled(2)),
            "A": [], "B": [], "phases": [0.0, 0.0]})
        state = write_json(tmp_path, "state.json", serialization.state_to_json(max_entangled(2)))
        # a refusal of an input file starts with its path
        argv, what = ["simulate", protocol, state], f"{protocol}: a protocol"
    result = run_in_one_gib(argv)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.splitlines() == [f"error: {budget_error(what, 100)}"]
    assert not out_path.exists()


BIG = str(10**4000)


@pytest.mark.parametrize("argv,d,d_text", [
    (["survey", "--d", BIG], 10**4000, BIG),
    (["generate", "--family", "orthogonal", "--d", BIG], 10**4000, BIG),
    (["generate", "--family", "nonprime", "--d1", BIG, "--d2", BIG], 10**8000, "at least 2**26575"),
], ids=["survey", "generate", "nonprime"])
def test_budget_refusal_names_the_budget_at_any_d(capsys, argv, d, d_text):
    # 80 d^4 has 16002 digits at d = 10**4000, and the nonprime family's
    # d = 10**8000 has 8001: both are past Python's 4300-digit int-to-str
    # limit, so the refusal names each as at least a power of two
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    [line] = err.splitlines()
    bits = (80 * d**4).bit_length()
    assert line == (f"error: synthesis at d = {d_text} needs at least 2**{bits - 1} bytes, "
                    f"over the budget of {DENSE_BYTES} bytes")
