"""tools/same_outputs.py on its --quick corpus: the checkout's src/ stands
for both trees, so no revision is extracted."""
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("same_outputs", ROOT / "tools" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(same_outputs)

SRC = str(ROOT / "src")


def test_a_tree_compared_with_itself_is_identical(tmp_path):
    same_outputs.check_source(SRC)
    counts, found = same_outputs.compare({"parent": SRC, "change": SRC},
                                         same_outputs.corpus(quick=True), str(tmp_path))
    assert found == []
    assert sorted(counts) == ["catalysis", "check-pair", "generate", "majorize", "simulate",
                              "synthesize"]
    assert all(differ == 0 for _, differ in counts.values())
    assert counts["simulate"] == [4, 0]
    assert same_outputs.report(counts, found, "0" * 40, "HEAD").splitlines()[-1] == (
        f"same_outputs: {sum(same for same, _ in counts.values())} of "
        f"{sum(same for same, _ in counts.values())} steps identical, 0 differ "
        f"(parent 000000000000, change HEAD)")


def test_a_one_digit_change_is_reported_at_its_key_path(tmp_path):
    changed = []

    def runner(src, item, cwd, inputs):
        outputs = same_outputs.run_step(src, item, cwd, inputs)
        if Path(cwd).name == "change" and item.argv == ("check-pair", "{in}/pair.json"):
            text = outputs["stdout"].decode()
            k = text.index('"rotation": ') + len('"rotation": ') + 2  # the first decimal
            digit = "1" if text[k] != "1" else "2"
            changed.append(abs(int(digit) - int(text[k])) / 10)
            outputs["stdout"] = (text[:k] + digit + text[k + 1:]).encode()
        return outputs

    [case] = same_outputs.corpus(quick=True)[:1]
    counts, found = same_outputs.compare({"parent": SRC, "change": SRC}, [case],
                                         str(tmp_path), runner)
    assert counts == {"generate": [1, 0], "check-pair": [1, 1]}
    [(where, line)] = found
    assert where == "loccopy check-pair pair.json"
    assert line.startswith("stdout: first differs at rotation, largest absolute difference ")
    assert float(line.rsplit(" ", 1)[1]) == pytest.approx(changed[0], rel=1e-2)
    assert "1 differ" in same_outputs.report(counts, found, "0" * 40, "HEAD").splitlines()[-1]


def test_differences_name_each_output():
    parent = {"exit code": 2, "stdout": b'{"A": [[0.5, 1.0], [2.0, 3.0]], "d": 2}',
              "stderr": b"error: -:1:1: Expecting value\n"}
    change = {"exit code": 1, "stdout": b'{"A": [[0.5, 1.0], [2.0, 3.25]], "d": 2}',
              "stderr": b"error: -: 'utf-8' codec can't decode byte 0xff\n"}
    assert same_outputs.differences(parent, change) == [
        "exit code 2 vs 1",
        "stdout: first differs at A[1][1], largest absolute difference 0.25",
        "stderr: line 1: 'error: -:1:1: Expecting value' vs "
        "\"error: -: 'utf-8' codec can't decode byte 0xff\"",
    ]
    assert same_outputs.json_diff({"d": 2, "x": [1]}, {"d": 2, "y": [1]}) == ("(top)", 0.0)
    assert same_outputs.json_diff([1.0, 2.0], [1.5, 2.0, 3.0]) == ("(top)", 0.5)
