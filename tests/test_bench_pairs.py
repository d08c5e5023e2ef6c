"""tools/bench_pairs.py's decision rule, on synthetic runs: no benchmark
process is started."""
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

PARENT = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]


def test_quartiles_of_one_run_are_that_run():
    assert bench_pairs.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)


@pytest.mark.parametrize("better,shift", [("lower", -1.0), ("higher", 1.0)])
def test_a_clear_gain_holds_in_the_metrics_direction(better, shift):
    change = [p + shift for p in PARENT]
    verdict = bench_pairs.judge(PARENT, change, better)
    assert (verdict["wins"], verdict["pairs"], verdict["gain"]) == (10, 10, True)
    against = bench_pairs.judge(PARENT, [p - shift for p in PARENT], better)
    assert (against["wins"], against["gain"]) == (0, False)


@pytest.mark.parametrize("losses,gain", [(1, True), (2, False)])
def test_the_change_must_win_nine_tenths_of_the_pairs(losses, gain):
    change = [p - 1.0 for p in PARENT]
    for k in range(losses):
        change[k] = PARENT[k] + 1.0
    verdict = bench_pairs.judge(PARENT, change, "lower")
    assert (verdict["wins"], verdict["gain"]) == (10 - losses, gain)


def test_fewer_than_ten_pairs_claim_no_gain():
    change = [p - 1.0 for p in PARENT]
    assert bench_pairs.judge(PARENT[:9], change[:9], "lower")["gain"] is False
    assert bench_pairs.judge(PARENT[:1], change[:1], "lower")["wins"] == 1


def test_ties_count_for_neither_side():
    change = [p - 1.0 for p in PARENT]
    change[0] = PARENT[0]
    assert bench_pairs.judge(PARENT, change, "lower")["wins"] == 9
    change[1] = PARENT[1]
    verdict = bench_pairs.judge(PARENT, change, "lower")
    assert (verdict["wins"], verdict["gain"]) == (8, False)


def test_a_gain_within_the_parents_spread_does_not_hold():
    # every pair won, but the medians differ by less than the parent's IQR
    q1, median, q3 = bench_pairs.quartiles(PARENT)
    change = [p - 0.5 * (q3 - q1) for p in PARENT]
    verdict = bench_pairs.judge(PARENT, change, "lower")
    assert verdict["parent"] == {"median": median, "q1": q1, "q3": q3}
    assert (verdict["wins"], verdict["gain"]) == (10, False)


def synthetic_runs(workload, change_failed=0, change_correct=True):
    """Ten pairs in which the change halves every latency and doubles the rate."""
    runs = []
    for k, base in enumerate(PARENT):
        for side, scale in (("parent", 1.0), ("change", 0.5)):
            runs.append({"workload": workload, "seed": 40 + k, "side": side,
                         "correct": change_correct or side == "parent", "attempted": 50,
                         "failed": change_failed if side == "change" else 0,
                         "metrics": {"setup_s": base * scale, "req_per_s": base / scale,
                                     "req_p50_ms": base * scale, "req_tail_ms": base * scale,
                                     "peak_rss_mb": 30.0}})
    return runs


def test_summary_pairs_runs_by_seed_and_reads_directions_from_the_benchmark():
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    runs = synthetic_runs("cli")
    runs.reverse()  # pairing is by seed, not by order
    summary = bench_pairs.summarize(runs + synthetic_runs("decide", change_failed=1)
                                    + synthetic_runs("synthesize", change_correct=False), end_to_end)
    assert list(summary) == ["cli", "decide", "synthesize"]
    cli = summary["cli"]
    assert cli["failed"] == {"parent": 0, "change": 0}
    assert cli["incorrect"] == {"parent": 0, "change": 0}
    assert {name: m["gain"] for name, m in cli["metrics"].items()} == {
        "setup_s": True, "req_per_s": True, "req_p50_ms": True, "req_tail_ms": True,
        "peak_rss_mb": False}
    assert cli["metrics"]["req_per_s"]["better"] == "higher"
    assert cli["metrics"]["peak_rss_mb"]["wins"] == 0
    # more failed requests than the parent: no gain is claimed
    decide = summary["decide"]
    assert decide["failed"] == {"parent": 0, "change": 10}
    assert not any(m["gain"] for m in decide["metrics"].values())
    # no failed request, but every change run failed its warm-up: no gain either
    synthesize = summary["synthesize"]
    assert synthesize["failed"] == {"parent": 0, "change": 0}
    assert synthesize["incorrect"] == {"parent": 0, "change": 10}
    assert not any(m["gain"] for m in synthesize["metrics"].values())


def test_parse_run_reads_the_last_line_and_the_env_line():
    stdout = "\n".join([
        'env {"workload": "cli", "seed": 3, "python": "3.11.7"}',
        'run {"passes": 3}',
        "setup_s    0.2 s",
        json.dumps({"correct": True, "attempted": 17, "failed": 0,
                    "metrics": {"setup_s": {"value": 0.2, "unit": "s"}}}),
    ]) + "\n"
    record, env = bench_pairs.parse_run(stdout)
    assert record == {"correct": True, "failed": 0, "attempted": 17,
                      "metrics": {"setup_s": 0.2}}
    assert env["python"] == "3.11.7"
