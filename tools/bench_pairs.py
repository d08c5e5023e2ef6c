"""Paired benchmark runs of a parent revision against the working tree.

Usage, from anywhere inside a loccopy checkout:

    python3 tools/bench_pairs.py OUT.json --parent REV --workload W [W ...] \
        [--pairs N] [--seconds S]

The parent revision is extracted with `git archive` into a temporary
directory.  For each workload, pair k = 0, 1, ... runs BENCHMARK.json's
`command` (`python3 bench/run.py`) with `--workload W --seed 1+k
--seconds S --trace 0` once in that directory and once in the checkout,
the parent first in even pairs and the change first in odd ones, and
reads the JSON object on each run's last line of stdout and its `env`
line.

OUT.json, by convention BENCH_<name>.json at the root of the checkout,
gets every run and, per workload and end-to-end metric of
BENCHMARK.json, each side's median and quartiles, the pairs the change
won in the metric's `better` direction (ties count for neither), and
whether a gain may be claimed: of at least ten pairs, the change wins
at least nine tenths, its median is better than the parent's by more
than the parent's interquartile range, and its runs fail no more
requests and fail bench/run.py's correctness check no more often.  The run length defaults to BENCHMARK.json's `run_seconds`.

Uses the standard library only and writes nothing under bench/.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
MIN_PAIRS = 10
WIN_SHARE = 0.9
FIRST_SEED = 1


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def judge(parent: list[float], change: list[float], better: str) -> dict:
    """One metric's summary over paired runs: parent[k] and change[k]
    ran with the same seed.  better is "lower" or "higher"."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p_q1, p_median, p_q3 = quartiles(parent)
    c_q1, c_median, c_q3 = quartiles(change)
    return {
        "better": better,
        "parent": {"median": p_median, "q1": p_q1, "q3": p_q3},
        "change": {"median": c_median, "q1": c_q1, "q3": c_q3},
        "wins": wins,
        "pairs": len(parent),
        "gain": (len(parent) >= MIN_PAIRS and wins >= WIN_SHARE * len(parent)
                 and sign * (c_median - p_median) > p_q3 - p_q1),
    }


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per workload: each side's failed requests, its runs that are not
    `correct` (a failed request or warm-up) and, per end-to-end metric,
    judge() over the runs paired by seed.  A gain needs the change to
    fail no more requests, and no more runs, than the parent."""
    summary = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        by_side = {side: {r["seed"]: r for r in runs
                          if r["workload"] == workload and r["side"] == side}
                   for side in SIDES}
        seeds = sorted(by_side["parent"].keys() & by_side["change"].keys())
        failed = {side: sum(by_side[side][s]["failed"] for s in seeds) for side in SIDES}
        incorrect = {side: sum(not by_side[side][s]["correct"] for s in seeds) for side in SIDES}
        no_worse = (failed["change"] <= failed["parent"]
                    and incorrect["change"] <= incorrect["parent"])
        metrics = {}
        for metric in end_to_end:
            name = metric["name"]
            verdict = judge(*([by_side[side][s]["metrics"][name] for s in seeds] for side in SIDES),
                            metric["better"])
            verdict["gain"] = verdict["gain"] and no_worse
            metrics[name] = verdict
        summary[workload] = {"failed": failed, "incorrect": incorrect, "metrics": metrics}
    return summary


def parse_run(stdout: str) -> tuple[dict, dict]:
    """A run's record, from the JSON object on the last line of
    bench/run.py's stdout, and its `env {...}` line."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return {"correct": result["correct"], "failed": result["failed"],
            "attempted": result["attempted"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}, env


def run_bench(command: list[str], checkout: str, workload: str, seed: int,
              seconds: float) -> tuple[dict, dict]:
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} in {checkout} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    return parse_run(proc.stdout)


def git(*argv: str, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *argv], cwd=ROOT, check=True, capture_output=True, **kwargs)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    parser = argparse.ArgumentParser(description="paired benchmark runs, parent against change")
    parser.add_argument("out", help="the BENCH_<name>.json file to write")
    parser.add_argument("--parent", required=True, help="the parent revision, for git archive")
    parser.add_argument("--workload", nargs="+", required=True,
                        choices=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    args = parser.parse_args()

    parent_rev = git("rev-parse", "--verify", f"{args.parent}^{{commit}}", text=True).stdout.strip()
    change_rev = git("rev-parse", "HEAD", text=True).stdout.strip()
    dirty = bool(git("status", "--porcelain", text=True).stdout.strip())
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as parent_dir:
        archive = git("archive", parent_rev).stdout
        subprocess.run(["tar", "-x", "-C", parent_dir], input=archive, check=True)
        checkouts = {"parent": parent_dir, "change": ROOT}
        for workload in args.workload:
            for k in range(args.pairs):
                seed = FIRST_SEED + k
                for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                    result, env = run_bench(benchmark["command"], checkouts[side], workload,
                                            seed, args.seconds)
                    runs.append({"workload": workload, "seed": seed, "side": side, **result})
                    print(f"{workload} seed {seed} {side}: {json.dumps(result['metrics'])}",
                          file=sys.stderr)
    document = {
        "parent": parent_rev,
        "change": change_rev + (" with uncommitted changes" if dirty else ""),
        "command": f"{' '.join(benchmark['command'])} --workload W --seed N "
                   f"--seconds {args.seconds:g} --trace 0, run from the root of each checkout",
        "protocol": f"pairs per workload: {args.pairs}, seeds {FIRST_SEED} to "
                    f"{FIRST_SEED + args.pairs - 1}; the parent runs first in even pairs",
        "machine": {k: v for k, v in env.items()
                    if k not in ("workload", "seed", "seconds", "trace")},
        "runs": runs,
        "summary": summarize(runs, benchmark["end_to_end"]),
    }
    with open(args.out, "w") as fh:
        json.dump(document, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
