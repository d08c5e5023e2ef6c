"""Self-test of the benchmark itself.

Usage, from the root of a loccopy checkout:

    python3 bench/selftest.py

1. Two traced runs of every workload in BENCHMARK.json on one seed
   report identical work counts: every per-layer metric whose unit is
   not a time.
2. In a directory that holds only BENCHMARK.json and bench/, run.py exits
   with a non-zero code and prints no result.

Exits 0 when every check passes.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = 5


def run(cwd: str, workload: str, trace: int, seconds: str = "1"):
    argv = [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
            "--seed", str(SEED), "--seconds", seconds, "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc) -> dict | None:
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return None
    try:
        obj = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return obj if isinstance(obj, dict) and "metrics" in obj else None


def counts_repeat(root: str, workload: str, count_names: list[str]) -> bool:
    first, second = (result_of(run(root, workload, 1)) for _ in range(2))
    if first is None or second is None:
        print(f"FAIL {workload}: a traced run printed no result")
        return False
    ok = True
    for name in count_names:
        a = first["metrics"][name]["value"]
        b = second["metrics"][name]["value"]
        if a != b:
            print(f"FAIL {workload}: {name} {a!r} != {b!r}")
            ok = False
    if ok:
        print(f"ok   {workload}: {len(count_names)} counts repeat exactly")
    return ok


def refuses_without_source(root: str) -> bool:
    bare = os.path.join(root, ".bench_work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "decide", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(bare))
        except OSError:
            pass  # another run is using it
    ok = proc.returncode != 0 and result_of(proc) is None
    print(f"{'ok  ' if ok else 'FAIL'} bare directory: exit {proc.returncode}, "
          f"result printed: {result_of(proc) is not None}")
    return ok


def main() -> int:
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    count_names = [m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "bytes")]
    ok = all([counts_repeat(root, w["name"], count_names) for w in spec["workloads"]])
    ok = refuses_without_source(root) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
