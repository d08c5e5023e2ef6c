"""loccopy benchmark: one command for every end-to-end and per-layer metric.

Usage, from the root of a loccopy checkout:

    python3 bench/run.py --workload {decide,synthesize,cli} --seed N \
        --seconds S --trace {0,1}

--trace 0 prints the end-to-end metrics (setup_s, req_per_s, req_p50_ms,
req_tail_ms, peak_rss_mb); --trace 1 prints the per-layer metrics of a
traced run.  Every request's output is checked by an oracle.  The last
line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it record the environment and a
readable table.  See bench/README.md for what each workload and metric
is for.

This script uses the standard library only.  The workload itself runs
in bench/worker.py child processes, which import loccopy from ./src.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("decide", "synthesize", "cli")
BLAS_THREADS = 1   # fixed; at most nproc.  One thread is the steadier choice on 2 shared cores.
SETUPS = 11        # set-ups per run, half before and half after the measured one; setup_s is their median
PROBES = 3         # interpreter and import probes per traced run
WORKER_TIMEOUT = 150

UNITS = {
    "setup_s": "s", "req_per_s": "1/s", "req_p50_ms": "ms", "req_tail_ms": "ms",
    "peak_rss_mb": "MiB",
}


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("LOCCOPY_SEED", None)
    return env


def run_worker(args, mode: str, env: dict, root: str, workdir: str):
    """Start one worker; return (set-up seconds, parsed result or None)."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
            "--workdir", workdir]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=WORKER_TIMEOUT)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0 or first.strip() != "ready":
        raise RuntimeError(f"worker ({mode}) exited {proc.returncode}")
    lines = rest.strip().splitlines()
    return setup, (json.loads(lines[-1]) if lines else None)


def probe_startup(env: dict, root: str) -> dict:
    """Interpreter start and `import loccopy.cli` cost, as a CLI user pays it.

    interpreter_ms is the wall time of `python -c pass`; import_ms and
    import_scipy_ms come from `python -X importtime -c "import loccopy.cli"`
    (cumulative time of the top-level loccopy imports, and of the
    outermost scipy imports inside them).
    """
    interp, imports, scipy_imports = [], [], []
    for _ in range(PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=root, env=env, check=True)
        interp.append((time.perf_counter() - start) * 1e3)
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import loccopy.cli"],
                              cwd=root, env=env, check=True, capture_output=True, text=True)
        top, scipy_rows = 0, []
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            parts = line.split("|")
            try:
                cumulative = int(parts[1])
            except ValueError:
                continue  # the header line
            name = parts[2][1:]
            depth = len(name) - len(name.lstrip())
            name = name.strip()
            if depth == 0 and name.startswith("loccopy"):
                top += cumulative
            if name == "scipy" or name.startswith("scipy."):
                scipy_rows.append((depth, cumulative))
        shallowest = min((d for d, _ in scipy_rows), default=0)
        imports.append(top / 1e3)
        scipy_imports.append(sum(c for d, c in scipy_rows if d == shallowest) / 1e3)
    return {
        "cli.interpreter_ms": statistics.median(interp),
        "cli.import_ms": statistics.median(imports),
        "cli.import_scipy_ms": statistics.median(scipy_imports),
    }


def cache_sizes() -> dict:
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            if not entry.startswith("index"):
                continue
            with open(os.path.join(base, entry, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, entry, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(base, entry, "size")) as fh:
                size = fh.read().strip()
            if kind in ("Unified", "Data"):
                sizes[f"L{level}"] = size
    except OSError:
        pass
    return sizes


def main() -> int:
    parser = argparse.ArgumentParser(description="loccopy benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "loccopy", "__init__.py")):
        print("error: src/loccopy not found; run from the root of a loccopy checkout",
              file=sys.stderr)
        return 2
    env = child_env(root)
    workdir = os.path.join(root, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.trace:
            _, result = run_worker(args, "trace", env, root, workdir)
            metrics = {**probe_startup(env, root), **result["metrics"]}
            units = {k: ("ms" if k.endswith("_ms") else "bytes" if k.endswith("bytes")
                         else "count") for k in metrics}
            extra = {k: result[k] for k in ("passes", "overhead_quartiles_ms")}
        else:
            # Set-ups on both sides of the measured run, so that their
            # median spans the same stretch of machine time as the requests.
            before = [run_worker(args, "setup", env, root, workdir)[0] for _ in range(SETUPS // 2)]
            setup, result = run_worker(args, "measure", env, root, workdir)
            after = [run_worker(args, "setup", env, root, workdir)[0] for _ in range(SETUPS // 2)]
            setups = before + [setup] + after
            metrics = {
                "setup_s": statistics.median(setups),
                "req_per_s": result["req_per_s"],
                "req_p50_ms": result["req_p50_ms"],
                "req_tail_ms": result["req_tail_ms"],
                "peak_rss_mb": result["peak_rss_mb"],
            }
            units = UNITS
            extra = {k: result[k] for k in ("passes", "wall_s", "tail_pct", "tail_beyond")}
            extra["failed_frac"] = result["failed"] / result["attempted"]
            extra["setup_s_all"] = setups
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    environment = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        **result["env"], "blas_threads": BLAS_THREADS, "cache": cache_sizes(),
    }
    print("env " + json.dumps(environment))
    print("run " + json.dumps(extra))
    for failure in result["failures"] + result["warm_up_failures"]:
        print(f"FAILED {failure}")
    for name, value in metrics.items():
        print(f"{name:40s} {value:14.6f} {units[name]}")
    correct = result["failed"] == 0 and not result["warm_up_failures"]
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
