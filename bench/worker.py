"""Serve one workload's requests in a closed loop, single client.

Started by run.py once per set-up, from the root of the checkout, with
PYTHONPATH pointing at its ``src`` and the BLAS thread count fixed.  It
imports loccopy (library workloads), makes the inputs from the seed,
warms up, and prints ``ready``.  With ``--mode setup`` it stops there;
otherwise it then prints one JSON line:

  measure  latencies and throughput of untraced requests;
  trace    per-layer counts and times from wrapped loccopy functions,
           running each request untraced and then traced.

Requests run in whole passes over the workload's fixed input list until
``--seconds`` of request time have passed, so every run has the same
input mix.  Each output is checked right after its request, outside the
request's timer, and the check time is left out of the wall time.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time

import workloads
from tracer import Tracer, merge

HERE = os.path.dirname(os.path.abspath(__file__))


def build(name: str, seed: int, workdir: str):
    """Return (requests, warm-up requests, cli runner or None)."""
    if name == "cli":
        runner = workloads.CliRunner(
            sys.executable, workdir, dict(os.environ),
            os.path.join(HERE, "trace_child.py"), os.path.join(workdir, "trace.jsonl"),
        )
        requests = workloads.cli(seed, runner)
        warm = [workloads.Request(
            "--help", lambda: runner.run(["--help"]),
            lambda proc: None if proc.returncode == 0 else f"--help: exit {proc.returncode}",
        )]
        return requests, warm, runner
    requests = getattr(workloads, name)(seed)
    if name == "decide":
        warm = list(requests)
    else:  # one request per dimension
        seen, warm = set(), []
        for req in requests:
            d = req.label.split()[0]
            if d not in seen:
                seen.add(d)
                warm.append(req)
    return requests, warm, None


def one_pass(requests, latencies: list, failures: list) -> float:
    """Run every request once; return the time spent in checks."""
    clock = time.perf_counter
    check_time = 0.0
    for req in requests:
        start = clock()
        try:
            out = req.call()
            error = None
        except Exception as exc:  # a request that raises is a failed request
            out, error = None, f"{req.label}: {type(exc).__name__}: {exc}"
        done = clock()
        latencies.append(done - start)
        if error is None:
            error = req.check(out)
        if error is not None:
            failures.append(error)
        out = None  # free the output before the next request, for peak_rss_mb
        check_time += clock() - done
    return check_time


def percentile(sorted_values: list, pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    n = len(sorted_values)
    rank = max(1, math.ceil(pct / 100.0 * n))
    return sorted_values[rank - 1], n - rank


def measure(name, requests, seconds):
    """Run whole passes until --seconds of request time have passed."""
    latencies, failures = [], []
    wall = 0.0
    passes = 0
    while wall < seconds or passes < workloads.MIN_PASSES[name]:
        start = time.perf_counter()
        checks = one_pass(requests, latencies, failures)
        wall += time.perf_counter() - start - checks
        passes += 1
    ordered = sorted(latencies)
    pct = workloads.TAIL_PCT[name]
    tail, beyond = percentile(ordered, pct)
    return {
        "attempted": len(latencies),
        "failed": len(failures),
        "failures": failures[:5],
        "passes": passes,
        "wall_s": wall,
        "req_per_s": len(latencies) / wall,
        "req_p50_ms": statistics.median(ordered) * 1e3,
        "req_tail_ms": tail * 1e3,
        "tail_pct": pct,
        "tail_beyond": beyond,
    }


def read_child_traces(path: str) -> dict:
    total: dict = {}
    if os.path.exists(path):
        with open(path) as fh:
            for line in fh:
                merge(total, json.loads(line))
        os.remove(path)
    return total


def trace(requests, seconds, tracer, runner, setup_snap):
    """Run every request untraced and traced, back to back, so that the
    overhead estimate sees the same machine speed on both sides.  The
    order flips every pass, because the second run of an input finds it
    in cache."""
    plain, traced, failures = [], [], []
    passes = 0
    checks = 0.0

    def traced_run(req):
        if runner is not None:
            runner.traced = True
        else:
            tracer.install()
        try:
            return one_pass([req], traced, failures)
        finally:
            if runner is not None:
                runner.traced = False
            else:
                tracer.uninstall()

    start = time.perf_counter()
    while True:
        for req in requests:
            if passes % 2 == 0:
                checks += one_pass([req], plain, failures) + traced_run(req)
            else:
                checks += traced_run(req) + one_pass([req], plain, failures)
        passes += 1
        if time.perf_counter() - start - checks >= seconds:
            break
    request_snap = read_child_traces(runner.trace_out) if runner is not None else tracer.snapshot()
    return {
        "attempted": len(plain) + len(traced),
        "failed": len(failures),
        "failures": failures[:5],
        "passes": passes,
        "metrics": layer_metrics(request_snap, setup_snap, passes, len(requests), plain, traced),
        "overhead_quartiles_ms": statistics.quantiles(overhead_ms(plain, traced), n=4),
    }


def layer_metrics(req: dict, setup: dict, passes: int, per_pass: int, plain, traced) -> dict:
    """Per-request figures from the traced runs.

    Work done while making the inputs (set-up) happens once per input, so
    it is divided by the pass length; work done by requests is divided by
    the number of traced requests.  Counts are whole-number ratios that
    repeat exactly for one seed.
    """
    requests = passes * per_pass

    def field(key, index, snap=None):
        snap = req if snap is None else snap
        return snap.get("stats", {}).get(key, [0, 0, 0])[index]

    def per_request(key, index):
        return (field(key, index, setup) * passes + field(key, index)) / requests

    def extra(key):
        return (setup.get("extra", {}).get(key, 0) * passes
                + req.get("extra", {}).get(key, 0)) / requests

    def self_ms(key):
        return per_request(key, 2) / 1e6

    count = {
        "generators.calls": per_request("layer:generators", 0),
        "states.assert_max_entangled.calls": per_request("states.assert_max_entangled", 0),
        "states.assert_unitary.calls": per_request("states.assert_unitary", 0),
        "tensor.eig_normal.calls": per_request("tensor.eig_normal", 0),
        "tensor.kron.calls": per_request("tensor.kron", 0),
        "tensor.kron.bytes": extra("tensor.kron.bytes"),
        "linalg.svd.calls": per_request("linalg.svd", 0),
        "linalg.schur.calls": per_request("linalg.schur", 0),
        "linalg.qr.calls": per_request("linalg.qr", 0),
        "linalg.eigvals.calls": per_request("linalg.eigvals", 0),
        "copying.synthesize_protocol.calls": per_request("copying.synthesize_protocol", 0),
        "simulator.run_copy.calls": per_request("simulator.run_copy", 0),
        "simulator.apply_local.calls": per_request("simulator.apply_local", 0),
        "serialization.json_bytes": extra("serialization.json_bytes"),
        "majorization.calls": per_request("layer:majorization", 0),
    }
    times = {
        "request.handler_ms": field("root", 1) / requests / 1e6,
        "trace.overhead_ms": statistics.median(overhead_ms(plain, traced)),
        "generators.self_ms": self_ms("layer:generators"),
        "states.self_ms": self_ms("layer:states"),
        "tensor.eig_normal.self_ms": self_ms("tensor.eig_normal"),
        "copying.pair_operator.self_ms": self_ms("copying.pair_operator"),
        "copying.spectral_verdict.self_ms": self_ms("copying.spectral_verdict"),
        "copying.synthesize_protocol.self_ms": self_ms("copying.synthesize_protocol"),
        "simulator.run_copy.self_ms": self_ms("simulator.run_copy"),
        "simulator.apply_local.self_ms": self_ms("simulator.apply_local"),
        "serialization.encode_ms": self_ms("layer:serialization.encode"),
        "serialization.decode_ms": self_ms("layer:serialization.decode"),
        "majorization.self_ms": self_ms("layer:majorization"),
        "cli.self_ms": self_ms("layer:cli"),
    }
    return {**times, **count}


def overhead_ms(plain: list, traced: list) -> list:
    """Traced minus untraced time of each request, in ms.  The two lists
    are filled in pairs, one entry each per request, so entry i of both
    is the same input run back to back."""
    return [(t - p) * 1e3 for p, t in zip(plain, traced)]


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
    }


def peak_rss_mib(name: str) -> float:
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.TAIL_PCT))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=["setup", "measure", "trace"], required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    tracer = None
    if args.workload != "cli":
        import loccopy

        src = os.path.join(os.getcwd(), "src")
        if not os.path.abspath(loccopy.__file__).startswith(src + os.sep):
            print(f"error: loccopy imported from {loccopy.__file__}, not {src}", file=sys.stderr)
            return 2
        if args.mode == "trace":
            tracer = Tracer()
            tracer.install()
    try:
        requests, warm, runner = build(args.workload, args.seed, args.workdir)
    finally:
        if tracer is not None:
            tracer.uninstall()
    setup_snap = tracer.snapshot() if tracer is not None else {}
    if tracer is not None:
        tracer.reset()
    warm_failures: list = []
    one_pass(warm, [], warm_failures)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    if args.mode == "measure":
        result = measure(args.workload, requests, args.seconds)
    else:
        result = trace(requests, args.seconds, tracer, runner, setup_snap)
    result["peak_rss_mb"] = peak_rss_mib(args.workload)
    result["warm_up_failures"] = warm_failures[:5]
    result["env"] = environment()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
