"""The benchmark's three workloads: inputs made from a seed, the requests
that use them, and an output oracle for every request.

A request is a zero-argument ``call`` plus a ``check`` that receives the
call's output and returns None when it is right, or a message saying
what is wrong.  Checks run outside the timed window.  The expected
answers come from the planted family of each input or from arithmetic
done here with numpy or plain Python, never from loccopy's own verdict
or simulator.

Library calls go through the ``loccopy`` package attributes at call time
(``L.spectral_verdict(...)``), so that the tracer's wrappers see them.
"""
from __future__ import annotations

import json
import math
import os
import random
import subprocess

TAU = 2.0 * math.pi

# Fixed at the seed commit's NumericConfig values, so that the inputs and
# the oracles do not move when a later change edits the program's defaults.
PHASE_TOL = 1e-7
FIDELITY_TOL = 1e-9
THETA_TOL = 1e-8
SUM_TOL = 1e-10

NONPRIME_FACTORS = ((2, 2), (2, 3), (2, 4), (3, 3), (3, 4))
NEAR_TOL_DIMS = (4, 6, 8, 12, 16)
SYNTH_DIMS = (4, 8, 12, 16, 24)

# Tail percentile per workload, fixed so that every run reports the same
# rank, and the fewest whole passes a run makes so that at least ten
# samples lie beyond it: p99 of the 30k or more decide requests a run
# makes, p90 of 3 x 35 synthesize requests (inside the d=24 group) and
# p80 of 3 x 17 cli requests.
TAIL_PCT = {"decide": 99.0, "synthesize": 90.0, "cli": 80.0}
MIN_PASSES = {"decide": 1, "synthesize": 3, "cli": 3}


class Request:
    __slots__ = ("label", "call", "check")

    def __init__(self, label, call, check):
        self.label = label
        self.call = call
        self.check = check


def divisors(d: int) -> list[int]:
    """Every m >= 2 dividing d."""
    return [m for m in range(2, d + 1) if d % m == 0]


def _expect(label: str, expected):
    def check(out):
        return None if out == expected else f"{label}: got {out}, expected {expected}"
    return check


# --- decide -------------------------------------------------------------

def decide(seed: int) -> list[Request]:
    """pair_operator -> orthogonality -> spectral_verdict on planted pairs,
    plus spectral_verdict alone on the near_tol operators."""
    import numpy as np
    import loccopy as L

    rng = np.random.default_rng((seed, 1))

    def next_seed() -> int:
        return int(rng.integers(2**31))

    def pair(label, psi1, psi2, expected):
        def call():
            t = L.pair_operator(psi1, psi2)
            kind = L.orthogonality(t)
            report = L.spectral_verdict(t)
            return kind, report.copyable, report.detected_m
        return Request(label, call, _expect(label, ("orthogonal",) + expected))

    def operator(label, t, expected):
        def call():
            report = L.spectral_verdict(t)
            return report.copyable, report.detected_m
        return Request(label, call, _expect(label, expected))

    reqs = []
    for d in range(2, 17):
        for m in divisors(d):
            psi1, psi2 = L.copyable_pair(d, m, next_seed())
            reqs.append(pair(f"copyable d={d} m={m}", psi1, psi2, (True, m)))
    for d in range(2, 13):
        psi1, psi2 = L.orthogonal_pair(d, next_seed())
        # Antipodal pairs plus at most one equilateral triple: only d=2
        # (one pair) and d=3 (one triple) are copyable.
        expected = (True, d) if d in (2, 3) else (False, None)
        reqs.append(pair(f"orthogonal d={d}", psi1, psi2, expected))
    for d1, d2 in NONPRIME_FACTORS:
        d = d1 * d2
        # Away from both ends of (0, 2pi/D): delta -> 0 collapses the
        # spectrum onto d1 roots and delta -> 2pi/D makes it the D roots,
        # and both of those are copyable.
        delta = float(rng.uniform(0.1, 0.9)) * TAU / d
        psi1, psi2 = L.nonprime_counterexample(d1, d2, delta, next_seed())
        reqs.append(pair(f"nonprime {d1}x{d2}", psi1, psi2, (False, None)))
    for d in NEAR_TOL_DIMS:
        for m in divisors(d):
            # Planted copyable spectrum, each eigenphase moved off the
            # roots-of-unity grid by at most PHASE_TOL/2: still (True, m).
            v = L.haar_unitary(d, next_seed())
            labels = np.repeat(np.arange(m), d // m)
            noise = rng.uniform(-PHASE_TOL / 2, PHASE_TOL / 2, size=d)
            lam = np.exp(1j * (TAU * labels / m + rng.uniform(0.0, TAU) + noise))
            t = (v * lam) @ v.conj().T
            reqs.append(operator(f"near_tol d={d} m={m}", t, (True, m)))
    order = rng.permutation(len(reqs))
    return [reqs[i] for i in order]


# --- synthesize ---------------------------------------------------------

def copy_overlap(psi, blank, a_op, b_op) -> complex:
    """<psi (x) psi| (A^13 (x) B^24) |psi (x) blank> from the grids alone.

    With particles (1,3) indexing rows and (2,4) columns (first factor
    fastest), |psi^12>|blank^34> is the matrix kron(blank, psi) and the
    target |psi^12>|psi^34> is kron(psi, psi); the protocol maps X to
    A X B^T.
    """
    import numpy as np

    x = np.kron(blank, psi)
    target = np.kron(psi, psi)
    return complex(np.vdot(target, a_op @ x @ b_op.T))


def _phase_gap(a: float, b: float) -> float:
    delta = abs(a - b) % TAU
    return min(delta, TAU - delta)


def synthesize(seed: int) -> list[Request]:
    """synthesize_protocol on planted copyable pairs, with the reference
    blank and with a Haar-random maximally entangled blank."""
    import numpy as np
    import loccopy as L

    rng = np.random.default_rng((seed, 2))

    def next_seed() -> int:
        return int(rng.integers(2**31))

    def request(label, psi1, psi2, blank):
        def call():
            return L.synthesize_protocol(psi1, psi2, blank)

        def check(protocol):
            if protocol.d != psi1.d:
                return f"{label}: protocol d={protocol.d}"
            for j, psi in enumerate((psi1, psi2)):
                ip = copy_overlap(psi.grid, blank.grid, protocol.a_op, protocol.b_op)
                fidelity = abs(ip) ** 2
                if fidelity < 1.0 - FIDELITY_TOL:
                    return f"{label}: psi{j + 1} fidelity {fidelity!r}"
                gap = _phase_gap(math.atan2(ip.imag, ip.real), protocol.phases[j])
                if gap > THETA_TOL:
                    return f"{label}: psi{j + 1} theta off protocol.phases by {gap:.3e}"
            return None
        return Request(label, call, check)

    reqs = []
    for d in SYNTH_DIMS:
        for k, m in enumerate(divisors(d)):
            psi1, psi2 = L.copyable_pair(d, m, next_seed())
            haar = L.from_unitary(L.haar_unitary(d, next_seed()))
            # Both blanks below d=24, alternating at d=24 (a request there
            # costs ten times one at d=16): the median then falls inside
            # the d=12 group instead of on the edge of the d=16 one, whose
            # latency swings with the machine's cache contention.
            if d < 24 or k % 2 == 0:
                reqs.append(request(f"d={d} m={m} blank=reference", psi1, psi2, L.max_entangled(d)))
            if d < 24 or k % 2 == 1:
                reqs.append(request(f"d={d} m={m} blank=haar", psi1, psi2, haar))
    order = rng.permutation(len(reqs))
    return [reqs[i] for i in order]


# --- cli ----------------------------------------------------------------

class CliRunner:
    """Runs ``python -m loccopy.cli`` (or the traced child) in a work dir."""

    def __init__(self, python: str, workdir: str, env: dict, trace_child: str, trace_out: str):
        self.python = python
        self.workdir = workdir
        self.env = env
        self.trace_child = trace_child
        self.trace_out = trace_out
        self.traced = False

    def run(self, args: list[str]) -> subprocess.CompletedProcess:
        if self.traced:
            argv = [self.python, self.trace_child, self.trace_out, *args]
        else:
            argv = [self.python, "-m", "loccopy.cli", *args]
        return subprocess.run(
            argv, cwd=self.workdir, env=self.env, capture_output=True, text=True, timeout=120
        )


def _random_probs(rnd: random.Random, n: int) -> list[float]:
    raw = [rnd.random() ** 2 for _ in range(n)]
    total = sum(raw)
    return [x / total for x in raw]


def _majorizes(w: list[float], v: list[float]) -> bool:
    """Partial sums of sorted w dominate those of sorted v (equal totals)."""
    a = sorted(v, reverse=True)
    b = sorted(w, reverse=True)
    n = max(len(a), len(b))
    a += [0.0] * (n - len(a))
    b += [0.0] * (n - len(b))
    sa = sb = 0.0
    for x, y in zip(a, b):
        sa += x
        sb += y
        if sa > sb + SUM_TOL:
            return False
    return abs(sa - sb) <= SUM_TOL


def _outer(p: list[float], q: list[float]) -> list[float]:
    return [x * y for x in p for y in q]


def cli(seed: int, runner: CliRunner) -> list[Request]:
    """One fixed sequence of CLI invocations; later steps read the files
    earlier ones wrote, so the order is part of the workload."""
    rnd = random.Random(seed)
    gen_seed = [str(rnd.randrange(2**31)) for _ in range(5)]
    work = runner.workdir

    def path(name):
        return os.path.join(work, name)

    def write(name, obj):
        with open(path(name), "w") as fh:
            json.dump(obj, fh)

    def load(name):
        with open(path(name)) as fh:
            return json.load(fh)

    maj_src, maj_dst = _random_probs(rnd, 4), _random_probs(rnd, 4)
    cat_psi, cat_blank = _random_probs(rnd, 4), _random_probs(rnd, 4)
    write("maj_src.json", {"probs": maj_src})
    write("maj_dst.json", {"probs": maj_dst})
    write("cat_psi.json", {"probs": cat_psi})
    write("cat_blank.json", {"probs": cat_blank})
    majorize_expected = _majorizes(maj_dst, maj_src)
    if _majorizes(cat_psi, cat_blank):
        catalysis_expected = "direct"
    elif _majorizes(_outer(cat_psi, cat_psi), _outer(cat_psi, cat_blank)):
        catalysis_expected = "catalytic"
    else:
        catalysis_expected = "impossible"

    phases: dict[str, list[float]] = {}

    def status(label, proc, code):
        if proc.returncode != code:
            tail = proc.stderr.strip().splitlines()[-1:] if proc.stderr else []
            return f"{label}: exit {proc.returncode}, expected {code} {tail}"
        return None

    def generated(name, d, split=None):
        # Also writes the two states as separate files for `simulate`;
        # this bookkeeping runs outside the timed window with the check.
        def check(proc):
            err = status(f"generate {name}", proc, 0)
            if err:
                return err
            obj = load(name)
            for key in ("psi1", "psi2"):
                amps = obj.get(key, {}).get("amplitudes", [])
                if obj.get("d") != d or len(amps) != d * d:
                    return f"generate {name}: bad {key} for d={d}"
            if split:
                write(f"{split}_psi1.json", obj["psi1"])
                write(f"{split}_psi2.json", obj["psi2"])
            return None
        return check

    def verdict(name, d, copyable, m):
        def check(proc):
            err = status(f"check-pair {name}", proc, 0 if copyable else 1)
            if err:
                return err
            out = json.loads(proc.stdout)
            got = (out.get("orthogonality"), out.get("copyable"), out.get("detected_m"),
                   len(out.get("eigenphases", [])))
            want = ("orthogonal", copyable, m, d)
            return None if got == want else f"check-pair {name}: got {got}, expected {want}"
        return check

    def synthesized(name, d):
        def check(proc):
            err = status(f"synthesize {name}", proc, 0)
            if err:
                return err
            obj = load(name)
            n = d * d
            if obj.get("d") != d or len(obj.get("A", [])) != n * n or len(obj.get("B", [])) != n * n:
                return f"synthesize {name}: bad protocol shape for d={d}"
            if len(obj.get("phases", [])) != 2:
                return f"synthesize {name}: phases {obj.get('phases')}"
            phases[name] = obj["phases"]
            return None
        return check

    def simulated(protocol, j):
        def check(proc):
            label = f"simulate {protocol} psi{j + 1}"
            err = status(label, proc, 0)
            if err:
                return err
            out = json.loads(proc.stdout)
            if out.get("passes") is not True or out.get("fidelity", 0.0) < 1.0 - FIDELITY_TOL:
                return f"{label}: {out}"
            gap = _phase_gap(out["theta"], phases[protocol][j])
            return None if gap <= THETA_TOL else f"{label}: theta off phases by {gap:.3e}"
        return check

    def majorized(proc):
        err = status("majorize", proc, 0 if majorize_expected else 1)
        if err:
            return err
        got = json.loads(proc.stdout).get("majorizes")
        return None if got == majorize_expected else f"majorize: got {got}"

    def catalysed(proc):
        code = 0 if catalysis_expected in ("direct", "catalytic") else 1
        err = status("catalysis", proc, code)
        if err:
            return err
        got = json.loads(proc.stdout).get("verdict")
        return None if got == catalysis_expected else f"catalysis: got {got}"

    def surveyed(proc):
        err = status("survey", proc, 0)
        if err:
            return err
        rows = json.loads(proc.stdout).get("rows", [])
        got = [(r.get("d"), r.get("samples"), r.get("orthogonal_fraction"), r.get("copyable_fraction"))
               for r in rows]
        want = [(2, 10, 1.0, 1.0), (3, 10, 1.0, 1.0), (4, 10, 1.0, 0.0)]
        return None if got == want else f"survey: got {got}"

    steps = [
        (["generate", "--family", "copyable", "--d", "6", "--m", "3", "--seed", gen_seed[0],
          "--out", "c6.json"], generated("c6.json", 6, split="c6")),
        (["generate", "--family", "copyable", "--d", "12", "--m", "4", "--seed", gen_seed[1],
          "--out", "c12.json"], generated("c12.json", 12, split="c12")),
        (["generate", "--family", "orthogonal", "--d", "3", "--seed", gen_seed[2],
          "--out", "o3.json"], generated("o3.json", 3)),
        (["generate", "--family", "nonprime", "--d1", "2", "--d2", "3", "--seed", gen_seed[3],
          "--out", "n6.json"], generated("n6.json", 6)),
        (["check-pair", "c6.json"], verdict("c6.json", 6, True, 3)),
        (["check-pair", "o3.json"], verdict("o3.json", 3, True, 3)),
        (["check-pair", "n6.json"], verdict("n6.json", 6, False, None)),
        (["synthesize", "c6.json", "--out", "p6.json"], synthesized("p6.json", 6)),
        (["synthesize", "c12.json", "--out", "p12.json"], synthesized("p12.json", 12)),
        (["synthesize", "n6.json", "--out", "pn6.json"],
         lambda proc: status("synthesize pn6.json", proc, 1)),
        (["simulate", "p6.json", "c6_psi1.json"], simulated("p6.json", 0)),
        (["simulate", "p6.json", "c6_psi2.json"], simulated("p6.json", 1)),
        (["simulate", "p12.json", "c12_psi1.json"], simulated("p12.json", 0)),
        (["simulate", "p12.json", "c12_psi2.json"], simulated("p12.json", 1)),
        (["majorize", "maj_src.json", "maj_dst.json"], majorized),
        (["catalysis", "cat_psi.json", "cat_blank.json"], catalysed),
        (["survey", "--d", "2", "3", "4", "--samples", "10", "--seed", gen_seed[4]], surveyed),
    ]
    return [
        Request(" ".join(args), (lambda a=args: runner.run(a)), check)
        for args, check in steps
    ]
