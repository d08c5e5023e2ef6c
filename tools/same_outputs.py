"""Compare the outputs of a parent revision and the working tree on one
fixed corpus of loccopy commands.

Usage, from anywhere inside a loccopy checkout:

    python3 tools/same_outputs.py --parent REV [--quick]

The parent revision is extracted with `git archive` into a temporary
directory.  Each step of the corpus runs `python -m loccopy.cli ...` as
a subprocess once with the parent's src/ and once with the checkout's,
with 1 BLAS thread and in UTF-8 mode, so that the locale cannot change
how stdin is decoded.  A step's outputs are its exit code, stdout,
stderr and the file it writes with --out.

The corpus is a list of cases, each a list of steps, in which the files
the tool writes and those the parent's steps write feed the later steps
of both trees, so each step of the two trees reads the same bytes:

- check-pair (with --pretty at seed 0) on the pairs `generate` makes:
  copyable pairs for d = 2 to 16 and every M >= 2 dividing d,
  orthogonal pairs for d = 2 to 16 and nonprime pairs with d1 d2 <= 16,
  at seeds 0 to 3;
- `synthesize --out` on the nine planted (d, M) of tests/test_copying.py
  at seeds 0 to 5, with the reference blank and with a Haar blank (psi2
  of an orthogonal pair), then `simulate` of each protocol on both
  states;
- majorize and catalysis on seeded Schmidt vectors, and one survey;
- the refusals of tests/test_cli.py's OUTCOMES, and input refusals: a
  file and stdin that are not UTF-8, bad JSON, deep nesting and a
  missing file.

--quick runs a small corpus of every command, for the tool's tests.

The report gives, per command, how many steps gave identical outputs
and how many did not.  For each output that differs it names the step
and: for a JSON document, the first key path at which the two differ
and the largest absolute difference of any number at the same path; for
other text, the first line that differs.  The last line is the summary.
The exit code is 0 iff every output is identical.

Uses the standard library only and writes nothing in the checkout.
"""
from __future__ import annotations

import argparse
import collections
import concurrent.futures
import filecmp
import json
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
from typing import Callable, NamedTuple, Union

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
IN = "{in}"  # stands, in a step's argv, for the directory of the case's inputs

# the (d, M) of tests/test_copying.py's PLANTED pairs
PLANTED = [(2, 2), (3, 3), (4, 2), (6, 3), (6, 2), (12, 4), (12, 3), (16, 16), (24, 3)]


class Step(NamedTuple):
    """One loccopy command line; stdin is fed to it (none: empty)."""

    argv: tuple[str, ...]
    stdin: bytes | None = None

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def out(self) -> str | None:
        return self.argv[self.argv.index("--out") + 1] if "--out" in self.argv else None

    def __str__(self) -> str:
        return "loccopy " + " ".join(self.argv) + (" < stdin" if self.stdin else "")


class Write(NamedTuple):
    """An input file that the tool writes, make(inputs directory) -> bytes."""

    name: str
    make: Callable[[str], bytes]


Case = list[Union[Step, Write]]


def step(*argv, stdin: bytes | None = None) -> Step:
    return Step(tuple(str(a) for a in argv), stdin)


def doc(obj) -> Callable[[str], bytes]:
    return lambda _: json.dumps(obj).encode()


def key_of(name: str, key: str) -> Callable[[str], bytes]:
    """The value of key in the JSON document name, as a document."""
    def make(inputs: str) -> bytes:
        with open(os.path.join(inputs, name)) as fh:
            return json.dumps(json.load(fh)[key]).encode()
    return make


def pair_of(first: Callable[[str], bytes], second: Callable[[str], bytes], d: int):
    def make(inputs: str) -> bytes:
        return json.dumps({"d": d, "psi1": json.loads(first(inputs)),
                           "psi2": json.loads(second(inputs))}).encode()
    return make


def check_pair_case(family_flags: list, seed: int) -> Case:
    case = [step("generate", *family_flags, "--seed", seed, "--out", "pair.json"),
            step("check-pair", f"{IN}/pair.json")]
    if seed == 0:
        case.append(step("check-pair", "--pretty", f"{IN}/pair.json"))
    return case


def synthesize_case(d: int, m: int, seed: int) -> Case:
    """Both blanks; each protocol simulated on both states."""
    case = [step("generate", "--family", "copyable", "--d", d, "--m", m, "--seed", seed,
                 "--out", "pair.json"),
            step("generate", "--family", "orthogonal", "--d", d, "--seed", 1000 + seed,
                 "--out", "other.json"),
            Write("psi1.json", key_of("pair.json", "psi1")),
            Write("psi2.json", key_of("pair.json", "psi2")),
            Write("blank.json", key_of("other.json", "psi2"))]
    for out, blank in (("p.json", ()), ("pb.json", ("--blank", f"{IN}/blank.json"))):
        case.append(step("synthesize", f"{IN}/pair.json", *blank, "--out", out))
        case.extend(step("simulate", f"{IN}/{out}", f"{IN}/{psi}")
                    for psi in ("psi1.json", "psi2.json"))
    return case


def schmidt_case(seed: int) -> Case:
    rng = random.Random(seed)
    vectors = []
    for _ in range(2):
        weights = [rng.random() for _ in range(rng.randint(2, 6))]
        vectors.append([w / math.fsum(weights) for w in weights])
    case = [Write("v.json", doc({"probs": vectors[0]})),
            Write("w.json", doc({"coeffs": [math.sqrt(p) for p in vectors[1]]}))]
    for command in ("majorize", "catalysis"):
        case.append(step(command, f"{IN}/v.json", f"{IN}/w.json"))
        case.append(step(command, f"{IN}/w.json", f"{IN}/v.json"))
        if seed == 0:
            case.append(step(command, "--pretty", f"{IN}/v.json", f"{IN}/w.json"))
    return case


WEAK = {"d": 2, "amplitudes": [[0.8, 0.0], [0.0, 0.0], [0.0, 0.0], [0.6, 0.0]]}


def refusal_case() -> Case:
    """tests/test_cli.py's OUTCOMES, and the refusals of unreadable input."""
    return [
        step("generate", "--family", "orthogonal", "--d", 2, "--seed", 2, "--out", "pair.json"),
        step("generate", "--family", "nonprime", "--d1", 2, "--d2", 3, "--delta", 0.5,
             "--seed", 8, "--out", "nonprime.json"),
        step("synthesize", f"{IN}/pair.json", "--out", "protocol.json"),
        Write("state.json", key_of("pair.json", "psi1")),
        Write("weak.json", doc(WEAK)),
        Write("weak_pair.json", pair_of(doc(WEAK), key_of("pair.json", "psi2"), 2)),
        Write("identical.json", pair_of(key_of("pair.json", "psi1"),
                                        key_of("pair.json", "psi1"), 2)),
        Write("bad.json", lambda _: b"\xff"),
        Write("probs.json", doc({"probs": [0.5, 0.5]})),
        step("check-pair", f"{IN}/weak_pair.json"),
        step("synthesize", f"{IN}/weak_pair.json"),
        step("synthesize", f"{IN}/state.json", f"{IN}/weak.json"),
        step("synthesize", f"{IN}/pair.json", "--blank", f"{IN}/weak.json"),
        step("simulate", f"{IN}/protocol.json", f"{IN}/weak.json"),
        step("synthesize", f"{IN}/nonprime.json"),
        step("synthesize", f"{IN}/identical.json"),
        step("majorize", f"{IN}/bad.json", f"{IN}/probs.json"),
        step("majorize", "-", f"{IN}/probs.json", stdin=b"\xff"),
        step("majorize", "-", f"{IN}/probs.json", stdin=b"{not json"),
        step("check-pair", "-", stdin=b"[" * 100000 + b"]" * 100000),
        step("catalysis", f"{IN}/missing.json", f"{IN}/probs.json"),
    ]


def corpus(quick: bool) -> list[Case]:
    if quick:
        return [check_pair_case(["--family", "copyable", "--d", 4, "--m", 2], 0),
                check_pair_case(["--family", "nonprime", "--d1", 2, "--d2", 2], 1),
                synthesize_case(2, 2, 0), schmidt_case(0),
                [step("majorize", "-", f"{IN}/missing.json", stdin=b"\xff")]]
    cases = []
    for seed in range(4):
        for d in range(2, 17):
            cases.extend(check_pair_case(["--family", "copyable", "--d", d, "--m", m], seed)
                         for m in range(2, d + 1) if d % m == 0)
            cases.append(check_pair_case(["--family", "orthogonal", "--d", d], seed))
        cases.extend(check_pair_case(["--family", "nonprime", "--d1", d1, "--d2", d2], seed)
                     for d1 in range(2, 9) for d2 in range(2, 9) if d1 * d2 <= 16)
    cases.extend(synthesize_case(d, m, seed) for d, m in PLANTED for seed in range(6))
    cases.extend(schmidt_case(seed) for seed in range(10))
    cases.append([step("survey", "--d", 2, 3, 4, "--samples", 20, "--seed", 0),
                  step("survey", "--pretty", "--d", 2, 3, 4, "--samples", 20, "--seed", 0)])
    cases.append(refusal_case())
    return cases


def environment(src: str) -> dict:
    threads = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                      "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
    return dict(os.environ, PYTHONPATH=src, PYTHONUTF8="1", **threads)


def check_source(src: str) -> None:
    """Refuse a src/ that an installed loccopy would shadow."""
    found = subprocess.run([sys.executable, "-c", "import loccopy; print(loccopy.__file__)"],
                           env=environment(src), capture_output=True, text=True, check=True)
    if not os.path.realpath(found.stdout.strip()).startswith(os.path.realpath(src) + os.sep):
        raise RuntimeError(f"python imports loccopy from {found.stdout.strip()}, not {src}")


def run_step(src: str, item: Step, cwd: str, inputs: str) -> dict:
    """A step's outputs: exit code, stdout, stderr and the path of the file
    it wrote (None when it wrote none)."""
    argv = [arg.replace(IN, inputs) for arg in item.argv]
    proc = subprocess.run([sys.executable, "-m", "loccopy.cli", *argv], cwd=cwd,
                          input=item.stdin or b"", capture_output=True, env=environment(src))
    outputs = {"exit code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}
    if item.out is not None:
        path = os.path.join(cwd, item.out)
        outputs[item.out] = path if os.path.isfile(path) else None
    return outputs


def json_diff(a, b, path: str = "") -> tuple[str | None, float]:
    """(the first key path at which a and b differ, None if none; the
    largest absolute difference of two numbers at the same path)."""
    if isinstance(a, dict) and isinstance(b, dict):
        first, largest = (None if list(a) == list(b) else path or "(top)"), 0.0
        for key in a:
            if key in b:
                where, diff = json_diff(a[key], b[key], f"{path}.{key}" if path else key)
                first, largest = first or where, max(largest, diff)
        return first, largest
    if isinstance(a, list) and isinstance(b, list):
        first, largest = (None if len(a) == len(b) else path or "(top)"), 0.0
        for k, (x, y) in enumerate(zip(a, b)):
            where, diff = json_diff(x, y, f"{path}[{k}]")
            first, largest = first or where, max(largest, diff)
        return first, largest
    numbers = all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (a, b))
    if a == b and type(a) is type(b):
        return None, 0.0
    return path or "(top)", abs(a - b) if numbers else 0.0


def describe(a: bytes, b: bytes) -> str:
    """How two differing outputs differ."""
    try:
        where, largest = json_diff(json.loads(a), json.loads(b))
    except ValueError:
        pass
    else:
        return f"first differs at {where}, largest absolute difference {largest:.3g}"
    lines_a, lines_b = (text.decode(errors="replace").splitlines() for text in (a, b))
    for k in range(max(len(lines_a), len(lines_b))):
        x = lines_a[k] if k < len(lines_a) else "(none)"
        y = lines_b[k] if k < len(lines_b) else "(none)"
        if x != y:
            return f"line {k + 1}: {x!r} vs {y!r}"
    return "differs in line endings"


def differences(parent: dict, change: dict) -> list[str]:
    """One line per output of a step that differs between the two sides."""
    found = []
    for name, a in parent.items():
        b = change[name]
        if name == "exit code":
            if a != b:
                found.append(f"exit code {a} vs {b}")
        elif a is None or b is None:
            if (a is None) != (b is None):
                found.append(f"{name} written by the {'change' if a is None else 'parent'} only")
        elif isinstance(a, bytes):
            if a != b:
                found.append(f"{name}: {describe(a, b)}")
        elif not filecmp.cmp(a, b, shallow=False):
            with open(a, "rb") as fa, open(b, "rb") as fb:
                found.append(f"{name}: {describe(fa.read(), fb.read())}")
    return found


def compare(sources: dict, cases: list[Case], work: str, runner=run_step):
    """Run every case in both trees: {command: [identical, differ]} and a
    list of (step, difference) lines.  work is an empty directory."""
    counts = collections.defaultdict(lambda: [0, 0])
    found = []
    dirs = {side: os.path.join(work, side) for side in SIDES}
    inputs = dirs["parent"]  # the parent's outputs are the later steps' inputs
    with concurrent.futures.ThreadPoolExecutor(len(SIDES)) as pool:
        for case in cases:
            for path in dirs.values():
                os.makedirs(path)
            for item in case:
                if isinstance(item, Write):
                    with open(os.path.join(inputs, item.name), "wb") as fh:
                        fh.write(item.make(inputs))
                    continue
                parent, change = pool.map(
                    lambda side: runner(sources[side], item, dirs[side], inputs), SIDES)
                lines = differences(parent, change)
                counts[item.command][bool(lines)] += 1
                found.extend((str(item).replace(IN + "/", ""), line) for line in lines)
            for path in dirs.values():
                shutil.rmtree(path)
    return dict(counts), found


def report(counts: dict, found: list, parent: str, change: str) -> str:
    width = max(map(len, counts))
    lines = [f"{command:<{width}}  {same:4d} identical, {differ:4d} differ"
             for command, (same, differ) in counts.items()]
    lines += [f"differs: {where}: {line}" for where, line in found]
    total = sum(map(sum, counts.values()))
    differing = sum(differ for _, differ in counts.values())
    lines.append(f"same_outputs: {total - differing} of {total} steps identical, "
                 f"{differing} differ (parent {parent[:12]}, change {change})")
    return "\n".join(lines)


def git(*argv: str) -> bytes:
    return subprocess.run(["git", *argv], cwd=ROOT, check=True, capture_output=True).stdout


def main() -> int:
    parser = argparse.ArgumentParser(description="compare the outputs of a parent and the change")
    parser.add_argument("--parent", required=True, help="the parent revision, for git archive")
    parser.add_argument("--quick", action="store_true", help="the small corpus")
    args = parser.parse_args()

    parent_rev = git("rev-parse", "--verify", f"{args.parent}^{{commit}}").decode().strip()
    change_rev = git("rev-parse", "--short=12", "HEAD").decode().strip()
    if git("status", "--porcelain", "--", "src").strip():
        change_rev += " with uncommitted changes in src"
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        parent_dir = os.path.join(tmp, "tree")
        os.makedirs(parent_dir)
        subprocess.run(["tar", "-x", "-C", parent_dir], input=git("archive", parent_rev),
                       check=True)
        sources = {"parent": os.path.join(parent_dir, "src"), "change": os.path.join(ROOT, "src")}
        for src in sources.values():
            check_source(src)
        counts, found = compare(sources, corpus(args.quick), os.path.join(tmp, "work"))
    print(report(counts, found, parent_rev, change_rev))
    return 0 if not found else 1


if __name__ == "__main__":
    sys.exit(main())
