"""Command-line interface.

Subcommands: majorize, catalysis, check-pair, synthesize, simulate,
generate, survey.  Output is a single JSON object on stdout (or a human
table with --pretty, which generate lacks).  Exit codes: 0 for success
or an affirmative verdict, 1 for a negative verdict, 2 for input errors
(an unknown flag among them) and for a stdout closed before the output
is written, 3 for an internal error (a synthesized protocol failed its
own verification; see SynthesisError).  File arguments accept "-" for
stdin; check-pair and synthesize read one pair file or two state files
and refuse more.  The default seed comes from $LOCCOPY_SEED when set,
else 0; a negative seed, or a $LOCCOPY_SEED that is not an integer, is
an input error, exit code 2, as is an ambiguous eigenphase clustering
(AmbiguityError) in check-pair or synthesize; survey counts it instead.

All JSON output goes through _write_json, which streams it (a
protocol's A and B one matrix row at a time) with the same bytes as
json.dumps.  An output file that cannot be written is an input error,
exit code 2, and a file left partly written is removed.  A closed
stdout (a reader such as `head` that exits early) is caught once, in
main.

The module imports only the standard library and loccopy.config, and
each handler imports the modules it uses, so parsing the command line,
--help and an argparse error (exit code 2) never load numpy.

No subcommand takes a tolerance flag: the tolerances are the constants
of loccopy.config, and a flag such as --phase-tol is an argparse error,
exit code 2.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import stat
import sys
from typing import TYPE_CHECKING

from .config import (
    FIDELITY_TOL,
    MAX_DIM,
    SUM_TOL,
    TAU,
    AmbiguityError,
    PreconditionError,
    SynthesisError,
)

if TYPE_CHECKING:
    import numpy as np

OK = 0
NEGATIVE = 1
INPUT_ERROR = 2
INTERNAL_ERROR = 3


def _load_json(path: str) -> dict:
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None


def _write_json(obj: dict, path: str | None) -> None:
    """obj as one line of JSON on stdout (path None or "-") or in the file
    path, streamed by serialization.stream_to_json.  A file that cannot be
    written raises ValueError "cannot write PATH"; one that fails part
    way is removed."""
    from . import serialization

    chunks = serialization.stream_to_json(obj)
    if path is None or path == "-":
        sys.stdout.writelines(chunks)
        sys.stdout.write("\n")
        return
    try:
        fh = open(path, "w")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from None
    try:
        with fh:
            fh.writelines(chunks)
            fh.write("\n")
    except OSError as exc:
        _remove_partial(path)
        raise ValueError(f"cannot write {path}: {exc}") from None
    except BaseException:
        _remove_partial(path)
        raise


def _remove_partial(path: str) -> None:
    """Remove a partly written output file; a device, pipe or symlink at
    path (such as /dev/stdout) is left alone."""
    try:
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.remove(path)
    except OSError:
        pass


def _emit(args, payload: dict, pretty_lines: list[str]) -> None:
    if args.pretty:
        print("\n".join(pretty_lines))
    else:
        _write_json(payload, None)


def _seed(args) -> int:
    """--seed, else $LOCCOPY_SEED, else 0; a negative or non-integer seed
    is an input error that names its source."""
    if args.seed is not None:
        if args.seed < 0:
            raise ValueError(f"--seed must be non-negative, got {args.seed}")
        return args.seed
    raw = os.environ.get("LOCCOPY_SEED", "0")
    try:
        seed = int(raw)
    except ValueError:
        raise ValueError(f"$LOCCOPY_SEED must be an integer, got {raw!r}") from None
    if seed < 0:
        raise ValueError(f"$LOCCOPY_SEED must be a non-negative integer, got {raw!r}")
    return seed


def _load_pair(paths: list[str]):
    from . import serialization

    if len(paths) > 2:
        raise ValueError(
            f"expected one pair file or two state files, got {len(paths)} files"
        )
    if len(paths) == 1:
        return serialization.pair_from_json(_load_json(paths[0]))
    psi1 = serialization.state_from_json(_load_json(paths[0]))
    psi2 = serialization.state_from_json(_load_json(paths[1]))
    return psi1, psi2


def _partial_sum_rows(v: np.ndarray, w: np.ndarray) -> list[dict]:
    from .majorization import _partial_sums

    ca, cb = _partial_sums(v, w)
    return [
        {"r": k + 1, "lhs": float(ca[k]), "rhs": float(cb[k]),
         "satisfied": bool(ca[k] <= cb[k] + SUM_TOL)}
        for k in range(ca.size)
    ]


def _sum_table(rows: list[dict], lhs: str, rhs: str) -> list[str]:
    out = [f"{'r':>3}  {lhs:>18}  {rhs:>18}  ok"]
    for row in rows:
        mark = "yes" if row["satisfied"] else "NO"
        out.append(f"{row['r']:>3}  {row['lhs']:>18.12f}  {row['rhs']:>18.12f}  {mark}")
    return out


def cmd_majorize(args) -> int:
    from . import serialization
    from .majorization import majorizes

    v = serialization.schmidt_from_json(_load_json(args.src))
    w = serialization.schmidt_from_json(_load_json(args.dst))
    result = majorizes(w, v)
    rows = _partial_sum_rows(v.probs, w.probs)
    payload = {
        "majorizes": result,
        "nielsen_transformable": result,
        "partial_sums": rows,
    }
    pretty = _sum_table(rows, "sum src", "sum dst")
    pretty.append(f"dst majorizes src: {result}")
    _emit(args, payload, pretty)
    return OK if result else NEGATIVE


def cmd_catalysis(args) -> int:
    import numpy as np

    from . import serialization
    from .majorization import CATALYTIC, DIRECT, catalytic_copy_check

    psi = serialization.schmidt_from_json(_load_json(args.psi))
    blank = serialization.schmidt_from_json(_load_json(args.blank))
    verdict = catalytic_copy_check(psi, blank)
    tensored_src = np.outer(psi.probs, blank.probs).ravel()
    tensored_dst = np.outer(psi.probs, psi.probs).ravel()
    rows = _partial_sum_rows(tensored_src, tensored_dst)
    payload = {"verdict": verdict, "tensored_partial_sums": rows}
    pretty = _sum_table(rows, "sum psi*blank", "sum psi*psi")
    pretty.append(f"verdict: {verdict}")
    _emit(args, payload, pretty)
    return OK if verdict in (DIRECT, CATALYTIC) else NEGATIVE


def cmd_check_pair(args) -> int:
    from . import serialization
    from .copying import orthogonality, pair_operator, spectral_verdict

    psi1, psi2 = _load_pair(args.states)
    t = pair_operator(psi1, psi2)
    kind = orthogonality(t)
    report = spectral_verdict(t)
    payload = {"d": psi1.d, "orthogonality": kind}
    payload.update(serialization.report_to_json(report))
    pretty = [
        f"d = {psi1.d}",
        f"orthogonality: {kind}",
        f"trace: {report.trace:.3e}",
        f"rotation removed: {report.rotation:.9f} rad",
        "clusters (phase, multiplicity): "
        + ", ".join(f"({rep:.6f}, {count})" for rep, count in report.clusters),
        f"copyable: {report.copyable}"
        + (f" with M = {report.detected_m}" if report.copyable else ""),
    ]
    _emit(args, payload, pretty)
    return OK if report.copyable else NEGATIVE


def cmd_synthesize(args) -> int:
    from . import serialization
    from .copying import synthesize_protocol
    from .states import max_entangled

    psi1, psi2 = _load_pair(args.states)
    if args.blank is not None:
        blank = serialization.state_from_json(_load_json(args.blank))
    else:
        blank = max_entangled(psi1.d)
    try:
        protocol = synthesize_protocol(psi1, psi2, blank)
    except PreconditionError as exc:
        print(f"not synthesizable: {exc}", file=sys.stderr)
        return NEGATIVE
    _write_json(serialization.protocol_fields_to_json(protocol), args.out)
    if args.pretty:
        print(
            f"synthesized protocol for d = {protocol.d}; "
            f"phases: {protocol.phases[0]:+.9f}, {protocol.phases[1]:+.9f}",
            file=sys.stderr,
        )
    return OK


def cmd_simulate(args) -> int:
    from . import serialization
    from .simulator import run_copy

    protocol = serialization.protocol_from_json(_load_json(args.protocol))
    psi = serialization.state_from_json(_load_json(args.state))
    fidelity, theta = run_copy(protocol, psi)
    passes = fidelity >= 1.0 - FIDELITY_TOL
    payload = {"fidelity": fidelity, "theta": theta, "passes": passes}
    pretty = [
        f"fidelity: {fidelity:.15f}",
        f"recovered theta: {theta:+.9f}",
        f"passes (>= 1 - {FIDELITY_TOL:g}): {passes}",
    ]
    _emit(args, payload, pretty)
    return OK if passes else NEGATIVE


def _draw_delta(rng: np.random.Generator, d: int) -> float:
    """Draw delta uniformly from (0, 2 pi / d), the open interval that
    nonprime_counterexample accepts; a draw of exactly 0 is redrawn."""
    delta = 0.0
    while not 0.0 < delta < TAU / d:
        delta = float(rng.uniform(0.0, TAU / d))
    return delta


def _check_dimension(d: int) -> None:
    """Refuse a subsystem dimension above MAX_DIM before any generator
    allocates its d x d matrices."""
    if d > MAX_DIM:
        raise ValueError(f"dimension {d} exceeds max dimension {MAX_DIM}")


def cmd_generate(args) -> int:
    import numpy as np

    from . import generators, serialization

    seed = _seed(args)
    meta: dict = {"family": args.family, "seed": seed}
    if args.family == "orthogonal":
        if args.d is None:
            raise ValueError("--d is required for the orthogonal family")
        _check_dimension(args.d)
        psi1, psi2 = generators.orthogonal_pair(args.d, seed)
    elif args.family == "copyable":
        if args.d is None or args.m is None:
            raise ValueError("--d and --m are required for the copyable family")
        _check_dimension(args.d)
        psi1, psi2 = generators.copyable_pair(args.d, args.m, seed)
        meta["m"] = args.m
    else:  # nonprime
        if args.d1 is None or args.d2 is None:
            raise ValueError("--d1 and --d2 are required for the nonprime family")
        if args.d1 < 2 or args.d2 < 2:  # before delta is drawn from (0, 2 pi / d)
            raise ValueError(f"--d1 and --d2 must be at least 2, got {args.d1} and {args.d2}")
        d = args.d1 * args.d2
        _check_dimension(d)
        delta = args.delta
        if delta is None:
            delta = _draw_delta(np.random.default_rng((seed, 2)), d)
        psi1, psi2 = generators.nonprime_counterexample(args.d1, args.d2, delta, seed)
        meta.update({"d1": args.d1, "d2": args.d2, "delta": delta})
    _write_json(serialization.pair_to_json(psi1, psi2, **meta), args.out)
    return OK


def _smallest_factor(d: int) -> int | None:
    for k in range(2, int(math.isqrt(d)) + 1):
        if d % k == 0:
            return k
    return None


def cmd_survey(args) -> int:
    import numpy as np

    from . import generators
    from .copying import ORTHOGONAL, orthogonality, pair_operator, spectral_verdict

    seed = _seed(args)
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    for d in args.d:
        _check_dimension(d)
    rows = []
    for d in args.d:
        orthogonal_count = 0
        copyable_count = 0
        ambiguous_count = 0
        for k in range(args.samples):
            # flat, well-mixed per-sample seed derived from (seed, d, k)
            sample_seed = int(np.random.SeedSequence((seed, d, k)).generate_state(1)[0])
            if args.family == "orthogonal":
                psi1, psi2 = generators.orthogonal_pair(d, sample_seed)
            else:  # nonprime
                d1 = _smallest_factor(d)
                if d1 is None:
                    raise ValueError(f"nonprime family requires composite d, got {d}")
                d2 = d // d1
                delta = _draw_delta(np.random.default_rng(sample_seed), d)
                psi1, psi2 = generators.nonprime_counterexample(d1, d2, delta, sample_seed)
            t = pair_operator(psi1, psi2)
            if orthogonality(t) == ORTHOGONAL:
                orthogonal_count += 1
            try:
                copyable = spectral_verdict(t).copyable
            except AmbiguityError:  # counted, and not copyable at this tolerance
                ambiguous_count += 1
                copyable = False
            if copyable:
                copyable_count += 1
        rows.append({
            "d": d,
            "samples": args.samples,
            "orthogonal_fraction": orthogonal_count / args.samples,
            "copyable_fraction": copyable_count / args.samples,
            "ambiguous_fraction": ambiguous_count / args.samples,
        })
    payload = {"family": args.family, "seed": seed, "rows": rows}
    pretty = [f"{'d':>3}  {'samples':>7}  {'orthogonal':>10}  {'copyable':>8}  {'ambiguous':>9}"]
    for row in rows:
        pretty.append(
            f"{row['d']:>3}  {row['samples']:>7}  "
            f"{row['orthogonal_fraction']:>10.3f}  {row['copyable_fraction']:>8.3f}  "
            f"{row['ambiguous_fraction']:>9.3f}"
        )
    _emit(args, payload, pretty)
    return OK


def _add_parser(sub, command: str, help: str, pretty: bool = True) -> argparse.ArgumentParser:
    """A subcommand's parser, with --pretty unless pretty is False."""
    p = sub.add_parser(command, help=help)
    if pretty:
        p.add_argument("--pretty", action="store_true",
                       help="human-readable table instead of JSON")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loccopy",
        description="LOCC copying of orthogonal maximally entangled states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _add_parser(sub, "majorize",
                    help="does dst majorize src (Nielsen: src -> dst possible)?")
    p.add_argument("src", help="Schmidt JSON file or -")
    p.add_argument("dst", help="Schmidt JSON file or -")
    p.set_defaults(handler=cmd_majorize)

    p = _add_parser(sub, "catalysis",
                    help="classify copying psi onto blank: direct, catalytic, impossible")
    p.add_argument("psi", help="Schmidt JSON file or -")
    p.add_argument("blank", help="Schmidt JSON file or -")
    p.set_defaults(handler=cmd_catalysis)

    p = _add_parser(sub, "check-pair",
                    help="orthogonality and spectral copyability of a state pair")
    p.add_argument("states", nargs="+",
                   help="one pair JSON file, or two state JSON files ('-' for stdin)")
    p.set_defaults(handler=cmd_check_pair)

    p = _add_parser(sub, "synthesize",
                    help="build the copying protocol for an orthogonal pair")
    p.add_argument("states", nargs="+",
                   help="one pair JSON file, or two state JSON files ('-' for stdin)")
    p.add_argument("--blank", default=None,
                   help="blank state JSON (default: the reference maximally entangled state)")
    p.add_argument("--out", default=None, help="write protocol JSON here (default stdout)")
    p.set_defaults(handler=cmd_synthesize)

    p = _add_parser(sub, "simulate",
                    help="verify a protocol against a state by the four-party overlap")
    p.add_argument("protocol", help="protocol JSON file or -")
    p.add_argument("state", help="state JSON file or -")
    p.set_defaults(handler=cmd_simulate)

    p = _add_parser(sub, "generate", help="generate a test state pair", pretty=False)
    p.add_argument("--family", required=True,
                   choices=["orthogonal", "copyable", "nonprime"])
    p.add_argument("--d", type=int, default=None, help="subsystem dimension")
    p.add_argument("--m", type=int, default=None, help="root count for the copyable family")
    p.add_argument("--d1", type=int, default=None, help="first factor of D (nonprime)")
    p.add_argument("--d2", type=int, default=None, help="second factor of D (nonprime)")
    p.add_argument("--delta", type=float, default=None,
                   help="spectral spacing in (0, 2pi/D) (nonprime; default random)")
    p.add_argument("--seed", type=int, default=None,
                   help="random seed (default $LOCCOPY_SEED or 0)")
    p.add_argument("--out", default=None, help="write pair JSON here (default stdout)")
    p.set_defaults(handler=cmd_generate)

    p = _add_parser(sub, "survey",
                    help="fraction of random orthogonal pairs that are copyable, per d")
    p.add_argument("--d", type=int, nargs="+", required=True, help="dimensions to survey")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--family", choices=["orthogonal", "nonprime"], default="orthogonal",
                   help="orthogonal: pair operators whose spectra are antipodal pairs plus "
                        "at most one equilateral triple, so for d >= 5 spectra such as the "
                        "regular pentagon (copyable, M = 5) are never drawn and "
                        "copyable_fraction covers only this family; nonprime: the "
                        "composite-d counterexamples (default: %(default)s)")
    p.add_argument("--seed", type=int, default=None,
                   help="random seed (default $LOCCOPY_SEED or 0)")
    p.set_defaults(handler=cmd_survey)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()  # so that a closed stdout fails here, not at exit
        return code
    except BrokenPipeError as exc:
        # Python flushes stdout again at exit: point it at devnull so that
        # the flush cannot fail, as the docs of the signal module advise.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except SynthesisError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
