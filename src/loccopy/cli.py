"""Command-line interface.

Subcommands: majorize, catalysis, check-pair, synthesize, simulate,
generate, survey.  Each handler builds its answer once, as a JSON
payload.  synthesize and generate write it as a document (to --out, by
default stdout); the other five print it on stdout as one JSON object,
or with --pretty as the text _pretty derives from the same payload, so
the two views cannot disagree.  generate refuses a parameter flag its
family does not read; survey draws from the orthogonal family alone and
names it in its output.  Exit codes: 0 for success or an affirmative
verdict, 1 for a negative verdict (for synthesize, only
NotCopyableError: no protocol exists), 2 for input errors (an unknown
flag and a state that is not maximally entangled among them,
in every subcommand), for a stdout closed before the output
is written and for a failed allocation (MemoryError), 3 for an
internal error (a synthesized protocol failed its own verification;
see SynthesisError).  Every refusal of an input file starts with
its path, and a state that is not maximally entangled is named by its
role (psi1, psi2, blank or state).  File arguments accept "-" for
stdin, read as strict UTF-8 as a file is, which a command may name
once (a closed stdin is an input error); check-pair and synthesize read
one pair file or two state files and refuse more.  The seed defaults
to 0; a negative seed is an input error, exit code 2.  No input comes
from the environment.

All JSON output goes through _write_json, which streams it (a
protocol's A and B one matrix row at a time) with the same bytes as
json.dumps.  An output file that cannot be written is an input error,
exit code 2, and a file left partly written is removed.  A closed
stdout (a reader such as `head` that exits early) is caught once, in
main.

The module imports only the standard library and loccopy.config, and
each handler imports the modules it uses, so parsing the command line,
--help and an argparse error (exit code 2) never load numpy.
"""
from __future__ import annotations

import argparse
import json
import os
import stat
import sys
from typing import TYPE_CHECKING

from .config import FIDELITY_TOL, NotCopyableError, SynthesisError

if TYPE_CHECKING:
    import numpy as np

OK = 0
NEGATIVE = 1
INPUT_ERROR = 2
INTERNAL_ERROR = 3


def _load_json(path: str, loader):
    """loader applied to the JSON document in the file path ("-" for
    stdin), read as strict UTF-8: stdin's bytes are decoded here, not by
    sys.stdin, whose error handler depends on the locale.  Every refusal
    of the file is a ValueError that starts with path: bad JSON, text
    that is not UTF-8, and each ValueError of loader.  A closed stdin
    (sys.stdin None, as Python leaves it when fd 0 is closed at start-up)
    is refused as "cannot read -"."""
    if path == "-" and sys.stdin is None:
        raise ValueError("cannot read -: stdin is closed")
    try:
        if path == "-":
            return loader(json.loads(sys.stdin.buffer.read().decode("utf-8")))
        with open(path, encoding="utf-8") as fh:
            return loader(json.load(fh))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    except ValueError as exc:  # UnicodeDecodeError and the loader's refusals
        raise ValueError(f"{path}: {exc}") from None
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None
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


def _text(value) -> str:
    return value if isinstance(value, str) else json.dumps(value)


def _pretty(payload: dict) -> str:
    """The --pretty view of a JSON payload, one line per key: a string
    value as `key: value`, any other value as `key: <json>`, except that
    a non-empty list of row objects prints as `key:` over a table with a
    header line of the rows' keys and right-aligned columns."""
    lines = []
    for key, value in payload.items():
        if not (isinstance(value, list) and value and all(isinstance(r, dict) for r in value)):
            lines.append(f"{key}: {_text(value)}")
            continue
        columns = list(dict.fromkeys(k for row in value for k in row))
        cells = [columns] + [[_text(row.get(k, "")) for k in columns] for row in value]
        widths = [max(len(line[j]) for line in cells) for j in range(len(columns))]
        lines.append(f"{key}:")
        lines.extend("  " + "  ".join(c.rjust(w) for c, w in zip(line, widths)) for line in cells)
    return "\n".join(lines)


def _emit(args, payload: dict) -> None:
    if args.pretty:
        print(_pretty(payload))
    else:
        _write_json(payload, None)


def _seed(args) -> int:
    """--seed; a negative seed is an input error."""
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    return args.seed


def _check_stdin_once(args) -> None:
    """Refuse a command that names "-" for more than one of its input
    files (args.inputs), before anything is read."""
    named = []
    for name in getattr(args, "inputs", ()):
        value = getattr(args, name)
        named += value if isinstance(value, list) else [value]
    if named.count("-") > 1:
        raise ValueError(f"stdin can be read once, but '-' names {named.count('-')} inputs")


def _load_pair(paths: list[str]):
    from . import serialization

    if len(paths) > 2:
        raise ValueError(
            f"expected one pair file or two state files, got {len(paths)} files"
        )
    if len(paths) == 1:
        return _load_json(paths[0], serialization.pair_from_json)
    return tuple(_load_json(path, serialization.state_from_json) for path in paths)


def _partial_sum_rows(sums: tuple[np.ndarray, np.ndarray, np.ndarray]) -> list[dict]:
    """One row per condition of "w majorizes v" from the partial sums of
    v and w and the flags that majorization decided on them; the last row
    is the totals condition."""
    sums_v, sums_w, holds = sums
    return [
        {"r": k + 1, "lhs": float(sums_v[k]), "rhs": float(sums_w[k]),
         "satisfied": bool(holds[k])}
        for k in range(sums_v.size)
    ]


def cmd_majorize(args) -> int:
    from . import serialization
    from .majorization import partial_sums

    v = _load_json(args.src, serialization.schmidt_from_json)
    w = _load_json(args.dst, serialization.schmidt_from_json)
    sums = partial_sums(v, w)
    result = bool(sums[2].all())
    rows = _partial_sum_rows(sums)
    _emit(args, {"majorizes": result, "nielsen_transformable": result, "partial_sums": rows})
    return OK if result else NEGATIVE


def cmd_catalysis(args) -> int:
    from . import serialization
    from .majorization import CATALYTIC, DIRECT, _catalysis

    psi = _load_json(args.psi, serialization.schmidt_from_json)
    blank = _load_json(args.blank, serialization.schmidt_from_json)
    verdict, tensored = _catalysis(psi.probs, blank.probs)
    _emit(args, {"verdict": verdict, "tensored_partial_sums": _partial_sum_rows(tensored)})
    return OK if verdict in (DIRECT, CATALYTIC) else NEGATIVE


def cmd_check_pair(args) -> int:
    from . import serialization
    from .copying import pair_operator, spectral_verdict

    psi1, psi2 = _load_pair(args.states)
    report = spectral_verdict(pair_operator(psi1, psi2))
    _emit(args, {"d": psi1.d, "orthogonality": report.orthogonality,
                 **serialization.report_to_json(report)})
    return OK if report.copyable else NEGATIVE


def cmd_synthesize(args) -> int:
    from . import serialization
    from .copying import synthesize_protocol
    from .states import max_entangled

    psi1, psi2 = _load_pair(args.states)
    if args.blank is not None:
        blank = _load_json(args.blank, serialization.state_from_json)
    else:
        blank = max_entangled(psi1.d)
    try:
        protocol = synthesize_protocol(psi1, psi2, blank)
    except NotCopyableError as exc:
        print(f"not synthesizable: {exc}", file=sys.stderr)
        return NEGATIVE
    _write_json(serialization.protocol_fields_to_json(protocol), args.out)
    return OK


def cmd_simulate(args) -> int:
    from . import serialization
    from .simulator import run_copy

    protocol = _load_json(args.protocol, serialization.protocol_from_json)
    psi = _load_json(args.state, serialization.state_from_json)
    fidelity, theta = run_copy(protocol, psi)
    passes = fidelity >= 1.0 - FIDELITY_TOL
    _emit(args, {"fidelity": fidelity, "theta": theta, "passes": passes})
    return OK if passes else NEGATIVE


# The parameter flags each generate family reads; any other is refused.
_FAMILY_FLAGS = {"orthogonal": ("d",), "copyable": ("d", "m"), "nonprime": ("d1", "d2", "delta")}


def cmd_generate(args) -> int:
    import numpy as np

    from . import generators, serialization
    from .generators import _check_dimension, _draw_delta

    for flag in ("d", "m", "d1", "d2", "delta"):
        if getattr(args, flag) is not None and flag not in _FAMILY_FLAGS[args.family]:
            raise ValueError(f"the {args.family} family does not read --{flag}")
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
        if args.d1 < 2 or args.d2 < 2:  # before delta is drawn
            raise ValueError(f"--d1 and --d2 must be at least 2, got {args.d1} and {args.d2}")
        d = args.d1 * args.d2
        _check_dimension(d)
        delta = args.delta
        if delta is None:
            delta = _draw_delta(np.random.default_rng((seed, 2)), d, args.d2)
        psi1, psi2 = generators.nonprime_counterexample(args.d1, args.d2, delta, seed)
        meta.update({"d1": args.d1, "d2": args.d2, "delta": delta})
    _write_json(serialization.pair_to_json(psi1, psi2, **meta), args.out)
    return OK


def cmd_survey(args) -> int:
    from .copying import survey

    seed = _seed(args)
    _emit(args, {"family": "orthogonal", "seed": seed,
                 "rows": survey(args.d, args.samples, seed)})
    return OK


def _add_parser(sub, command: str, help: str, pretty: bool = True) -> argparse.ArgumentParser:
    """A subcommand's parser, with --pretty unless pretty is False."""
    p = sub.add_parser(command, help=help)
    if pretty:
        p.add_argument("--pretty", action="store_true",
                       help="the JSON answer as `key: value` lines and tables")
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
    p.set_defaults(handler=cmd_majorize, inputs=("src", "dst"))

    p = _add_parser(sub, "catalysis",
                    help="classify copying psi onto blank: direct, catalytic, impossible")
    p.add_argument("psi", help="Schmidt JSON file or -")
    p.add_argument("blank", help="Schmidt JSON file or -")
    p.set_defaults(handler=cmd_catalysis, inputs=("psi", "blank"))

    p = _add_parser(sub, "check-pair",
                    help="orthogonality and spectral copyability of a state pair")
    p.add_argument("states", nargs="+",
                   help="one pair JSON file, or two state JSON files ('-' for stdin)")
    p.set_defaults(handler=cmd_check_pair, inputs=("states",))

    p = _add_parser(sub, "synthesize",
                    help="build the copying protocol for an orthogonal pair", pretty=False)
    p.add_argument("states", nargs="+",
                   help="one pair JSON file, or two state JSON files ('-' for stdin)")
    p.add_argument("--blank", default=None,
                   help="blank state JSON (default: the reference maximally entangled state)")
    p.add_argument("--out", default=None, help="write protocol JSON here (default stdout)")
    p.set_defaults(handler=cmd_synthesize, inputs=("states", "blank"))

    p = _add_parser(sub, "simulate",
                    help="verify a protocol against a state by the four-party overlap")
    p.add_argument("protocol", help="protocol JSON file or -")
    p.add_argument("state", help="state JSON file or -")
    p.set_defaults(handler=cmd_simulate, inputs=("protocol", "state"))

    p = _add_parser(sub, "generate", help="generate a test state pair", pretty=False)
    p.add_argument("--family", required=True,
                   choices=["orthogonal", "copyable", "nonprime"])
    p.add_argument("--d", type=int, default=None, help="subsystem dimension")
    p.add_argument("--m", type=int, default=None, help="root count for the copyable family")
    p.add_argument("--d1", type=int, default=None, help="first factor of D (nonprime)")
    p.add_argument("--d2", type=int, default=None, help="second factor of D (nonprime)")
    p.add_argument("--delta", type=float, default=None,
                   help="spectral spacing in (0, 2pi/D), more than 2 PHASE_TOL/(d2-1) "
                        "from both ends (nonprime; default random)")
    p.add_argument("--seed", type=int, default=0, help="random seed (default: %(default)s)")
    p.add_argument("--out", default=None, help="write pair JSON here (default stdout)")
    p.set_defaults(handler=cmd_generate)

    p = _add_parser(sub, "survey",
                    help="fraction of random orthogonal pairs that are copyable, per d")
    p.add_argument("--d", type=int, nargs="+", required=True, help="dimensions to survey")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0, help="random seed (default: %(default)s)")
    p.set_defaults(handler=cmd_survey)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_stdin_once(args)
        code = args.handler(args)
        sys.stdout.flush()  # so that a closed stdout fails here, not at exit
        return code
    except BrokenPipeError as exc:
        # Python flushes stdout and stderr again at exit: point each closed
        # one at devnull so that the flush cannot fail, as the docs of the
        # signal module advise.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        try:
            print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        except BrokenPipeError:  # stderr is the same closed pipe
            os.dup2(devnull, sys.stderr.fileno())
        os.close(devnull)
        return INPUT_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except MemoryError as exc:  # a d within DENSE_BYTES can still outgrow the machine
        print("error: cannot allocate memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return INPUT_ERROR
    except SynthesisError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
