"""Run one loccopy CLI command with the tracer installed.

Usage: python bench/trace_child.py TRACE_OUT <loccopy cli arguments...>

Behaves like ``python -m loccopy.cli <arguments>`` (same output and exit
code) and appends one JSON line with the call counts and times of the
wrapped loccopy functions to TRACE_OUT.
"""
from __future__ import annotations

import json
import sys

import loccopy.cli

from tracer import Tracer


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        code = loccopy.cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        with open(out_path, "a") as fh:
            fh.write(json.dumps(tracer.snapshot()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
