"""Per-module call tracing for loccopy, installed from outside the package.

Every public function defined in a loccopy module is replaced by a
wrapper wherever it is bound: in its own module, in the package
namespace and in every other loccopy module that imported it by name
(for example ``loccopy.copying.eig_normal``).  Calls made inside the
package are therefore counted, not only the benchmark's own calls.

A wrapper records calls, inclusive time and self time (inclusive time
minus the time of wrapped calls it made).  The linear algebra entry
points loccopy uses (numpy.linalg.svd, qr, eigvals, eig, eigh and
scipy.linalg.schur) are counted only: their time stays in the caller's
self time.  Stats are kept in memory and read out as a plain dict.
"""
from __future__ import annotations

import importlib
import inspect
import os
import time

LAYERS = (
    "cli", "serialization", "generators", "states",
    "majorization", "copying", "simulator", "tensor",
)

# Private cli helpers that hold the JSON text codec; they are timed as
# part of the serialization layer together with the *_to_json and
# *_from_json functions.
JSON_IO = {"_write_json": "serialization.encode", "_load_json": "serialization.decode"}

LINALG = (
    ("numpy.linalg", "svd"), ("numpy.linalg", "qr"), ("numpy.linalg", "eigvals"),
    ("numpy.linalg", "eig"), ("numpy.linalg", "eigh"), ("scipy.linalg", "schur"),
)


def _layer_of(module: str, name: str) -> str:
    layer = module.rsplit(".", 1)[-1]
    if layer == "serialization":
        return "serialization.encode" if name.endswith("_to_json") else "serialization.decode"
    return layer


class Tracer:
    """Wraps loccopy's public functions; ``install`` and ``uninstall`` swap them."""

    def __init__(self) -> None:
        modules = [importlib.import_module("loccopy")] + [
            importlib.import_module(f"loccopy.{name}") for name in LAYERS + ("config",)
        ]
        self.stats: dict[str, list[int]] = {}  # name -> [calls, inclusive_ns, self_ns]
        self.extra: dict[str, int] = {}        # computed byte counts
        self._child_ns: list[int] = []         # wrapped time below each open span
        self._patches: list[tuple[object, str, object, object]] = []
        wrappers: dict[int, object] = {}
        for mod in modules[1:]:
            for name, fn in vars(mod).items():
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                if name.startswith("_") and not (mod.__name__ == "loccopy.cli" and name in JSON_IO):
                    continue
                label = f"{mod.__name__[len('loccopy.'):]}.{name}"
                layer = JSON_IO.get(name) or _layer_of(mod.__name__, name)
                wrappers[id(fn)] = self._span(label, layer, fn)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._patches.append((mod, name, value, wrappers[id(value)]))
        for modname, name in LINALG:
            mod = importlib.import_module(modname)
            fn = getattr(mod, name)
            self._patches.append((mod, name, fn, self._counter(f"linalg.{name}", fn)))

    def install(self) -> None:
        for mod, name, _, wrapper in self._patches:
            setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, original, _ in self._patches:
            setattr(mod, name, original)

    def reset(self) -> None:
        self.stats = {}
        self.extra = {}

    def _record(self, key: str, inclusive: int, own: int) -> None:
        entry = self.stats.setdefault(key, [0, 0, 0])
        entry[0] += 1
        entry[1] += inclusive
        entry[2] += own

    def _span(self, label: str, layer: str, fn):
        clock = time.perf_counter_ns
        child_ns = self._child_ns

        def wrapper(*args, **kwargs):
            child_ns.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                below = child_ns.pop()
                if child_ns:
                    child_ns[-1] += elapsed
                else:
                    self._record("root", elapsed, elapsed)
                self._record(label, elapsed, elapsed - below)
                self._record(f"layer:{layer}", elapsed, elapsed - below)
            self._bytes(label, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, key: str, fn):
        def wrapper(*args, **kwargs):
            self._record(key, 0, 0)
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _bytes(self, label: str, args, result) -> None:
        if label == "tensor.kron":
            self._add("tensor.kron.bytes", int(result.nbytes))
        elif label == "cli._write_json":
            path = args[1] if len(args) > 1 else None
            if path is not None and path != "-":
                self._add("serialization.json_bytes", os.path.getsize(path))
        elif label == "cli._load_json" and args[0] != "-":
            self._add("serialization.json_bytes", os.path.getsize(args[0]))

    def _add(self, key: str, value: int) -> None:
        self.extra[key] = self.extra.get(key, 0) + value

    def snapshot(self) -> dict:
        return {"stats": {k: list(v) for k, v in self.stats.items()}, "extra": dict(self.extra)}


def merge(into: dict, snap: dict) -> dict:
    """Add one snapshot's counters into an accumulated snapshot."""
    stats = into.setdefault("stats", {})
    for key, (calls, inclusive, own) in snap["stats"].items():
        entry = stats.setdefault(key, [0, 0, 0])
        entry[0] += calls
        entry[1] += inclusive
        entry[2] += own
    extra = into.setdefault("extra", {})
    for key, value in snap["extra"].items():
        extra[key] = extra.get(key, 0) + value
    return into
