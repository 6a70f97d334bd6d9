"""Traced stand-in for `python -m quandleforge.cli`.

    python forgebench/shim.py SPANS_FILE REQUEST_ID <forge arguments...>

Imports the CLI under a span, wraps every public function of the layer
modules at every module that bound it (the package imports with
`from .x import f`, so `knots.braid_closure_colorings` and
`envgroup.coset_enumeration` are bindings of their own), runs the command,
and writes the spans to SPANS_FILE when it ends.  The exit code is the
CLI's.  A span is [name, start, end, parent index, counts]; times are
time.perf_counter() seconds, and every span of the file belongs to
REQUEST_ID.
"""

import functools
import inspect
import json
import sys
import time

LAYERS = ("cli", "io", "core", "constructions", "cohomology", "snf",
          "envgroup", "_kernels", "knots", "pipeline")


def _coset_counts(args, result):
    complete, table = result
    return {"live_cosets": len(table)} if complete else {"capped": 1}


# Counts derived at the boundary from a call's arguments and result.
COUNTERS = {
    "snf.row_reduce": lambda a, r: {"rows_in": len(a[0]),
                                    "rows_out": len(r)},
    "snf.smith_normal_form": lambda a, r: {
        "cells": len(a[0]) * (len(a[0][0]) if a[0] else 0)},
    "kernels.coset_enumeration": _coset_counts,
    "kernels.braid_closure_colorings": lambda a, r: {
        "assignments": a[1] ** a[2], "colorings": len(r)},
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []

    def open(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self.stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def close(self, span):
        span[2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if counter is not None:
                span[4] = counter(args, result)
            return result
        return traced


def install(tracer):
    """Replace each public layer function at every binding in the package."""
    package = {name: mod for name, mod in list(sys.modules.items())
               if name == "quandleforge" or name.startswith("quandleforge.")}
    wrappers = {}
    for layer in LAYERS:
        mod = package[f"quandleforge.{layer}"]
        for attr, fn in vars(mod).items():
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or not fn.__module__.startswith(mod.__name__)):
                continue
            name = f"{layer.lstrip('_')}.{attr}"
            wrappers[id(fn)] = tracer.wrap(name, fn)
    for mod in package.values():
        for attr, value in list(vars(mod).items()):
            if id(value) in wrappers:
                setattr(mod, attr, wrappers[id(value)])


def main():
    spans_file, request = sys.argv[1], sys.argv[2]
    tracer = Tracer()
    span = tracer.open("cli.import")
    import quandleforge.cli
    tracer.close(span)
    install(tracer)
    try:
        code = quandleforge.cli.main(sys.argv[3:])
    finally:
        with open(spans_file, "w") as fh:
            json.dump({"request": request, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
