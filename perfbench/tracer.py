"""Traced in-process run of the fcs-spectral CLI.

    python3 perfbench/tracer.py SRC_DIR SPANS_JSON -- <fcs-spectral arguments>

Wraps every public function and public method of the package modules on
every module namespace that binds it: ``from .linalg import svd`` makes
``spectral.svd`` a second name of ``linalg.svd``, bound at import time, so
wrapping ``linalg.svd`` alone would miss the calls made from ``spectral``.
Each call records one span in memory; the spans are written to SPANS_JSON
when ``cli.main`` returns.  A span is ``[name, site, start_ns, end_ns,
parent]``: ``name`` is the defining module and qualified name, ``site`` the
namespace the call went through and ``parent`` the index of the enclosing
span, -1 for the root ``cli.main``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from pathlib import Path

PACKAGE = "fcs_spectral"
MODULES = ("cli", "fcs", "spectral", "noise", "analysis", "opbasis", "linalg")


class Recorder:
    """Spans of one traced run, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str, site: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, site, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        return traced


def install(rec: Recorder) -> dict:
    """Wrap the package's public functions and methods; returns the modules."""
    mods = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
    names = {}
    for m, mod in mods.items():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                names[obj] = f"{m}.{attr}"
            elif inspect.isclass(obj):
                for meth, fn in list(vars(obj).items()):
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        qual = f"{m}.{attr}.{meth}"
                        setattr(obj, meth, rec.wrap(fn, qual, qual))
    for m, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in names:
                setattr(mod, attr, rec.wrap(obj, names[obj], f"{m}.{attr}"))
    return mods


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    src, spans_path, cli_args = Path(argv[0]).resolve(), Path(argv[1]), argv[3:]
    sys.path.insert(0, str(src))
    rec = Recorder()
    mods = install(rec)
    if not Path(mods["cli"].__file__).resolve().is_relative_to(src):
        print(f"tracer: {PACKAGE} was not imported from {src}", file=sys.stderr)
        return 2
    try:
        return mods["cli"].main(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"clock": "perf_counter_ns", "spans": rec.spans}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
