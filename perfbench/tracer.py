"""Per-layer spans recorded from outside the program.

`Tracer.install` replaces every public function of each irratio module by a
wrapper that records a span, in every irratio namespace that binds it
(`witness.pi_enclosure`, `pi_engine.cos_enclosure`, `cli.to_decimal`, ...).
Only functions are wrapped: classes stay as they are, so methods count
toward the function that calls them.  The CLI is one layer: of `irratio.cli`
only `run` is wrapped, so argument parsing and rendering are its self time.

A span's self time is its duration minus the durations of the spans it
encloses.  Spans are aggregated in memory per function, never written out
one by one.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LIBRARY_MODULES = ("numbers", "combinatorics", "polynomials", "series",
                   "pi_engine", "trigpoly", "witness")
PI_ENCLOSURE = "pi_engine.pi_enclosure"
PI_WITNESS = "witness.pi_witness"


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self._children: list[float] = []  # enclosed time, one entry per open span
        self._open: dict[str, int] = {}
        self.pi_passes_in_witness = 0
        # pi_enclosure precisions requested by each operation, for the share
        # of operations a precision-keyed cache could serve
        self.pi_precisions: list[list[int]] = []

    def begin_op(self) -> None:
        self.pi_precisions.append([])

    def _wrap(self, name: str, fn):
        calls, self_s, children, open_ = (self.calls, self.self_s,
                                          self._children, self._open)
        calls[name] = 0
        self_s[name] = 0.0
        open_[name] = 0
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if name == PI_ENCLOSURE:
                self._note_pi_request(args, kwargs)
            open_[name] += 1
            children.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                open_[name] -= 1
                calls[name] += 1
                self_s[name] += duration - children.pop()
                if children:
                    children[-1] += duration

        return span

    def _note_pi_request(self, args, kwargs) -> None:
        if self._open.get(PI_WITNESS):
            self.pi_passes_in_witness += 1
        if self.pi_precisions:
            digits = args[0] if args else kwargs["precision_digits"]
            self.pi_precisions[-1].append(digits)

    def install(self) -> None:
        """Wrap the public functions of the imported irratio package."""
        package = sys.modules["irratio"]
        namespaces = [package, sys.modules["irratio.cli"]]
        namespaces += [sys.modules[f"irratio.{m}"] for m in LIBRARY_MODULES]
        wrappers = {}
        for m in LIBRARY_MODULES:
            module = sys.modules[f"irratio.{m}"]
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == module.__name__):
                    wrappers[fn] = self._wrap(f"{m}.{attr}", fn)
        run = sys.modules["irratio.cli"].run
        wrappers[run] = self._wrap("cli.run", run)
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(ns, attr, wrappers[value])
