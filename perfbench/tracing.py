"""Spans around the package's public functions, recorded from outside.

`Tracer.install` replaces every public function of each layer module at
every name the package's modules (and the package namespace) bind it to,
for example `cli.solve_levels`, `wavefunctions.solve_levels` and
`oracle.effective_potential`, so calls between modules pass through a
wrapper that records a span.  Calls to private helpers are not seen; spans
inside the program are a later change.  Spans stay in memory until the run
ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

LAYERS = ("cli", "spectra", "susyqm", "limits", "wavefunctions", "oracle",
          "potentials")

# cli has no __all__; these are its entry point, commands and writer.
CLI_FUNCTIONS = ("main", "cmd_table", "cmd_sweep", "cmd_scan",
                 "cmd_wavefunction", "cmd_verify", "write_rows")

# Spans whose arguments and result the per-layer metrics need.
OBSERVED = {"spectra.solve_levels", "wavefunctions.solve_wavefunction",
            "oracle.dirac_eigenvalue"}

NAME, START, END, PARENT, REQUEST, DETAIL = range(6)


class Tracer:
    """Records [name, start, end, parent index, request id, detail] spans."""

    def __init__(self):
        self.spans: list[list] = []
        self.request = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def begin_request(self, name: str) -> None:
        """Open a top-level span for one request of the benchmark client."""
        self.request += 1
        self._open(f"request.{name}")

    def end_request(self) -> None:
        self._close(None)

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent,
                           self.request, None])
        self._stack.append(len(self.spans) - 1)

    def _close(self, detail):
        span = self.spans[self._stack.pop()]
        span[END] = time.perf_counter()
        span[DETAIL] = detail

    def _wrap(self, name, fn):
        observed = name in OBSERVED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._close((args, kwargs, None, exc) if observed else None)
                raise
            self._close((args, kwargs, result, None) if observed else None)
            return result

        return wrapper

    def install(self) -> None:
        package = importlib.import_module("diracbound")
        modules = {layer: importlib.import_module(f"diracbound.{layer}")
                   for layer in LAYERS}
        namespaces = [package, *modules.values()]
        for layer, module in modules.items():
            names = getattr(module, "__all__", CLI_FUNCTIONS)
            for attr in names:
                fn = getattr(module, attr)
                if not (inspect.isfunction(fn)
                        and fn.__module__ == module.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._patches.append((ns, key, value))
                            setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        for ns, key, value in reversed(self._patches):
            setattr(ns, key, value)
        self._patches.clear()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def write(self, path: str) -> None:
        """Span records as JSON lines: name, start, end, parent, request."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s[:DETAIL]) + "\n")
