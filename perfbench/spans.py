"""Spans around the calls into each layer, recorded from outside the package.

`Tracer.install` replaces every public function of the layer modules, at
every module binding that refers to it, with a wrapper that records a
span (name, start, end, parent, outcome) while the tracer is active.
Several modules import functions by name (`partialcvx` binds `resolvent`,
`in_dom` and `r_T`; `xycvx` binds `psd_complete` and scipy's `minimize`
as `_minimize`), so a wrapper set only on the defining module would miss
those calls.  numpy factorizations are counted, not spanned, so that a
layer's self time still includes the LAPACK work it asks for.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

import numpy as np
import scipy.optimize

LAYERS = ("cli", "ncalg", "matkit", "realize", "partialcvx", "butterfly",
          "xycvx")
LINALG = ("svd", "inv", "eigh", "eigvalsh", "lstsq")
# scipy's minimize as bound in xycvx: the Gram stage's L-BFGS solver
SOLVER = "xycvx.gram.solver"


def _outcome(value):
    """What a span keeps of a return value: predicate verdicts and
    iteration counts (scipy's `nit`, or an `iterations` field)."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, dict):  # scipy.optimize.OptimizeResult
        n = value.get("nit")
    else:
        n = getattr(value, "__dict__", {}).get("iterations")
    return int(n) if isinstance(n, (int, np.integer)) else None


class Tracer:
    """Spans and numpy.linalg counts, recorded only while `active`."""

    def __init__(self):
        self.active = False
        self.spans = []        # [name, start, end, parent index, outcome]
        self.linalg = dict.fromkeys(LINALG, 0)
        self._stack = []
        self._restore = []     # (namespace, attribute, original)

    def _span(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, time.perf_counter(), 0.0,
                    self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
                span[4] = _outcome(out)
                return out
            except Exception as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
        return traced

    def _counter(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.active:
                self.linalg[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _patch(self, namespace, attr, new):
        self._restore.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, new)

    def install(self, package):
        """Wrap the public functions of every layer module of `package`."""
        modules = {m: importlib.import_module(package + "." + m)
                   for m in LAYERS + ("examples",)}
        targets = {scipy.optimize.minimize: self._span(
            SOLVER, scipy.optimize.minimize)}
        for layer in LAYERS:
            mod = modules[layer]
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    targets[fn] = self._span(layer + "." + attr, fn)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in targets:
                    self._patch(mod, attr, targets[value])
        for name in LINALG:
            self._patch(np.linalg, name,
                        self._counter(name, getattr(np.linalg, name)))

    def uninstall(self):
        while self._restore:
            namespace, attr, original = self._restore.pop()
            setattr(namespace, attr, original)

    def reset(self):
        self.spans = []
        self.linalg = dict.fromkeys(LINALG, 0)


def self_times(spans):
    """Each span's duration minus the time covered by its child spans."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out
