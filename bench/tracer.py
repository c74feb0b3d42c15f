"""Span wrappers for the traced run, installed from outside the package.

Every public function of every ``sturmian_spectra`` module, and every method
of the classes those modules define, is replaced by a wrapper that records a
span around the call.  The package imports names directly (``spectra`` calls
its own ``factors_of_length`` binding, not ``words.factors_of_length``), so
each wrapper replaces *every* module-level binding of the original object.

Spans nest on one stack.  A span's self time is its duration minus the time
its child spans cover.  Each span is folded into per-name totals as it ends,
so memory stays flat over millions of ``QuadReal`` calls.  The benchmark
pushes one root frame per op; the root's self time is the part of op time
that no layer span covers.
"""

from __future__ import annotations

import sys
import time
import types
from pathlib import Path

PACKAGE = "sturmian_spectra"

# module name (after the package prefix) -> layer name
LAYERS = {
    "quadreal": "quadreal",
    "_ntheory": "ntheory",
    "cf": "cf",
    "geometry": "geometry",
    "words": "words",
    "kabelian": "kabelian",
    "spectra": "spectra",
    "cli": "cli",
}

_QUADREAL_GROUPS = {
    "new": ("__init__",),
    "compare": ("compare", "__eq__", "__lt__", "__le__", "__gt__", "__ge__", "sign"),
    "arith": (
        "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
        "__rmul__", "_inverse", "__truediv__", "__rtruediv__", "__abs__",
    ),
    "floor": ("floor", "__floor__", "frac"),
    "decimal": ("decimal",),
}

# qualified name inside the package -> span name; anything not listed is
# folded into "<layer>.other".
NAMED_SPANS = {
    **{
        f"quadreal.QuadReal.{meth}": f"quadreal.{group}"
        for group, meths in _QUADREAL_GROUPS.items()
        for meth in meths
    },
    "_ntheory.squarefree_split": "ntheory.squarefree_split",
    "_ntheory.factorize": "ntheory.factorize",
    "cf.ContinuedFraction.value": "cf.value",
    "cf.ContinuedFraction.lagrange_constant": "cf.lagrange_constant",
    "cf.ContinuedFraction.convergents": "cf.convergents",
    "geometry.level_intervals": "geometry.level_intervals",
    "geometry.ikm_intervals": "geometry.ikm_intervals",
    "words.factors_of_length": "words.factors_of_length",
    "words.sturmian_prefix": "words.sturmian_prefix",
    "kabelian.signature": "kabelian.signature",
    "kabelian.classify_brute": "kabelian.classify_brute",
    "kabelian.classify_by_intervals": "kabelian.classify_by_intervals",
    "spectra.brute_kab_exponent": "spectra.brute_kab_exponent",
    "spectra.max_kab_exponent": "spectra.max_kab_exponent",
    "spectra.theta_k": "spectra.theta_k",
    "spectra.exponent_bound_check": "spectra.exponent_bound_check",
    "spectra.theta_limsup_estimate": "spectra.theta_limsup_estimate",
    "spectra.sample_spectrum": "spectra.sample_spectrum",
    "cli.main": "cli.main",
}


class Tracer:
    """Per-name span totals and counters for one traced worker process."""

    def __init__(self):
        self.stack = [0.0]  # child time accumulated under each open span
        self.totals: dict[str, list] = {}  # name -> [calls, total_s, child_s]
        self.counters = {
            "geometry.level_intervals.points": 0,
            "words.factors_of_length.misses": 0,
            "words.symbols_coded": 0,
            "spectra.oracle.capped": 0,
            "spectra.oracle.max_length": 0,
        }
        self.uncovered_s = 0.0
        self.op_s = 0.0
        self._oracle_depth = 0

    # -- op boundaries -------------------------------------------------------

    def begin_op(self) -> None:
        self.stack[:] = [0.0]

    def end_op(self, op_s: float) -> None:
        self.op_s += op_s
        self.uncovered_s += op_s - self.stack[0]

    # -- wrappers ------------------------------------------------------------

    def _stats(self, name: str) -> list:
        return self.totals.setdefault(name, [0, 0.0, 0.0])

    def span(self, name: str, fn):
        """Wrap fn so each call is a span folded into `name`'s totals."""
        stats = self._stats(name)
        stack = self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stats[0] += 1
                stats[1] += dt
                stats[2] += stack.pop()
                stack[-1] += dt

        return wrapper

    def _factors_span(self, fn):
        """factors_of_length: also count cache misses and coded symbols."""
        inner = self.span("words.factors_of_length", fn)
        counters = self.counters
        info = fn.cache_info

        def wrapper(alpha, n, *rest, **kwargs):
            before = info().misses
            try:
                return inner(alpha, n, *rest, **kwargs)
            finally:
                if info().misses != before:
                    counters["words.factors_of_length.misses"] += 1
                    counters["words.symbols_coded"] += n * (n + 1)
                if self._oracle_depth and n > counters["spectra.oracle.max_length"]:
                    counters["spectra.oracle.max_length"] = n

        wrapper.cache_info = info
        return wrapper

    def _level_span(self, fn):
        inner = self.span("geometry.level_intervals", fn)
        counters = self.counters

        def wrapper(alpha, n, *rest, **kwargs):
            counters["geometry.level_intervals.points"] += n + 1
            return inner(alpha, n, *rest, **kwargs)

        return wrapper

    def _brute_span(self, fn, capped_type):
        inner = self.span("spectra.brute_kab_exponent", fn)
        counters = self.counters

        def wrapper(*args, **kwargs):
            self._oracle_depth += 1
            try:
                return inner(*args, **kwargs)
            except capped_type:
                counters["spectra.oracle.capped"] += 1
                raise
            finally:
                self._oracle_depth -= 1

        return wrapper

    def _function_wrapper(self, qualname: str, fn, spectra_mod):
        if qualname == "words.factors_of_length":
            return self._factors_span(fn)
        if qualname == "geometry.level_intervals":
            return self._level_span(fn)
        if qualname == "spectra.brute_kab_exponent":
            return self._brute_span(fn, spectra_mod.ResourceCapExceeded)
        layer = LAYERS[qualname.split(".")[0]]
        return self.span(NAMED_SPANS.get(qualname, f"{layer}.other"), fn)

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap the loaded package in place."""
        src_dir = Path(sys.modules[PACKAGE].__file__).resolve().parent
        modules = {
            name[len(PACKAGE) + 1 :]: mod
            for name, mod in list(sys.modules.items())
            if name.startswith(PACKAGE + ".") and name[len(PACKAGE) + 1 :] in LAYERS
        }
        bindings = [sys.modules[PACKAGE], *modules.values()]
        for short, mod in modules.items():
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or not _defined_in(value, mod.__name__):
                    continue
                if isinstance(value, type):
                    self._wrap_methods(f"{short}.{attr}", value, src_dir)
                    continue
                wrapped = self._function_wrapper(
                    f"{short}.{attr}", value, modules["spectra"]
                )
                for holder in bindings:
                    for name, bound in list(vars(holder).items()):
                        if bound is value:
                            setattr(holder, name, wrapped)

    def _wrap_methods(self, qualname: str, cls: type, src_dir: Path) -> None:
        layer = LAYERS[qualname.split(".")[0]]
        for attr, value in list(vars(cls).items()):
            if attr == "__setattr__":
                continue
            fn = value.__func__ if isinstance(value, (classmethod, staticmethod)) else value
            if not isinstance(fn, types.FunctionType):
                continue  # properties, slots and data
            if not Path(fn.__code__.co_filename).resolve().is_relative_to(src_dir):
                continue  # dataclass / namedtuple generated code
            name = NAMED_SPANS.get(f"{qualname}.{attr}", f"{layer}.other")
            wrapped = self.span(name, fn)
            if isinstance(value, classmethod):
                wrapped = classmethod(wrapped)
            elif isinstance(value, staticmethod):
                wrapped = staticmethod(wrapped)
            setattr(cls, attr, wrapped)

    # -- results -----------------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS.values()}
        for name, (_, total, child) in self.totals.items():
            out[name.split(".")[0]] += total - child
        return out

    def report(self) -> dict:
        return {
            "spans": {
                name: {"calls": c, "total_s": t, "self_s": t - ch}
                for name, (c, t, ch) in sorted(self.totals.items())
            },
            "counters": dict(self.counters),
            "layer_self_s": self.layer_self_s(),
            "op_s": self.op_s,
            "uncovered_s": self.uncovered_s,
        }


def _defined_in(value, module_name: str) -> bool:
    """True for functions and classes whose home is `module_name`."""
    return callable(value) and getattr(value, "__module__", None) == module_name
