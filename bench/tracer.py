"""Outside-in tracer: spans around every public qelliptic function.

The tracer lives entirely in the benchmark.  ``install()`` wraps each public
function of the library modules (plus ``PrecisionSpec.context``) and rebinds
every copy of it in every ``qelliptic.*`` namespace, because ``from .x import
f`` copies bindings into the importing module.  ``uninstall()`` puts every
original binding back.

Each call becomes one span (name, layer, start, end, parent, raised,
outermost) kept in memory.  A layer is the module that defines the function.
Self time of a span is its duration minus the durations of its direct
children; busy time of a layer counts only spans with no open span of the same
layer above them, so nested calls within a layer are not counted twice.

Callables handed to the engines are wrapped as counters, not spans:
``factor_fn`` of ``prod_infinite``, ``term_fn`` of ``sum_series``,
``partial_num`` of ``eval_cf`` (forward plus backward pass) and the
``recompute`` callable of ``find_minpoly`` (timed).  One private function is
counted the same way: ``algrec._lll_reduce``, which ``find_minpoly`` calls
once per degree it tries.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from collections import Counter

LAYERS = (
    "numerics",
    "elliptic",
    "qfunctions",
    "cfrac",
    "rquantity",
    "hyperq",
    "algrec",
    "verify",
)

PACKAGE = "qelliptic"


class Tracer:
    def __init__(self) -> None:
        # One column per span field.  Columns of strings, floats and ints keep
        # the garbage collector from tracking one container per span, which
        # would slow the traced program down.
        self.name: list = []
        self.layer: list = []
        self.start: list = []
        self.end: list = []
        self.parent: list = []
        self.raised: list = []
        self.outer: list = []  # no open span of the same layer above it
        self.counts: Counter = Counter()
        self.timers: Counter = Counter()  # seconds, for callables that are not spans
        self._stack: list = []
        self._open_layers = dict.fromkeys(LAYERS, 0)
        self._patches: list = []  # (owner, attribute, original)

    # ------------------------------------------------------------ install

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and not name.startswith("_")
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[id(obj)] = (obj, self._wrap(obj, layer, name))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, hit[1])
        spec_cls = importlib.import_module(f"{PACKAGE}.numerics").PrecisionSpec
        original = spec_cls.__dict__["context"]
        self._patches.append((spec_cls, "context", original))
        spec_cls.context = self._wrap(original, "numerics", "PrecisionSpec.context")
        # find_minpoly looks _lll_reduce up as a module global once per
        # degree it tries, so counting its calls counts the degrees.
        algrec = importlib.import_module(f"{PACKAGE}.algrec")
        self._patches.append((algrec, "_lll_reduce", algrec._lll_reduce))
        algrec._lll_reduce = self.counting("algrec.degrees_tried", algrec._lll_reduce)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------ wrappers

    def _wrap(self, fn, layer: str, name: str):
        arg_wrapper = _ARG_WRAPPERS.get(name)
        names, layers, starts, ends = self.name, self.layer, self.start, self.end
        parents, raised, outer = self.parent, self.raised, self.outer
        stack = self._stack
        open_layers = self._open_layers
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if arg_wrapper is not None:
                index, key, wrap = arg_wrapper
                args, kwargs = _wrap_arg(args, kwargs, index, key, functools.partial(wrap, self))
            index = len(starts)
            names.append(name)
            layers.append(layer)
            parents.append(stack[-1] if stack else -1)
            raised.append(False)
            outer.append(open_layers[layer] == 0)
            ends.append(0.0)
            stack.append(index)
            open_layers[layer] += 1
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[index] = True
                raise
            finally:
                ends[index] = clock()
                open_layers[layer] -= 1
                stack.pop()
            return result

        return traced

    def counting(self, key: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def timed(self, key: str, fn):
        timers = self.timers
        clock = time.perf_counter

        def timed_call(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                timers[key] += clock() - start

        return timed_call

    # ------------------------------------------------------------ summary

    def __len__(self) -> int:
        return len(self.start)

    def summary(self) -> dict:
        """Per-layer calls, busy/self seconds and errors, plus per-name totals."""
        durations = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * len(durations)
        for parent, dur in zip(self.parent, durations):
            if parent >= 0:
                child[parent] += dur
        out = {layer: {"calls": 0, "busy": 0.0, "self": 0.0, "errors": 0} for layer in LAYERS}
        calls_by_name: Counter = Counter()
        seconds_by_name: Counter = Counter()
        for i, dur in enumerate(durations):
            row = out[self.layer[i]]
            row["calls"] += 1
            row["self"] += dur - child[i]
            row["errors"] += self.raised[i]
            if self.outer[i]:
                row["busy"] += dur
            calls_by_name[self.name[i]] += 1
            seconds_by_name[self.name[i]] += dur
        return {
            "layers": out,
            "calls_by_name": calls_by_name,
            "seconds_by_name": seconds_by_name,
        }

    def write_spans(self, path) -> None:
        """One JSON array per line: index, name, layer, start, end, parent, raised."""
        with gzip.open(path, "wt", encoding="ascii") as fh:
            for row in zip(range(len(self)), self.name, self.layer, self.start,
                           self.end, self.parent, self.raised):
                fh.write(json.dumps(row) + "\n")


def _wrap_arg(args, kwargs, index: int, key: str, wrap):
    """Apply `wrap` to the argument at position `index` or keyword `key`,
    when it is given and not None."""
    if len(args) > index:
        if args[index] is not None:
            args = args[:index] + (wrap(args[index]),) + args[index + 1:]
    elif kwargs.get(key) is not None:
        kwargs = dict(kwargs, **{key: wrap(kwargs[key])})
    return args, kwargs


# function name -> (position, keyword, how the tracer wraps that argument)
_ARG_WRAPPERS = {
    "prod_infinite": (0, "factor_fn", lambda t, fn: t.counting("numerics.product_factors", fn)),
    "sum_series": (0, "term_fn", lambda t, fn: t.counting("numerics.series_terms", fn)),
    "eval_cf": (0, "cf", lambda t, cf: dataclasses.replace(
        cf, partial_num=t.counting("cfrac.cf_depth", cf.partial_num))),
    "find_minpoly": (4, "recompute", lambda t, fn: t.timed("algrec.recompute", fn)),
}

